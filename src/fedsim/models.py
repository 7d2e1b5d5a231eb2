"""Small differentiable models: loss, analytic gradient, and an
independent finite-difference oracle.

Three kinds are supported:

* ``linear_regression`` — squared error ``0.5*(x.w - y)**2``; the parameter
  vector is the weight vector alone (no intercept), so a one-dimensional
  spec with a single example (x=1, y=c) realizes the scalar quadratic
  ``0.5*(theta - c)**2`` exactly.
* ``softmax_classifier`` — multinomial logistic regression.
* ``mlp`` — fully connected net with tanh hidden activations and a softmax
  cross-entropy head.

Parameter layout is layer-major, weights-then-bias per layer, with each
weight matrix stored row-major as (fan_in, fan_out). Classifier losses are
batch means, so changing the batch size does not rescale gradients, and an
optional L2 penalty ``(l2_weight_decay/2)*||params||**2`` over the full
vector (biases included) is added inside both loss and gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError
from .params import sq_norms

KINDS = ("linear_regression", "softmax_classifier", "mlp")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    output_dim: int = 1
    hidden_dims: tuple[int, ...] = ()
    l2_weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise StructuralError("input_dim and output_dim must be positive")
        if self.kind == "mlp" and not self.hidden_dims:
            raise StructuralError("mlp requires at least one hidden layer")
        if self.kind != "mlp" and self.hidden_dims:
            raise StructuralError(f"hidden_dims only apply to mlp, not {self.kind}")
        if any(not isinstance(h, int) or isinstance(h, bool) or h < 1
               for h in self.hidden_dims):
            raise StructuralError("hidden dims must be positive integers")
        if not 0 <= self.l2_weight_decay < math.inf:
            raise StructuralError("l2_weight_decay must be a finite nonnegative number")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


@dataclass(frozen=True)
class Batch:
    """A slice of examples: features (n, input_dim) and labels.

    Labels are integer class ids for classifiers and real targets for
    regression.
    """

    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]


def make_batch(features, labels) -> Batch:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise StructuralError(f"features must be a nonempty 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NumericError("batch features contain NaN/Inf")
    y = np.asarray(labels)
    if y.shape != (X.shape[0],):
        raise StructuralError(f"labels shape {y.shape} does not match {X.shape[0]} examples")
    return Batch(X, y)


def _layer_dims(spec: ModelSpec) -> list[int]:
    if spec.kind == "softmax_classifier":
        return [spec.input_dim, spec.output_dim]
    return [spec.input_dim, *spec.hidden_dims, spec.output_dim]


def param_dim(spec: ModelSpec) -> int:
    """Total parameter count; a pure function of the model description."""
    if spec.kind == "linear_regression":
        return spec.input_dim
    dims = _layer_dims(spec)
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial parameter vector.

    Linear and softmax models start at zero (for a classifier that is the
    uniform predictor). The mlp draws weights from N(0, 1/sqrt(fan_in)) to
    break hidden-unit symmetry, with zero biases.
    """
    d = param_dim(spec)
    if spec.kind != "mlp":
        return np.zeros(d)
    dims = _layer_dims(spec)
    chunks = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        chunks.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer views over an (S, d) parameter stack: W of shape
    (S, fan_in, fan_out) and b of shape (S, 1, fan_out)."""
    dims = _layer_dims(spec)
    S = params.shape[0]
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = params[:, pos:pos + fan_in * fan_out].reshape(S, fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[:, None, pos:pos + fan_out]
        pos += fan_out
        layers.append((W, b))
    return layers


def check_inputs(spec: ModelSpec, params: np.ndarray, features: np.ndarray,
                 labels: np.ndarray) -> None:
    """Structural checks against ``spec``: the shape of one parameter
    vector, the feature column count (the last axis) and, for classifiers,
    integer labels in [0, output_dim)."""
    if params.shape != (param_dim(spec),):
        raise StructuralError(
            f"params have shape {params.shape}, spec needs ({param_dim(spec)},)")
    if features.shape[-1] != spec.input_dim:
        raise StructuralError(
            f"batch features have {features.shape[-1]} columns, spec needs {spec.input_dim}")
    if spec.kind != "linear_regression":
        if (labels.dtype.kind not in "iu" or labels.min() < 0
                or labels.max() >= spec.output_dim):
            raise StructuralError("classifier labels must be integers in [0, output_dim)")


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], X: np.ndarray):
    """Return (hidden activations per layer, final logits) for features
    X of shape (S, n, input_dim)."""
    acts = [X]
    for W, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ W + b))
    W, b = layers[-1]
    return acts, acts[-1] @ W + b


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _residuals(params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear-regression residuals X.w - y, shape (S, n)."""
    return (X @ params[:, :, None])[:, :, 0] - np.asarray(y, dtype=np.float64)


def decay_term(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    """The L2 penalty ``(l2_weight_decay/2)*||params||**2`` of each row
    of an (S, d) stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * spec.l2_weight_decay * sq_norms(params)


# The kernels below take a stack of S clients: params (S, d), features
# (S, n, input_dim) and labels (S, n). Every operation acts on each client
# alone through the same BLAS call a single client would make, so row s
# of a result is bit-identical to a stack holding only client s. They are
# unchecked: the caller has validated the inputs against ``spec``.

def example_losses(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Per-example loss, decay term excluded, shape (S, n)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear_regression":
            r = _residuals(params, X, y)
            return 0.5 * (r * r)
        _, logits = _forward(_unpack(spec, params), X)
        S, n = y.shape
        return -_log_softmax(logits)[np.arange(S)[:, None], np.arange(n), y]


def gradient_unchecked(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """:func:`gradient` of each client of the stack, shape (S, d)."""
    S, n = y.shape
    if spec.kind == "linear_regression":
        with np.errstate(over="ignore", invalid="ignore"):
            r = _residuals(params, X, y)
            g = (X.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0] / n
    else:
        layers = _unpack(spec, params)
        acts, logits = _forward(layers, X)
        probs = np.exp(_log_softmax(logits))
        probs[np.arange(S)[:, None], np.arange(n), y] -= 1.0
        upstream = probs / n
        pieces = [None] * (2 * len(layers))
        for li in range(len(layers) - 1, -1, -1):
            W, _ = layers[li]
            gW = acts[li].transpose(0, 2, 1) @ upstream
            pieces[2 * li] = gW.reshape(S, -1)
            pieces[2 * li + 1] = upstream.sum(axis=1)
            if li > 0:
                upstream = (upstream @ W.transpose(0, 2, 1)) * (1.0 - acts[li] ** 2)
        g = np.concatenate(pieces, axis=1)
    if spec.l2_weight_decay:
        g += spec.l2_weight_decay * params
    return g


def loss(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean per-example loss plus the L2 decay term."""
    check_inputs(spec, params, batch.features, batch.labels)
    value = np.mean(example_losses(spec, params[None], batch.features[None],
                                   batch.labels[None]), axis=1)
    if spec.l2_weight_decay:
        value = value + decay_term(spec, params[None])
    value = float(value[0])
    if not np.isfinite(value):
        raise NumericError("loss is not finite")
    return value


def gradient(spec: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Exact analytic gradient of :func:`loss`, decay term included."""
    check_inputs(spec, params, batch.features, batch.labels)
    g = gradient_unchecked(spec, params[None], batch.features[None],
                           batch.labels[None])[0]
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient is not finite")
    return g


def fd_gradient(spec: ModelSpec, params: np.ndarray, batch: Batch,
                h: float = 1e-6) -> np.ndarray:
    """Central finite differences of :func:`loss`, coordinate by coordinate.

    An intentionally simple, slow oracle for checking :func:`gradient`.
    """
    if h <= 0:
        raise StructuralError("step h must be positive")
    out = np.empty_like(params)
    for j in range(params.size):
        bumped = params.copy()
        bumped[j] = params[j] + h
        up = loss(spec, bumped, batch)
        bumped[j] = params[j] - h
        down = loss(spec, bumped, batch)
        out[j] = (up - down) / (2.0 * h)
    return out


def accuracy(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class
    index. Structural error on a regression spec."""
    if spec.kind == "linear_regression":
        raise StructuralError("accuracy is undefined for regression models")
    check_inputs(spec, params, batch.features, batch.labels)
    _, logits = _forward(_unpack(spec, params[None]), batch.features[None])
    pred = np.argmax(logits[0], axis=1)
    return float(np.mean(pred == batch.labels))
