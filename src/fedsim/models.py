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

Evaluation has one path, :func:`example_losses`, which :func:`loss` and
:func:`fedsim.metrics.global_loss` both call: one model over any number of
rows, run through every layer one block of rows at a time, with the
classifier head computed class-major, once over all the rows, equal bit
for bit to the row-major log-softmax. Training steps go through
:func:`gradient_unchecked`, which takes a stack of clients instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError
from .params import finite_checked, sq_norms
from .schema import check_fields

# The largest parameter count a spec may have: one float64 model of 2**24
# parameters is 128 MiB, and a run holds several (the server state and its
# buffers) plus the models and step buffers of a chunk of clients. A larger model
# is rejected when the spec is made, before any array of its size exists.
MAX_PARAM_DIM = 2 ** 24


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    output_dim: int = 1
    hidden_dims: tuple[int, ...] = ()
    l2_weight_decay: float = 0.0

    def __post_init__(self):
        check_fields("model", self)
        if self.kind == "linear_regression" and self.output_dim != 1:
            raise StructuralError("model.output_dim must be 1 when model.kind is linear_regression")
        if self.kind == "mlp" and not self.hidden_dims:
            raise StructuralError("model.kind mlp needs a layer in model.hidden_dims")
        if self.kind != "mlp" and self.hidden_dims:
            raise StructuralError("model.hidden_dims apply only to model.kind mlp")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if param_dim(self) > MAX_PARAM_DIM:
            raise StructuralError(f"model: the model has {param_dim(self)} parameters, "
                                  f"more than the {MAX_PARAM_DIM} allowed")


@dataclass(frozen=True)
class Batch:
    """A slice of examples: features (n, input_dim) and labels.

    Labels are integer class ids for classifiers and real targets for
    regression.
    """

    features: np.ndarray
    labels: np.ndarray


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


def layer_views(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer views over an (S, d) parameter stack: W of shape
    (S, fan_in, fan_out) and b of shape (S, 1, fan_out); none for a
    regression model. They stay valid while ``params`` is updated in
    place."""
    if spec.kind == "linear_regression":
        return []
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


@finite_checked
def decay_term(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    """The L2 penalty ``(l2_weight_decay/2)*||params||**2`` of each row
    of an (S, d) stack."""
    return 0.5 * spec.l2_weight_decay * sq_norms(params)


def targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """The form of ``labels`` (S, n) that :func:`gradient_unchecked`
    takes: for a classifier their one-hot rows (S, n, output_dim), for
    regression the labels themselves."""
    if spec.kind == "linear_regression":
        return labels
    return (labels[..., None] == np.arange(spec.output_dim)).astype(np.float64)


# Rows per block in example_losses. Evaluation reads the rows of a
# shard group, in client order rather than the training set's, so a row's
# loss must not depend on where its gemm block starts. With this OpenBLAS
# (0.3.31, one thread) a row's logits are the same bits in any block of at
# most 1,024 rows, except in a block's last (rows mod 4) rows, which a
# remainder kernel computes and which can differ in the last bit. With
# 2,000-row blocks the MLP's second-layer gemm changes the bits of most
# rows. So the constant stays 1,024, and rows may be reordered only within
# that bound. A block runs through every layer before the next starts, so
# the pass holds one block of its widest layers, not a (rows, width)
# matrix per layer; the classifier head after the last gemm runs once over
# all the rows, in (C, rows) logits.
EVAL_BLOCK_ROWS = 1024


def _pairwise_sum(E: np.ndarray) -> np.ndarray:
    """Column sums of E (C, rows), adding each column's C values in the
    order numpy's pairwise summation adds a contiguous run of C values:
    in sequence below 8; in eight running sums, combined as a tree, then
    the rest in sequence, up to 128; split at a multiple of 8 near the
    middle above that."""
    C = E.shape[0]
    if C < 8:
        s = E[0].copy()
        for row in E[1:]:
            s += row
        return s
    if C > 128:
        half = C // 2 - C // 2 % 8
        return _pairwise_sum(E[:half]) + _pairwise_sum(E[half:])
    whole = C - C % 8
    r = E[:8] if whole == 8 else E[:8].copy()
    for lo in range(8, whole, 8):
        r += E[lo:lo + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in E[whole:]:
        s += row
    return s


def class_sum(E: np.ndarray) -> np.ndarray:
    """``E.T.sum(axis=-1)`` for a class-major E (C, rows), bit for bit: the
    reduction starts from its identity 0.0, which turns a sum of -0.0
    into +0.0."""
    return 0.0 + _pairwise_sum(E)


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``-_log_softmax`` at the labels ``y`` (rows,) of class-major logits
    (C, rows), which it overwrites; equal bit for bit to the row-major
    computation. The row max takes the classes in order, as a running
    maximum would, and a max rounds nothing. The loss is
    ``-(shifted[y] - lse)``, as the full array holds it; ``lse - shifted[y]``
    would turn a loss of -0.0 into +0.0."""
    rows = logits.shape[1]
    logits -= np.maximum.reduce(logits, axis=0)
    # shifted[y[i], i], gathered by flat index
    loss = logits.ravel().take(np.arange(0, logits.size, rows)[y] + np.arange(rows))
    loss -= np.log(class_sum(np.exp(logits, out=logits)))
    return np.negative(loss, out=loss)


@finite_checked
def example_losses(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Per-example loss of the model ``params`` (d,) on features X (rows,
    input_dim) and labels y (rows,), decay term excluded, shape (rows,).
    Unchecked: the caller has validated the inputs against ``spec``.

    One block of at most :data:`EVAL_BLOCK_ROWS` rows at a time runs
    through every layer: each hidden layer's gemm, bias and in-place
    tanh, then the last gemm, whose transposed sum with the bias fills
    the block's columns of the class-major logits (C, rows) (for
    regression, the block's residuals). The classifier head then runs
    once over all the rows, so that the max, the shift, the gather, the
    exp and the class sum make no per-row reduction over the few
    classes. Beyond its result, the pass holds one block of its widest
    layers and the (C, rows) logits, never a (rows, width) matrix."""
    rows = X.shape[0]
    if spec.kind == "linear_regression":
        r = np.empty(rows)
        for lo in range(0, rows, EVAL_BLOCK_ROWS):
            block = slice(lo, lo + EVAL_BLOCK_ROWS)
            np.subtract(np.matmul(X[block], params[:, None])[:, 0], y[block], out=r[block])
        return 0.5 * (r * r)
    *hidden, (W, b) = [(W[0], b[0, 0]) for W, b in layer_views(spec, params[None])]
    logits = np.empty((spec.output_dim, rows))
    for lo in range(0, rows, EVAL_BLOCK_ROWS):
        A = X[lo:lo + EVAL_BLOCK_ROWS]
        for Wh, bh in hidden:
            A = np.matmul(A, Wh)
            A += bh
            np.tanh(A, out=A)
        np.add(np.matmul(A, W).T, b[:, None], out=logits[:, lo:lo + EVAL_BLOCK_ROWS])
    return _cross_entropy(logits, y)


# The kernels below take a stack of S clients: params (S, d), features
# (S, n, input_dim) and labels (S, n), which the gradient takes as their
# targets(). Every operation acts on each client alone through the same
# BLAS call a single client would make, so row s of a result is
# bit-identical to a stack holding only client s. They are unchecked: the
# caller has validated the inputs against ``spec``.

def gradient_unchecked(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
                       y: np.ndarray, out: np.ndarray | None = None,
                       views=None, scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`gradient` of each client of the stack, written into ``out``
    (S, d), a new array by default, which is returned. ``y`` holds the
    batch's labels in the form :func:`targets` gives. ``views`` is
    ``(layer_views(spec, params), layer_views(spec, out))``, which a
    caller that steps the same two arrays many times builds once, and
    ``scratch``, an (S, d) array the decay term is written into (a new
    one by default)."""
    n = X.shape[1]
    if out is None:
        out = np.empty_like(params)
    if spec.kind == "linear_regression":
        r = _residuals(params, X, y)
        np.divide((X.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0], n, out=out)
    else:
        layers, grads = views or (layer_views(spec, params), layer_views(spec, out))
        acts, logits = _forward(layers, X)
        upstream = np.exp(_log_softmax(logits))
        upstream -= y
        upstream /= n
        for li in range(len(layers) - 1, -1, -1):
            gW, gb = grads[li]
            np.matmul(acts[li].transpose(0, 2, 1), upstream, out=gW)
            upstream.sum(axis=1, keepdims=True, out=gb)
            if li > 0:
                W, _ = layers[li]
                upstream = (upstream @ W.transpose(0, 2, 1)) * (1.0 - acts[li] ** 2)
    if spec.l2_weight_decay:
        out += np.multiply(params, spec.l2_weight_decay, out=scratch)
    return out


@finite_checked
def loss(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean per-example loss plus the L2 decay term."""
    check_inputs(spec, params, batch.features, batch.labels)
    value = np.mean(example_losses(spec, params, batch.features, batch.labels))
    if spec.l2_weight_decay:
        value = value + decay_term(spec, params[None])[0]
    value = float(value)
    if not np.isfinite(value):
        raise NumericError("loss is not finite")
    return value


@finite_checked
def gradient(spec: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Exact analytic gradient of :func:`loss`, decay term included."""
    check_inputs(spec, params, batch.features, batch.labels)
    g = gradient_unchecked(spec, params[None], batch.features[None],
                           targets(spec, batch.labels[None]))[0]
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


@finite_checked
def accuracy(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class
    index. Structural error on a regression spec.

    The logits come from one unblocked gemm per layer over the whole test
    set: cutting a set of more than :data:`EVAL_BLOCK_ROWS` rows into
    blocks could change logit bits and flip a near-tied argmax."""
    if spec.kind == "linear_regression":
        raise StructuralError("accuracy is undefined for regression models")
    check_inputs(spec, params, batch.features, batch.labels)
    _, logits = _forward(layer_views(spec, params[None]), batch.features[None])
    pred = np.argmax(logits[0], axis=1)
    return float(np.mean(pred == batch.labels))
