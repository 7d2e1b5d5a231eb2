"""One client's local training pass.

Every algorithm runs the same skeleton — exactly K mini-batch SGD steps
from the received initialization, with per-round learning rate
``lr0 * lr_decay**round``, no local momentum, and global-norm clipping —
and differs only in the gradient rule:

* fedavg / fedavgm / fedadam: plain loss gradient.
* fedagm:  alpha*grad + beta*(theta - broadcast), the penalized local
  objective around the accelerated broadcast point.
* fedprox: grad + prox_mu*(theta - init).
* feddyn:  grad - h_i + dyn_alpha*(theta - init) with persistent per-client
  state h_i (held by the engine, updated via :func:`feddyn_updated_state`).
* fedcm:   cm_alpha*grad + (1-cm_alpha)*m with the server-provided
  momentum m (the extra downlink).

Vanishing-coefficient terms are skipped outright rather than multiplied
by zero: IEEE arithmetic turns 0.0*x into a possible -0.0 and would break
the bit-identical degeneration guarantees (fedagm with beta=0, fedprox
with mu=0, fedcm with cm_alpha=1 must reproduce fedavg exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericError, StructuralError
from .models import (Batch, ModelSpec, check_inputs, gradient, gradient_unchecked,
                     loss_unchecked)
from .params import l2_norm_sq
# Not called here: they stay importable as ``fedsim.client.loss`` and
# ``fedsim.client.axpy``, names the benchmark's traced run hooks.
from .models import loss  # noqa: F401
from .params import axpy  # noqa: F401

RULES = ("fedavg", "fedprox", "fedavgm", "fedadam", "feddyn", "fedcm", "fedagm")


@dataclass(frozen=True)
class LocalConfig:
    k: int = 50
    batch_size: int | None = None
    epochs: int = 5
    lr0: float = 0.1
    lr_decay: float = 1.0
    clip_norm: float = 10.0
    alpha: float = 1.0
    beta: float = 0.01
    prox_mu: float = 0.0
    cm_alpha: float = 0.1
    dyn_alpha: float = 0.01

    def __post_init__(self):
        if self.k < 1:
            raise StructuralError("k must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise StructuralError("batch_size must be positive when set")
        if self.epochs < 1:
            raise StructuralError("epochs must be positive")
        if self.lr0 < 0:
            raise StructuralError("lr0 must be nonnegative")
        if not 0 < self.lr_decay <= 1:
            raise StructuralError("lr_decay must lie in (0, 1]")
        if self.clip_norm <= 0:
            raise StructuralError("clip_norm must be positive")
        if self.beta < 0 or self.prox_mu < 0 or self.dyn_alpha < 0:
            raise StructuralError("penalty weights must be nonnegative")
        if not 0 <= self.cm_alpha <= 1:
            raise StructuralError("cm_alpha must lie in [0, 1]")


@dataclass(frozen=True)
class ClientResult:
    final_params: np.ndarray
    local_steps_taken: int
    train_loss_last: float
    bytes_up: int


def derive_batch_size(shard_size: int, epochs: int, k: int) -> int:
    """ceil(shard_size*epochs/k), capped at the shard size: the batch size
    that spreads `epochs` passes over the shard across k iterations."""
    return max(1, min(shard_size, -(-shard_size * epochs // k)))


def _scale_onto_ball(g: np.ndarray, norm: float, clip_norm: float) -> np.ndarray:
    if norm <= clip_norm:
        return g
    return (clip_norm / norm) * g


def clip_by_norm(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``g`` onto the clip ball; returned unchanged when inside."""
    return _scale_onto_ball(g, math.sqrt(l2_norm_sq(g)), clip_norm)


def _rule_gradient(rule: str, grad: np.ndarray, theta: np.ndarray,
                   init: np.ndarray, cfg: LocalConfig, aux) -> np.ndarray:
    """Combine the loss gradient ``grad`` at ``theta`` with the rule's
    terms; ``init`` is the round's received model."""
    if rule == "fedagm":
        g = cfg.alpha * grad
        if cfg.beta != 0.0:
            g = g + cfg.beta * (theta - init)
        return g
    if rule == "fedprox":
        if cfg.prox_mu != 0.0:
            return grad + cfg.prox_mu * (theta - init)
        return grad
    if rule == "feddyn":
        g = grad
        if aux is not None:
            g = g - aux
        if cfg.dyn_alpha != 0.0:
            g = g + cfg.dyn_alpha * (theta - init)
        return g
    if rule == "fedcm" and cfg.cm_alpha != 1.0:
        return cfg.cm_alpha * grad + (1.0 - cfg.cm_alpha) * aux
    return grad


def local_gradient_fedagm(spec: ModelSpec, params: np.ndarray, batch,
                          broadcast: np.ndarray, cfg: LocalConfig) -> np.ndarray:
    """Gradient of the penalized local objective:
    alpha*grad_f(params) + beta*(params - broadcast)."""
    g = _rule_gradient("fedagm", gradient(spec, params, batch), params, broadcast,
                       cfg, None)
    if not np.all(np.isfinite(g)):
        raise NumericError("local gradient is not finite")
    return g


def local_update(spec: ModelSpec, init: np.ndarray, shard: Dataset,
                 cfg: LocalConfig, round: int, rng: np.random.Generator,
                 rule: str, aux: np.ndarray | None = None) -> ClientResult:
    """Run K local steps and return the resulting model.

    Mini-batches come from reshuffling the shard with ``rng`` at every
    local epoch, in fixed iteration order; a short final slice of an epoch
    is used as a partial batch. The inputs are validated once, here; each
    step then guards only the squared gradient norm that clipping needs,
    and the returned model is checked once. Numeric failures abort with
    the round and, where known, the offending step attached.
    """
    if shard.n < 1:
        raise StructuralError("client shard is empty")
    if rule not in RULES:
        raise StructuralError(f"unknown update rule {rule!r}")
    if rule == "fedcm" and cfg.cm_alpha != 1.0 and aux is None:
        raise StructuralError("fedcm needs the server momentum as aux input")
    X = np.asarray(shard.features, dtype=np.float64)
    y = shard.labels
    check_inputs(spec, init, X, y)
    if not np.all(np.isfinite(X)):
        raise NumericError("client features contain NaN/Inf", round=round)
    bs = cfg.batch_size or derive_batch_size(shard.n, cfg.epochs, cfg.k)
    bs = min(bs, shard.n)
    eta = cfg.lr0 * cfg.lr_decay ** round

    theta = init.copy()
    order = rng.permutation(shard.n)
    pos = 0
    last_loss = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.k):
            if pos >= shard.n:
                order = rng.permutation(shard.n)
                pos = 0
            idx = order[pos:pos + bs]
            batch = Batch(X[idx], y[idx])
            pos += bs
            if step == cfg.k - 1:
                last_loss = loss_unchecked(spec, theta, batch)
            g = _rule_gradient(rule, gradient_unchecked(spec, theta, batch),
                               theta, init, cfg, aux)
            norm_sq = float(np.dot(g, g))
            if not math.isfinite(norm_sq):
                raise NumericError("local gradient norm is not finite",
                                   round=round, step=step)
            g = _scale_onto_ball(g, math.sqrt(norm_sq), cfg.clip_norm)
            theta = -eta * g + theta
    if not np.all(np.isfinite(theta)):
        raise NumericError("local model is not finite", round=round)
    return ClientResult(final_params=theta, local_steps_taken=cfg.k,
                        train_loss_last=last_loss, bytes_up=8 * init.size)


def feddyn_updated_state(h: np.ndarray, final_params: np.ndarray,
                         init: np.ndarray, dyn_alpha: float) -> np.ndarray:
    """Post-round refresh of a client's persistent drift corrector:
    h <- h - dyn_alpha*(theta_final - init)."""
    if dyn_alpha == 0.0:
        return h
    return h - dyn_alpha * (final_params - init)
