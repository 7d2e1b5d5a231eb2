"""Local training: K steps of every sampled client, a group at a time.

Every algorithm runs the same skeleton: exactly K mini-batch SGD steps
from the received model ``init``, with per-round learning rate
``lr0 * lr_decay**round``, no local momentum, and global-norm clipping,
along ``g = a·∇f(θ) + v + c·(θ − init)``. The rule only chooses ``a``,
``v`` and ``c`` (see :mod:`fedsim.algorithms`); :func:`combine` skips a
zero term and a = 1 rather than multiplying, so the degenerate settings
stay bit-identical to fedavg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset
from .errors import NumericError, StructuralError
from .models import ModelSpec, gradient_unchecked, layer_views, param_dim, targets
from .params import sq_norms
# Not called here: they stay importable as ``fedsim.client.loss``,
# ``.axpy``, ``.gradient`` and ``.l2_norm_sq``, names the benchmark's
# traced run hooks.
from .models import gradient, loss  # noqa: F401
from .params import axpy, l2_norm_sq  # noqa: F401


# The LocalConfig fields that may be +Infinity, meaning no bound at all
# (clip_norm: no clipping); every other float field must be finite.
UNBOUNDED_FIELDS = frozenset({"clip_norm"})


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
        if not 0 < self.lr_decay <= 1:
            raise StructuralError("lr_decay must lie in (0, 1]")
        if not self.clip_norm > 0:  # +inf: no clipping
            raise StructuralError("clip_norm must be positive")
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, float) and not math.isfinite(value)
                    and not (f.name in UNBOUNDED_FIELDS and value == math.inf)):
                raise StructuralError(f"{f.name} must be a finite number")
        for name in ("lr0", "beta", "prox_mu", "dyn_alpha"):
            if not 0 <= getattr(self, name) < math.inf:
                raise StructuralError(f"{name} must be a finite nonnegative number")
        if not 0 <= self.cm_alpha <= 1:
            raise StructuralError("cm_alpha must lie in [0, 1]")

    def lr(self, round: int) -> float:
        """The local learning rate of ``round``."""
        return self.lr0 * self.lr_decay ** round


class Rows(np.ndarray):
    """The (S, d) array :func:`local_update` returns: a plain ndarray,
    subclassed only so that a profiler can re-class the result to see
    which of its attributes are read (perfbench's ``LossUse`` does), which
    a bare ndarray does not allow."""


@dataclass(frozen=True)
class ShardGroup:
    """Equal-size client shards, stacked once: ``ids`` (G,), the client id
    of each row, ascending; ``features`` (G, n, f); ``labels`` (G, n); and
    ``finite`` (G,), whether each shard's features are all finite."""

    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    finite: np.ndarray


def shard_group(dataset: Dataset, assignments, ids=None) -> ShardGroup:
    """Stack the shards ``assignments``, equal-length index arrays into
    ``dataset``, into one group whose rows belong to the clients ``ids``
    (default 0, 1, ...); the features are copied once, here."""
    if len({len(a) for a in assignments}) != 1:
        raise StructuralError("a client group needs equal-size shards")
    idx = np.stack(assignments)
    if idx.shape[1] < 1:
        raise StructuralError("client shard is empty")
    X = np.asarray(dataset.features, dtype=np.float64)[idx]
    ids = np.arange(len(idx)) if ids is None else np.asarray(ids)
    return ShardGroup(ids, X, dataset.labels[idx], np.isfinite(X).all(axis=(1, 2)))


def shard_groups(dataset: Dataset, assignments) -> list[ShardGroup]:
    """One :func:`shard_group` per shard size of ``assignments``, one
    index array per client id, in order of first appearance."""
    sizes = np.array([len(a) for a in assignments])
    groups = []
    for n in dict.fromkeys(sizes.tolist()):
        ids = np.flatnonzero(sizes == n)
        groups.append(shard_group(dataset, [assignments[i] for i in ids], ids))
    return groups


def derive_batch_size(shard_size: int, epochs: int, k: int) -> int:
    """ceil(shard_size*epochs/k), capped at the shard size: the batch size
    that spreads `epochs` passes over the shard across k iterations."""
    return max(1, min(shard_size, -(-shard_size * epochs // k)))


def combine(grad: np.ndarray, theta: np.ndarray, init: np.ndarray, a: float,
            v: np.ndarray | None, c: float) -> np.ndarray:
    """The step direction a*grad + v + c*(theta - init), in that order,
    built in place in ``grad``, which is returned. A skipped term (a = 1,
    v None, c = 0) is not computed at all."""
    if a != 1.0:
        grad *= a
    if v is not None:
        grad += v
    if c != 0.0:
        grad += c * (theta - init)
    return grad


def local_update(spec: ModelSpec, init: np.ndarray, group: ShardGroup, rows,
                 cfg: LocalConfig, round: int, rngs: list[np.random.Generator],
                 a: float = 1.0, v: np.ndarray | None = None, c: float = 0.0) -> Rows:
    """Run K local steps for the clients at ``rows`` of ``group``, all
    from the same received model ``init``, and return their models as an
    (S, d) array, one row per entry of ``rows`` in the order given.

    The clients step together as one (S, d) computation, but each row is
    bit-identical to running that client alone: every client draws its
    mini-batches from its own ``rngs`` entry, reshuffling its shard at
    every local epoch in fixed iteration order (a short final slice of an
    epoch is a partial batch). Each epoch's shuffled shards, with their
    labels as one-hot :func:`fedsim.models.targets`, are gathered once and
    each step's batch is a slice of them. Every step writes its gradient
    into one (S, d) buffer, through layer views of it and of the models
    built once per call. Each step goes along
    :func:`combine` with ``a``, ``v`` ((d,) or one row per client) and
    ``c``, and is clipped only when some row leaves the clip ball.

    The caller has validated ``group`` against ``spec`` (the engine does,
    once per run); here only ``init``'s shape is checked. Each step guards
    only the squared gradient norm that clipping needs, and the returned
    models are checked once. A client that fails keeps stepping with the
    others; afterwards the failure of the first failing row is raised,
    with the round, its client id from ``group.ids`` and the step. A row's
    non-finite features rank before its step and model failures, as they
    would stop that client before its first step.
    """
    rows = np.asarray(rows, dtype=np.intp)
    S = len(rows)
    if S < 1 or len(rngs) != S:
        raise StructuralError("a client chunk needs one rng per row")
    if init.shape != (param_dim(spec),):
        raise StructuralError(
            f"params have shape {init.shape}, spec needs ({param_dim(spec)},)")
    n = group.labels.shape[1]
    bs = min(cfg.batch_size or derive_batch_size(n, cfg.epochs, cfg.k), n)
    eta = cfg.lr(round)

    ball = min(cfg.clip_norm, np.finfo(np.float64).max)  # an overflowed norm is outside
    theta = np.tile(init, (S, 1))
    g = np.empty_like(theta)  # every step's gradient, then its update, in place
    views = (layer_views(spec, theta), layer_views(spec, g))
    first_bad_step = np.full(S, -1)
    pos = n  # the first step shuffles
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.k):
            if pos >= n:
                order = np.stack([rng.permutation(n) for rng in rngs])
                X = group.features[rows[:, None], order]
                y = targets(spec, group.labels[rows[:, None], order])
                pos = 0
            batch = slice(pos, pos + bs)
            combine(gradient_unchecked(spec, theta, X[:, batch], y[:, batch], g, views),
                    theta, init, a, v, c)
            pos += bs
            norm = np.sqrt(sq_norms(g))
            if not (norm <= ball).all():
                # some row is outside the ball or its norm is not finite
                # (under an infinite clip_norm too); rows inside the ball
                # keep g, and the max keeps their unused quotients off zero
                first_bad_step[~np.isfinite(norm) & (first_bad_step < 0)] = step
                g *= np.where(norm <= cfg.clip_norm, 1.0,
                              cfg.clip_norm / np.maximum(norm, cfg.clip_norm))[:, None]
            g *= -eta
            theta += g
        finite_rows = np.isfinite(theta).all(axis=1)
    finite_features = group.finite[rows]
    ids = group.ids[rows].tolist()
    for row in range(S):
        if not finite_features[row]:
            raise NumericError("client features contain NaN/Inf", round=round,
                               client=ids[row])
        if first_bad_step[row] >= 0:
            raise NumericError("local gradient norm is not finite", round=round,
                               client=ids[row], step=int(first_bad_step[row]))
        if not finite_rows[row]:
            raise NumericError("local model is not finite", round=round,
                               client=ids[row])
    return theta.view(Rows)
