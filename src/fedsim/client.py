"""Local training: K steps of every sampled client, a group at a time.

Every algorithm runs the same skeleton: exactly K mini-batch SGD steps
from the received model ``init``, with per-round learning rate
``lr0 * lr_decay**round``, no local momentum, and global-norm clipping,
along ``g = a·∇f(θ) − v + c·(θ − init)``. The rule only chooses ``a``,
``v`` and ``c``, through its ``terms`` hook (see
:mod:`fedsim.algorithms`); :func:`combine` skips a
zero term and a = 1 rather than multiplying, so the degenerate settings
stay bit-identical to fedavg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericError, StructuralError
from .models import ModelSpec, gradient_unchecked, layer_views, param_dim, targets
from .params import finite_checked, sq_norms
from .schema import check_fields
# Not called here: they stay importable as ``fedsim.client.loss``,
# ``.axpy``, ``.gradient`` and ``.l2_norm_sq``, names the benchmark's
# traced run hooks.
from .models import gradient, loss  # noqa: F401
from .params import axpy, l2_norm_sq  # noqa: F401


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
        check_fields("local", self)

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
            v: np.ndarray | None, c: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """The step direction a*grad - v + c*(theta - init), in that order,
    built in place in ``grad``, which is returned; c*(theta - init) is
    built in ``scratch``, an array of ``grad``'s shape (a new one by
    default). A skipped term (a = 1, v None, c = 0) is not computed at
    all."""
    if a != 1.0:
        grad *= a
    if v is not None:
        grad -= v
    if c != 0.0:
        grad += np.multiply(c, np.subtract(theta, init, out=scratch), out=scratch)
    return grad


@finite_checked
def local_update(spec: ModelSpec, init: np.ndarray, group: ShardGroup, rows,
                 cfg: LocalConfig, round: int, rngs: list[np.random.Generator],
                 a: float = 1.0, v: np.ndarray | None = None, c: float = 0.0,
                 ws: np.ndarray | None = None) -> Rows:
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
    built once per call, and its decay and ``c`` terms into one (S, d)
    scratch, so a step makes no (S, d) temporary. The models, the
    gradient and the scratch are the first S rows of the three (R, d)
    buffers of the C-ordered float64 workspace ``ws`` (3, R, d), R >= S,
    which a caller that steps many chunks builds once and passes to each;
    without one, the call allocates its own. The returned rows are a view
    of ``ws``, valid until the next call that steps in it. Each step goes
    along :func:`combine` with ``a``, ``v`` ((d,) or one row per client,
    subtracted) and ``c``, as a rule's ``terms`` gives them, and is
    clipped only when some row leaves the clip ball.

    The caller has validated ``group`` against ``spec`` (``prepare`` does,
    once per task); here only ``init``'s shape and ``ws``'s shape, dtype
    and layout are checked. Each step guards only the squared gradient
    norm that clipping needs, and the returned models are checked once. A
    client that fails keeps stepping with the others; afterwards the
    failure of the first failing row is raised, with the round, its client
    id from ``group.ids`` and the step. A row's non-finite features rank
    before its step and model failures, as they would stop that client
    before its first step.
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
    # the models; every step's gradient, then its update, in place; the
    # decay term, then c*(theta - init)
    if ws is None:
        # the returned rows keep no gradient or scratch alive
        theta, (g, scratch) = np.empty((S, init.size)), np.empty((2, S, init.size))
    elif ws.dtype != np.float64 or ws.ndim != 3 or ws.shape[0] != 3 or \
            ws.shape[1] < S or ws.shape[2] != init.size or not ws.flags.c_contiguous:
        # layer views of strided rows would be copies, stepped out of sight
        raise StructuralError(f"a workspace of shape {ws.shape} and dtype {ws.dtype} "
                              f"cannot step {S} float64 models of shape {init.shape}")
    else:
        theta, g, scratch = ws[:, :S]
    theta[:] = init
    views = (layer_views(spec, theta), layer_views(spec, g))
    sq = np.empty((S, 1, 1))  # each step's squared row norms
    first_bad_step = np.full(S, -1)
    shard_rows, order = np.arange(n), np.empty((S, n), dtype=np.intp)  # each epoch's shuffle
    pos = n  # the first step shuffles
    for step in range(cfg.k):
        if pos >= n:
            # the draws of rng.permutation(n), which shuffles arange(n)
            order[:] = shard_rows
            for rng, row in zip(rngs, order):
                rng.shuffle(row)
            X = group.features[rows[:, None], order]
            y = targets(spec, group.labels[rows[:, None], order])
            pos = 0
        batch = slice(pos, pos + bs)
        combine(gradient_unchecked(spec, theta, X[:, batch], y[:, batch], g, views, scratch),
                theta, init, a, v, c, scratch)
        pos += bs
        norm = np.sqrt(sq_norms(g, out=sq))
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
