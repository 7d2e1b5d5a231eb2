"""Reference oracles: plain, fully checked versions of what the package
computes in fused form, for the tests to compare against."""

import math
from dataclasses import replace

import numpy as np

from fedsim.algorithms import REGISTRY, feddyn_updated_state, lookahead
from fedsim.client import combine
from fedsim.data import synthetic_split
from fedsim.errors import NumericError
from fedsim.models import gradient
from fedsim.params import axpy, l2_norm_sq


def clip_by_norm(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``g`` onto the clip ball; returned unchanged when inside."""
    norm = math.sqrt(l2_norm_sq(g))
    if norm <= clip_norm:
        return g
    return (clip_norm / norm) * g


def local_gradient_fedagm(spec, params, batch, broadcast, cfg) -> np.ndarray:
    """fedagm's local gradient alpha*grad_f(params) + beta*(params - broadcast),
    with alpha and beta as ``REGISTRY["fedagm"]`` reads them from ``cfg``."""
    terms = REGISTRY["fedagm"].terms(None, cfg, [])
    g = combine(gradient(spec, params, batch), params, broadcast, terms["a"], None, terms["c"])
    if not np.all(np.isfinite(g)):
        raise NumericError("local gradient is not finite")
    return g


def partition_dirichlet_by_deal(dataset, N: int, concentration: float, seed: int) -> tuple:
    """:func:`fedsim.data.partition_dirichlet` as a plain loop: each class's
    shuffled examples are dealt to the clients one slice and one list
    ``extend`` at a time, then rebalanced. Inputs are not checked."""
    rng = np.random.default_rng(seed)
    C = dataset.class_count
    ratios = rng.dirichlet(np.full(C, concentration), size=N)

    parts: list[list[int]] = [[] for _ in range(N)]
    for c in range(C):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        col = ratios[:, c].copy()
        total = col.sum()
        if total <= 0.0:
            col[:] = 1.0
            total = float(N)
        quota = col / total * idx.size
        counts = np.floor(quota).astype(np.int64)
        # largest remainders get the leftover examples; ties to low client id
        leftovers = idx.size - int(counts.sum())
        order = np.lexsort((np.arange(N), -(quota - counts)))
        counts[order[:leftovers]] += 1
        pos = 0
        for i in range(N):
            parts[i].extend(idx[pos:pos + counts[i]].tolist())
            pos += counts[i]

    lo = dataset.n // N
    sizes = [len(p) for p in parts]
    # the n % N largest shards keep the ceil size; everyone else gets floor
    by_size = sorted(range(N), key=lambda i: (-sizes[i], i))
    targets = [lo] * N
    for i in by_size[:dataset.n - lo * N]:
        targets[i] += 1
    donors = sorted((i for i in range(N) if sizes[i] > targets[i]),
                    key=lambda i: (targets[i] - sizes[i], i))
    receivers = sorted((i for i in range(N) if sizes[i] < targets[i]),
                       key=lambda i: (sizes[i] - targets[i], i))
    # Each donor sheds contiguous runs of its currently most-populous class
    # into one receiver at a time, so receivers stay nearly as label-skewed
    # as organic shards.
    donor_lists: dict[int, list[list[int]]] = {}
    di = 0
    for rec in receivers:
        while sizes[rec] < targets[rec]:
            d = donors[di]
            if sizes[d] <= targets[d]:
                di += 1
                continue
            if d not in donor_lists:
                lists = [[] for _ in range(C)]
                for ix in parts[d]:
                    lists[int(dataset.labels[ix])].append(ix)
                donor_lists[d] = lists
            lists = donor_lists[d]
            donor_class = max(range(C), key=lambda c: (len(lists[c]), -c))
            parts[rec].append(lists[donor_class].pop())
            sizes[d] -= 1
            sizes[rec] += 1
    for d, lists in donor_lists.items():
        parts[d] = [ix for sub in lists for ix in sub]
    return tuple(np.array(sorted(p), dtype=np.int64) for p in parts)


def generate_synthetic(seed: int, clusters: int, per_class: int, input_dim: int,
                       spread: float):
    """The one set of :func:`fedsim.data.synthetic_split` with ``per_class``
    training examples of each class and no test examples."""
    return synthetic_split(seed, clusters, per_class, 0, input_dim, spread)[0]


def take_per_class_by_scan(dataset, count_per_class: int) -> tuple:
    """The index lists of the first ``count_per_class`` examples of every
    class and of the rest, from one scan over the labels that counts each
    class as it goes: how :func:`fedsim.data.synthetic_split` cuts the one
    set that :func:`generate_synthetic` draws."""
    first, second = [], []
    taken = np.zeros(dataset.class_count, dtype=np.int64)
    for i, c in enumerate(dataset.labels):
        if taken[c] < count_per_class:
            first.append(i)
            taken[c] += 1
        else:
            second.append(i)
    return first, second


def mean_by_rows(stack: np.ndarray) -> np.ndarray:
    """The row mean of an (S, d) matrix as the server took it while a round
    stacked its client models: a zero vector, plus each row's deviation
    from the first row, top to bottom, divided by S, plus the first row.
    Inputs and results are not checked."""
    base = stack[0]
    out = np.zeros_like(base)
    dev = np.empty_like(base)
    for row in stack[1:]:
        out += np.subtract(row, base, out=dev)
    out /= len(stack)
    out += base
    return out


def feddyn_step_by_rows(st, m, returns, ids, sent, local):
    """feddyn's server step over the (S, d) matrix ``returns``, one client
    at a time: each corrector ``h[cid]`` is refreshed in place and each
    displacement ``row - theta`` added to a zero vector, in row order."""
    alpha = local.dyn_alpha
    if alpha == 0.0:
        return m, {}
    h = st.buffers["h"]
    disp = np.zeros_like(st.theta)
    for cid, r in zip(ids, returns):
        h[cid] = feddyn_updated_state(h[cid], r, sent, alpha)
        disp += r - st.theta
    dyn_h = st.buffers["dyn_h"] - alpha * disp / h.shape[0]
    return m - dyn_h / alpha, {"dyn_h": dyn_h}


def momentum_residual_by_rows(before, returns, after) -> float:
    """fedagm's momentum-identity residual over the (S, d) matrix
    ``returns``, with the mean client displacement taken as
    ``mean_by_rows(returns - bc)``."""
    hy = before.hyper
    gradbar = -mean_by_rows(returns - lookahead(before))
    predicted = axpy(hy.lam, before.buffers["delta"], hy.tau * gradbar)
    return float(np.max(np.abs(after.buffers["delta"] - predicted)))


def server_round_by_rows(state, name, returns, ids, sent, local):
    """One server round of rule ``name`` over the (S, d) matrix ``returns``
    of the clients ``ids``, with the matrix code above; the new model is
    not checked."""
    m = mean_by_rows(returns)
    if name == "feddyn":
        theta, changed = feddyn_step_by_rows(state, m, returns, ids, sent, local)
    else:
        theta, changed = REGISTRY[name].step(state, m, {}, local)
    return replace(state, theta=theta, round=state.round + 1,
                   buffers={**state.buffers, **changed})
