"""The seven aggregation rules, one registry entry each.

Every rule runs the same round. The server sends its ``payload``, whose
first array is the model ``init`` the clients start from; each sampled
client takes K clipped SGD steps along ``g = a·∇f(θ) − v + c·(θ − init)``,
evaluated in that order, with the scalars ``a`` and ``c`` and the drift
correction ``v``, fixed for the round, given by the rule's ``terms``
hook, which passes its buffers as they are stored. The server folds the
returned models in as they arrive, in the order the engine steps them,
into their mean and the rule's own running sums (its ``fold``; see
:class:`fedsim.server.Round`), then applies the rule's ``step`` to the
mean. A zero term is skipped, not multiplied by zero (``0.0*x`` can be
``-0.0``), and a = 1 multiplies nothing, so each rule at its ``trivial``
setting reproduces fedavg bit for bit. A new rule is one more entry in
``REGISTRY``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError
from .params import Mean, axpy, finite_checked
from .schema import RULES
from .server import aggregate

@dataclass(frozen=True)
class Algorithm:
    """One rule. ``buffers(theta0, n_clients)`` are the only buffers its
    state holds. ``terms(state, local, ids)`` gives the ``a``, ``v`` and
    ``c`` of :func:`fedsim.client.combine` for the clients ``ids``, only
    those the rule uses (the others stay 1, None and 0).
    ``fold(sums, state, ids, rows, sent, local)`` folds each
    block of returned models, in the order they arrive, into the round's
    running ``sums`` (a dict, empty when the round starts); then
    ``step(state, mean, sums, local)`` gives the new model and the buffers
    it changed. ``check(before, sums, after)``, if set, raises on a broken
    invariant and returns the residual, whose maximum the run reports;
    ``trivial`` holds the ``local``/``server`` settings under which the
    rule is fedavg (None: there are none)."""

    step: Callable = lambda st, m, *_: (m, {})
    fold: Callable = lambda *_: None
    terms: Callable = lambda st, cfg, ids: {}
    payload: Callable = lambda st: (st.theta,)
    buffers: Callable = lambda theta0, n_clients: {}
    check: Callable | None = None
    global_lr: float = 1.0
    trivial: dict | None = field(default_factory=dict)


def _zeros(*names):
    return lambda theta0, n_clients: {k: np.zeros_like(theta0) for k in names}


def lookahead(state) -> np.ndarray:
    """fedagm's broadcast point theta - lam*delta (theta when lam = 0)."""
    lam = state.hyper.lam
    return state.theta if lam == 0.0 else axpy(-lam, state.buffers["delta"], state.theta)


def _fedagm_step(st, m, *_):
    # theta' = tau*mean + (1-tau)*bc with delta' = theta - theta', as
    # bc + tau*(mean - bc) so that returning bc is an exact fixed point;
    # tau == 1 is the plain mean, so lam = 0 is fedavg bit for bit
    tau = st.hyper.tau
    if tau == 1.0:
        theta = m
    else:
        bc = lookahead(st)
        theta = axpy(tau, m - bc, bc)
    return theta, {"delta": st.theta - theta}


def _fedagm_fold(sums, st, ids, rows, sent, local):
    # the check's mean client displacement from the broadcast point
    sums.setdefault("drift", Mean()).add(rows - sent)


def _residual(before, drift: Mean, after) -> float:
    """Max-norm residual of fedagm's momentum identity
    delta' = tau*gradbar + lam*delta, where gradbar is the negated mean
    client displacement ``drift`` from the broadcast point."""
    hy = before.hyper
    gradbar = -drift.result()
    predicted = axpy(hy.lam, before.buffers["delta"], hy.tau * gradbar)
    return float(np.max(np.abs(after.buffers["delta"] - predicted)))


@finite_checked
def momentum_residual(before, returns, after) -> float:
    """The residual of the momentum identity over the client models
    ``returns``, an (S, d) matrix, folded as one block."""
    return _residual(before, Mean().add(returns - lookahead(before)), after)


# The momentum identity's residual bound, relative to 1 + max|delta'|
RESIDUAL_REL = 1e-12


def momentum_residual_bound(after) -> float:
    return RESIDUAL_REL * (1.0 + float(np.max(np.abs(after.buffers["delta"]))))


def _fedagm_check(before, sums, after) -> float:
    residual = _residual(before, sums["drift"], after)
    if residual > momentum_residual_bound(after):
        raise NumericError(f"momentum identity violated: residual {residual:.3e}",
                           round=before.round)
    return residual


def _fedavgm_step(st, m, *_):
    hy = st.hyper
    pseudo = st.theta - m
    if hy.avgm_beta == 0.0 and hy.global_lr == 1.0:
        return m, {"avgm_buf": pseudo}
    buf = pseudo if hy.avgm_beta == 0.0 else axpy(hy.avgm_beta, st.buffers["avgm_buf"], pseudo)
    return axpy(-hy.global_lr, buf, st.theta), {"avgm_buf": buf}


def _fedadam_step(st, m, *_):
    # moment decays 0.9/0.99, no bias correction, adam_tau as the offset
    hy = st.hyper
    pseudo = st.theta - m
    m1 = axpy(0.9, st.buffers["adam_m"], (1.0 - 0.9) * pseudo)
    v1 = axpy(0.99, st.buffers["adam_v"], (1.0 - 0.99) * pseudo * pseudo)
    theta = st.theta - hy.global_lr * m1 / (np.sqrt(v1) + hy.adam_tau)
    return theta, {"adam_m": m1, "adam_v": v1}


@finite_checked
def feddyn_updated_state(h: np.ndarray, final_params: np.ndarray,
                         init: np.ndarray, dyn_alpha: float) -> np.ndarray:
    """Post-round refresh of a client's persistent drift corrector:
    h <- h - dyn_alpha*(theta_final - init)."""
    if dyn_alpha == 0.0:
        return h
    return h - dyn_alpha * (final_params - init)


def _feddyn_fold(sums, st, ids, rows, sent, local):
    # the client correctors h (one row per client) are refreshed in place,
    # h_i - dyn_alpha*(theta_i - sent) as feddyn_updated_state takes it, so
    # a round holds one copy of them; the displacements from the server
    # model, which is the model feddyn sends, are summed row by row. A
    # chunk takes one scratch of its shape: with two such temporaries live
    # at once, glibc gave both back to the system and faulted them in again
    # on every chunk (a 100-client round of d = 7,210 in chunks of 4: 3,453
    # minor faults and 9.6 ms, against 30 and 2.3 ms with one)
    alpha = local.dyn_alpha
    if alpha == 0.0:
        return
    disp = sums.get("disp")
    if disp is None:
        disp = sums["disp"] = np.zeros_like(st.theta)
    scratch = rows - sent
    for row in scratch:
        disp += row
    scratch *= alpha
    h = st.buffers["h"]
    for cid, step in zip(ids, scratch):
        h[cid] -= step


def _feddyn_step(st, m, sums, local):
    # the server corrector averages over all N clients, not only the
    # sampled ones
    alpha = local.dyn_alpha
    if alpha == 0.0:
        return m, {}
    dyn_h = st.buffers["dyn_h"] - alpha * sums["disp"] / st.buffers["h"].shape[0]
    return m - dyn_h / alpha, {"dyn_h": dyn_h}


def _fedcm_step(st, m, sums, local):
    # K*eta turns the round's displacement back into a per-step gradient
    scale = local.k * local.lr(st.round)
    if scale == 0.0:
        return m, {}
    return m, {"cm_momentum": (st.theta - m) / scale}


REGISTRY: dict[str, Algorithm] = RULES  # the schema admits its names
REGISTRY.update({
    "fedavg": Algorithm(),
    "fedprox": Algorithm(terms=lambda st, cfg, ids: {"c": cfg.prox_mu},
                         trivial={"local": {"prox_mu": 0.0}}),
    "fedavgm": Algorithm(step=_fedavgm_step, buffers=_zeros("avgm_buf"),
                         trivial={"server": {"avgm_beta": 0.0, "global_lr": 1.0}}),
    # sign-like steps on the moment ratio: no setting reduces it to fedavg
    "fedadam": Algorithm(step=_fedadam_step, buffers=_zeros("adam_m", "adam_v"),
                         global_lr=0.01, trivial=None),
    "feddyn": Algorithm(
        # the gather copies h's rows, which the fold then refreshes in place
        terms=lambda st, cfg, ids: {"c": cfg.dyn_alpha, "v": st.buffers["h"][ids]},
        step=_feddyn_step, fold=_feddyn_fold, trivial={"local": {"dyn_alpha": 0.0}},
        buffers=lambda theta0, n: {"dyn_h": np.zeros_like(theta0),
                                   "h": np.zeros((n, theta0.size))}),
    "fedcm": Algorithm(
        terms=lambda st, cfg, ids: {"a": cfg.cm_alpha, "v": (
            None if cfg.cm_alpha == 1.0 else (cfg.cm_alpha - 1.0) * st.buffers["cm_momentum"])},
        step=_fedcm_step, buffers=_zeros("cm_momentum"),
        payload=lambda st: (st.theta, st.buffers["cm_momentum"]),
        trivial={"local": {"cm_alpha": 1.0}}),
    "fedagm": Algorithm(
        terms=lambda st, cfg, ids: {"a": cfg.alpha, "c": cfg.beta}, step=_fedagm_step,
        buffers=_zeros("delta"), payload=lambda st: (lookahead(st),),
        fold=_fedagm_fold, check=_fedagm_check,
        trivial={"local": {"alpha": 1.0, "beta": 0.0}, "server": {"lam": 0.0, "tau": 1.0}}),
})

NAMES = tuple(REGISTRY)


def aggregate_fedagm(state, returns):
    """One fedagm server round over the (S, d) client models ``returns``;
    its step reads only the state and the mean."""
    return aggregate(state, Algorithm(step=_fedagm_step), returns)

