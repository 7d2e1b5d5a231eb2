"""Server-side state and the server half of every round.

A state holds the global model, the round counter, the server
hyperparameters and only the buffers its rule declares (see
:mod:`fedsim.algorithms`). :class:`Round` is the server round all rules
share: it folds the client models in as they arrive, in that order, into
the fixed-order mean and the rule's own running sums, so no round holds
a matrix of all its client models, then applies the rule's post-step to
the mean. :func:`aggregate` is the same round over
one (S, d) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, StructuralError
from .params import Mean, finite_checked
from .schema import check_fields
# Not called here: they stay importable as ``fedsim.server.axpy`` and
# ``.mean``, names the benchmark's traced run hooks.
from .params import axpy, mean  # noqa: F401


@dataclass(frozen=True)
class ServerHyper:
    tau: float = 1.0
    lam: float = 0.85
    global_lr: float = 1.0
    avgm_beta: float = 0.6
    adam_tau: float = 0.001

    def __post_init__(self):
        check_fields("server", self)


@dataclass(frozen=True)
class ServerState:
    theta: np.ndarray
    round: int
    hyper: ServerHyper
    buffers: dict


def init_state(theta0: np.ndarray, hyper: ServerHyper, **buffers) -> ServerState:
    return ServerState(theta=theta0, round=0, hyper=hyper, buffers=buffers)


class Round:
    """One server round of ``rule`` from ``state``, over the models of the
    clients ``ids``, who started from the model ``sent``.

    :meth:`add` takes the models of any of the clients, a block of rows at
    a time, in any order; each client is added once. Each block is folded
    as it arrives, row by row: into the mean, then through
    ``rule.fold(sums, state, ids, rows, sent, local)`` into the rule's
    running ``sums``, so the round keeps no row, and its result depends on
    the order in which the rows arrive. :meth:`finish` gives the new state
    once every client has been added.
    """

    def __init__(self, state: ServerState, rule, ids, sent=None, local=None):
        self.state, self.rule, self.sent, self.local = state, rule, sent, local
        self.ids = list(ids)
        self.sums = {}
        self._mean = Mean()
        self._pending = set(self.ids)

    @finite_checked
    def add(self, ids, rows: np.ndarray) -> None:
        """Fold in ``rows``, the models of the clients ``ids``, in row order."""
        # a view as a base ndarray: an ndarray subclass in the mean would
        # make the next model, and every step on it, that subclass
        rows = np.asarray(rows)
        if rows.shape[1:] != self.state.theta.shape or len(rows) != len(ids):
            raise StructuralError(f"client returns of shape {rows.shape} are not a stack "
                                  f"of {len(ids)} models of shape {self.state.theta.shape}")
        block = self._pending.intersection(ids)
        if len(block) < len(ids):  # some id is outside the round, added or repeated
            for cid in ids:
                if cid not in block:
                    raise StructuralError(f"client {cid} is not in this round"
                                          if cid not in self.ids else
                                          f"client {cid} was already added")
                block.remove(cid)
        self._pending -= block
        self._mean.add(rows)
        self.rule.fold(self.sums, self.state, ids, rows, self.sent, self.local)

    @finite_checked
    def finish(self) -> ServerState:
        """The state after the round: ``rule.step(state, mean, sums,
        local)`` gives the new model and the buffers it changed. A model
        that is not finite, or whose squared norm overflows, ends the run
        with its round."""
        if self._pending:
            raise StructuralError(f"client {min(self._pending)} was never added")
        state = self.state
        try:
            theta, changed = self.rule.step(state, self._mean.result(), self.sums, self.local)
        except NumericError as exc:
            raise NumericError(exc.base_message, round=state.round) from None
        if not np.isfinite(np.dot(theta, theta)):
            raise NumericError("server model is not finite", round=state.round)
        return replace(state, theta=theta, round=state.round + 1,
                       buffers={**state.buffers, **changed})


def aggregate(state: ServerState, rule, returns: np.ndarray, ids=None, sent=None,
              local=None) -> ServerState:
    """One :class:`Round` over the client models ``returns``, an (S, d)
    matrix with a row per client, folded as one block; ``ids`` default to
    0..S-1."""
    rnd = Round(state, rule, range(len(returns)) if ids is None else ids, sent, local)
    rnd.add(rnd.ids, returns)
    return rnd.finish()
