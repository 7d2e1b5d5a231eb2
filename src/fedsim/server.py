"""Server-side state and the server half of every round.

A state holds the global model, the round counter, the server
hyperparameters and only the buffers its rule declares (see
:mod:`fedsim.algorithms`). :func:`aggregate` is the server round all
rules share: the fixed-order mean of the round's (S, d) returns matrix,
then the rule's post-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, StructuralError
from .params import mean
# Not called here: it stays importable as ``fedsim.server.axpy``, a name
# the benchmark's traced run hooks.
from .params import axpy  # noqa: F401


@dataclass(frozen=True)
class ServerHyper:
    tau: float = 1.0
    lam: float = 0.85
    global_lr: float = 1.0
    avgm_beta: float = 0.6
    adam_tau: float = 0.001

    def __post_init__(self):
        if not 0 < self.tau <= 1:
            raise StructuralError("tau must lie in (0, 1]")
        if not 0 <= self.lam < 1:
            raise StructuralError("lam must lie in [0, 1)")
        if not 0 < self.global_lr < math.inf:
            raise StructuralError("global_lr must be a finite positive number")
        if not 0 <= self.avgm_beta < 1:
            raise StructuralError("avgm_beta must lie in [0, 1)")
        if not 0 < self.adam_tau < math.inf:
            raise StructuralError("adam_tau must be a finite positive number")


@dataclass(frozen=True)
class ServerState:
    theta: np.ndarray
    round: int
    hyper: ServerHyper
    buffers: dict


def init_state(theta0: np.ndarray, hyper: ServerHyper, **buffers) -> ServerState:
    return ServerState(theta=theta0, round=0, hyper=hyper, buffers=buffers)


def aggregate(state: ServerState, step, returns: np.ndarray, ids=(), sent=None,
              local=None) -> ServerState:
    """One server round over the client models ``returns``, an (S, d)
    matrix with a row per client, ids ascending.
    ``step(state, mean, returns, ids, sent, local)`` gives the new model
    and the buffers it changed; ``sent`` is the model the clients started
    from. A model that is not finite, or whose squared norm overflows,
    ends the run with its round."""
    if returns.shape[1:] != state.theta.shape:  # mean rejects an empty stack
        raise StructuralError(f"client returns of shape {returns.shape} are not "
                              f"a stack of models of shape {state.theta.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            theta, changed = step(state, mean(returns), returns, ids, sent, local)
        except NumericError as exc:
            raise NumericError(exc.base_message, round=state.round) from None
        if not np.isfinite(np.dot(theta, theta)):
            raise NumericError("server model is not finite", round=state.round)
    return replace(state, theta=theta, round=state.round + 1,
                   buffers={**state.buffers, **changed})
