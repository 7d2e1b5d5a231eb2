"""Round orchestration: sample participants, run their local updates,
aggregate, meter communication, and log per-round metrics.

Reproducibility contract: every random stream is derived from the run
seed — model init from (seed, 0), the round sampler from (seed, 1, round),
each client from (seed, 2, round, client id) — and the sampled clients run
one after another in ascending id order, so outputs are byte-identical for
a fixed config.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .client import LocalConfig, feddyn_updated_state, local_update
from .data import Dataset, Partition, partition_dirichlet, partition_iid
from .errors import NumericError, StructuralError
from .metrics import EmaSeries, ema_update, global_loss
from .models import ModelSpec, accuracy, init_params, param_dim
from .server import (ServerHyper, ServerState, aggregate_baseline, aggregate_fedagm,
                     broadcast, momentum_residual, init_state, momentum_residual_bound)

ALGORITHMS = ("fedavg", "fedprox", "fedavgm", "fedadam", "feddyn", "fedcm", "fedagm")


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    model: ModelSpec
    n_clients: int
    rounds: int
    participation: float = 1.0
    seed: int = 0
    eval_every: int = 1
    targets: tuple = ()
    partition_kind: str = "iid"
    concentration: float = 0.3
    local: LocalConfig = field(default_factory=LocalConfig)
    server: ServerHyper = field(default_factory=ServerHyper)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise StructuralError(f"unknown algorithm {self.algorithm!r}")
        if self.n_clients < 1:
            raise StructuralError("n_clients must be positive")
        if self.rounds < 0:
            raise StructuralError("rounds must be nonnegative")
        if not 0 < self.participation <= 1:
            raise StructuralError("participation must lie in (0, 1]")
        if self.eval_every < 1:
            raise StructuralError("eval_every must be positive")
        if self.partition_kind not in ("iid", "dirichlet"):
            raise StructuralError(f"unknown partition kind {self.partition_kind!r}")
        if any(not 0 < t < 1 for t in self.targets):
            raise StructuralError("accuracy targets must lie in (0, 1)")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class RoundRecord:
    round: int
    sampled_clients: tuple
    train_loss: float
    test_accuracy: float
    ema_accuracy: float
    bytes_down: int
    bytes_up: int
    wall_ms: int


@dataclass
class RunResult:
    records: list
    final_state: ServerState
    partition: Partition
    max_momentum_residual: float


def sample_clients(N: int, participation: float, round: int, seed: int) -> list[int]:
    """Uniform sample without replacement of max(1, round(participation*N))
    ids, sorted ascending; deterministic under (seed, round)."""
    size = max(1, int(math.floor(participation * N + 0.5)))
    rng = np.random.default_rng([seed, 1, round])
    return sorted(int(i) for i in rng.permutation(N)[:size])


def run(config: RunConfig, dataset: Dataset, test_set: Dataset, *,
        on_record=None) -> RunResult:
    """Execute ``config.rounds`` federated rounds.

    A RoundRecord is appended (and passed to ``on_record``, if given) on
    every evaluated round; its byte counters cover all rounds since the
    previous record so the totals telescope for any eval_every. For
    regression models the accuracy columns are NaN.

    Numeric failures abort with (round, client) context after every
    previously completed record has been delivered to ``on_record``.
    """
    spec = config.model
    algo = config.algorithm
    d = param_dim(spec)
    if config.partition_kind == "dirichlet":
        partition = partition_dirichlet(dataset, config.n_clients,
                                        config.concentration, config.seed)
    else:
        partition = partition_iid(dataset, config.n_clients, config.seed)
    shards = [dataset.subset(a) for a in partition.assignments]
    classifier = spec.kind != "linear_regression"
    test_batch = test_set.to_batch() if classifier else None

    state = init_state(init_params(spec, np.random.default_rng([config.seed, 0])),
                       config.server)
    dyn_state: dict[int, np.ndarray] = {}
    ema = EmaSeries()
    records: list[RoundRecord] = []
    acc_down = acc_up = 0
    max_residual = 0.0
    for t in range(config.rounds):
        tic = time.perf_counter()
        ids = sample_clients(config.n_clients, config.participation, t, config.seed)
        model_out, extra_out = broadcast(state, algo)
        eta = config.local.lr0 * config.local.lr_decay ** t

        results = {}
        for cid in ids:
            if algo == "fedcm":
                aux = extra_out
            elif algo == "feddyn":
                aux = dyn_state.get(cid)
                if aux is None:
                    aux = np.zeros(d)
            else:
                aux = None
            rng = np.random.default_rng([config.seed, 2, t, cid])
            try:
                results[cid] = local_update(spec, model_out, shards[cid], config.local,
                                            t, rng, algo, aux=aux)
            except NumericError as exc:
                raise NumericError(exc.base_message, round=t, client=cid,
                                   step=exc.step) from None
        returns = [results[cid].final_params for cid in ids]

        before = state
        if algo == "fedagm":
            state = aggregate_fedagm(before, returns)
            residual = momentum_residual(before, returns, state)
            if residual > momentum_residual_bound(state):
                raise NumericError(
                    f"momentum identity violated: residual {residual:.3e}", round=t)
            max_residual = max(max_residual, residual)
        else:
            state = aggregate_baseline(
                before, returns, algo, client_count=config.n_clients,
                dyn_alpha=config.local.dyn_alpha,
                cm_step_scale=config.local.k * eta)
        if algo == "feddyn" and config.local.dyn_alpha != 0.0:
            for cid in ids:
                prev = dyn_state.get(cid)
                if prev is None:
                    prev = np.zeros(d)
                dyn_state[cid] = feddyn_updated_state(
                    prev, results[cid].final_params, model_out,
                    config.local.dyn_alpha)

        payloads = 2 if algo == "fedcm" else 1
        acc_down += payloads * len(ids) * d * 8
        acc_up += sum(results[cid].bytes_up for cid in ids)

        if (t + 1) % config.eval_every == 0:
            train_loss = global_loss(spec, state.theta, partition, dataset)
            if classifier:
                acc = accuracy(spec, state.theta, test_batch)
                ema = ema_update(ema, acc)
                ema_val = ema.last
            else:
                acc = ema_val = math.nan
            record = RoundRecord(
                round=t + 1, sampled_clients=tuple(ids), train_loss=train_loss,
                test_accuracy=acc, ema_accuracy=ema_val,
                bytes_down=acc_down, bytes_up=acc_up,
                wall_ms=int(1000 * (time.perf_counter() - tic)))
            acc_down = acc_up = 0
            records.append(record)
            if on_record is not None:
                on_record(record)
    return RunResult(records=records, final_state=state, partition=partition,
                     max_momentum_residual=max_residual)
