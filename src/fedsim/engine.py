"""Round orchestration: sample participants, run their local updates,
aggregate, meter communication, and log per-round metrics.

One loop serves every rule; what differs comes from the rule's entry in
:data:`fedsim.algorithms.REGISTRY`. A round's returns are one (S, d)
matrix, a row per sampled client in ascending id order, released before
the next round starts. The downlink is metered from the payload, the
uplink from that matrix.

The client data is built once per run: the training set is checked
against the model, and the shards of each shard size (the partitioners
allow at most two) are stacked into one :class:`fedsim.client.ShardGroup`
with each client's finiteness flag. These groups are the only copy of
the training features the clients read; a round's local updates take
row indices into them.

Reproducibility contract: every random stream is derived from the run
seed — model init from (seed, 0), the round sampler from (seed, 1, round),
each client from (seed, 2, round, client id). Sampled clients of one
shard group step together in chunks capped at ``STACK_BYTES`` of
parameters, bit-identical to running them one at a time, and each chunk
is written to its clients' rows, so the aggregate folds them in
ascending id order and outputs are byte-identical for a fixed config. A
numeric failure is raised after every chunk of its round has run, for
the lowest failing client id at its first failing step, as
one-at-a-time execution would report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import REGISTRY
from .client import LocalConfig, local_update, shard_group
from .data import Dataset, partition_dirichlet, partition_iid
from .errors import NumericError, StructuralError
from .metrics import EmaSeries, ema_update, global_loss
from .models import ModelSpec, accuracy, check_inputs, init_params
from .server import ServerHyper, ServerState, aggregate, init_state
# Not called here: names the benchmark's traced run hooks (engine.broadcast,
# .aggregate_fedagm, .aggregate_baseline, .momentum_residual, .feddyn_updated_state).
from .algorithms import (aggregate_fedagm, feddyn_updated_state,  # noqa: F401
                         lookahead as broadcast, momentum_residual)
from .server import aggregate as aggregate_baseline  # noqa: F401

# Byte cap on the (S, d) parameter stack of one local_update call; it sets
# how many clients step together. Larger chunks cut per-step dispatch but
# grow every (S, d) and (S, bs, width) temporary of the step with them.
# The value comes from a perfbench sweep on cross_silo (d = 7,210; 2 vCPU,
# one BLAS thread): 128, 256 and 512 KiB read run_s 0.71, 0.64 and 0.63 s
# and peak RSS 51.5, 52.4 and 54.3 MB, against 51.6 MB before the shard
# groups. 512 KiB is faster still but breaks the benchmark's 5% RSS bound.
STACK_BYTES = 256 * 1024


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
        if self.algorithm not in REGISTRY:
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
        if self.partition_kind == "dirichlet" and not 0 < self.concentration < math.inf:
            raise StructuralError("partition.concentration must be a finite "
                                  "positive number")
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


@dataclass
class RunResult:
    records: list
    final_state: ServerState
    max_momentum_residual: float | None   # None: the rule has no check


def sample_clients(N: int, participation: float, round: int, seed: int) -> list[int]:
    """Uniform sample without replacement of max(1, round(participation*N))
    ids, sorted ascending; deterministic under (seed, round)."""
    size = max(1, int(math.floor(participation * N + 0.5)))
    rng = np.random.default_rng([seed, 1, round])
    return sorted(int(i) for i in rng.permutation(N)[:size])


def _client_chunks(ids: list[int], place: list[tuple[int, int]], rows: int):
    """Split the positions into the sampled ``ids`` by shard group (the
    size in ``place[cid] = (shard size, row in its group)``), each cut
    into chunks of at most ``rows`` clients, positions ascending in each;
    yields (shard size, positions, group rows)."""
    groups: dict[int, list[int]] = {}
    for pos, cid in enumerate(ids):
        groups.setdefault(place[cid][0], []).append(pos)
    for n, members in groups.items():
        for lo in range(0, len(members), rows):
            chunk = members[lo:lo + rows]
            yield n, chunk, [place[ids[p]][1] for p in chunk]


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
    spec, cfg = config.model, config.local
    algo = REGISTRY[config.algorithm]
    if config.partition_kind == "dirichlet":
        partition = partition_dirichlet(dataset, config.n_clients,
                                        config.concentration, config.seed)
    else:
        partition = partition_iid(dataset, config.n_clients, config.seed)
    classifier = spec.kind != "linear_regression"
    test_batch = test_set.to_batch() if classifier else None

    theta0 = init_params(spec, np.random.default_rng([config.seed, 0]))
    check_inputs(spec, theta0, dataset.features, dataset.labels)
    by_size: dict[int, list[np.ndarray]] = {}
    place = []  # client id -> (shard size, row in that size's group)
    for a in partition.assignments:
        shards = by_size.setdefault(len(a), [])
        place.append((len(a), len(shards)))
        shards.append(a)
    groups = {n: shard_group(dataset, shards) for n, shards in by_size.items()}
    state = init_state(theta0, config.server, **algo.buffers(theta0, config.n_clients))
    rows_per_chunk = max(1, STACK_BYTES // (8 * theta0.size))
    ema = EmaSeries()
    records: list[RoundRecord] = []
    acc_down = acc_up = 0
    max_residual = None if algo.check is None else 0.0
    for t in range(config.rounds):
        ids = sample_clients(config.n_clients, config.participation, t, config.seed)
        payload = algo.payload(state)

        returns, failure = np.empty((len(ids), theta0.size)), None
        for n, pos, rows in _client_chunks(ids, place, rows_per_chunk):
            chunk = [ids[p] for p in pos]
            rngs = [np.random.default_rng([config.seed, 2, t, cid]) for cid in chunk]
            try:
                returns[pos] = local_update(spec, payload[0], groups[n], rows, cfg, t,
                                            rngs, ids=chunk,
                                            **algo.terms(state, cfg, chunk))
            except NumericError as exc:
                if failure is None or exc.client < failure.client:
                    failure = exc
        if failure is not None:
            raise failure

        before, state = state, aggregate(state, algo.step, returns, ids, payload[0], cfg)
        if algo.check is not None:
            max_residual = max(max_residual, algo.check(before, returns, state))
        acc_down += len(ids) * 8 * sum(p.size for p in payload)
        acc_up += returns.nbytes
        del returns, before  # no client model of round t lives into round t+1

        if (t + 1) % config.eval_every == 0:
            try:
                train_loss = global_loss(spec, state.theta, partition, dataset)
            except NumericError as exc:
                raise NumericError(exc.base_message, round=t) from None
            if classifier:
                acc = accuracy(spec, state.theta, test_batch)
                ema = ema_update(ema, acc)
                ema_val = ema.last
            else:
                acc = ema_val = math.nan
            record = RoundRecord(
                round=t + 1, sampled_clients=tuple(ids), train_loss=train_loss,
                test_accuracy=acc, ema_accuracy=ema_val,
                bytes_down=acc_down, bytes_up=acc_up)
            acc_down = acc_up = 0
            records.append(record)
            if on_record is not None:
                on_record(record)
    return RunResult(records=records, final_state=state, max_momentum_residual=max_residual)
