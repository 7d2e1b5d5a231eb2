"""Round orchestration: sample participants, run their local updates,
aggregate, meter communication, and log per-round metrics.

One loop serves every rule; what differs comes from the rule's entry in
:data:`fedsim.algorithms.REGISTRY`. A round never holds all of its
client models: every chunk of a round steps in buffers of its own, and
the models it returns are folded into the server's
:class:`fedsim.server.Round` at once, so a round's memory is one chunk's
three buffers, not S·d. Nothing of round t, neither a client model nor
the state before it, lives into round t+1.
The downlink is metered from the payload, the uplink as one model per
sampled client.

The client data is built once per invocation, by :func:`prepare`, into
a :class:`Task` that every run over the same partition reads: the
training set is partitioned and checked against the model, and the
shards of each shard size (the partitioners allow at most two) are
stacked into one :class:`fedsim.client.ShardGroup` with each row's
client id; a NaN or Inf feature or label fails there, naming its
client. These groups are the only record of which client owns which
row, and the only copy of the training features that the clients and
the evaluation read (the CLI drops the ungrouped set before round 0):
a round's local updates take the rows of its sampled ids, and the
training loss is evaluated from them, :data:`fedsim.models.EVAL_BLOCK_ROWS`
rows at a time through every layer, so an evaluation holds one block of
the model's widest layers and the (C, rows) logits of its head, whatever
the widths. The test accuracy stays one unblocked pass (see
:func:`fedsim.models.accuracy`).

Reproducibility contract: every random stream is derived from the run
seed — model init from (seed, 0), the round sampler from (seed, 1, round),
each client from (seed, 2, round, client id) — as the stream of
``np.random.default_rng`` on that key. The client streams are not built
one generator at a time: the rounds are sampled ``STREAM_BLOCK``
client-rounds at a time, :func:`fedsim.streams.client_states` runs
numpy's seeding arithmetic over the whole block at once, and one pool of
generators is re-seated with those states chunk by chunk, so each client
draws exactly what its own ``default_rng`` would. Sampled clients of one
shard group step together in chunks capped at ``STACK_BYTES`` of
parameters, bit-identical to running them one at a time. The round
folds their models group by group, in the order of ``Task.groups`` (the
group of client 0 first), ascending within a group, whatever
``STACK_BYTES`` is, so outputs are byte-identical for a fixed config. A
numeric failure aborts the round at once, naming the first failing
client in fold order, at its first failing step, as one-at-a-time
execution in that order would report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import REGISTRY
from .client import LocalConfig, local_update, shard_groups
from .data import Dataset, partition_dirichlet, partition_iid
from .errors import NumericError, StructuralError
from .metrics import ema_update, global_loss
from .models import Batch, ModelSpec, accuracy, check_inputs, init_params
from .params import finite_checked
from .schema import check
from .server import Round, ServerHyper, ServerState, init_state
from .streams import client_states
# Not called here: names the benchmark's traced run hooks (engine.broadcast,
# .aggregate_fedagm, .aggregate_baseline, .momentum_residual, .feddyn_updated_state).
from .algorithms import (aggregate_fedagm, feddyn_updated_state,  # noqa: F401
                         lookahead as broadcast, momentum_residual)
from .server import aggregate as aggregate_baseline  # noqa: F401

# Byte cap on the (S, d) parameter stack of one local_update call; it sets
# how many clients step together. Larger chunks cut per-call and per-step
# dispatch but grow the chunk's three (S, d) buffers and every
# (S, bs, width) temporary of the step with them. The value comes from a
# perfbench sweep of cross_silo (d = 7,210, so 4, 6, 9 and 13 clients a
# chunk; seed 11, 5 alternating runs each; 2-vCPU Xeon, one BLAS thread):
# 256, 384, 512 and 768 KiB read run_s medians 0.667, 0.649, 0.685 and
# 0.680 s and peak RSS 45.9, 46.2, 47.0 and 48.0 MB. The traced peak of a
# two-round run beyond the rule's buffers (tests/test_engine.py, bound
# 3 MiB; numpy 2.4.6) read 2.43-2.48, 2.52-2.92, 3.10-3.66 and 3.87-4.65
# MiB over fedavg, feddyn, fedagm and fedcm, so larger chunks buy no time
# and break that bound.
STACK_BYTES = 384 * 1024

# Client-rounds whose streams one client_states pass seeds (at least one
# round's worth). Per row a pass costs 45 µs at 10 rows, 5.7 µs at 100,
# 2.4 µs at 510 and 1.4 µs at 2,000, against 25 µs for one default_rng
# (2-vCPU Xeon VM, numpy 2.4.6), so a pass per round would not pay on
# cross_device (10 clients a round). A perfbench sweep of 16, 64, 256,
# 512 and 2,048 read cross_device round_ms_p50 2.51, 1.90, 1.92, 1.92 and
# 1.81 ms, and cross_silo peak RSS 52.1-52.3 MB up to 512 but 53.0 MB at
# 2,048, where one block holds all 2,000 states of a run.
STREAM_BLOCK = 512


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    model: ModelSpec
    n_clients: int
    rounds: int
    participation: float = 1.0
    seed: int = 0
    eval_every: int = 1
    partition_kind: str = "iid"
    concentration: float = 0.3
    local: LocalConfig = field(default_factory=LocalConfig)
    server: ServerHyper = field(default_factory=ServerHyper)

    def __post_init__(self):
        for key, value in (("algorithm", self.algorithm), ("clients", self.n_clients),
                           ("rounds", self.rounds), ("participation", self.participation),
                           ("seed", self.seed), ("eval_every", self.eval_every),
                           ("partition.kind", self.partition_kind),
                           ("partition.concentration", self.concentration)):
            check(key, value)


@dataclass(frozen=True)
class RoundRecord:
    """One evaluated round, one row of ``rounds.csv`` in field order."""

    round: int
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


def _client_streams(config: RunConfig):
    """Yield ``(round, sampled ids, their stream states)`` for every round:
    the ids of :func:`sample_clients` and, keyed by id, the state of
    ``default_rng([seed, 2, round, id])``, sampled and seeded for about
    ``STREAM_BLOCK`` client-rounds at a time."""
    N, p, seed = config.n_clients, config.participation, config.seed
    t = 0
    while t < config.rounds:
        ids = [sample_clients(N, p, t, seed)]
        stop = min(config.rounds, t + max(1, STREAM_BLOCK // len(ids[0])))
        ids += [sample_clients(N, p, u, seed) for u in range(t + 1, stop)]
        for u, cids, states in zip(range(t, stop), ids,
                                   client_states(seed, range(t, stop), ids)):
            yield u, cids, dict(zip(cids, states))
        t = stop


@dataclass(frozen=True, eq=False)
class Task:
    """What every run over one partition reads, built once by
    :func:`prepare`: the initial model ``theta0`` (read-only, so the runs
    that share it cannot change it), the training set as its shard
    ``groups``, and the ``test_batch`` (None for a regression model). The
    other fields record what it was built for."""

    model: ModelSpec
    n_clients: int
    partition_kind: str
    concentration: float
    seed: int
    theta0: np.ndarray
    groups: tuple
    test_batch: Batch | None


# The RunConfig fields a Task is built for, named alike in both
TASK_FIELDS = ("model", "n_clients", "partition_kind", "concentration", "seed")


def prepare(config: RunConfig, train: Dataset, test: Dataset) -> Task:
    """Partition ``train`` among ``config.n_clients`` clients, check it and
    ``test`` against the model, and stack the shards into groups; the groups copy
    the training features, so the caller may drop ``train`` once this
    returns. Every run whose config agrees with ``config`` on
    :data:`TASK_FIELDS` can then share the task."""
    spec = config.model
    if config.partition_kind == "dirichlet":
        assignments = partition_dirichlet(train, config.n_clients,
                                          config.concentration, config.seed)
    else:
        assignments = partition_iid(train, config.n_clients, config.seed)
    test_batch = test.to_batch() if spec.kind != "linear_regression" else None
    theta0 = init_params(spec, np.random.default_rng([config.seed, 0]))
    theta0.flags.writeable = False
    check_inputs(spec, theta0, train.features, train.labels)
    if test_batch is not None:
        check_inputs(spec, theta0, test_batch.features, test_batch.labels)
    return Task(**{name: getattr(config, name) for name in TASK_FIELDS}, theta0=theta0,
                groups=tuple(shard_groups(train, assignments)), test_batch=test_batch)


@finite_checked
def run(config: RunConfig, task: Task, *, on_record=None) -> RunResult:
    """Execute ``config.rounds`` federated rounds on ``task``, which must
    have been prepared for a config that agrees with ``config`` on
    :data:`TASK_FIELDS`.

    A RoundRecord is appended (and passed to ``on_record``, if given) on
    every evaluated round: every ``eval_every``-th round and the last.
    Its byte counters cover all rounds since the previous record, so the
    totals telescope to every byte sent for any eval_every. For
    regression models the accuracy columns are NaN.

    Numeric failures abort with (round, client) context after every
    previously completed record has been delivered to ``on_record``.
    """
    differ = [name for name in TASK_FIELDS if getattr(config, name) != getattr(task, name)]
    if differ:
        raise StructuralError(f"the task was prepared for another {', '.join(differ)}")
    spec, cfg = config.model, config.local
    algo = REGISTRY[config.algorithm]
    theta0, groups = task.theta0, task.groups
    state = init_state(theta0, config.server, **algo.buffers(theta0, config.n_clients))
    rows_per_chunk = max(1, STACK_BYTES // (8 * theta0.size))
    ema = None  # the smoothed test accuracy
    records: list[RoundRecord] = []
    acc_down = acc_up = 0
    max_residual = None if algo.check is None else 0.0
    pool: list[np.random.Generator] = []  # re-seated for every chunk
    for t, ids, states in _client_streams(config):
        payload = algo.payload(state)

        sampled = np.zeros(config.n_clients, dtype=bool)
        sampled[ids] = True
        rnd = Round(state, algo, ids, payload[0], cfg)
        for group in groups:
            members = np.flatnonzero(sampled[group.ids])
            for lo in range(0, len(members), rows_per_chunk):
                rows = members[lo:lo + rows_per_chunk]
                chunk = group.ids[rows].tolist()
                pool += [np.random.Generator(np.random.PCG64(0))
                         for _ in range(len(chunk) - len(pool))]
                for rng, cid in zip(pool, chunk):
                    rng.bit_generator.state = states[cid]
                # a round holds one chunk of client models at a time
                rnd.add(chunk, local_update(spec, payload[0], group, rows, cfg, t,
                                            pool[:len(chunk)], **algo.terms(state, cfg, chunk)))

        before, state = state, rnd.finish()
        if algo.check is not None:
            max_residual = max(max_residual, algo.check(before, rnd.sums, state))
        acc_down += len(ids) * 8 * sum(p.size for p in payload)
        acc_up += len(ids) * 8 * theta0.size
        del rnd, before  # no client model of round t lives into round t+1

        if (t + 1) % config.eval_every == 0 or t + 1 == config.rounds:
            try:
                train_loss = global_loss(spec, state.theta, groups)
            except NumericError as exc:
                raise NumericError(exc.base_message, round=t) from None
            if task.test_batch is not None:
                acc = accuracy(spec, state.theta, task.test_batch)
                ema = ema_update(ema, acc)
            else:
                acc = ema = math.nan
            record = RoundRecord(
                round=t + 1, train_loss=train_loss,
                test_accuracy=acc, ema_accuracy=ema,
                bytes_down=acc_down, bytes_up=acc_up)
            acc_down = acc_up = 0
            records.append(record)
            if on_record is not None:
                on_record(record)
    return RunResult(records=records, final_state=state, max_momentum_residual=max_residual)
