"""Per-layer metrics computed from the spans of traced invocations.

Each metric names the hooks (see ``child.HOOKS``) its value depends on.
When a hook is missing from the program, the metric's value is ``None``
and the hook is reported; the benchmark itself does not fail. A timing
percentile over a hook with no calls on a workload reads 0, as do its
counts.
"""

from __future__ import annotations

import statistics

import numpy as np

# to_batch is a method, so it is hooked on its class, not in its callers'
# namespaces; its spans are split by their direct parent span instead.
TO_BATCH = "data.Dataset.to_batch"
CLIENT_CHILDREN = ("client.gradient", "client.loss", "client.axpy",
                   "client.l2_norm_sq", TO_BATCH)
CLI_CHILDREN = ("cli.resolve_config", "cli.build_dataset", "cli.build_run_config",
                "cli.run")
ENGINE_CHILDREN = ("engine.partition_dirichlet", "engine.partition_iid",
                   "engine.sample_clients", "engine.broadcast", "engine.local_update",
                   "engine.aggregate_fedagm", "engine.aggregate_baseline",
                   "engine.momentum_residual", "engine.feddyn_updated_state",
                   "engine.global_loss", "engine.accuracy")
AGGREGATE = ("engine.aggregate_fedagm", "engine.aggregate_baseline")
PARTITION = ("engine.partition_dirichlet", "engine.partition_iid")


class Traced:
    """Spans pooled over the traced invocations of one thread count.

    ``invocations`` holds one dict per invocation with ``spans`` (see
    ``spans.load``), ``stamps`` (the child's JSON) and ``wall`` (seconds
    from spawn to exit, span dump excluded). A ``caller`` argument keeps
    only the spans whose direct parent span has that name.
    """

    def __init__(self, invocations: list[dict]):
        self.n = len(invocations)
        self.walls = [inv["wall"] for inv in invocations]
        spans = [inv["spans"] for inv in invocations]
        self.name = np.concatenate([s["name"] for s in spans])
        self.parent = np.concatenate([s["parent"] for s in spans])
        self.dur = np.concatenate([s["end"] - s["start"] for s in spans])
        self.self_time = np.concatenate([s["self"] for s in spans])
        self.size = np.concatenate([s["size"] for s in spans])
        self.rounds = sum(len(run) for inv in invocations
                          for run in inv["stamps"]["runs"])

    def mask(self, names, caller=None) -> np.ndarray:
        found = np.isin(self.name, list(names))
        return found if caller is None else found & (self.parent == caller)

    def calls(self, *names, caller=None) -> float:
        """Calls per invocation."""
        return int(self.mask(names, caller).sum()) / self.n

    def total(self, *names) -> float:
        """Summed span time per invocation, seconds."""
        return float(self.dur[self.mask(names)].sum()) / self.n

    def self_total(self, *names) -> float:
        """Summed self time per invocation, seconds."""
        return float(self.self_time[self.mask(names)].sum()) / self.n

    def p50(self, *names, self_time: bool = False, caller=None) -> float:
        values = (self.self_time if self_time else self.dur)[self.mask(names, caller)]
        return float(np.median(values)) if values.size else 0.0

    def share(self, *names) -> float:
        """Summed span time as a share of the traced wall."""
        return self.total(*names) * self.n / sum(self.walls)


def gradient_flops(layer_dims: list[int], rows: np.ndarray) -> float:
    """FLOPs of the gradients of ``rows``-example batches, computed from
    the layer shapes: forward and weight-gradient matmuls on every layer,
    plus the backward matmul on every layer but the first."""
    mults = [a * b for a, b in zip(layer_dims[:-1], layer_dims[1:])]
    per_row = 2 * (2 * sum(mults) + sum(mults[1:]))
    return float(per_row * rows.sum())


def metrics(workload, traced: Traced, *, untraced_walls, walls_1, walls_2,
            all_traced: list[dict], missing: set) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``."""
    t = traced
    steps = workload.steps
    grad = t.mask(["client.gradient"])
    grad_self = float(t.self_time[grad].sum())
    sizes = t.size[t.mask(AGGREGATE)]
    loss_use = [inv["stamps"]["loss_use"] for inv in all_traced]
    if None in loss_use:
        missing = missing | {"engine.local_update.result"}
    loss_calls = sum(u["calls"] for u in loss_use if u)
    loss_discarded = sum(u["discarded"] for u in loss_use if u)
    global_loss_calls = t.calls("engine.global_loss")

    table = [
        ("client.local_update.calls", "count", ("engine.local_update",),
         lambda: t.calls("engine.local_update")),
        ("client.local_update.share", "ratio", ("engine.local_update",),
         lambda: t.share("engine.local_update")),
        ("client.step_us", "us", ("engine.local_update",),
         lambda: 1e6 * t.total("engine.local_update") / steps),
        ("client.self_us_per_step", "us", ("engine.local_update",) + CLIENT_CHILDREN,
         lambda: 1e6 * t.self_total("engine.local_update") / steps),
        ("client.discarded_loss_ratio", "ratio",
         ("client.loss", "engine.local_update", "engine.local_update.result"),
         lambda: loss_discarded / loss_calls if loss_calls else 0.0),
        ("client.feddyn_updated_state.self_s", "s", ("engine.feddyn_updated_state",),
         lambda: t.self_total("engine.feddyn_updated_state")),
        ("models.gradient.calls", "count", ("client.gradient",),
         lambda: t.calls("client.gradient")),
        ("models.gradient.us_p50", "us", ("client.gradient",),
         lambda: 1e6 * t.p50("client.gradient")),
        ("models.gradient.self_s", "s", ("client.gradient",),
         lambda: t.self_total("client.gradient")),
        ("models.gradient.gflops_computed", "GFLOP/s", ("client.gradient",),
         lambda: None if (t.size[grad] < 0).any() else
         gradient_flops(workload.layer_dims, t.size[grad]) / grad_self / 1e9
         if grad_self else 0.0),
        ("models.loss.calls.client", "count", ("client.loss",),
         lambda: t.calls("client.loss")),
        ("models.loss.calls.metrics", "count", ("metrics.loss",),
         lambda: t.calls("metrics.loss")),
        ("models.loss.us_p50", "us", ("client.loss", "metrics.loss"),
         lambda: 1e6 * t.p50("client.loss", "metrics.loss")),
        ("models.accuracy.us_p50", "us", ("engine.accuracy",),
         lambda: 1e6 * t.p50("engine.accuracy")),
        ("data.to_batch.calls.client", "count", (TO_BATCH, "engine.local_update"),
         lambda: t.calls(TO_BATCH, caller="engine.local_update")),
        ("data.to_batch.calls.metrics", "count", (TO_BATCH, "engine.global_loss"),
         lambda: t.calls(TO_BATCH, caller="engine.global_loss")),
        ("data.to_batch.self_us_p50.client", "us", (TO_BATCH, "engine.local_update"),
         lambda: 1e6 * t.p50(TO_BATCH, self_time=True, caller="engine.local_update")),
        ("data.partition_ms", "ms", PARTITION,
         lambda: 1e3 * t.total(*PARTITION)),
        ("cli.build_dataset_ms", "ms", ("cli.build_dataset",),
         lambda: 1e3 * t.total("cli.build_dataset")),
        ("metrics.global_loss.calls", "count", ("engine.global_loss",),
         lambda: global_loss_calls),
        ("metrics.global_loss.ms_p50", "ms", ("engine.global_loss",),
         lambda: 1e3 * t.p50("engine.global_loss")),
        ("metrics.global_loss.share", "ratio", ("engine.global_loss",),
         lambda: t.share("engine.global_loss")),
        ("metrics.loss_calls_per_eval", "count", ("metrics.loss", "engine.global_loss"),
         lambda: t.calls("metrics.loss") / global_loss_calls if global_loss_calls else 0.0),
        ("metrics.eval_share", "ratio", ("engine.global_loss", "engine.accuracy"),
         lambda: t.share("engine.global_loss", "engine.accuracy")),
        ("params.axpy.calls", "count", ("client.axpy", "server.axpy"),
         lambda: t.calls("client.axpy", "server.axpy")),
        ("params.axpy.self_s", "s", ("client.axpy", "server.axpy"),
         lambda: t.self_total("client.axpy", "server.axpy")),
        ("params.l2_norm_sq.calls", "count", ("client.l2_norm_sq",),
         lambda: t.calls("client.l2_norm_sq")),
        ("params.mean.calls", "count", ("server.mean",),
         lambda: t.calls("server.mean")),
        ("params.mean.us_p50", "us", ("server.mean",),
         lambda: 1e6 * t.p50("server.mean")),
        ("server.aggregate.us_p50", "us", AGGREGATE,
         lambda: 1e6 * t.p50(*AGGREGATE)),
        ("server.aggregate.clients", "count", AGGREGATE,
         lambda: float(np.median(sizes)) if sizes.size else 0.0),
        ("server.broadcast.us_p50", "us", ("engine.broadcast",),
         lambda: 1e6 * t.p50("engine.broadcast")),
        ("server.momentum_residual.us_p50", "us", ("engine.momentum_residual",),
         lambda: 1e6 * t.p50("engine.momentum_residual")),
        ("engine.self_ms_per_round", "ms", ("cli.run",) + ENGINE_CHILDREN,
         lambda: 1e3 * t.self_total("cli.run") * t.n / t.rounds if t.rounds else 0.0),
        ("engine.sample_clients.us_p50", "us", ("engine.sample_clients",),
         lambda: 1e6 * t.p50("engine.sample_clients")),
        ("engine.pool_speedup", "ratio", (),
         lambda: statistics.median(walls_1) / statistics.median(walls_2)),
        ("cli.self_ms", "ms", CLI_CHILDREN,
         lambda: 1e3 * t.self_total("cli.main")),
        ("trace.overhead", "ratio", (),
         lambda: statistics.median(t.walls) / statistics.median(untraced_walls)),
    ]

    out = {}
    for name, unit, hooks, value in table:
        out[name] = (None if missing.intersection(hooks) else value(), unit)
    return out
