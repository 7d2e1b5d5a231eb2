"""Evaluation metrics: EMA smoothing, rounds-to-target, and the global
training objective (unweighted mean of per-client mean losses), evaluated
from the run's client shard groups."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError
from .models import ModelSpec, decay_term, example_losses
# Not called here: it stays importable as ``fedsim.metrics.loss``, the name
# the benchmark's traced run hooks.
from .models import loss  # noqa: F401

# The weight of the previous smoothed value in each EMA step.
EMA_DECAY = 0.9


def ema_update(prev: float | None, value: float) -> float:
    """The smoothed value after ``value``, given the previous smoothed
    value ``prev``: ``value`` itself when ``prev`` is None (the first
    value), which makes a constant series a fixed point of the recurrence."""
    if not math.isfinite(value):
        raise StructuralError(f"EMA input must be finite, got {value!r}")
    if prev is None:
        return value
    return EMA_DECAY * prev + (1.0 - EMA_DECAY) * value


@dataclass(frozen=True)
class Saturated:
    """Marker for a target never reached within the round limit."""

    limit: int

    def __str__(self) -> str:
        return f"{self.limit}+"


def rounds_to_target(smoothed, target: float, limit: int):
    """1-based index of the first smoothed value >= target, scanning at
    most ``limit`` entries; Saturated(limit) when never reached."""
    if not 0 < target < 1:
        raise StructuralError("target must lie in (0, 1)")
    for i, v in enumerate(smoothed):
        if i >= limit:
            break
        if v >= target:
            return i + 1
    return Saturated(limit)


def global_loss(spec: ModelSpec, params: np.ndarray, groups) -> float:
    """Mean over clients of the client's mean loss on its shard.

    ``groups`` are the run's shard groups (:class:`fedsim.client.ShardGroup`),
    which hold every client's shard once, already checked against ``spec``.
    Each group's per-example losses come from one
    :func:`fedsim.models.example_losses` pass over all its rows, whose gemm
    calls take at most :data:`fedsim.models.EVAL_BLOCK_ROWS` rows each;
    each client's sum starts at a fixed multiple of its group's shard
    size. ``math.fsum`` is exact, so the order of the groups does not
    change the result. With the equal-size shards the partitioners
    guarantee, this matches the plain whole-dataset loss up to reduction
    rounding.
    """
    client_means = []
    for group in groups:
        G, n = group.labels.shape
        per_example = example_losses(spec, params, group.features.reshape(G * n, -1),
                                     group.labels.reshape(G * n))
        client_means.append(np.add.reduceat(per_example, np.arange(0, G * n, n)) / n)
    client_means = np.concatenate(client_means)
    if spec.l2_weight_decay:
        client_means = client_means + decay_term(spec, params[None])[0]
    if not np.all(np.isfinite(client_means)):
        raise NumericError("loss is not finite")
    return math.fsum(client_means.tolist()) / len(client_means)
