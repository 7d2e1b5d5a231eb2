"""Evaluation metrics: EMA smoothing, rounds-to-target, and the global
training objective (unweighted mean of per-client mean losses)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, Partition
from .errors import NumericError, StructuralError
from .models import ModelSpec, check_inputs, decay_term, example_losses
# Not called here: it stays importable as ``fedsim.metrics.loss``, the name
# the benchmark's traced run hooks.
from .models import loss  # noqa: F401

# Rows per forward pass in global_loss.
EVAL_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class EmaSeries:
    """A raw series together with its running exponential moving average.

    The smoothed series initializes to the first raw value, which makes a
    constant series a fixed point of the recurrence.
    """

    raw: tuple = ()
    smoothed: tuple = ()
    decay: float = 0.9

    def __post_init__(self):
        if not 0 < self.decay < 1:
            raise StructuralError("decay must lie in (0, 1)")
        if len(self.raw) != len(self.smoothed):
            raise StructuralError("raw and smoothed series must have equal length")

    @property
    def last(self) -> float:
        return self.smoothed[-1] if self.smoothed else math.nan


def ema_update(series: EmaSeries, value: float) -> EmaSeries:
    if not math.isfinite(value):
        raise StructuralError(f"EMA input must be finite, got {value!r}")
    if series.smoothed:
        smooth = series.decay * series.smoothed[-1] + (1.0 - series.decay) * value
    else:
        smooth = value
    return replace(series, raw=series.raw + (value,),
                   smoothed=series.smoothed + (smooth,))


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


def global_loss(spec: ModelSpec, params: np.ndarray, partition: Partition,
                dataset: Dataset) -> float:
    """Mean over clients of the client's mean loss on its shard.

    With the equal-size shards the partitioners guarantee, this matches
    the plain whole-dataset loss up to reduction rounding. Per-example
    losses come from one forward pass per block of ``EVAL_BLOCK_ROWS``
    rows, which bounds the memory the pass takes on large training sets.
    """
    X = np.asarray(dataset.features, dtype=np.float64)
    check_inputs(spec, params, X, dataset.labels)
    sizes = np.array([len(a) for a in partition.assignments])
    if not sizes.all():
        raise StructuralError("global loss over an empty client shard")
    per_example = np.concatenate([
        example_losses(spec, params[None], X[None, lo:lo + EVAL_BLOCK_ROWS],
                       dataset.labels[None, lo:lo + EVAL_BLOCK_ROWS])[0]
        for lo in range(0, dataset.n, EVAL_BLOCK_ROWS)])
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    client_means = np.add.reduceat(
        per_example[np.concatenate(partition.assignments)], starts) / sizes
    if spec.l2_weight_decay:
        client_means = client_means + decay_term(spec, params[None])[0]
    if not np.all(np.isfinite(client_means)):
        raise NumericError("loss is not finite")
    return math.fsum(client_means.tolist()) / len(client_means)
