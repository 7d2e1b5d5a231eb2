"""Evaluation metrics: EMA smoothing, rounds-to-target, and the global
training objective (unweighted mean of per-client mean losses), evaluated
from the run's client shard groups."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, StructuralError
from .models import ModelSpec, decay_term, example_losses
from .params import finite_checked
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


def rounds_to_target(records, target: float) -> int | None:
    """The ``round`` of the first record whose ``ema_accuracy`` is at least
    ``target``, or None when no record reaches it."""
    if not 0 < target < 1:
        raise StructuralError("target must lie in (0, 1)")
    return next((r.round for r in records if r.ema_accuracy >= target), None)


@finite_checked
def global_loss(spec: ModelSpec, params: np.ndarray, groups) -> float:
    """Mean over clients of the client's mean loss on its shard.

    ``groups`` are the run's shard groups (:class:`fedsim.client.ShardGroup`),
    which hold every client's shard once, already checked against ``spec``.
    Each group's per-example losses come from one
    :func:`fedsim.models.example_losses` pass over all its rows, which
    runs them through the model :data:`fedsim.models.EVAL_BLOCK_ROWS`
    rows at a time; each client's sum starts at a fixed multiple of its
    group's shard size. Under :func:`fedsim.params.finite_checked`, a
    client mean that is not finite raises :class:`fedsim.errors.NumericError`
    and warns nothing. ``math.fsum`` is exact, so the order of the groups
    does not change the result. With the equal-size shards the partitioners
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
