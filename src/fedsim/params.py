"""Dense parameter-vector arithmetic.

A parameter vector is a 1-D float64 numpy array; every model, momentum
buffer, and optimizer moment in the package is one of these. Operations
are pure: inputs are never mutated and outputs are freshly allocated, so
one vector can be held by several clients and server buffers at once.

All reductions use a fixed, data-independent evaluation order so that a
seeded run produces bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, StructuralError


def as_params(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array, validating finiteness."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise StructuralError(f"parameter vector must be 1-D, got shape {x.shape}")
    if x.size == 0:
        raise StructuralError("parameter vector must be non-empty")
    if not np.all(np.isfinite(x)):
        raise NumericError("parameter vector contains NaN/Inf")
    return x


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise StructuralError(f"dimension mismatch: {x.shape} vs {y.shape}")


def axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return ``a*x + y`` elementwise.

    Raises a numeric error if the result is not finite (overflow or
    non-finite inputs), a structural error on dimension mismatch.
    """
    _check_pair(x, y)
    if not np.isfinite(a):
        raise NumericError(f"non-finite scale factor {a!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a * x + y
    if not np.all(np.isfinite(out)):
        raise NumericError("axpy produced non-finite entries")
    return out


def l2_norm_sq(x: np.ndarray) -> float:
    """Return the squared Euclidean norm of ``x``."""
    if not np.all(np.isfinite(x)):
        raise NumericError("l2_norm_sq of non-finite vector")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(x, x))


def mean(vectors: list[np.ndarray]) -> np.ndarray:
    """Elementwise arithmetic mean with a fixed reduction order.

    Deviations from the first vector are accumulated left to right and the
    shifted result is folded back at the end. Besides being deterministic,
    this makes the mean of k identical vectors exactly equal to that
    vector: all deviations are exactly zero, which a plain sum-then-divide
    cannot guarantee in floating point.
    """
    if not vectors:
        raise StructuralError("mean of an empty list")
    base = vectors[0]
    acc = np.zeros_like(base)
    for v in vectors[1:]:
        _check_pair(base, v)
        acc = acc + (v - base)
    out = base + acc / len(vectors)
    if not np.all(np.isfinite(out)):
        raise NumericError("mean produced non-finite entries")
    return out
