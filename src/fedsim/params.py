"""Dense parameter-vector arithmetic.

A parameter vector is a 1-D float64 numpy array; every model, momentum
buffer, and optimizer moment in the package is one of these. Operations
are pure: inputs are never mutated and outputs are freshly allocated, so
one vector can be held by several clients and server buffers at once.
The one exception is :class:`Mean`, a running row mean that folds blocks
of rows into its own sums as they arrive, so that no caller has to
stack every row first.

All reductions use a fixed, data-independent evaluation order so that a
seeded run produces bit-identical results. :func:`finite_checked` declares
the package's one floating-point policy: entry points warn nothing, and
their finiteness checks raise :class:`fedsim.errors.NumericError`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, StructuralError


def finite_checked(fn):
    """``fn`` with no overflow or invalid-value warning, in a context made
    for it alone: numpy 1.x's kept the caller's state on the instance."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise StructuralError(f"dimension mismatch: {x.shape} vs {y.shape}")


@finite_checked
def axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return ``a*x + y`` elementwise.

    Raises a numeric error if the result is not finite (overflow or
    non-finite inputs), a structural error on dimension mismatch.
    """
    _check_pair(x, y)
    if not np.isfinite(a):
        raise NumericError(f"non-finite scale factor {a!r}")
    out = a * x + y
    if not np.all(np.isfinite(out)):
        raise NumericError("axpy produced non-finite entries")
    return out


@finite_checked
def l2_norm_sq(x: np.ndarray) -> float:
    """Return the squared Euclidean norm of ``x``."""
    if not np.all(np.isfinite(x)):
        raise NumericError("l2_norm_sq of non-finite vector")
    return float(np.dot(x, x))


def sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of an (S, d) stack, unchecked.

    Each row goes through the same BLAS ``ddot`` as ``np.dot(row, row)``,
    so a row's value does not depend on the rows stacked with it.
    """
    return np.matmul(stack[:, None, :], stack[:, :, None])[:, 0, 0]


class Mean:
    """Row mean of rows added a block at a time, with a fixed reduction
    order.

    Deviations from the first row are accumulated row by row, top to
    bottom, in place, from a zero vector, and the shifted result is folded
    back at the end. The mean depends only on the rows and their order,
    never on how they were split into blocks, and it holds three vectors,
    not the rows. Besides being deterministic, this makes the mean of k
    identical rows exactly equal to that row: all deviations are exactly
    zero, which a plain sum-then-divide cannot guarantee in floating point.
    """

    def __init__(self):
        self.count = 0

    def add(self, rows: np.ndarray) -> "Mean":
        """Fold the rows of an (S, d) block in below those added so far."""
        if not self.count and len(rows):
            self._base = rows[0].copy()
            self._sum, self._dev = np.zeros_like(self._base), np.empty_like(self._base)
            rows, self.count = rows[1:], 1
        for row in rows:
            self._sum += np.subtract(row, self._base, out=self._dev)
        self.count += len(rows)
        return self

    def result(self) -> np.ndarray:
        """The mean of every row added; it is the fold's own sum, so the
        fold ends here."""
        if not self.count:
            raise StructuralError("mean of no rows")
        out = self._sum
        out /= self.count
        out += self._base
        if not np.all(np.isfinite(out)):
            raise NumericError("mean produced non-finite entries")
        return out


def mean(stack: np.ndarray) -> np.ndarray:
    """Row mean of a non-empty (S, d) stack: one :class:`Mean` block."""
    if stack.ndim != 2 or not len(stack):
        raise StructuralError(f"mean needs a non-empty (S, d) stack, got shape {stack.shape}")
    return Mean().add(stack).result()
