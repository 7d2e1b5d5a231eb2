import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim.errors import NumericError, StructuralError
from fedsim.params import axpy, finite_checked, l2_norm_sq, mean


def vec(*xs):
    return np.array(xs, dtype=np.float64)


# Magnitudes kept within a realistic parameter range: squares of entries
# below ~1e-154 underflow to zero and entries above ~1e150 overflow sums,
# so anything tinier than 1e-12 is flushed to an exact zero.
finite_floats = (st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
                 .map(lambda v: 0.0 if abs(v) < 1e-12 else v))
nonzero_floats = finite_floats.filter(lambda v: abs(v) > 1e-12)


@st.composite
def vectors(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=8))
    return np.array(draw(st.lists(finite_floats, min_size=n, max_size=n)))


def test_axpy_zero_scale_identity():
    np.testing.assert_array_equal(axpy(0.0, vec(1, 2), vec(3, 4)), vec(3, 4))


def test_axpy_zero_vector():
    np.testing.assert_array_equal(axpy(1.0, vec(0, 0), vec(3, 4)), vec(3, 4))


def test_axpy_hand_oracle():
    out = axpy(0.85, vec(0.2, -0.4), vec(1, 1))
    np.testing.assert_allclose(out, vec(1.17, 0.66), rtol=0, atol=1e-15)


def test_axpy_dimension_mismatch():
    with pytest.raises(StructuralError):
        axpy(1.0, vec(1, 2), vec(1, 2, 3))


def test_axpy_nonfinite():
    with pytest.raises(NumericError):
        axpy(1e308, vec(1e308), vec(0))
    with pytest.raises(NumericError):
        axpy(math.nan, vec(1), vec(1))


def test_finite_checked_restores_the_callers_state_through_nesting_and_raises():
    @finite_checked
    def inner():
        """Overflow, then fail."""
        assert np.geterr()["over"] == np.geterr()["invalid"] == "ignore"
        np.float64(1e308) * 10.0
        raise NumericError("inner")

    @finite_checked
    def outer():
        np.float64(1e308) * 10.0
        inner()

    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(NumericError, match="inner"):
            outer()
        assert np.geterr()["over"] == np.geterr()["invalid"] == "raise"
    assert inner.__name__ == "inner" and inner.__doc__.startswith("Overflow")
    assert inner.__wrapped__.__name__ == "inner"


def test_axpy_does_not_mutate_inputs():
    x, y = vec(1, 2), vec(3, 4)
    axpy(2.0, x, y)
    np.testing.assert_array_equal(x, vec(1, 2))
    np.testing.assert_array_equal(y, vec(3, 4))


@given(a=nonzero_floats, b=nonzero_floats, x=vectors(3), y=vectors(3))
def test_axpy_linearity_within_rounding(a, b, x, y):
    # (a+b)x + y versus ax + (bx + y): algebraically equal; in floats each
    # side carries a couple of roundings, so agreement is asserted to a few
    # ulp of the largest intermediate rather than bit equality.
    lhs = axpy(a + b, x, y)
    rhs = axpy(a, x, axpy(b, x, y))
    scale = np.maximum.reduce([np.abs(a * x), np.abs(b * x), np.abs(y), np.full_like(y, 1e-300)])
    bound = 8 * np.vectorize(math.ulp)(scale)
    assert np.all(np.abs(lhs - rhs) <= bound)


def test_l2_norm_sq_examples():
    assert l2_norm_sq(vec(0, 0, 0)) == 0.0
    assert l2_norm_sq(vec(3, 4)) == 25.0
    assert l2_norm_sq(vec(1)) == 1.0


@given(x=vectors())
def test_l2_norm_sq_nonnegative_and_zero_iff_zero(x):
    s = l2_norm_sq(x)
    assert s >= 0.0
    # Entries generated here are either 0 or >= ~1e-12 in magnitude, far
    # from the underflow threshold where x**2 rounds to zero.
    assert (s == 0.0) == bool(np.all(x == 0.0))


def test_mean_singleton():
    np.testing.assert_array_equal(mean(np.array([vec(2, 2)])), vec(2, 2))


def test_mean_hand_oracle():
    out = mean(np.array([vec(0.9), vec(0.7)]))
    assert out[0] == 0.8


def test_mean_symmetry():
    np.testing.assert_array_equal(mean(np.array([vec(1, 0), vec(0, 1)])), vec(0.5, 0.5))


def test_mean_empty_list():
    with pytest.raises(StructuralError):
        mean(np.empty((0, 2)))


def test_mean_dimension_mismatch():
    # rows of unequal width cannot form a stack; a lone vector is no stack
    with pytest.raises(StructuralError):
        mean(vec(1, 2))


@given(x=vectors(), k=st.integers(min_value=1, max_value=37))
def test_mean_of_k_copies_is_exact(x, k):
    out = mean(np.array([x] * k))
    assert np.array_equal(out, x)


@given(vs=st.lists(vectors(4), min_size=1, max_size=9))
def test_mean_within_componentwise_bounds(vs):
    stack = np.stack(vs)
    out = mean(stack)
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    eps = 4 * np.vectorize(math.ulp)(np.maximum(np.abs(lo), np.abs(hi)))
    assert np.all(out >= lo - eps) and np.all(out <= hi + eps)



@settings(max_examples=40, deadline=None)
@given(S=st.integers(min_value=1, max_value=120), d=st.integers(min_value=1, max_value=9000),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       spread=st.sampled_from([1e-8, 1.0, 1e6]))
def test_mean_equals_a_plain_top_to_bottom_loop(S, d, seed, spread):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=d) + spread * rng.normal(size=(S, d))
    base = stack[0]
    acc = np.zeros_like(base)
    for row in stack[1:]:
        acc = acc + (row - base)
    assert mean(stack).tobytes() == (base + acc / S).tobytes()
