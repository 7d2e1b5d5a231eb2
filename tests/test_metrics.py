import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedsim.data import generate_synthetic, partition_dirichlet, partition_iid
from fedsim.errors import StructuralError
from fedsim.metrics import (EVAL_BLOCK_ROWS, EmaSeries, Saturated, ema_update,
                            global_loss, rounds_to_target)
from fedsim.models import ModelSpec, loss, param_dim


def series_of(values, decay=0.9):
    s = EmaSeries(decay=decay)
    for v in values:
        s = ema_update(s, v)
    return s


def test_ema_initializes_to_first_value():
    s = ema_update(EmaSeries(), 0.5)
    assert s.smoothed == (0.5,)
    assert s.raw == (0.5,)


def test_ema_recurrence_oracle():
    s = series_of([0.5, 0.7])
    assert s.smoothed[1] == pytest.approx(0.9 * 0.5 + 0.1 * 0.7, abs=1e-16)
    assert s.smoothed[1] == pytest.approx(0.52, abs=1e-15)


def test_ema_constant_series_is_fixed_point():
    s = series_of([0.5] * 20)
    assert all(v == 0.5 for v in s.smoothed)


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1,
                max_size=30))
def test_ema_stays_within_running_bounds(values):
    s = series_of(values)
    for t, v in enumerate(s.smoothed):
        lo, hi = min(values[:t + 1]), max(values[:t + 1])
        # one ulp of slack: the recurrence rounds once per step
        pad = 4 * math.ulp(max(abs(lo), abs(hi), 1.0))
        assert lo - pad <= v <= hi + pad


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=2,
                max_size=30))
def test_ema_of_monotone_series_is_monotone(values):
    values = sorted(values)
    s = series_of(values)
    pad = 4 * math.ulp(1.0)
    assert all(a <= b + pad for a, b in zip(s.smoothed, s.smoothed[1:]))


def test_ema_matches_direct_expansion():
    rng = np.random.default_rng(0)
    for _ in range(100):
        values = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        s = series_of(list(values))
        direct = values[0]
        assert abs(s.smoothed[0] - direct) <= 1e-12
        for v in values[1:]:
            direct = 0.9 * direct + 0.1 * v
        assert abs(s.smoothed[-1] - direct) <= 1e-12


def test_ema_rejects_nonfinite():
    with pytest.raises(StructuralError):
        ema_update(EmaSeries(), math.nan)


def test_rounds_to_target_first_crossing():
    assert rounds_to_target([0.3, 0.5, 0.9], 0.84, 1000) == 3


def test_rounds_to_target_saturates():
    out = rounds_to_target([0.3] * 50, 0.84, 1000)
    assert out == Saturated(1000)
    assert str(out) == "1000+"


def test_rounds_to_target_immediate():
    assert rounds_to_target([0.9, 0.1], 0.5, 1000) == 1


def test_rounds_to_target_respects_limit():
    assert rounds_to_target([0.1, 0.1, 0.9], 0.5, 2) == Saturated(2)


def test_rounds_to_target_validates_target():
    with pytest.raises(StructuralError):
        rounds_to_target([0.5], 0.0, 10)


@given(values=st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                       min_size=1, max_size=40),
       t1=st.floats(min_value=0.01, max_value=0.99),
       t2=st.floats(min_value=0.01, max_value=0.99))
def test_rounds_to_target_monotone_in_target(values, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    r_lo = rounds_to_target(values, lo, 1000)
    r_hi = rounds_to_target(values, hi, 1000)
    if isinstance(r_hi, int):
        assert isinstance(r_lo, int) and r_lo <= r_hi


def _task(seed=0):
    ds = generate_synthetic(seed=seed, clusters=4, per_class=25, input_dim=3, spread=1.0)
    spec = ModelSpec("softmax_classifier", input_dim=3, output_dim=4,
                     l2_weight_decay=0.001)
    params = np.random.default_rng(seed).normal(size=param_dim(spec))
    return ds, spec, params


def test_global_loss_single_client_equals_whole_set():
    ds, spec, params = _task()
    part = partition_iid(ds, 1, seed=0)
    assert global_loss(spec, params, part, ds) == loss(spec, params, ds.to_batch())


def test_global_loss_equal_shards_matches_whole_set():
    ds, spec, params = _task(seed=3)
    for N in (2, 4, 10, 25):
        part = partition_iid(ds, N, seed=1)
        whole = loss(spec, params, ds.to_batch())
        assert abs(global_loss(spec, params, part, ds) - whole) <= 1e-12


@pytest.mark.parametrize("spec", [
    ModelSpec("softmax_classifier", input_dim=5, output_dim=4, l2_weight_decay=0.01),
    ModelSpec("mlp", input_dim=5, output_dim=4, hidden_dims=(6,), l2_weight_decay=0.01),
    ModelSpec("linear_regression", input_dim=5, l2_weight_decay=0.01),
], ids=lambda s: s.kind)
def test_global_loss_matches_per_shard_loop_across_blocks(spec):
    # more than two evaluation blocks, with block edges falling inside shards
    ds = generate_synthetic(seed=2, clusters=4, per_class=EVAL_BLOCK_ROWS * 3 // 5,
                            input_dim=5, spread=1.0)
    assert ds.n > 2 * EVAL_BLOCK_ROWS
    rng = np.random.default_rng(5)
    for N in (1, 37, 400):
        part = partition_dirichlet(ds, N, 0.3, seed=N)
        params = rng.normal(size=param_dim(spec))
        ref = math.fsum(loss(spec, params, ds.to_batch(a)) for a in part.assignments) / N
        assert abs(global_loss(spec, params, part, ds) - ref) <= 1e-12 * abs(ref)


def test_global_loss_zero_softmax_is_log_k():
    ds, spec, _ = _task()
    part = partition_iid(ds, 5, seed=0)
    spec0 = ModelSpec("softmax_classifier", input_dim=3, output_dim=4)
    got = global_loss(spec0, np.zeros(param_dim(spec0)), part, ds)
    assert got == pytest.approx(math.log(4), abs=1e-14)
