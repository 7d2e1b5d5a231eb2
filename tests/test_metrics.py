import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedsim.client import shard_groups
from fedsim.data import Dataset, partition_dirichlet, partition_iid
from fedsim.errors import NumericError, StructuralError
from fedsim.engine import RoundRecord
from fedsim.metrics import ema_update, global_loss, rounds_to_target
from fedsim.models import (EVAL_BLOCK_ROWS, ModelSpec, _forward, decay_term, layer_views,
                           loss, param_dim)
from oracles import generate_synthetic


def series_of(values):
    """The smoothed series of ``values``, one ema_update each."""
    smoothed, ema = [], None
    for v in values:
        ema = ema_update(ema, v)
        smoothed.append(ema)
    return smoothed


def test_ema_initializes_to_first_value():
    assert ema_update(None, 0.5) == 0.5


def test_ema_recurrence_oracle():
    s = series_of([0.5, 0.7])
    assert s[1] == pytest.approx(0.9 * 0.5 + 0.1 * 0.7, abs=1e-16)
    assert s[1] == pytest.approx(0.52, abs=1e-15)


def test_ema_constant_series_is_fixed_point():
    s = series_of([0.5] * 20)
    assert all(v == 0.5 for v in s)


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1,
                max_size=30))
def test_ema_stays_within_running_bounds(values):
    s = series_of(values)
    for t, v in enumerate(s):
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
    assert all(a <= b + pad for a, b in zip(s, s[1:]))


def test_ema_matches_direct_expansion():
    rng = np.random.default_rng(0)
    for _ in range(100):
        values = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
        s = series_of(list(values))
        direct = values[0]
        assert abs(s[0] - direct) <= 1e-12
        for v in values[1:]:
            direct = 0.9 * direct + 0.1 * v
        assert abs(s[-1] - direct) <= 1e-12


def test_ema_rejects_nonfinite():
    with pytest.raises(StructuralError):
        ema_update(None, math.nan)
    with pytest.raises(StructuralError):
        ema_update(0.5, math.inf)


def records_of(smoothed, every=3):
    """Records whose ``ema_accuracy`` is ``smoothed``, logged at rounds
    ``every``, 2 * ``every``, ..., so a record index never equals its round."""
    return [RoundRecord(round=every * (i + 1), train_loss=0.0,
                        test_accuracy=v, ema_accuracy=v, bytes_down=0, bytes_up=0)
            for i, v in enumerate(smoothed)]


def test_rounds_to_target_first_crossing():
    assert rounds_to_target(records_of([0.3, 0.5, 0.9]), 0.84) == 9


def test_rounds_to_target_saturates():
    assert rounds_to_target(records_of([0.3] * 50), 0.84) is None


def test_rounds_to_target_immediate():
    assert rounds_to_target(records_of([0.9, 0.1]), 0.5) == 3


def test_rounds_to_target_validates_target():
    with pytest.raises(StructuralError):
        rounds_to_target(records_of([0.5]), 0.0)


@given(values=st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                       min_size=1, max_size=40),
       t1=st.floats(min_value=0.01, max_value=0.99),
       t2=st.floats(min_value=0.01, max_value=0.99))
def test_rounds_to_target_monotone_in_target(values, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    records = records_of(values)
    r_lo = rounds_to_target(records, lo)
    r_hi = rounds_to_target(records, hi)
    if r_hi is not None:
        assert r_lo is not None and r_lo <= r_hi


def _task(seed=0):
    ds = generate_synthetic(seed=seed, clusters=4, per_class=25, input_dim=3, spread=1.0)
    spec = ModelSpec("softmax_classifier", input_dim=3, output_dim=4,
                     l2_weight_decay=0.001)
    params = np.random.default_rng(seed).normal(size=param_dim(spec))
    return ds, spec, params


def groups_of(ds, part):
    """The shard groups the engine evaluates from."""
    return shard_groups(ds, part)


def test_global_loss_single_client_equals_whole_set():
    ds, spec, params = _task()
    part = partition_iid(ds, 1, seed=0)
    assert global_loss(spec, params, groups_of(ds, part)) == loss(spec, params, ds.to_batch())


def test_global_loss_equal_shards_matches_whole_set():
    ds, spec, params = _task(seed=3)
    for N in (2, 4, 10, 25):
        part = partition_iid(ds, N, seed=1)
        whole = loss(spec, params, ds.to_batch())
        assert abs(global_loss(spec, params, groups_of(ds, part)) - whole) <= 1e-12


SPECS = [
    ModelSpec("softmax_classifier", input_dim=5, output_dim=4, l2_weight_decay=0.01),
    ModelSpec("mlp", input_dim=5, output_dim=4, hidden_dims=(6,), l2_weight_decay=0.01),
    ModelSpec("linear_regression", input_dim=5, l2_weight_decay=0.01),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_global_loss_matches_per_shard_loop_across_blocks(spec):
    # more than two evaluation blocks, with block edges falling inside shards
    ds = generate_synthetic(seed=2, clusters=4, per_class=EVAL_BLOCK_ROWS * 3 // 5,
                            input_dim=5, spread=1.0)
    assert ds.n > 2 * EVAL_BLOCK_ROWS
    rng = np.random.default_rng(5)
    for N in (1, 37, 400):
        part = partition_dirichlet(ds, N, 0.3, seed=N)
        params = rng.normal(size=param_dim(spec))
        ref = math.fsum(loss(spec, params, ds.subset(a).to_batch()) for a in part) / N
        assert abs(global_loss(spec, params, groups_of(ds, part)) - ref) <= 1e-12 * abs(ref)


def test_global_loss_leaves_the_callers_floating_point_state():
    # global_loss nests example_losses and decay_term, each under the
    # policy; the caller's state holds after a return and after a raise
    ds, spec, params = _task()
    groups = groups_of(ds, partition_iid(ds, 4, seed=0))
    with np.errstate(over="raise"):
        assert math.isfinite(global_loss(spec, params, groups))
        assert np.geterr()["over"] == "raise"
        with pytest.raises(NumericError, match="loss is not finite"):
            global_loss(spec, params * 1e300, groups)
        assert np.geterr()["over"] == "raise"
        with pytest.raises(FloatingPointError):
            np.float64(1e308) * 10.0


def test_global_loss_zero_softmax_is_log_k():
    ds, spec, _ = _task()
    part = partition_iid(ds, 5, seed=0)
    spec0 = ModelSpec("softmax_classifier", input_dim=3, output_dim=4)
    got = global_loss(spec0, np.zeros(param_dim(spec0)), groups_of(ds, part))
    assert got == pytest.approx(math.log(4), abs=1e-14)


def partition_global_loss(spec, params, part, ds):
    """The evaluation as it was computed from the partition and the
    dataset: per-example losses in dataset order, in blocks of
    EVAL_BLOCK_ROWS, as the negated log-softmax at the label, gathered into
    client order and summed per client from cumulative-size starts."""
    X = np.asarray(ds.features, dtype=np.float64)
    per_example = []
    for lo in range(0, ds.n, EVAL_BLOCK_ROWS):
        Xb, yb = X[None, lo:lo + EVAL_BLOCK_ROWS], ds.labels[None, lo:lo + EVAL_BLOCK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.kind == "linear_regression":
                r = (Xb @ params[None, :, None])[:, :, 0] - yb
                per_example.append((0.5 * (r * r))[0])
                continue
            _, logits = _forward(layer_views(spec, params[None]), Xb)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            per_example.append(-log_softmax[0, np.arange(yb.shape[1]), yb[0]])
    per_example = np.concatenate(per_example)
    sizes = np.array([len(a) for a in part])
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    client_means = np.add.reduceat(
        per_example[np.concatenate(part)], starts) / sizes
    if spec.l2_weight_decay:
        client_means = client_means + decay_term(spec, params[None])[0]
    return math.fsum(client_means.tolist()) / len(client_means)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_global_loss_equals_the_partition_computation(spec):
    # Dirichlet shards of two sizes, so two groups whose rows follow client
    # order; the larger training sets span several evaluation blocks
    rng = np.random.default_rng(8)
    for seed, per_class, N in [(1, 9, 7), (2, 25, 13), (3, 60, 41),
                               (4, EVAL_BLOCK_ROWS * 3 // 5, 37),
                               (5, EVAL_BLOCK_ROWS * 3 // 5, 400)]:
        ds = generate_synthetic(seed=seed, clusters=4, per_class=per_class,
                                input_dim=5, spread=1.0)
        part = partition_dirichlet(ds, N, 0.3, seed=seed)
        groups = groups_of(ds, part)
        assert len(groups) == 2
        for scale in (0.1, 1.0, 30.0):
            params = scale * rng.normal(size=param_dim(spec))
            assert global_loss(spec, params, groups) == \
                partition_global_loss(spec, params, part, ds)


@pytest.mark.parametrize("spec", [
    ModelSpec("softmax_classifier", input_dim=64, output_dim=10, l2_weight_decay=0.001),
    ModelSpec("mlp", input_dim=64, output_dim=10, hidden_dims=(96,), l2_weight_decay=0.001),
], ids=lambda s: s.kind)
def test_global_loss_is_within_an_ulp_of_the_partition_computation(spec):
    # With ten outputs, the last (rows mod 4) rows of a block go through
    # OpenBLAS's remainder kernel, and their logits can differ in the last
    # bit from the same rows placed elsewhere in a block. Client order puts
    # other rows there than dataset order did, so the mean may move by an
    # ulp: it did in 1 of 117 random cases with this MLP.
    rng = np.random.default_rng(9)
    for seed in range(1, 21):
        ds = generate_synthetic(seed=seed, clusters=10, per_class=int(rng.integers(3, 60)),
                                input_dim=64, spread=1.0)
        part = partition_dirichlet(ds, int(rng.integers(2, ds.n // 2)), 0.3, seed=seed)
        params = rng.normal(size=param_dim(spec))
        ref = partition_global_loss(spec, params, part, ds)
        assert abs(global_loss(spec, params, groups_of(ds, part)) - ref) <= math.ulp(ref)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_global_loss_ignores_the_order_of_the_groups(spec):
    ds = generate_synthetic(seed=6, clusters=4, per_class=EVAL_BLOCK_ROWS * 3 // 5,
                            input_dim=5, spread=1.0)
    groups = groups_of(ds, partition_dirichlet(ds, 37, 0.3, seed=6))
    assert len(groups) == 2
    params = np.random.default_rng(6).normal(size=param_dim(spec))
    assert global_loss(spec, params, groups[::-1]) == global_loss(spec, params, groups)


ROW_COUNTS = [k * EVAL_BLOCK_ROWS + r for k in (0, 1, 2) for r in (0, 1, 2, 3) if k or r]
CLASS_COUNTS = [2, 7, 8, 9, 16, 17, 129]


def _dataset(rows, C, rng, exact=False):
    """``rows`` examples of 5 features over C classes. With ``exact`` the
    features are multiples of 1/4 in [-1, 1], so that with parameters that
    are multiples of 1/8 every logit is exact, whatever rows its gemm
    block holds."""
    if exact:
        X = rng.integers(-4, 5, size=(rows, 5)) / 4
    else:
        X = rng.normal(size=(rows, 5))
    return Dataset(X, rng.integers(0, C, size=rows), C)


@pytest.mark.parametrize("C", CLASS_COUNTS)
@pytest.mark.parametrize("kind", ["softmax_classifier", "mlp"])
def test_global_loss_of_one_group_equals_the_partition_computation(kind, C):
    # one client per row, in dataset order: the group's gemm blocks are the
    # partition computation's, so every logit has the same bits, and the
    # class-major loss must equal the row-major one exactly, whatever the
    # tail of the last block
    rng = np.random.default_rng(C)
    spec = ModelSpec(kind, input_dim=5, output_dim=C,
                     hidden_dims=(6,) if kind == "mlp" else (), l2_weight_decay=0.01)
    for rows in ROW_COUNTS:
        ds = _dataset(rows, C, rng)
        part = tuple(np.arange(rows)[:, None])
        groups = groups_of(ds, part)
        assert len(groups) == 1
        for scale in (0.1, 30.0):
            params = scale * rng.normal(size=param_dim(spec))
            assert global_loss(spec, params, groups) == \
                partition_global_loss(spec, params, part, ds), (rows, scale)


@pytest.mark.parametrize("C", CLASS_COUNTS)
def test_global_loss_of_two_groups_equals_the_partition_computation(C):
    # one single-row client per row of the first range and one client
    # holding the second (of at least 2 rows): two groups, each with its
    # own gemm tail, whose blocks do not line up with the dataset's. Exact
    # logits keep the comparison independent of the BLAS kernel that
    # computes them.
    rng = np.random.default_rng(C)
    spec = ModelSpec("softmax_classifier", input_dim=5, output_dim=C, l2_weight_decay=0.01)
    pairs = [(a, b) for a, b in zip(ROW_COUNTS, ROW_COUNTS[4:] + ROW_COUNTS[:4]) if b > 1]
    for first, second in pairs:
        ds = _dataset(first + second, C, rng, exact=True)
        part = (*np.arange(first)[:, None], np.arange(first, first + second))
        groups = groups_of(ds, part)
        assert [g.labels.size for g in groups] == [first, second]
        for scale in (1, 16):
            params = scale * rng.integers(-8, 9, size=param_dim(spec)) / 8
            assert global_loss(spec, params, groups) == \
                partition_global_loss(spec, params, part, ds), (first, second, scale)
