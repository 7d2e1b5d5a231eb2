import math

import numpy as np
import pytest

from fedsim.data import (Dataset, generate_synthetic, load_csv, partition_dirichlet,
                         partition_iid, split_stratified, take_per_class)
from fedsim.errors import ConfigError, StructuralError
from fedsim.models import ModelSpec, accuracy, gradient, param_dim
from oracles import partition_dirichlet_by_deal, take_per_class_by_scan


def entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def check_partition(ds, part, N):
    assert len(part) == N
    all_idx = np.concatenate(part)
    assert len(all_idx) == ds.n
    assert len(np.unique(all_idx)) == ds.n
    lo, hi = ds.n // N, -(-ds.n // N)
    for shard in part:
        assert lo <= len(shard) <= hi


def test_synthetic_single_cluster_all_label_zero():
    ds = generate_synthetic(seed=0, clusters=1, per_class=20, input_dim=3, spread=1.0)
    assert np.all(ds.labels == 0)
    assert ds.class_count == 1
    assert ds.features.shape == (20, 3)


def test_synthetic_deterministic():
    a = generate_synthetic(seed=42, clusters=3, per_class=10, input_dim=4, spread=0.5)
    b = generate_synthetic(seed=42, clusters=3, per_class=10, input_dim=4, spread=0.5)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_synthetic(seed=43, clusters=3, per_class=10, input_dim=4, spread=0.5)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_tiny_spread_is_separable():
    ds = generate_synthetic(seed=1, clusters=3, per_class=30, input_dim=5, spread=1e-4)
    spec = ModelSpec("softmax_classifier", input_dim=5, output_dim=3)
    params = np.zeros(param_dim(spec))
    batch = ds.to_batch()
    for _ in range(300):
        params = params - 0.5 * gradient(spec, params, batch)
    assert accuracy(spec, params, batch) == 1.0


def test_load_csv_dense_reindex(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,x2,label\n1,2,a\n3,4,b\n5,6,a\n")
    ds = load_csv(str(p), "label", normalize=False)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    assert ds.class_count == 2
    assert ds.meta["label_names"] == ["a", "b"]
    assert ds.meta["feature_names"] == ["x1", "x2"]
    np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_normalizes_by_default(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,x2,label\n1,7,a\n3,7,b\n5,7,a\n")
    ds = load_csv(str(p), "label")
    np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)
    # constant column keeps scale 1 instead of dividing by zero
    np.testing.assert_allclose(ds.features[:, 1], 0.0, atol=1e-12)
    assert ds.meta["feature_std"][1] == 1.0


def test_load_csv_missing_file():
    with pytest.raises(ConfigError) as ei:
        load_csv("/nonexistent/nope.csv", "label")
    assert "/nonexistent/nope.csv" in str(ei.value)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ConfigError) as ei:
        load_csv(str(p), "label")
    assert "empty.csv" in str(ei.value)


def test_load_csv_non_numeric_cell_cites_row(tmp_path):
    p = tmp_path / "bad.csv"
    lines = ["f,label"] + [f"{i}.5,a" for i in range(5)] + ["oops,b", "9,a"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as ei:
        load_csv(str(p), "label")
    assert ei.value.line == 7
    assert "oops" in str(ei.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_load_csv_non_finite_cell_cites_line_and_column(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"label,f,g\na,1,2\nb,3,{cell}\na,5,6\n")
    for normalize in (True, False):
        with pytest.raises(ConfigError) as ei:
            load_csv(str(p), "label", normalize=normalize)
        assert (ei.value.path, ei.value.line, ei.value.column) == (str(p), 3, 3)
        assert "bad.csv:3:3" in str(ei.value) and "'g'" in str(ei.value)


def test_load_csv_unknown_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,label\n1,a\n")
    with pytest.raises(ConfigError):
        load_csv(str(p), "target")


def test_partition_iid_sizes():
    ds = generate_synthetic(seed=0, clusters=5, per_class=20, input_dim=2, spread=1.0)
    part = partition_iid(ds, 10, seed=0)
    assert all(len(a) == 10 for a in part)
    check_partition(ds, part, 10)


def test_partition_iid_single_client():
    ds = generate_synthetic(seed=0, clusters=2, per_class=5, input_dim=2, spread=1.0)
    part = partition_iid(ds, 1, seed=3)
    np.testing.assert_array_equal(part[0], np.arange(10))


def test_partition_iid_deterministic():
    ds = generate_synthetic(seed=0, clusters=5, per_class=20, input_dim=2, spread=1.0)
    a = partition_iid(ds, 7, seed=9)
    b = partition_iid(ds, 7, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_partition_rejects_more_clients_than_examples():
    ds = generate_synthetic(seed=0, clusters=2, per_class=3, input_dim=2, spread=1.0)
    with pytest.raises(StructuralError):
        partition_iid(ds, 7, seed=0)
    with pytest.raises(StructuralError):
        partition_dirichlet(ds, 7, 0.3, seed=0)


def test_partition_dirichlet_huge_concentration_is_near_iid():
    ds = generate_synthetic(seed=0, clusters=5, per_class=100, input_dim=2, spread=1.0)
    global_hist = np.bincount(ds.labels, minlength=5) / ds.n
    for seed in range(5):
        part = partition_dirichlet(ds, 10, concentration=1e9, seed=seed)
        check_partition(ds, part, 10)
        for shard in part:
            hist = np.bincount(ds.labels[shard], minlength=5) / len(shard)
            tv = 0.5 * np.abs(hist - global_hist).sum()
            assert tv <= 0.1


def test_partition_dirichlet_tiny_concentration_is_skewed():
    ds = generate_synthetic(seed=0, clusters=10, per_class=100, input_dim=2, spread=1.0)
    top2_mass = []
    for seed in range(5):
        part = partition_dirichlet(ds, 10, concentration=0.01, seed=seed)
        check_partition(ds, part, 10)
        for shard in part:
            counts = np.sort(np.bincount(ds.labels[shard], minlength=10))[::-1]
            top2_mass.append(counts[:2].sum() / counts.sum())
    assert np.median(top2_mass) >= 0.8


def test_partition_dirichlet_single_client():
    ds = generate_synthetic(seed=0, clusters=3, per_class=4, input_dim=2, spread=1.0)
    part = partition_dirichlet(ds, 1, concentration=0.05, seed=1)
    np.testing.assert_array_equal(part[0], np.arange(12))


def test_partition_invariants_randomized():
    rng = np.random.default_rng(0)
    ds = generate_synthetic(seed=0, clusters=6, per_class=50, input_dim=2, spread=1.0)
    for _ in range(40):
        N = int(rng.integers(1, 40))
        conc = float(10.0 ** rng.uniform(-2, 2))
        seed = int(rng.integers(0, 1 << 31))
        check_partition(ds, partition_dirichlet(ds, N, conc, seed), N)
        check_partition(ds, partition_iid(ds, N, seed), N)


def _shuffled_labels(rng, n, C):
    """A dataset of n examples over C classes in random order, some of them
    possibly empty; each feature is the example's own index."""
    labels = rng.integers(0, int(rng.integers(1, C + 1)), size=n)
    return Dataset(np.arange(n, dtype=np.float64)[:, None], labels, C)


def test_partition_dirichlet_equals_the_dealing_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ds = _shuffled_labels(rng, int(rng.integers(1, 400)), int(rng.integers(1, 12)))
        N = int(rng.integers(1, ds.n + 1))
        conc = float(10.0 ** rng.uniform(-3, 3))
        seed = int(rng.integers(0, 1 << 31))
        got = partition_dirichlet(ds, N, conc, seed)
        want = partition_dirichlet_by_deal(ds, N, conc, seed)
        assert len(got) == len(want) == N
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (ds.n, N, conc, seed)


def test_partition_dirichlet_at_scale_equals_the_dealing_loop():
    ds = generate_synthetic(seed=3, clusters=10, per_class=500, input_dim=2, spread=1.0)
    for N, conc, seed in [(1000, 0.3, 11), (100, 0.3, 23), (997, 0.05, 5), (5000, 1.0, 7)]:
        got = partition_dirichlet(ds, N, conc, seed)
        want = partition_dirichlet_by_deal(ds, N, conc, seed)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_take_per_class_equals_the_label_scan():
    rng = np.random.default_rng(12)
    for _ in range(200):
        ds = _shuffled_labels(rng, int(rng.integers(2, 300)), int(rng.integers(1, 12)))
        count = int(rng.integers(0, ds.n // 2 + 2))
        first, second = take_per_class_by_scan(ds, count)
        if not second:
            with pytest.raises(StructuralError):
                take_per_class(ds, count)
            continue
        got_first, got_second = take_per_class(ds, count)
        assert got_first.features[:, 0].tolist() == first
        assert got_second.features[:, 0].tolist() == second
        assert np.array_equal(got_first.labels, ds.labels[first])


def test_heterogeneity_monotone_in_concentration():
    ds = generate_synthetic(seed=0, clusters=10, per_class=100, input_dim=2, spread=1.0)

    def mean_entropy(make):
        vals = []
        for seed in range(10):
            part = make(seed)
            vals.append(np.mean([
                entropy(np.bincount(ds.labels[s], minlength=10))
                for s in part]))
        return float(np.mean(vals))

    e03 = mean_entropy(lambda s: partition_dirichlet(ds, 20, 0.3, s))
    e06 = mean_entropy(lambda s: partition_dirichlet(ds, 20, 0.6, s))
    eiid = mean_entropy(lambda s: partition_iid(ds, 20, s))
    assert e03 <= e06 <= eiid


def test_split_stratified_proportions_and_determinism():
    ds = generate_synthetic(seed=1, clusters=4, per_class=25, input_dim=3, spread=1.0)
    train, test = split_stratified(ds, 0.2, seed=7)
    assert train.n == 80 and test.n == 20
    np.testing.assert_array_equal(np.bincount(test.labels, minlength=4), [5, 5, 5, 5])
    tr2, te2 = split_stratified(ds, 0.2, seed=7)
    np.testing.assert_array_equal(test.features, te2.features)
    np.testing.assert_array_equal(train.features, tr2.features)
    # a different seed picks a different test subset
    _, te3 = split_stratified(ds, 0.2, seed=8)
    assert not np.array_equal(test.features, te3.features)


def test_split_stratified_rejects_bad_fraction():
    ds = generate_synthetic(seed=1, clusters=2, per_class=5, input_dim=2, spread=1.0)
    for frac in (0.0, 1.0, -0.5):
        with pytest.raises(StructuralError):
            split_stratified(ds, frac, seed=0)


def test_take_per_class():
    ds = generate_synthetic(seed=0, clusters=3, per_class=10, input_dim=2, spread=1.0)
    train, test = take_per_class(ds, 7)
    assert train.n == 21 and test.n == 9
    np.testing.assert_array_equal(np.bincount(train.labels), [7, 7, 7])
    np.testing.assert_array_equal(np.bincount(test.labels), [3, 3, 3])
    # disjoint and covering: features concatenate back to the original multiset
    joined = np.vstack([train.features, test.features])
    assert joined.shape == ds.features.shape
