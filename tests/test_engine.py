import dataclasses
import json
import math

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.client import LocalConfig
from fedsim.data import generate_synthetic, take_per_class
from fedsim.engine import RunConfig, RoundRecord, run, sample_clients
from fedsim.errors import NumericError, StructuralError
from fedsim.models import ModelSpec
from fedsim.server import ServerHyper


def small_task(seed=0):
    ds = generate_synthetic(seed=seed, clusters=3, per_class=40, input_dim=4, spread=1.0)
    return take_per_class(ds, 30)  # 90 train / 30 test


SPEC = ModelSpec("softmax_classifier", input_dim=4, output_dim=3, l2_weight_decay=0.001)


def config(algorithm, rounds=5, **kw):
    defaults = dict(algorithm=algorithm, model=SPEC, n_clients=9, rounds=rounds,
                    participation=1 / 3, seed=0,
                    local=LocalConfig(k=6, lr0=0.1),
                    server=ServerHyper(lam=0.85, tau=1.0))
    defaults.update(kw)
    return RunConfig(**defaults)


def strip_wall(records):
    return [dataclasses.replace(r, wall_ms=0) for r in records]


def test_sample_clients_full_participation():
    assert sample_clients(7, 1.0, round=0, seed=0) == list(range(7))


def test_sample_clients_size_rule():
    ids = sample_clients(100, 0.05, round=3, seed=9)
    assert len(ids) == 5 and len(set(ids)) == 5
    assert ids == sorted(ids)
    assert sample_clients(10, 0.01, round=0, seed=0) != []  # floor of one client


def test_sample_clients_deterministic():
    a = sample_clients(50, 0.2, round=7, seed=123)
    b = sample_clients(50, 0.2, round=7, seed=123)
    assert a == b
    assert a != sample_clients(50, 0.2, round=8, seed=123)


def test_zero_rounds_returns_nothing_and_keeps_model():
    train, test = small_task()
    out = run(config("fedavg", rounds=0), train, test)
    assert out.records == []
    np.testing.assert_array_equal(out.final_state.theta, np.zeros_like(out.final_state.theta))


def test_runs_are_reproducible():
    train, test = small_task()
    a = run(config("fedagm"), train, test)
    b = run(config("fedagm"), train, test)
    assert strip_wall(a.records) == strip_wall(b.records)
    assert a.final_state.theta.tobytes() == b.final_state.theta.tobytes()


def test_thread_count_does_not_change_results(tmp_path):
    # the engine has no thread count of its own; the CLI accepts --threads,
    # records it, and must produce the same files for any value
    for algo in ("fedagm", "feddyn"):
        path = tmp_path / f"{algo}.json"
        path.write_text(json.dumps({
            "algorithm": algo, "rounds": 5, "clients": 9, "participation": 1 / 3,
            "model": {"input_dim": 4, "output_dim": 3},
            "data": {"classes": 3, "train_per_class": 30, "test_per_class": 10,
                     "input_dim": 4},
            "local": {"k": 6}}), encoding="utf-8")
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{algo}_t{threads}"
            assert main(["run", "--config", str(path), "--threads", threads,
                         "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["threads"] == int(threads)
            outs.append(out)
        for name in ("rounds.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_fedagm_degenerates_to_fedavg_bitwise():
    train, test = small_task()
    agm = config("fedagm", rounds=8,
                 local=LocalConfig(k=6, lr0=0.1, alpha=1.0, beta=0.0),
                 server=ServerHyper(lam=0.0, tau=1.0))
    avg = config("fedavg", rounds=8, local=LocalConfig(k=6, lr0=0.1))
    assert strip_wall(run(agm, train, test).records) == \
        strip_wall(run(avg, train, test).records)


def test_byte_accounting_telescopes():
    train, test = small_task()
    d = 4 * 3 + 3
    for algo, factor in (("fedavg", 1), ("fedagm", 1), ("fedcm", 2)):
        out = run(config(algo, rounds=6), train, test)
        expected_participants = sum(
            len(sample_clients(9, 1 / 3, t, 0)) for t in range(6))
        assert sum(r.bytes_down for r in out.records) == factor * 8 * d * expected_participants
        assert sum(r.bytes_up for r in out.records) == 8 * d * expected_participants


def test_eval_every_controls_rows_not_bytes():
    train, test = small_task()
    every = run(config("fedavg", rounds=6), train, test)
    sparse = run(config("fedavg", rounds=6, eval_every=3), train, test)
    assert [r.round for r in sparse.records] == [3, 6]
    assert sum(r.bytes_down for r in sparse.records) == \
        sum(r.bytes_down for r in every.records)
    # evaluated metrics agree with the dense run at the same rounds
    dense = {r.round: r for r in every.records}
    for r in sparse.records:
        assert r.train_loss == dense[r.round].train_loss
        assert r.test_accuracy == dense[r.round].test_accuracy


def test_ema_column_follows_recurrence():
    train, test = small_task()
    out = run(config("fedavg", rounds=5), train, test)
    sm = out.records[0].test_accuracy
    assert out.records[0].ema_accuracy == sm
    for rec in out.records[1:]:
        sm = 0.9 * sm + 0.1 * rec.test_accuracy
        assert rec.ema_accuracy == pytest.approx(sm, abs=1e-15)


def test_momentum_residual_tracked_and_small():
    train, test = small_task()
    out = run(config("fedagm", rounds=10,
                     server=ServerHyper(lam=0.9, tau=0.2)), train, test)
    assert 0.0 <= out.max_momentum_residual <= 1e-12 * (
        1 + float(np.max(np.abs(out.final_state.delta))))


def test_feddyn_state_changes_trajectory():
    train, test = small_task()
    plain = run(config("fedavg", rounds=6), train, test)
    dyn = run(config("feddyn", rounds=6,
                     local=LocalConfig(k=6, lr0=0.1, dyn_alpha=0.1)), train, test)
    assert dyn.records[-1].train_loss != plain.records[-1].train_loss


def test_regression_runs_report_nan_accuracy():
    spec = ModelSpec("linear_regression", input_dim=2)
    ds = generate_synthetic(seed=1, clusters=2, per_class=20, input_dim=2, spread=0.5)
    cfg = RunConfig(algorithm="fedavg", model=spec, n_clients=4, rounds=3,
                    local=LocalConfig(k=3, lr0=0.01))
    out = run(cfg, ds, ds)
    assert math.isnan(out.records[-1].test_accuracy)
    assert math.isnan(out.records[-1].ema_accuracy)
    assert math.isfinite(out.records[-1].train_loss)


def test_numeric_abort_carries_round_and_client():
    spec = ModelSpec("linear_regression", input_dim=1)
    # two clusters so the integer labels (used as regression targets) are
    # not identically zero; the huge lr then overflows within a few steps
    ds = generate_synthetic(seed=1, clusters=2, per_class=8, input_dim=1, spread=0.1)
    cfg = RunConfig(algorithm="fedavg", model=spec, n_clients=2, rounds=5,
                    local=LocalConfig(k=10, lr0=1e150, clip_norm=1e300, batch_size=4))
    delivered = []
    with pytest.raises(NumericError) as ei:
        run(cfg, ds, ds, on_record=delivered.append)
    assert ei.value.round is not None
    assert ei.value.client is not None
    # every record completed before the abort was already streamed out
    assert all(isinstance(r, RoundRecord) for r in delivered)


def test_config_validation():
    with pytest.raises(StructuralError):
        config("fedsgd")
    with pytest.raises(StructuralError):
        config("fedavg", participation=0.0)
    with pytest.raises(StructuralError):
        config("fedavg", targets=(1.5,))
    with pytest.raises(StructuralError):
        config("fedavg", partition_kind="power_law")
