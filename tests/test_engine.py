import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedsim import engine
from fedsim.algorithms import NAMES, REGISTRY, Algorithm
from fedsim.cli import main
from fedsim.client import LocalConfig, local_update, shard_group
from fedsim.data import Dataset, generate_synthetic, partition_dirichlet, take_per_class
from fedsim.engine import RunConfig, RoundRecord, run, sample_clients
from fedsim.errors import NumericError, StructuralError
from fedsim.models import ModelSpec, init_params
from fedsim.server import ServerHyper, aggregate, init_state


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
    assert a.records == b.records
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
    assert run(agm, train, test).records == run(avg, train, test).records


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
        1 + float(np.max(np.abs(out.final_state.buffers["delta"]))))



def test_live_momentum_check_aborts_a_broken_fedagm_step(monkeypatch, tmp_path, capsys):
    # a fedagm server step whose delta is nudged by 1e-6 breaks the
    # recurrence delta' = tau*gbar + lam*delta; the check in the registry
    # entry must stop the run at the first round, in the engine and the CLI
    fedagm = REGISTRY["fedagm"]

    def nudged(st, m, *rest):
        theta, buffers = fedagm.step(st, m, *rest)
        return theta, {"delta": buffers["delta"] + 1e-6}

    monkeypatch.setitem(REGISTRY, "fedagm", replace(fedagm, step=nudged))
    train, test = small_task()
    with pytest.raises(NumericError, match="momentum identity violated") as ei:
        run(config("fedagm"), train, test)
    assert ei.value.round == 0

    path = tmp_path / "fedagm.json"
    path.write_text(json.dumps({
        "algorithm": "fedagm", "rounds": 3, "clients": 4,
        "model": {"input_dim": 3, "output_dim": 2},
        "data": {"classes": 2, "train_per_class": 6, "test_per_class": 3, "input_dim": 3},
        "local": {"k": 2}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: momentum identity violated")
    assert "round=0" in err[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numeric_abort"
    assert manifest["error"] == err[0][len("error: "):]

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


def test_stacked_chunks_equal_one_client_at_a_time(monkeypatch):
    # 90 examples over 7 clients: shards of 13 and 12, two size groups
    train, test = small_task()
    calls = []

    def spy(spec, init, group, rows, *args, **kwargs):
        calls.append([group.labels.shape[1]] * len(rows))  # each row's shard size
        return local_update(spec, init, group, rows, *args, **kwargs)

    monkeypatch.setattr(engine, "local_update", spy)
    default = engine.STACK_BYTES
    for algo in ("fedagm", "feddyn", "fedcm"):
        cfg = config(algo, n_clients=7, participation=1.0, partition_kind="dirichlet",
                     local=LocalConfig(k=6, lr0=0.1, dyn_alpha=0.1))
        monkeypatch.setattr(engine, "STACK_BYTES", default)
        calls.clear()
        stacked = run(cfg, train, test)
        assert sorted(map(len, calls[:2])) == [1, 6]  # one call per size group
        assert all(len(set(sizes)) == 1 for sizes in calls)
        monkeypatch.setattr(engine, "STACK_BYTES", 1)
        calls.clear()
        serial = run(cfg, train, test)
        assert all(len(sizes) == 1 for sizes in calls)
        assert stacked.records == serial.records
        assert stacked.final_state.theta.tobytes() == serial.final_state.theta.tobytes()


def test_each_sampled_client_steps_on_its_own_shard():
    # one fedavg round at clients 0, 2, 3 and 4 of 7, whose Dirichlet shards
    # of 13 and 12 examples fall in both size groups (client 2 alone holds
    # 12, so the other group's rows are not its client ids): the new model
    # is the mean of each sampled client stepped alone on its own shard
    train, test = small_task()
    cfg = config("fedavg", rounds=1, n_clients=7, participation=4 / 7, seed=2,
                 partition_kind="dirichlet")
    ids = sample_clients(7, cfg.participation, 0, cfg.seed)
    assignments = partition_dirichlet(train, 7, cfg.concentration, cfg.seed)
    assert len(ids) == 4 and len({len(assignments[cid]) for cid in ids}) == 2
    theta0 = init_params(SPEC, np.random.default_rng([cfg.seed, 0]))
    alone = np.concatenate([
        local_update(SPEC, theta0, shard_group(train, [assignments[cid]], [cid]), [0],
                     cfg.local, 0, [np.random.default_rng([cfg.seed, 2, 0, cid])])
        for cid in ids])
    expected = aggregate(init_state(theta0, cfg.server), REGISTRY["fedavg"].step, alone)
    out = run(cfg, train, test)
    assert out.records[0].sampled_clients == tuple(ids)
    assert out.final_state.theta.tobytes() == expected.theta.tobytes()


def test_round_returns_die_before_the_next_round(monkeypatch):
    # neither the client models of round t nor the state they were folded
    # into is still referenced when round t+1 runs its first local update,
    # for any rule's step and check; both are released before the round
    # evaluates its new model
    train, test = small_task()
    refs, alive = [], []

    def spy_aggregate(state, step, returns, *args):
        refs.extend((weakref.ref(state), weakref.ref(returns)))
        return aggregate(state, step, returns, *args)

    def count_alive(fn):
        def spy(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(engine, "aggregate", spy_aggregate)
    monkeypatch.setattr(engine, "local_update", count_alive(local_update))
    monkeypatch.setattr(engine, "global_loss", count_alive(engine.global_loss))
    for name in NAMES:
        refs.clear()
        alive.clear()
        run(config(name, rounds=3, n_clients=7, participation=1.0,
                   partition_kind="dirichlet"), train, test)
        # two shard-size groups and one evaluation a round
        assert len(refs) == 6 and len(alive) == 9
        assert not any(alive), name


def test_numeric_abort_names_the_same_client_as_one_at_a_time(monkeypatch):
    # Diverging regression on 7 Dirichlet shards of 4 and 5 examples. The
    # size-4 chunk [0, 2, 4, 5, 6] runs first and loses clients 4 and 6 (at
    # steps 33 and 28); one at a time, client 3 of the other chunk fails
    # first, at step 37.
    rng = np.random.default_rng(75)
    ds = Dataset(10 ** rng.uniform(-4, 1, size=(30, 1)), np.repeat(np.arange(3), 10), 3)
    cfg = RunConfig(algorithm="fedavg", model=ModelSpec("linear_regression", input_dim=1),
                    n_clients=7, rounds=1, seed=75, partition_kind="dirichlet",
                    local=LocalConfig(k=40, lr0=1e4, clip_norm=1e300, batch_size=2))
    with pytest.raises(NumericError) as stacked:
        run(cfg, ds, ds)
    assert (stacked.value.round, stacked.value.client, stacked.value.step) == (0, 3, 37)
    monkeypatch.setattr(engine, "STACK_BYTES", 1)
    with pytest.raises(NumericError) as serial:
        run(cfg, ds, ds)
    assert str(stacked.value) == str(serial.value)


def test_config_validation():
    with pytest.raises(StructuralError):
        config("fedsgd")
    with pytest.raises(StructuralError):
        config("fedavg", participation=0.0)
    with pytest.raises(StructuralError):
        config("fedavg", targets=(1.5,))
    with pytest.raises(StructuralError):
        config("fedavg", partition_kind="power_law")


@pytest.mark.parametrize("name", NAMES)
def test_trivial_setting_runs_like_fedavg(name):
    # every rule in the registry declares the setting that reduces it to
    # fedavg; a whole run must then match it bit for bit, except that a
    # payload of several arrays multiplies the downlink
    trivial = REGISTRY[name].trivial
    if trivial is None:
        pytest.skip(f"{name} declares no setting that reduces it to fedavg")
    train, test = small_task()
    local = replace(LocalConfig(k=6, lr0=0.1), **trivial.get("local", {}))
    server = replace(ServerHyper(lam=0.85, tau=0.5), **trivial.get("server", {}))
    base = run(config("fedavg", rounds=6, local=local), train, test)
    out = run(config(name, rounds=6, local=local, server=server), train, test)
    arrays = len(REGISTRY[name].payload(out.final_state))
    assert out.records == [replace(r, bytes_down=arrays * r.bytes_down) for r in base.records]
    assert out.final_state.theta.tobytes() == base.final_state.theta.tobytes()


def test_a_new_rule_touches_only_the_registry(monkeypatch):
    # a throwaway rule: fedavg's client terms, and a server that moves only
    # halfway to the client mean
    halfway = Algorithm(step=lambda st, m, *_: (st.theta + 0.5 * (m - st.theta), {}))
    monkeypatch.setitem(REGISTRY, "halfway", halfway)
    train, test = small_task()
    one = run(config("halfway", rounds=1), train, test)
    avg = run(config("fedavg", rounds=1), train, test)
    theta0 = init_params(SPEC, np.random.default_rng([0, 0]))
    expected = theta0 + 0.5 * (avg.final_state.theta - theta0)
    assert one.final_state.theta.tobytes() == expected.tobytes()
    two = run(config("halfway", rounds=2), train, test)
    assert [r.round for r in two.records] == [1, 2]
    assert two.records[0] == one.records[0]
    assert two.final_state.round == 2 and two.max_momentum_residual is None
    assert np.isfinite(two.final_state.theta).all()
