import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedsim import engine
from fedsim.algorithms import NAMES, REGISTRY, Algorithm
from fedsim.cli import main
from fedsim.client import LocalConfig, local_update, shard_group
from fedsim.data import Dataset, partition_dirichlet, synthetic_split
from fedsim.engine import RunConfig, RoundRecord, prepare, run, sample_clients
from fedsim.errors import NumericError, StructuralError
from fedsim.models import ModelSpec, init_params, param_dim
from fedsim.server import Round, ServerHyper
from fedsim.streams import client_states
from oracles import generate_synthetic, mean_by_rows


def small_data(seed=0):
    return synthetic_split(seed=seed, clusters=3, train_per_class=30, test_per_class=10,
                           input_dim=4, spread=1.0)  # 90 train / 30 test


SPEC = ModelSpec("softmax_classifier", input_dim=4, output_dim=3, l2_weight_decay=0.001)


def config(algorithm, rounds=5, **kw):
    defaults = dict(algorithm=algorithm, model=SPEC, n_clients=9, rounds=rounds,
                    participation=1 / 3, seed=0,
                    local=LocalConfig(k=6, lr0=0.1),
                    server=ServerHyper(lam=0.85, tau=1.0))
    defaults.update(kw)
    return RunConfig(**defaults)


def small_task(**kw):
    """The task of ``config(..., **kw)`` on :func:`small_data`."""
    return prepare(config("fedavg", **kw), *small_data())


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
    out = run(config("fedavg", rounds=0), small_task())
    assert out.records == []
    np.testing.assert_array_equal(out.final_state.theta, np.zeros_like(out.final_state.theta))


def test_runs_are_reproducible():
    a = run(config("fedagm"), small_task())
    b = run(config("fedagm"), small_task())
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
    agm = config("fedagm", rounds=8,
                 local=LocalConfig(k=6, lr0=0.1, alpha=1.0, beta=0.0),
                 server=ServerHyper(lam=0.0, tau=1.0))
    avg = config("fedavg", rounds=8, local=LocalConfig(k=6, lr0=0.1))
    task = small_task()
    assert run(agm, task).records == run(avg, task).records


def test_byte_accounting_telescopes():
    task = small_task()
    d = 4 * 3 + 3
    for algo, factor in (("fedavg", 1), ("fedagm", 1), ("fedcm", 2)):
        out = run(config(algo, rounds=6), task)
        expected_participants = sum(
            len(sample_clients(9, 1 / 3, t, 0)) for t in range(6))
        assert sum(r.bytes_down for r in out.records) == factor * 8 * d * expected_participants
        assert sum(r.bytes_up for r in out.records) == 8 * d * expected_participants


def test_eval_every_controls_rows_not_bytes():
    task = small_task()
    every = run(config("fedavg", rounds=6), task)
    sparse = run(config("fedavg", rounds=6, eval_every=3), task)
    assert [r.round for r in sparse.records] == [3, 6]
    assert sum(r.bytes_down for r in sparse.records) == \
        sum(r.bytes_down for r in every.records)
    # evaluated metrics agree with the dense run at the same rounds
    dense = {r.round: r for r in every.records}
    for r in sparse.records:
        assert r.train_loss == dense[r.round].train_loss
        assert r.test_accuracy == dense[r.round].test_accuracy


def test_the_last_round_is_evaluated_whatever_eval_every():
    # 7 rounds at eval_every 3: rounds 3 and 6, and round 7, the last,
    # whose bytes would otherwise go uncounted
    task = small_task()
    every = run(config("fedagm", rounds=7), task)
    sparse = run(config("fedagm", rounds=7, eval_every=3), task)
    assert [r.round for r in sparse.records] == [3, 6, 7]
    for side in ("bytes_down", "bytes_up"):
        assert sum(getattr(r, side) for r in sparse.records) == \
            sum(getattr(r, side) for r in every.records)
    last, dense_last = sparse.records[-1], every.records[-1]
    assert (last.train_loss, last.test_accuracy) == (dense_last.train_loss,
                                                     dense_last.test_accuracy)
    # an eval_every beyond the run evaluates the last round alone
    once = run(config("fedagm", rounds=7, eval_every=10 ** 6), task)
    assert [r.round for r in once.records] == [7]
    assert once.records[0].bytes_down == sum(r.bytes_down for r in every.records)


def test_ema_column_follows_recurrence():
    out = run(config("fedavg", rounds=5), small_task())
    sm = out.records[0].test_accuracy
    assert out.records[0].ema_accuracy == sm
    for rec in out.records[1:]:
        sm = 0.9 * sm + 0.1 * rec.test_accuracy
        assert rec.ema_accuracy == pytest.approx(sm, abs=1e-15)


def test_momentum_residual_tracked_and_small():
    out = run(config("fedagm", rounds=10, server=ServerHyper(lam=0.9, tau=0.2)),
              small_task())
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
    task = small_task()
    with pytest.raises(NumericError, match="momentum identity violated") as ei:
        run(config("fedagm"), task)
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
    task = small_task()
    plain = run(config("fedavg", rounds=6), task)
    dyn = run(config("feddyn", rounds=6, local=LocalConfig(k=6, lr0=0.1, dyn_alpha=0.1)),
              task)
    assert dyn.records[-1].train_loss != plain.records[-1].train_loss


def test_regression_runs_report_nan_accuracy():
    spec = ModelSpec("linear_regression", input_dim=2)
    ds = generate_synthetic(seed=1, clusters=2, per_class=20, input_dim=2, spread=0.5)
    cfg = RunConfig(algorithm="fedavg", model=spec, n_clients=4, rounds=3,
                    local=LocalConfig(k=3, lr0=0.01))
    out = run(cfg, prepare(cfg, ds, ds))
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
        run(cfg, prepare(cfg, ds, ds), on_record=delivered.append)
    assert ei.value.round is not None
    assert ei.value.client is not None
    # every record completed before the abort was already streamed out
    assert all(isinstance(r, RoundRecord) for r in delivered)


def test_stacked_chunks_equal_one_client_at_a_time(monkeypatch):
    # 90 examples over 7 clients: shards of 13 and 12, two size groups
    task = small_task(n_clients=7, partition_kind="dirichlet")
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
        stacked = run(cfg, task)
        assert sorted(map(len, calls[:2])) == [1, 6]  # one call per size group
        assert all(len(set(sizes)) == 1 for sizes in calls)
        monkeypatch.setattr(engine, "STACK_BYTES", 1)
        calls.clear()
        serial = run(cfg, task)
        assert all(len(sizes) == 1 for sizes in calls)
        assert stacked.records == serial.records
        assert stacked.final_state.theta.tobytes() == serial.final_state.theta.tobytes()


def test_each_sampled_client_steps_on_its_own_shard():
    # one fedavg round at clients 0, 2, 3 and 4 of 7, whose Dirichlet shards
    # of 13 and 12 examples fall in both size groups (client 2 alone holds
    # 12, so the other group's rows are not its client ids): the new model
    # is the mean of each sampled client stepped alone on its own shard,
    # taken group by group, ascending within a group
    train, test = small_data()
    cfg = config("fedavg", rounds=1, n_clients=7, participation=4 / 7, seed=2,
                 partition_kind="dirichlet")
    ids = sample_clients(7, cfg.participation, 0, cfg.seed)
    assignments = partition_dirichlet(train, 7, cfg.concentration, cfg.seed)
    assert len(ids) == 4 and len({len(assignments[cid]) for cid in ids}) == 2
    task = prepare(cfg, train, test)
    order = [cid for group in task.groups for cid in group.ids.tolist() if cid in ids]
    assert order == [0, 3, 4, 2]
    theta0 = init_params(SPEC, np.random.default_rng([cfg.seed, 0]))
    alone = {cid: local_update(SPEC, theta0, shard_group(train, [assignments[cid]], [cid]),
                               [0], cfg.local, 0, [np.random.default_rng([cfg.seed, 2, 0, cid])])
             for cid in ids}

    def mean_in(clients):
        return mean_by_rows(np.concatenate([alone[cid] for cid in clients]))

    out = run(cfg, task)
    assert out.final_state.theta.tobytes() == mean_in(order).tobytes()
    # the order shows: the same models folded in id order give other bytes
    assert mean_in(ids).tobytes() != mean_in(order).tobytes()
    # a plain ndarray, not local_update's subclass, which would slow every
    # later step on the model by a third
    assert type(out.final_state.theta) is np.ndarray


@pytest.mark.parametrize("clients, participation, rounds, blocks", [
    (200, 1.0, 6, (6, 6, 3)),   # 200 sampled a round: 2 rounds a block by default
    (5, 0.2, 7, (7, 3, 1)),     # 1 sampled a round: 3 rounds a block at 3
])
def test_outputs_do_not_depend_on_stream_block(monkeypatch, tmp_path, clients,
                                               participation, rounds, blocks):
    # the client streams are seeded STREAM_BLOCK client-rounds at a time;
    # the block only changes how many passes seed them, not a byte
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algorithm": "fedagm", "rounds": rounds, "clients": clients,
        "participation": participation, "seed": 2 ** 40 + 5,
        "partition": {"kind": "dirichlet", "concentration": 0.5},
        "local": {"k": 2}}))
    passes = []

    def counted(*args):
        passes.append(args[1])
        return client_states(*args)
    monkeypatch.setattr(engine, "client_states", counted)
    outputs = []
    for block, want in zip((1, 3, engine.STREAM_BLOCK), blocks):
        monkeypatch.setattr(engine, "STREAM_BLOCK", block)
        passes.clear()
        out = tmp_path / f"block{block}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(passes) == want and [t for p in passes for t in p] == list(range(rounds))
        outputs.append([(out / name).read_bytes() for name in ("rounds.csv", "summary.json")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_round_returns_die_before_the_next_round(monkeypatch):
    # neither a client model of round t nor the state it was folded into is
    # still referenced when round t+1 runs any local update, for any rule's
    # fold, step and check; both are released before round t evaluates its
    # new model, with two shard groups a round.
    task = small_task(n_clients=7, partition_kind="dirichlet")
    global_loss = engine.global_loss
    refs, alive = [], []  # (round, weak reference); live references per call

    def spy_round(state, *args):
        refs.append((state.round, weakref.ref(state)))
        return Round(state, *args)

    def spy_local_update(*args, **kwargs):
        t = args[5]
        alive.append(sum(ref() is not None for r, ref in refs if r < t))
        models = local_update(*args, **kwargs)
        refs.append((t, weakref.ref(models)))
        return models

    def spy_global_loss(*args):
        alive.append(sum(ref() is not None for _, ref in refs))
        return global_loss(*args)

    monkeypatch.setattr(engine, "Round", spy_round)
    monkeypatch.setattr(engine, "local_update", spy_local_update)
    monkeypatch.setattr(engine, "global_loss", spy_global_loss)
    for name in NAMES:
        refs.clear()
        alive.clear()
        run(config(name, rounds=3, n_clients=7, participation=1.0,
                   partition_kind="dirichlet"), task)
        # a state and two shard-size groups a round, one evaluation a round
        assert len(refs) == 9 and len(alive) == 9
        assert not any(alive), name


@pytest.mark.parametrize("name", NAMES)
def test_a_round_holds_one_chunk_of_client_models(monkeypatch, name):
    # two clients a chunk, five chunks a round on one shard group, each
    # folded as it comes: no chunk's models are still referenced when the
    # next local_update starts
    monkeypatch.setattr(engine, "STACK_BYTES", 2 * 8 * param_dim(SPEC))
    refs, alive = [], []

    def spy_local_update(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        models = local_update(*args, **kwargs)
        refs.append(weakref.ref(models))
        return models

    monkeypatch.setattr(engine, "local_update", spy_local_update)
    cfg = config(name, rounds=2, participation=1.0)
    run(cfg, prepare(cfg, *small_data()))
    assert len(alive) == 10 and not any(alive)


@pytest.mark.parametrize("name", ["fedavg", "feddyn", "fedagm"])
def test_a_round_holds_less_than_one_matrix_of_its_client_models(name):
    # the cross_silo benchmark task over 2 rounds: an mlp of d = 7,210 on
    # 100 Dirichlet(0.3) shards at full participation, K = 2. Beyond the
    # buffers its rule declares, a run's traced peak stays below one (S, d)
    # float64 matrix of its client models (5.5 MiB), and below 3 MiB.
    # Measured with numpy 2.4, in chunks of six clients: 2.55 (fedavg),
    # 2.92 (feddyn) and 2.92 MiB (fedagm); without the in-place tanh slope,
    # 2.64, 3.01 and 2.84 MiB. In chunks of four, before the workspace, an
    # evaluation that holds each layer's (rows, width) output and a step
    # that makes (S, d) temporaries read 3.2 MiB for each rule, and a round
    # that stacks its client models 7.5, 7.9 and 12.6 MiB.
    spec = ModelSpec("mlp", input_dim=64, output_dim=10, hidden_dims=(96,),
                     l2_weight_decay=0.001)
    train, test = synthetic_split(seed=11, clusters=10, train_per_class=200,
                                  test_per_class=50, input_dim=64, spread=1.0)
    cfg = RunConfig(algorithm=name, model=spec, n_clients=100, rounds=2, seed=11,
                    partition_kind="dirichlet", local=LocalConfig(k=2, epochs=1, lr0=0.1),
                    server=ServerHyper(tau=1.0, lam=0.85))
    d = param_dim(spec)
    buffers = sum(b.nbytes for b in REGISTRY[name].buffers(np.zeros(d), 100).values())
    tracemalloc.start()
    try:
        run(cfg, prepare(cfg, train, test))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - buffers < 100 * d * 8
    assert peak - buffers < 3.0 * 2 ** 20


@pytest.mark.parametrize("bad", ["columns", "labels"])
def test_prepare_checks_the_test_set_against_the_model(monkeypatch, bad):
    # a test set the model cannot read fails in prepare, before any round runs
    train, test = small_data()
    if bad == "columns":
        test = Dataset(test.features[:, :3], test.labels, 3)
    else:
        test = Dataset(test.features, np.where(test.labels == 2, 3, test.labels), 4)
    calls = []

    def spy_local_update(*args, **kwargs):
        calls.append(args[5])
        return local_update(*args, **kwargs)

    monkeypatch.setattr(engine, "local_update", spy_local_update)
    cfg = config("fedavg")
    with pytest.raises(StructuralError):
        run(cfg, prepare(cfg, train, test))
    assert calls == []


def test_numeric_abort_names_the_same_client_as_one_at_a_time(monkeypatch):
    # Diverging regression on 7 Dirichlet shards of 4 and 5 examples, in the
    # groups [0, 2, 4, 5, 6] and [1, 3]. The first group steps first and
    # loses clients 4 and 6 (at steps 33 and 28); client 3 of the second
    # group would fail too, at step 37. In fold order client 4 fails first,
    # and no chunk steps after the failing one: the first group's single
    # chunk, or clients 0, 2 and 4 one at a time.
    rng = np.random.default_rng(75)
    ds = Dataset(10 ** rng.uniform(-4, 1, size=(30, 1)), np.repeat(np.arange(3), 10), 3)
    cfg = RunConfig(algorithm="fedavg", model=ModelSpec("linear_regression", input_dim=1),
                    n_clients=7, rounds=1, seed=75, partition_kind="dirichlet",
                    local=LocalConfig(k=40, lr0=1e4, clip_norm=1e300, batch_size=2))
    task = prepare(cfg, ds, ds)
    chunks = []

    def spy(spec, init, group, rows, *args, **kwargs):
        chunks.append(group.ids[rows].tolist())
        return local_update(spec, init, group, rows, *args, **kwargs)

    monkeypatch.setattr(engine, "local_update", spy)
    with pytest.raises(NumericError) as stacked:
        run(cfg, task)
    assert (stacked.value.round, stacked.value.client, stacked.value.step) == (0, 4, 33)
    assert chunks == [[0, 2, 4, 5, 6]]
    chunks.clear()
    monkeypatch.setattr(engine, "STACK_BYTES", 1)
    with pytest.raises(NumericError) as serial:
        run(cfg, task)
    assert str(stacked.value) == str(serial.value)
    assert chunks == [[0], [2], [4]]


@pytest.mark.parametrize("change", [
    dict(seed=1), dict(n_clients=8), dict(partition_kind="dirichlet"),
    dict(concentration=0.5),
    dict(model=ModelSpec("softmax_classifier", input_dim=4, output_dim=3)),
], ids=["seed", "n_clients", "partition_kind", "concentration", "model"])
def test_run_refuses_a_task_prepared_for_another_config(change):
    task = small_task()
    with pytest.raises(StructuralError, match=f"prepared for another {next(iter(change))}"):
        run(config("fedavg", **change), task)
    # the rule, the schedule and the hyperparameters may differ
    run(config("fedagm", rounds=2, participation=1.0, eval_every=2,
               local=LocalConfig(k=2, lr0=0.3), server=ServerHyper(lam=0.5)), task)


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
    task = small_task()
    local = replace(LocalConfig(k=6, lr0=0.1), **trivial.get("local", {}))
    server = replace(ServerHyper(lam=0.85, tau=0.5), **trivial.get("server", {}))
    base = run(config("fedavg", rounds=6, local=local), task)
    out = run(config(name, rounds=6, local=local, server=server), task)
    arrays = len(REGISTRY[name].payload(out.final_state))
    assert out.records == [replace(r, bytes_down=arrays * r.bytes_down) for r in base.records]
    assert out.final_state.theta.tobytes() == base.final_state.theta.tobytes()


def test_a_new_rule_touches_only_the_registry(monkeypatch):
    # a throwaway rule: fedavg's client terms, and a server that moves only
    # halfway to the client mean
    halfway = Algorithm(step=lambda st, m, *_: (st.theta + 0.5 * (m - st.theta), {}))
    monkeypatch.setitem(REGISTRY, "halfway", halfway)
    task = small_task()
    one = run(config("halfway", rounds=1), task)
    avg = run(config("fedavg", rounds=1), task)
    theta0 = init_params(SPEC, np.random.default_rng([0, 0]))
    expected = theta0 + 0.5 * (avg.final_state.theta - theta0)
    assert one.final_state.theta.tobytes() == expected.tobytes()
    two = run(config("halfway", rounds=2), task)
    assert [r.round for r in two.records] == [1, 2]
    assert two.records[0] == one.records[0]
    assert two.final_state.round == 2 and two.max_momentum_residual is None
    assert np.isfinite(two.final_state.theta).all()
