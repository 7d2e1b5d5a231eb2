"""End-to-end acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one PASS/FAIL line
per criterion; each test also prints its measured numbers (visible with
``-rA`` or ``-s``). Every tolerance and wall-clock budget is asserted
inside the test that owns it.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.algorithms import aggregate_fedagm, momentum_residual, momentum_residual_bound
from fedsim.client import LocalConfig
from fedsim.data import generate_synthetic, partition_dirichlet, partition_iid, take_per_class
from fedsim.engine import RunConfig, run
from fedsim.metrics import Saturated, ema_update, rounds_to_target
from fedsim.models import ModelSpec, fd_gradient, gradient, make_batch, param_dim
from fedsim.server import ServerHyper, ServerState, init_state
from oracles import local_gradient_fedagm


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _cli_run(tmp_path, payload, out_name, extra=()):
    cfg = _write(tmp_path, f"{out_name}.json", payload)
    out = tmp_path / out_name
    code = main(["run", "--config", cfg, "--out", str(out), *extra])
    assert code == 0, f"run {out_name} exited {code}"
    return out


# ------------------------------------------------------------ criterion 1
# Momentum recurrence: over >= 1000 fedagm rounds across randomized
# configs (parameter dim <= 200, clients <= 100), every round's residual
# ||delta' - (tau*gbar + lam*delta)||_inf stays within 1e-12 relative.
# Budget: < 30 s.


def _random_fedagm_config(rng):
    kind = ["linear_regression", "softmax_classifier", "mlp"][int(rng.integers(0, 3))]
    if kind == "linear_regression":
        spec = ModelSpec(kind, input_dim=int(rng.integers(1, 201)),
                         l2_weight_decay=0.001)
        classes = 3
    elif kind == "softmax_classifier":
        classes = int(rng.integers(2, 6))
        spec = ModelSpec(kind, input_dim=int(rng.integers(2, 39)),
                         output_dim=classes, l2_weight_decay=0.001)
    else:
        classes = int(rng.integers(2, 4))
        spec = ModelSpec(kind, input_dim=int(rng.integers(2, 8)),
                         output_dim=classes, hidden_dims=(int(rng.integers(2, 6)),),
                         l2_weight_decay=0.001)
    assert param_dim(spec) <= 200
    n_clients = int(rng.integers(1, 101))
    per_class = max(2, math.ceil(2 * n_clients / classes))
    data_seed = int(rng.integers(0, 10 ** 6))
    ds = generate_synthetic(seed=data_seed, clusters=classes, per_class=per_class,
                            input_dim=spec.input_dim, spread=1.0)
    local = LocalConfig(k=int(rng.integers(2, 8)), epochs=1,
                        lr0=float(rng.choice([0.02, 0.05, 0.1])),
                        beta=float(rng.choice([0.0, 0.001, 0.01, 0.1])))
    server = ServerHyper(tau=float(rng.uniform(0.05, 1.0)),
                         lam=float(rng.uniform(0.0, 0.95)))
    cfg = RunConfig(algorithm="fedagm", model=spec, n_clients=n_clients, rounds=25,
                    participation=float(rng.uniform(0.05, 0.6)),
                    seed=int(rng.integers(0, 10 ** 6)), eval_every=10 ** 6,
                    partition_kind=["iid", "dirichlet"][int(rng.integers(0, 2))],
                    concentration=float(rng.choice([0.1, 0.3, 1.0])),
                    local=local, server=server)
    return cfg, ds


def test_c1_momentum_identity_over_randomized_runs():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()

    # engine level: run aborts any round whose residual exceeds the 1e-12
    # relative bound, so completing every randomized run is the check
    total_rounds = 0
    worst = 0.0
    while total_rounds < 1000:
        cfg, ds = _random_fedagm_config(rng)
        result = run(cfg, ds, ds)
        total_rounds += cfg.rounds
        worst = max(worst, result.max_momentum_residual)

    # server level: same identity checked directly against the bound on
    # random states up to the full d=200, independent of engine plumbing
    for _ in range(500):
        d = int(rng.integers(1, 201))
        hyper = ServerHyper(tau=float(rng.uniform(0.05, 1.0)),
                            lam=float(rng.uniform(0.0, 0.95)))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        state = init_state(scale * rng.standard_normal(d), hyper,
                           delta=scale * rng.standard_normal(d))
        returns = np.array([state.theta + scale * 0.1 * rng.standard_normal(d)
                            for _ in range(int(rng.integers(1, 101)))])
        after = aggregate_fedagm(state, returns)
        residual = momentum_residual(state, returns, after)
        assert residual <= momentum_residual_bound(after)

    elapsed = time.perf_counter() - t0
    print(f"[criterion 1] {total_rounds} engine rounds + 500 direct rounds, "
          f"worst engine residual {worst:.3e}, {elapsed:.1f}s")
    assert elapsed < 30


# ------------------------------------------------------------ criterion 2
# Degeneration equivalence through the CLI: each rule collapsed to its
# trivial hyperparameters matches FedAvg's rounds.csv byte for byte over
# 200 rounds (FedCM compared on all columns except bytes_down, whose 2x
# downlink is mandated separately by criterion 6). Budget: < 1 min.

_C2_BASE = {
    "algorithm": "fedavg",
    "rounds": 200,
    "clients": 6,
    "participation": 0.5,
    "seed": 11,
    "model": {"input_dim": 4, "output_dim": 3},
    "data": {"classes": 3, "train_per_class": 40, "test_per_class": 10,
             "input_dim": 4},
    "partition": {"kind": "dirichlet", "concentration": 0.5},
    "local": {"k": 5, "alpha": 1.0, "beta": 0.0, "prox_mu": 0.0,
              "cm_alpha": 1.0, "dyn_alpha": 0.0},
}


def _strip_bytes_down(text: str) -> str:
    lines = text.splitlines()
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[4]
        out.append(",".join(cells))
    return "\n".join(out)


def test_c2_degenerations_bit_identical_rounds_csv(tmp_path):
    t0 = time.perf_counter()
    ref = (_cli_run(tmp_path, _C2_BASE, "ref") / "rounds.csv").read_bytes()
    variants = {
        "fedagm": {"server": {"lam": 0.0, "tau": 1.0}},
        "fedprox": {},
        "feddyn": {},
        "fedcm": {},
        "fedavgm": {"server": {"avgm_beta": 0.0, "global_lr": 1.0}},
    }
    for algo, tweak in variants.items():
        payload = json.loads(json.dumps(_C2_BASE))
        payload["algorithm"] = algo
        payload.update(tweak)
        got = (_cli_run(tmp_path, payload, algo) / "rounds.csv").read_bytes()
        if algo == "fedcm":
            assert _strip_bytes_down(got.decode()) == _strip_bytes_down(ref.decode()), \
                "fedcm(cm_alpha=1) diverged from fedavg outside bytes_down"
        else:
            assert got == ref, f"{algo} degeneration is not bit-identical to fedavg"
    elapsed = time.perf_counter() - t0
    print(f"[criterion 2] 5 degenerate pairs x 200 rounds bit-identical, {elapsed:.1f}s")
    assert elapsed < 60


# ------------------------------------------------------------ criterion 3
# Analytic gradients match central finite differences: 20 random cases
# per model kind, relative L2 error <= 1e-5. Budget: < 10 s.


def test_c3_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for kind in ("linear_regression", "softmax_classifier", "mlp"):
        for _ in range(20):
            if kind == "linear_regression":
                spec = ModelSpec(kind, input_dim=int(rng.integers(1, 8)),
                                 l2_weight_decay=float(rng.choice([0.0, 0.001, 0.01])))
                n = int(rng.integers(1, 10))
                batch = make_batch(rng.normal(size=(n, spec.input_dim)),
                                   rng.normal(size=n))
            else:
                hidden = (int(rng.integers(2, 6)),) if kind == "mlp" else ()
                spec = ModelSpec(kind, input_dim=int(rng.integers(2, 8)),
                                 output_dim=int(rng.integers(2, 6)),
                                 hidden_dims=hidden,
                                 l2_weight_decay=float(rng.choice([0.0, 0.001, 0.01])))
                n = int(rng.integers(1, 10))
                batch = make_batch(rng.normal(size=(n, spec.input_dim)),
                                   rng.integers(0, spec.output_dim, size=n))
            params = rng.normal(size=param_dim(spec))
            g = gradient(spec, params, batch)
            fd = fd_gradient(spec, params, batch, h=1e-6)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-5
    elapsed = time.perf_counter() - t0
    print(f"[criterion 3] 60 cases, worst relative L2 error {worst:.3e}, {elapsed:.1f}s")
    assert elapsed < 10


# ------------------------------------------------------------ criterion 4
# The penalized local gradient decomposes exactly as
# alpha*grad_f + beta*lam*delta + beta*(theta - theta_server), to 1e-12
# absolute, over 100 random draws.


def test_c4_local_gradient_decomposition():
    rng = np.random.default_rng(404)
    spec = ModelSpec("softmax_classifier", input_dim=5, output_dim=3,
                     l2_weight_decay=0.001)
    d = param_dim(spec)
    worst = 0.0
    for _ in range(100):
        theta_server = rng.standard_normal(d)
        delta = rng.standard_normal(d)
        theta = rng.standard_normal(d)
        lam = float(rng.uniform(0.0, 0.95))
        cfg = LocalConfig(alpha=float(rng.uniform(0.5, 1.0)),
                          beta=float(rng.choice([0.001, 0.01, 0.1])))
        n = int(rng.integers(1, 8))
        batch = make_batch(rng.normal(size=(n, 5)), rng.integers(0, 3, size=n))
        broadcast_point = theta_server - lam * delta
        got = local_gradient_fedagm(spec, theta, batch, broadcast_point, cfg)
        want = (cfg.alpha * gradient(spec, theta, batch)
                + cfg.beta * lam * delta + cfg.beta * (theta - theta_server))
        diff = float(np.max(np.abs(got - want)))
        worst = max(worst, diff)
        assert diff <= 1e-12
    print(f"[criterion 4] 100 draws, worst absolute deviation {worst:.3e}")


# ------------------------------------------------------------ criterion 5
# Partitions form a disjoint cover with sizes within +/-1 over 200
# randomized (clients, concentration, seed) triples, and mean per-client
# label entropy is monotone: Dir(0.3) <= Dir(0.6) <= IID over 10 seeds.


def _entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def test_c5_partition_invariants_and_heterogeneity_order():
    rng = np.random.default_rng(505)
    for _ in range(200):
        classes = int(rng.integers(2, 7))
        per_class = int(rng.integers(15, 50))
        ds = generate_synthetic(seed=int(rng.integers(0, 10 ** 6)), clusters=classes,
                                per_class=per_class, input_dim=2, spread=1.0)
        n_clients = int(rng.integers(2, min(41, ds.n + 1)))
        conc = float(rng.choice([0.05, 0.3, 0.6, 1.0, 10.0]))
        part = partition_dirichlet(ds, n_clients, conc, int(rng.integers(0, 10 ** 6)))
        assert len(part) == n_clients
        joined = np.concatenate(part)
        assert joined.size == ds.n and np.unique(joined).size == ds.n
        sizes = [a.size for a in part]
        assert max(sizes) - min(sizes) <= 1

    ds = generate_synthetic(seed=3, clusters=10, per_class=100, input_dim=2, spread=1.0)

    def mean_entropy(make):
        per_seed = []
        for seed in range(10):
            part = make(seed)
            per_seed.append(np.mean([
                _entropy(np.bincount(ds.labels[a], minlength=10))
                for a in part]))
        return float(np.mean(per_seed))

    e_03 = mean_entropy(lambda s: partition_dirichlet(ds, 20, 0.3, s))
    e_06 = mean_entropy(lambda s: partition_dirichlet(ds, 20, 0.6, s))
    e_iid = mean_entropy(lambda s: partition_iid(ds, 20, s))
    assert e_03 <= e_06 <= e_iid
    print(f"[criterion 5] 200 partitions valid; entropy {e_03:.3f} <= {e_06:.3f} "
          f"<= {e_iid:.3f}")


# ------------------------------------------------------------ criterion 6
# Communication accounting: total bytes_down equals d * 8 * sum(|S_t|)
# for every algorithm except fedcm, which is exactly twice that.


def test_c6_downlink_byte_accounting():
    spec = ModelSpec("softmax_classifier", input_dim=4, output_dim=3,
                     l2_weight_decay=0.001)
    d = param_dim(spec)
    ds = generate_synthetic(seed=7, clusters=3, per_class=30, input_dim=4, spread=1.0)
    for algo in ("fedavg", "fedprox", "fedavgm", "fedadam", "feddyn", "fedcm",
                 "fedagm"):
        cfg = RunConfig(algorithm=algo, model=spec, n_clients=9, rounds=30,
                        participation=0.37, seed=5, partition_kind="dirichlet",
                        concentration=0.5, local=LocalConfig(k=3, epochs=1))
        result = run(cfg, ds, ds)
        sampled = sum(len(r.sampled_clients) for r in result.records)
        expected = d * 8 * sampled * (2 if algo == "fedcm" else 1)
        got = sum(r.bytes_down for r in result.records)
        assert got == expected, f"{algo}: bytes_down {got} != {expected}"
    print(f"[criterion 6] downlink totals exact for all 7 algorithms "
          f"(d={d}, 30 rounds, 37% participation)")


# ------------------------------------------------------------ criterion 7
# Metric oracles: the EMA recurrence matches a direct evaluation on 100
# random series to 1e-12; rounds_to_target matches a brute-force scan;
# saturation renders as "1000+".


def test_c7_metric_oracles():
    rng = np.random.default_rng(707)
    for _ in range(100):
        values = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 50)))
        smoothed, ema, direct = [], None, []
        for v in values:
            ema = ema_update(ema, float(v))
            smoothed.append(ema)
            direct.append(v if not direct else 0.9 * direct[-1] + 0.1 * v)
        for got, want in zip(smoothed, direct):
            assert abs(got - want) <= 1e-12

        target = float(rng.uniform(0.05, 0.95))
        limit = int(rng.integers(1, 60))
        got = rounds_to_target(smoothed, target, limit)
        want = next((i + 1 for i, v in enumerate(smoothed[:limit])
                     if v >= target), None)
        if want is None:
            assert isinstance(got, Saturated) and got.limit == limit
        else:
            assert got == want

    assert str(Saturated(1000)) == "1000+"
    print("[criterion 7] EMA, rounds-to-target, and saturation rendering all "
          "match their oracles")


# ------------------------------------------------------------ criterion 8
# Directional convergence on the benchmark task: 10 classes, 20 inputs,
# 5000 training examples, Dirichlet(0.3) across 100 clients, 5%
# participation, K=50, lam=0.85, tau=1.0, beta=0.01. Median rounds to
# drive the global training loss below LOSS_TARGET must be at least 10%
# lower for fedagm than for fedavg over seeds 0..4. Budget: < 5 min.
#
# LOSS_TARGET and ROUND_BUDGET are frozen from a 150-round probe of this
# exact task: per-seed rounds-to-0.2 measured fedagm [3,5,3,4,3] (median
# 3) vs fedavg [6,15,7,5,6] (median 6); the budget is 4x the worst
# observed seed.

LOSS_TARGET = 0.2
ROUND_BUDGET = 60


def test_c8_fedagm_reaches_loss_target_faster():
    t0 = time.perf_counter()
    spec = ModelSpec("softmax_classifier", input_dim=20, output_dim=10,
                     l2_weight_decay=0.001)
    local = LocalConfig(k=50, epochs=5, lr0=0.1, beta=0.01)
    medians = {}
    for algo in ("fedagm", "fedavg"):
        hits = []
        for seed in range(5):
            full = generate_synthetic(seed=seed, clusters=10, per_class=550,
                                      input_dim=20, spread=1.0)
            train, test = take_per_class(full, 500)
            cfg = RunConfig(algorithm=algo, model=spec, n_clients=100,
                            rounds=ROUND_BUDGET, participation=0.05, seed=seed,
                            partition_kind="dirichlet", concentration=0.3,
                            local=local, server=ServerHyper(tau=1.0, lam=0.85))
            result = run(cfg, train, test)
            hit = next((r.round for r in result.records
                        if r.train_loss <= LOSS_TARGET), None)
            assert hit is not None, \
                f"{algo} seed {seed} never reached loss {LOSS_TARGET} " \
                f"within {ROUND_BUDGET} rounds"
            hits.append(hit)
        medians[algo] = statistics.median(hits)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 8] median rounds to loss<={LOSS_TARGET}: "
          f"fedagm {medians['fedagm']} vs fedavg {medians['fedavg']}, {elapsed:.1f}s")
    assert medians["fedagm"] <= 0.9 * medians["fedavg"]
    assert elapsed < 300


# ------------------------------------------------------------ criterion 9
# Determinism across worker counts: three configs, each run with
# --threads 1 and --threads 8, produce byte-identical rounds.csv and
# summary.json.


def test_c9_thread_count_never_changes_output(tmp_path):
    configs = [
        {"algorithm": "fedagm", "rounds": 30, "clients": 12, "seed": 1,
         "targets": [0.6],
         "model": {"input_dim": 5, "output_dim": 3},
         "data": {"classes": 3, "train_per_class": 40, "test_per_class": 10,
                  "input_dim": 5},
         "partition": {"kind": "dirichlet", "concentration": 0.3},
         "local": {"k": 6}},
        {"algorithm": "fedadam", "rounds": 30, "clients": 8, "seed": 2,
         "participation": 0.6,
         "model": {"kind": "mlp", "input_dim": 4, "output_dim": 3,
                   "hidden_dims": [4]},
         "data": {"classes": 3, "train_per_class": 30, "test_per_class": 8,
                  "input_dim": 4},
         "local": {"k": 4}},
        {"algorithm": "fedcm", "rounds": 30, "clients": 10, "seed": 3,
         "participation": 0.5,
         "model": {"input_dim": 6, "output_dim": 4},
         "data": {"classes": 4, "train_per_class": 30, "test_per_class": 8,
                  "input_dim": 6},
         "partition": {"kind": "dirichlet", "concentration": 0.5},
         "local": {"k": 5}},
    ]
    for i, payload in enumerate(configs):
        single = _cli_run(tmp_path, payload, f"c{i}_t1", extra=("--threads", "1"))
        pooled = _cli_run(tmp_path, payload, f"c{i}_t8", extra=("--threads", "8"))
        for name in ("rounds.csv", "summary.json"):
            assert (single / name).read_bytes() == (pooled / name).read_bytes(), \
                f"config {i}: {name} differs between --threads 1 and --threads 8"
    print("[criterion 9] 3 configs byte-identical across --threads 1 vs 8")
