"""Fast invariant suite behind the ``fedsim selftest`` verb.

Six checks, each deterministic (fixed seeds) and fast enough to run on
every install: the server-momentum recurrence, analytic-vs-numeric
gradients, hyperparameter degenerations that must reproduce plain
averaging bit for bit, partition structure, clients stepped together
as a group matching each client stepped alone bit for bit, and client
streams seeded in bulk matching numpy's ``default_rng``. One PASS/FAIL
line is printed per check so a broken build names its failure.

``perturb_lambda_sign`` flips the sign of the momentum term inside the
recurrence check's own prediction. A healthy build must then FAIL that
check — it proves the checker can actually catch a broken update rule,
rather than passing vacuously.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .algorithms import REGISTRY, lookahead, momentum_residual_bound
from .client import LocalConfig, local_update, shard_group
from .data import Dataset, partition_dirichlet, synthetic_split
from .engine import RunConfig, prepare, run
from .errors import NumericError
from .models import ModelSpec, fd_gradient, gradient, make_batch, param_dim
from .server import Round, ServerHyper, init_state
from .streams import client_states


def _momentum_recurrence(perturb_lambda_sign: bool) -> bool:
    """Run random fedagm rounds through the fold and the check that
    ``engine.run`` calls, and verify delta' = tau*gbar + lam*delta both
    through the rule's own check and through an independently coded
    prediction (the one the sign perturbation bends)."""
    rule = REGISTRY["fedagm"]
    rng = np.random.default_rng(20250811)
    sign = -1.0 if perturb_lambda_sign else 1.0
    for _ in range(200):
        d = int(rng.integers(1, 64))
        hyper = ServerHyper(tau=float(rng.uniform(0.05, 1.0)),
                            lam=float(rng.uniform(0.05, 0.95)))
        theta, delta = rng.standard_normal(d), rng.standard_normal(d)
        state = init_state(theta, hyper, delta=delta)
        returns = np.array([state.theta + 0.1 * rng.standard_normal(d)
                            for _ in range(int(rng.integers(1, 9)))])
        rnd = Round(state, rule, range(len(returns)), lookahead(state))
        rnd.add(rnd.ids, returns)
        after = rnd.finish()
        try:
            rule.check(state, rnd.sums, after)
        except NumericError:
            return False
        bc = state.theta - hyper.lam * delta
        gbar = -(np.mean(returns, axis=0) - bc)
        predicted = hyper.tau * gbar + sign * hyper.lam * delta
        residual = float(np.max(np.abs(after.buffers["delta"] - predicted)))
        if residual > momentum_residual_bound(after):
            return False
    return True


def _gradients_match_fd() -> bool:
    rng = np.random.default_rng(7)
    cases = [ModelSpec("linear_regression", input_dim=4, l2_weight_decay=0.01),
             ModelSpec("softmax_classifier", input_dim=4, output_dim=3,
                       l2_weight_decay=0.001),
             ModelSpec("mlp", input_dim=3, output_dim=2, hidden_dims=(4,))]
    for spec in cases:
        for _ in range(5):
            n = int(rng.integers(1, 8))
            X = rng.normal(size=(n, spec.input_dim))
            if spec.kind == "linear_regression":
                y = rng.normal(size=n)
            else:
                y = rng.integers(0, spec.output_dim, size=n)
            params = rng.normal(size=param_dim(spec))
            batch = make_batch(X, y)
            g = gradient(spec, params, batch)
            fd = fd_gradient(spec, params, batch, h=1e-6)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            if rel > 1e-5:
                return False
    return True


def _records_identical(a, b, down: int) -> bool:
    """Same records, except that ``b`` sends ``down`` times the downlink."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        same = (ra.round == rb.round
                and _bits(ra.train_loss) == _bits(rb.train_loss)
                and _bits(ra.test_accuracy) == _bits(rb.test_accuracy)
                and _bits(ra.ema_accuracy) == _bits(rb.ema_accuracy)
                and ra.bytes_up == rb.bytes_up
                and down * ra.bytes_down == rb.bytes_down)
        if not same:
            return False
    return True


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _degenerations() -> bool:
    """Every rule collapsed to its trivial setting must match plain
    averaging exactly — first per local update, then over a full run."""
    spec = ModelSpec("softmax_classifier", input_dim=4, output_dim=3,
                     l2_weight_decay=0.001)
    ds = synthetic_split(seed=5, clusters=3, train_per_class=30, test_per_class=0,
                         input_dim=4, spread=1.0)[0]
    shard = shard_group(ds, [np.arange(20)])
    train, test = ds.subset(range(60)), ds.subset(range(60, 90))
    init = np.random.default_rng(1).normal(size=param_dim(spec))
    common = dict(model=spec, n_clients=6, rounds=5, participation=0.5, seed=3,
                  partition_kind="dirichlet", concentration=0.5)
    base_local = LocalConfig(k=10)
    ref = local_update(spec, init, shard, [0], base_local, 0, [np.random.default_rng(42)])
    base_config = RunConfig(algorithm="fedavg", local=base_local, **common)
    task = prepare(base_config, train, test)  # every rule's run shares it
    base = run(base_config, task)
    for name, algo in REGISTRY.items():
        if algo.trivial is None:
            continue
        local = replace(base_local, **algo.trivial.get("local", {}))
        server = replace(ServerHyper(), **algo.trivial.get("server", {}))
        state = init_state(init, server, **algo.buffers(init, 1))
        one = local_update(spec, init, shard, [0], local, 0, [np.random.default_rng(42)],
                           **algo.terms(state, local, [0]))
        if one.tobytes() != ref.tobytes():
            return False
        res = run(RunConfig(algorithm=name, local=local, server=server, **common), task)
        if not _records_identical(base.records, res.records, len(algo.payload(state))):
            return False
        if res.final_state.theta.tobytes() != base.final_state.theta.tobytes():
            return False
    return True


def _group_equals_one_at_a_time() -> bool:
    """A group of equal-size shards stepped together must give, row for
    row, the bytes of each shard stepped as a chunk of one — for every
    rule and model kind, with clipping engaged and a partial final batch."""
    rng = np.random.default_rng(17)
    specs = [ModelSpec("linear_regression", input_dim=3, l2_weight_decay=0.01),
             ModelSpec("softmax_classifier", input_dim=3, output_dim=4),
             ModelSpec("mlp", input_dim=3, output_dim=3, hidden_dims=(5,),
                       l2_weight_decay=0.001)]
    # 11 examples in batches of 4 end every epoch on a partial batch of 3
    cfg = LocalConfig(k=9, batch_size=4, lr0=0.3, lr_decay=0.9, clip_norm=0.5,
                      alpha=0.9, beta=0.05, prox_mu=0.1, cm_alpha=0.3, dyn_alpha=0.05)
    for spec in specs:
        d = param_dim(spec)
        X = 3.0 * rng.normal(size=(44, spec.input_dim))
        y = (rng.normal(size=44) if spec.kind == "linear_regression"
             else rng.integers(0, spec.output_dim, size=44))
        shards = shard_group(Dataset(X, y, spec.output_dim), np.arange(44).reshape(4, 11))
        init = rng.normal(size=d)
        for algo in REGISTRY.values():
            # random buffers give every rule a nonzero drift term v
            state = init_state(init, ServerHyper(), **{
                k: rng.normal(size=b.shape) for k, b in algo.buffers(init, 4).items()})
            group = local_update(spec, init, shards, range(4), cfg, 1,
                                 [np.random.default_rng(i) for i in range(4)],
                                 **algo.terms(state, cfg, list(range(4))))
            for i in range(4):
                alone = local_update(spec, init, shards, [i], cfg, 1,
                                     [np.random.default_rng(i)],
                                     **algo.terms(state, cfg, [i]))
                if group[i].tobytes() != alone[0].tobytes():
                    return False
    return True


def _partition_invariants() -> bool:
    rng = np.random.default_rng(13)
    ds = synthetic_split(seed=2, clusters=6, train_per_class=40, test_per_class=0,
                         input_dim=3, spread=1.0)[0]
    for _ in range(20):
        n_clients = int(rng.integers(2, 30))
        conc = float(rng.choice([0.05, 0.3, 1.0, 10.0]))
        part = partition_dirichlet(ds, n_clients, conc, int(rng.integers(0, 10 ** 6)))
        joined = np.concatenate(part)
        if joined.size != ds.n or np.unique(joined).size != ds.n:
            return False
        sizes = [a.size for a in part]
        if max(sizes) - min(sizes) > 1:
            return False
    return True


def _client_streams() -> bool:
    """Pooled generators re-seated with bulk-seeded states must draw what
    ``default_rng([seed, 2, round, client])`` draws, for a seed and a
    round of more than 32 bits too, even after a buffered 32-bit draw."""
    rounds, ids = [0, 59, 2 ** 32 + 1], [[0, 5, 999], [1, 2 ** 31], [3, 2 ** 32 - 1]]
    rng = np.random.Generator(np.random.PCG64(0))
    for seed in (0, 11, 2 ** 40 + 5):
        for t, cids, states in zip(rounds, ids, client_states(seed, rounds, ids)):
            for cid, st in zip(cids, states):
                rng.integers(2 ** 31)  # leaves half a 64-bit draw buffered
                rng.bit_generator.state = st
                ref = np.random.default_rng([seed, 2, t, cid])
                if (rng.bit_generator.state != ref.bit_generator.state
                        or rng.permutation(16).tolist() != ref.permutation(16).tolist()
                        or rng.integers(2 ** 31) != ref.integers(2 ** 31)):
                    return False
    return True


CHECKS = (
    ("momentum-recurrence", lambda perturb: _momentum_recurrence(perturb)),
    ("gradient-vs-finite-difference", lambda perturb: _gradients_match_fd()),
    ("degeneration-equivalence", lambda perturb: _degenerations()),
    ("partition-invariants", lambda perturb: _partition_invariants()),
    ("group-equals-one-at-a-time", lambda perturb: _group_equals_one_at_a_time()),
    ("client-streams", lambda perturb: _client_streams()),
)


def run_selftest(perturb_lambda_sign: bool = False) -> int:
    """Run every check, print one PASS/FAIL line per check, return the
    process exit status (0 iff all passed)."""
    failed = []
    for name, check in CHECKS:
        ok = check(perturb_lambda_sign)
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selftest failed: {', '.join(failed)}")
        return 1
    print("selftest passed")
    return 0
