import math
from dataclasses import replace

import numpy as np
import pytest

from fedsim import engine
from fedsim.algorithms import NAMES, REGISTRY, feddyn_updated_state
from fedsim.client import (LocalConfig, derive_batch_size, local_update, shard_group,
                           shard_groups)
from fedsim.data import Dataset, generate_synthetic, partition_dirichlet
from fedsim.engine import RunConfig
from fedsim.errors import NumericError, StructuralError
from fedsim.models import ModelSpec, gradient, make_batch, param_dim
from fedsim.params import axpy
from fedsim.server import ServerHyper, init_state
from oracles import clip_by_norm, local_gradient_fedagm

QUAD = ModelSpec("linear_regression", input_dim=1)


def quad_shard(target, copies=1):
    X = np.ones((copies, 1))
    y = np.full(copies, float(target))
    return Dataset(X, y, 1)


def classif_shard(seed=0, n=12, dim=3, classes=3):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, dim)),
                   rng.integers(0, classes, size=n).astype(np.int64), classes)


SPEC3 = ModelSpec("softmax_classifier", input_dim=3, output_dim=3)


def stacked(shards, ids=None):
    """The shard group of equal-size Datasets, one row each, in order,
    owned by the clients ``ids`` (default 0, 1, ...)."""
    n = shards[0].n
    ds = Dataset(np.concatenate([s.features for s in shards]),
                 np.concatenate([s.labels for s in shards]), shards[0].class_count)
    return shard_group(ds, np.arange(len(shards) * n).reshape(len(shards), n), ids)


def update(spec, init, shards, cfg, round, rngs, ids=None, **kw):
    """local_update over every row of the group of ``shards``, owned by
    the clients ``ids``."""
    return local_update(spec, init, stacked(shards, ids), range(len(shards)), cfg, round,
                        rngs, **kw)


def terms(rule, cfg, init, aux=None, S=1):
    """The registry's client terms (a, v, c) of ``rule`` for S clients,
    with ``aux`` as fedcm's server momentum or feddyn's correctors h_i
    (one row per client)."""
    algo = REGISTRY[rule]
    buffers = algo.buffers(init, S)
    if aux is not None and rule == "fedcm":
        buffers["cm_momentum"] = aux
    if aux is not None and rule == "feddyn":
        buffers["h"] = aux.reshape(S, -1)
    return algo.terms(init_state(init, ServerHyper(), **buffers), cfg, list(range(S)))


def group(spec, init, shards, cfg, round, rngs, rule, aux=None, **kw):
    """local_update with the terms the registry gives ``rule``."""
    return update(spec, init, shards, cfg, round, rngs,
                  **terms(rule, cfg, init, aux, len(shards)), **kw)


def alone(spec, init, shard, cfg, round, rng, rule, aux=None):
    """local_update on a group of one: the final params."""
    out = group(spec, init, [shard], cfg, round, [rng], rule, aux=aux)
    assert out.shape == (1, init.size)
    return out[0]


def run(rule, seed=5, cfg=None, aux=None, init=None, round=0, shard=None):
    shard = shard if shard is not None else classif_shard()
    cfg = cfg or LocalConfig(k=7, lr0=0.1)
    if init is None:
        init = np.random.default_rng(1).normal(size=param_dim(SPEC3))
    return alone(SPEC3, init, shard, cfg, round, np.random.default_rng(seed), rule,
                 aux=aux)


def test_single_full_batch_step_hand_oracle():
    cfg = LocalConfig(k=1, batch_size=1, lr0=0.1, beta=0.0)
    out = update(QUAD, np.zeros(1), [quad_shard(3.0)], cfg, 0, [np.random.default_rng(0)])
    assert out[0, 0] == pytest.approx(0.3, abs=1e-15)
    assert out.nbytes == 8  # the uplink of one client of a d = 1 model


def test_zero_learning_rate_keeps_init():
    init = np.random.default_rng(3).normal(size=param_dim(SPEC3))
    cfg = LocalConfig(k=9, lr0=0.0)
    final = alone(SPEC3, init, classif_shard(), cfg, 4, np.random.default_rng(0),
                  "fedavg")
    np.testing.assert_array_equal(final, init)


def test_lr_decay_applies_per_round():
    shard = quad_shard(3.0)
    cfg = LocalConfig(k=1, batch_size=1, lr0=0.1, lr_decay=0.5)
    late = alone(QUAD, np.zeros(1), shard, cfg, 2, np.random.default_rng(0), "fedavg")
    # eta = 0.1 * 0.5**2 = 0.025; theta = 0.025*3
    assert late[0] == pytest.approx(0.075, abs=1e-15)


@pytest.mark.parametrize("rule,cfg,aux", [
    ("fedagm", LocalConfig(k=7, alpha=1.0, beta=0.0), None),
    ("fedprox", LocalConfig(k=7, prox_mu=0.0), None),
    ("feddyn", LocalConfig(k=7, dyn_alpha=0.0), np.zeros(param_dim(SPEC3))),
    ("fedcm", LocalConfig(k=7, cm_alpha=1.0), np.random.default_rng(9).normal(size=param_dim(SPEC3))),
])
def test_degenerations_are_bit_identical_to_fedavg(rule, cfg, aux):
    base = run("fedavg", cfg=LocalConfig(k=7))
    other = run(rule, cfg=cfg, aux=aux)
    assert base.tobytes() == other.tobytes()


MLP3 = ModelSpec("mlp", input_dim=3, output_dim=3, hidden_dims=(4,), l2_weight_decay=0.01)
REG3 = ModelSpec("linear_regression", input_dim=3, l2_weight_decay=0.01)


def reference_update(spec, init, shard, cfg, round, rng, rule, aux):
    """local_update as a plain loop over the public, fully checked pieces,
    with each rule's terms written out as the paper states them."""
    bs = min(cfg.batch_size or derive_batch_size(shard.n, cfg.epochs, cfg.k), shard.n)
    eta = cfg.lr0 * cfg.lr_decay ** round
    theta = init.copy()
    order = rng.permutation(shard.n)
    pos = 0
    for step in range(cfg.k):
        if pos >= shard.n:
            order = rng.permutation(shard.n)
            pos = 0
        batch = shard.subset(order[pos:pos + bs]).to_batch()
        pos += bs
        g = gradient(spec, theta, batch)
        if rule == "fedagm":
            g = cfg.alpha * g + cfg.beta * (theta - init)
        elif rule == "fedprox":
            g = g + cfg.prox_mu * (theta - init)
        elif rule == "feddyn":
            g = g - aux + cfg.dyn_alpha * (theta - init)
        elif rule == "fedcm":
            g = cfg.cm_alpha * g + (1.0 - cfg.cm_alpha) * aux
        theta = axpy(-eta, clip_by_norm(g, cfg.clip_norm), theta)
    return theta


@pytest.mark.parametrize("spec", [SPEC3, MLP3, REG3], ids=lambda s: s.kind)
@pytest.mark.parametrize("rule", NAMES)
def test_local_update_matches_reference_loop(spec, rule):
    rng = np.random.default_rng(6)
    d = param_dim(spec)
    if spec.kind == "linear_regression":
        shard = Dataset(rng.normal(size=(12, 3)), rng.normal(size=12), 1)
    else:
        shard = classif_shard(seed=6)
    init = rng.normal(size=d)
    aux = rng.normal(size=d) if rule in ("feddyn", "fedcm") else None
    cfg = LocalConfig(k=7, lr0=0.2, lr_decay=0.9, clip_norm=1.5, alpha=0.9, beta=0.05,
                      prox_mu=0.1, cm_alpha=0.3, dyn_alpha=0.05)
    final = alone(spec, init, shard, cfg, 2, np.random.default_rng(3), rule, aux=aux)
    theta = reference_update(spec, init, shard, cfg, 2, np.random.default_rng(3), rule, aux)
    assert final.tobytes() == theta.tobytes()


def group_case(spec, S=3, n=11):
    rng = np.random.default_rng(21)
    shards = []
    for _ in range(S):
        X = 3.0 * rng.normal(size=(n, spec.input_dim))
        y = (rng.normal(size=n) if spec.kind == "linear_regression"
             else rng.integers(0, spec.output_dim, size=n))
        shards.append(Dataset(X, y, spec.output_dim))
    return shards, rng.normal(size=param_dim(spec))


@pytest.mark.parametrize("spec", [SPEC3, MLP3, REG3], ids=lambda s: s.kind)
@pytest.mark.parametrize("rule", NAMES)
def test_group_rows_equal_groups_of_one(spec, rule):
    S, d = 3, param_dim(spec)
    shards, init = group_case(spec, S)
    rng = np.random.default_rng(8)
    aux = {"feddyn": rng.normal(size=(S, d)), "fedcm": rng.normal(size=d)}.get(rule)
    # 11 examples in batches of 4: every epoch ends on a partial batch of 3
    cfg = LocalConfig(k=9, batch_size=4, lr0=0.3, lr_decay=0.9, clip_norm=0.5,
                      alpha=0.9, beta=0.05, prox_mu=0.1, cm_alpha=0.3, dyn_alpha=0.05)
    together = group(spec, init, shards, cfg, 1,
                     [np.random.default_rng(10 + i) for i in range(S)], rule, aux=aux)
    assert together.shape == (S, d)
    for i, shard in enumerate(shards):
        row_aux = aux[i:i + 1] if rule == "feddyn" else aux
        final = alone(spec, init, shard, cfg, 1, np.random.default_rng(10 + i),
                      rule, aux=row_aux)
        assert together[i].tobytes() == final.tobytes()
        # the case clips: without the ball the same row ends elsewhere
        unclipped = alone(spec, init, shard, replace(cfg, clip_norm=1e9), 1,
                          np.random.default_rng(10 + i), rule, aux=row_aux)
        assert unclipped.tobytes() != final.tobytes()


def test_group_failure_names_the_lowest_failing_client():
    # targets 1, 1e100, 1e200 with a huge step: client 3 survives both steps,
    # client 5 overflows its gradient norm at step 1 and client 8 at step 0;
    # one at a time in id order, client 5 is the first to fail
    cfg = LocalConfig(k=2, batch_size=1, lr0=1e150, clip_norm=1e300)
    shards = [quad_shard(1.0), quad_shard(1e100), quad_shard(1e200)]
    with pytest.raises(NumericError, match="gradient norm") as ei:
        update(QUAD, np.zeros(1), shards, cfg, 4,
               [np.random.default_rng(i) for i in range(3)], ids=(3, 5, 8))
    assert (ei.value.round, ei.value.client, ei.value.step) == (4, 5, 1)
    for shard, step in zip(shards[1:], (1, 0)):
        with pytest.raises(NumericError) as alone_err:
            alone(QUAD, np.zeros(1), shard, cfg, 4, np.random.default_rng(0), "fedavg")
        assert alone_err.value.step == step
    # a model that overflows on its last step ranks by id like a step failure
    cfg = LocalConfig(k=1, batch_size=1, lr0=1e200, clip_norm=1e300)
    with pytest.raises(NumericError, match="local model is not finite") as ei:
        update(QUAD, np.zeros(1), [quad_shard(1e120), quad_shard(1e200)], cfg, 0,
               [np.random.default_rng(0), np.random.default_rng(1)], ids=(2, 4))
    assert (ei.value.client, ei.value.step) == (2, None)
    # non-finite features of a higher id do not outrank a lower id's step
    # failure; alone, that client would fail before its first step
    nan_shard = Dataset(np.full((1, 1), np.nan), np.ones(1), 1)
    cfg = LocalConfig(k=2, batch_size=1, lr0=1e150, clip_norm=1e300)
    with pytest.raises(NumericError, match="gradient norm") as ei:
        update(QUAD, np.zeros(1), [quad_shard(1e100), nan_shard], cfg, 4,
               [np.random.default_rng(0), np.random.default_rng(1)], ids=(5, 8))
    assert (ei.value.client, ei.value.step) == (5, 1)
    with pytest.raises(NumericError, match="features") as ei:
        update(QUAD, np.zeros(1), [nan_shard, quad_shard(1e100)], cfg, 4,
               [np.random.default_rng(0), np.random.default_rng(1)], ids=(5, 8))
    assert (ei.value.client, ei.value.step) == (5, None)


def test_mixed_chunk_rows_equal_groups_of_one():
    # one chunk of four regression clients, clip ball of radius 1: client 2
    # stays inside it, client 3 starts outside and is clipped until it
    # comes within reach of its target, and clients 5 and 7 each hold one
    # example whose squared gradient overflows, client 7 drawing it at
    # step 1 and client 5 at step 2
    cfg = LocalConfig(k=8, batch_size=1, lr0=0.1, clip_norm=1.0)
    ones = np.ones((4, 1))
    spiked = np.array([[1.0], [1.0], [1.0], [1e160]])
    shards = [Dataset(ones, np.full(4, 0.3), 1), Dataset(ones, np.full(4, 1.6), 1),
              Dataset(spiked, np.ones(4), 1), Dataset(spiked, np.ones(4), 1)]
    seeds, ids = (0, 1, 12, 6), (2, 3, 5, 7)

    def rngs(chunk):
        return [np.random.default_rng(seeds[i]) for i in chunk]

    with pytest.raises(NumericError, match="gradient norm") as ei:
        update(QUAD, np.zeros(1), shards, cfg, 4, rngs(range(4)), ids=ids)
    # the lowest failing id at its first failing step, not the earliest step
    assert (ei.value.round, ei.value.client, ei.value.step) == (4, 5, 2)
    for i, step in zip((2, 3), (2, 1)):
        with pytest.raises(NumericError, match="gradient norm") as alone_err:
            alone(QUAD, np.zeros(1), shards[i], cfg, 4, rngs([i])[0], "fedavg")
        assert alone_err.value.step == step
    # the rows that finish, stepped together without the failing clients
    together = update(QUAD, np.zeros(1), shards[:2], cfg, 4, rngs((0, 1)), ids=ids[:2])
    for i in (0, 1):
        final = alone(QUAD, np.zeros(1), shards[i], cfg, 4, rngs([i])[0], "fedavg")
        assert together[i].tobytes() == final.tobytes()
    # client 2 never left the ball and client 3 did
    inside = replace(cfg, clip_norm=math.inf)
    for shard, clipped in zip(shards[:2], (False, True)):
        free = alone(QUAD, np.zeros(1), shard, inside, 4, np.random.default_rng(0), "fedavg")
        held = alone(QUAD, np.zeros(1), shard, cfg, 4, np.random.default_rng(0), "fedavg")
        assert (free.tobytes() != held.tobytes()) == clipped


def test_infinite_clip_norm_still_flags_an_overflowed_norm():
    # finite gradient entries whose squared norm overflows to +inf
    cfg = LocalConfig(k=1, batch_size=1, clip_norm=math.inf)
    with pytest.raises(NumericError, match="gradient norm") as ei:
        update(QUAD, np.zeros(1), [quad_shard(1e160)], cfg, 0, [np.random.default_rng(0)])
    assert ei.value.step == 0


@pytest.mark.parametrize("spec", [SPEC3, MLP3, REG3], ids=lambda s: s.kind)
@pytest.mark.parametrize("rule", ["fedavg", "feddyn"])
def test_infinite_clip_norm_never_clips(spec, rule):
    S, d = 3, param_dim(spec)
    shards, init = group_case(spec, S)
    aux = np.random.default_rng(8).normal(size=(S, d)) if rule == "feddyn" else None
    cfg = LocalConfig(k=9, batch_size=4, lr0=0.3, dyn_alpha=0.05, clip_norm=math.inf)
    runs = [group(spec, init, shards, c, 1,
                  [np.random.default_rng(10 + i) for i in range(S)], rule, aux=aux)
            for c in (cfg, replace(cfg, clip_norm=1e300))]
    assert np.isfinite(runs[0]).all()
    assert runs[0].tobytes() == runs[1].tobytes()


def test_group_needs_equal_shards_and_one_rng_each():
    ds = classif_shard(n=23)
    with pytest.raises(StructuralError, match="equal-size"):
        shard_group(ds, [np.arange(12), np.arange(12, 23)])
    with pytest.raises(StructuralError, match="one rng"):
        local_update(SPEC3, np.zeros(param_dim(SPEC3)), shard_group(ds, [np.arange(12)]),
                     [0], LocalConfig(k=2), 0, [np.random.default_rng(0)] * 2)


def test_shard_groups_record_which_client_owns_each_row():
    # 23 examples over 5 clients: shards of 5 and 4 examples, one group per
    # size in order of first appearance; each group lists its clients
    # ascending, and its row r holds the shard of client ids[r]
    ds = classif_shard(n=23)
    assignments = partition_dirichlet(ds, 5, 0.3, seed=2)
    groups = shard_groups(ds, assignments)
    assert [g.labels.shape[1] for g in groups] == list(dict.fromkeys(map(len, assignments)))
    assert sorted(np.concatenate([g.ids for g in groups]).tolist()) == list(range(5))
    for g in groups:
        assert (np.diff(g.ids) > 0).all()
        for row, cid in enumerate(g.ids):
            np.testing.assert_array_equal(g.features[row], ds.features[assignments[cid]])
            np.testing.assert_array_equal(g.labels[row], ds.labels[assignments[cid]])
    # a group built without ids belongs to clients 0, 1, ...
    np.testing.assert_array_equal(shard_group(ds, [np.arange(4), np.arange(4, 8)]).ids,
                                  [0, 1])


def test_local_update_rejects_bad_inputs_on_entry(monkeypatch):
    # the run checks the training set against the model once, before any
    # client steps; local_update itself checks the shape of its init and
    # flags a shard's non-finite features
    shard = classif_shard()
    with pytest.raises(StructuralError, match="params have shape"):
        alone(SPEC3, np.zeros(5), shard, LocalConfig(k=2), 0,
              np.random.default_rng(0), "fedavg")
    stepped = []
    monkeypatch.setattr(engine, "local_update", lambda *a, **kw: stepped.append(a))
    bad_labels = Dataset(shard.features, shard.labels + 3, 3)
    with pytest.raises(StructuralError, match="labels"):
        engine.run(RunConfig(algorithm="fedavg", model=SPEC3, n_clients=2, rounds=1),
                   bad_labels, bad_labels)
    assert not stepped
    features = shard.features.copy()
    features[7, 1] = np.nan
    with pytest.raises(NumericError, match="features") as ei:
        alone(SPEC3, np.zeros(param_dim(SPEC3)), Dataset(features, shard.labels, 3),
              LocalConfig(k=2), 4, np.random.default_rng(0), "fedavg")
    assert ei.value.round == 4


def test_fedagm_gradient_at_init_equals_scaled_plain():
    rng = np.random.default_rng(2)
    params = rng.normal(size=param_dim(SPEC3))
    batch = classif_shard().to_batch()
    cfg = LocalConfig(alpha=0.9, beta=0.5)
    from fedsim.models import gradient
    got = local_gradient_fedagm(SPEC3, params, batch, params, cfg)
    np.testing.assert_array_equal(got, 0.9 * gradient(SPEC3, params, batch))


def test_fedagm_gradient_hand_oracle():
    cfg = LocalConfig(alpha=1.0, beta=0.1)
    batch = make_batch([[1.0]], [0.0])
    out = local_gradient_fedagm(QUAD, np.array([2.0]), batch, np.array([1.0]), cfg)
    assert out[0] == pytest.approx(2.1, abs=1e-15)


def test_gradient_decomposition_identity():
    # alpha*grad + beta*(theta - broadcast) with broadcast = theta_srv - lam*delta
    # must equal alpha*grad + beta*lam*delta + beta*(theta - theta_srv)
    from fedsim.models import gradient
    rng = np.random.default_rng(4)
    d = param_dim(SPEC3)
    batch = classif_shard(seed=8).to_batch()
    for _ in range(20):
        cfg = LocalConfig(alpha=float(rng.uniform(0.5, 1.0)),
                          beta=float(rng.choice([0.001, 0.01, 0.1])))
        theta = rng.normal(size=d)
        theta_srv = rng.normal(size=d)
        delta = rng.normal(size=d)
        lam = float(rng.uniform(0.0, 0.95))
        broadcast = theta_srv - lam * delta
        lhs = local_gradient_fedagm(SPEC3, theta, batch, broadcast, cfg)
        rhs = (cfg.alpha * gradient(SPEC3, theta, batch)
               + cfg.beta * lam * delta + cfg.beta * (theta - theta_srv))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_clip_by_norm():
    g = np.array([30.0, 40.0])
    clipped = clip_by_norm(g, 10.0)
    assert np.linalg.norm(clipped) <= 10.0 * (1 + 1e-12)
    np.testing.assert_allclose(clipped, [6.0, 8.0], atol=1e-12)
    small = np.array([0.3, 0.4])
    assert clip_by_norm(small, 10.0) is small


def test_clipping_engages_inside_local_update():
    # gradient at 0 is -1e6, far outside the ball; the step must use the
    # clipped direction: theta = 0 + 0.1*clip_norm
    cfg = LocalConfig(k=1, batch_size=1, lr0=0.1, clip_norm=2.0)
    final = alone(QUAD, np.zeros(1), quad_shard(1e6), cfg, 0, np.random.default_rng(0),
                  "fedavg")
    assert final[0] == pytest.approx(0.2, abs=1e-15)


def test_derive_batch_size():
    assert derive_batch_size(50, 5, 50) == 5
    assert derive_batch_size(10, 5, 50) == 1
    assert derive_batch_size(10, 5, 25) == 2
    assert derive_batch_size(7, 5, 50) == 1
    assert derive_batch_size(3, 5, 2) == 3  # capped at the shard size


def test_epoch_reshuffling_covers_shard():
    # k=24 with bs derived 1 over a 12-example shard = exactly two epochs;
    # each epoch must visit every example once (loss decreases steadily on
    # a separable task, but here we check determinism + step count).
    shard = classif_shard(n=12)
    cfg = LocalConfig(k=24, lr0=0.05)
    init = np.random.default_rng(1).normal(size=param_dim(SPEC3))
    a = update(SPEC3, init, [shard], cfg, 0, [np.random.default_rng(7)])
    b = run("fedavg", seed=7, cfg=cfg, shard=shard)
    assert a[0].tobytes() == b.tobytes()
    c = run("fedavg", seed=8, cfg=cfg, shard=shard)
    assert b.tobytes() != c.tobytes()


def test_feddyn_state_refresh():
    h = np.array([1.0, -1.0])
    final = np.array([2.0, 2.0])
    init = np.array([1.0, 1.0])
    np.testing.assert_allclose(feddyn_updated_state(h, final, init, 0.1),
                               [0.9, -1.1], atol=1e-15)
    same = feddyn_updated_state(h, final, init, 0.0)
    assert same is h


def test_numeric_abort_carries_context():
    with pytest.raises(NumericError) as ei:
        alone(QUAD, np.zeros(1), quad_shard(1e200), LocalConfig(k=3, batch_size=1),
              5, np.random.default_rng(0), "fedavg")
    assert ei.value.round == 5
    assert ei.value.step is not None


def test_bad_configs_rejected():
    with pytest.raises(StructuralError):
        LocalConfig(k=0)
    with pytest.raises(StructuralError):
        LocalConfig(lr_decay=0.0)
    with pytest.raises(StructuralError):
        LocalConfig(cm_alpha=1.5)
    for key in ("lr0", "lr_decay", "clip_norm", "alpha", "beta", "prox_mu",
                "cm_alpha", "dyn_alpha"):
        for bad in (math.nan, -math.inf) + ((math.inf,) if key != "clip_norm" else ()):
            with pytest.raises(StructuralError, match=key):
                LocalConfig(**{key: bad})
    assert LocalConfig(clip_norm=math.inf).clip_norm == math.inf
