import numpy as np
import pytest

from fedsim.client import (RULES, ClientResult, LocalConfig, clip_by_norm,
                           derive_batch_size, feddyn_updated_state, local_gradient_fedagm,
                           local_update)
from fedsim.data import Dataset, generate_synthetic
from fedsim.errors import NumericError, StructuralError
from fedsim.models import ModelSpec, gradient, loss, make_batch, param_dim
from fedsim.params import axpy

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


def run(rule, seed=5, cfg=None, aux=None, init=None, round=0, shard=None):
    shard = shard if shard is not None else classif_shard()
    cfg = cfg or LocalConfig(k=7, lr0=0.1)
    if init is None:
        init = np.random.default_rng(1).normal(size=param_dim(SPEC3))
    return local_update(SPEC3, init, shard, cfg, round,
                        np.random.default_rng(seed), rule, aux=aux)


def test_single_full_batch_step_hand_oracle():
    cfg = LocalConfig(k=1, batch_size=1, lr0=0.1, beta=0.0)
    out = local_update(QUAD, np.zeros(1), quad_shard(3.0), cfg, 0,
                       np.random.default_rng(0), "fedavg")
    assert out.final_params[0] == pytest.approx(0.3, abs=1e-15)
    assert out.local_steps_taken == 1
    assert out.bytes_up == 8
    # last-step training loss is evaluated at the pre-step parameters
    assert out.train_loss_last == pytest.approx(0.5 * 9.0, abs=1e-12)


def test_zero_learning_rate_keeps_init():
    init = np.random.default_rng(3).normal(size=param_dim(SPEC3))
    cfg = LocalConfig(k=9, lr0=0.0)
    out = local_update(SPEC3, init, classif_shard(), cfg, 4,
                       np.random.default_rng(0), "fedavg")
    np.testing.assert_array_equal(out.final_params, init)


def test_lr_decay_applies_per_round():
    shard = quad_shard(3.0)
    cfg = LocalConfig(k=1, batch_size=1, lr0=0.1, lr_decay=0.5)
    late = local_update(QUAD, np.zeros(1), shard, cfg, 2,
                        np.random.default_rng(0), "fedavg")
    # eta = 0.1 * 0.5**2 = 0.025; theta = 0.025*3
    assert late.final_params[0] == pytest.approx(0.075, abs=1e-15)


@pytest.mark.parametrize("rule,cfg,aux", [
    ("fedagm", LocalConfig(k=7, alpha=1.0, beta=0.0), None),
    ("fedprox", LocalConfig(k=7, prox_mu=0.0), None),
    ("feddyn", LocalConfig(k=7, dyn_alpha=0.0), np.zeros(param_dim(SPEC3))),
    ("fedcm", LocalConfig(k=7, cm_alpha=1.0), np.random.default_rng(9).normal(size=param_dim(SPEC3))),
])
def test_degenerations_are_bit_identical_to_fedavg(rule, cfg, aux):
    base = run("fedavg", cfg=LocalConfig(k=7))
    other = run(rule, cfg=cfg, aux=aux)
    assert base.final_params.tobytes() == other.final_params.tobytes()
    assert base.train_loss_last == other.train_loss_last


MLP3 = ModelSpec("mlp", input_dim=3, output_dim=3, hidden_dims=(4,), l2_weight_decay=0.01)
REG3 = ModelSpec("linear_regression", input_dim=3, l2_weight_decay=0.01)


def reference_update(spec, init, shard, cfg, round, rng, rule, aux):
    """local_update as a plain loop over the public, fully checked pieces."""
    bs = min(cfg.batch_size or derive_batch_size(shard.n, cfg.epochs, cfg.k), shard.n)
    eta = cfg.lr0 * cfg.lr_decay ** round
    theta = init.copy()
    order = rng.permutation(shard.n)
    pos = 0
    for step in range(cfg.k):
        if pos >= shard.n:
            order = rng.permutation(shard.n)
            pos = 0
        batch = shard.to_batch(order[pos:pos + bs])
        pos += bs
        if step == cfg.k - 1:
            last_loss = loss(spec, theta, batch)
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
    return theta, last_loss


@pytest.mark.parametrize("spec", [SPEC3, MLP3, REG3], ids=lambda s: s.kind)
@pytest.mark.parametrize("rule", RULES)
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
    out = local_update(spec, init, shard, cfg, 2, np.random.default_rng(3), rule, aux=aux)
    theta, last_loss = reference_update(spec, init, shard, cfg, 2,
                                        np.random.default_rng(3), rule, aux)
    assert out.final_params.tobytes() == theta.tobytes()
    assert out.train_loss_last == last_loss


def test_local_update_rejects_bad_inputs_on_entry():
    shard = classif_shard()
    with pytest.raises(StructuralError, match="params have shape"):
        local_update(SPEC3, np.zeros(5), shard, LocalConfig(k=2), 0,
                     np.random.default_rng(0), "fedavg")
    bad_labels = Dataset(shard.features, shard.labels + 3, 3)
    with pytest.raises(StructuralError, match="labels"):
        local_update(SPEC3, np.zeros(param_dim(SPEC3)), bad_labels, LocalConfig(k=2), 0,
                     np.random.default_rng(0), "fedavg")
    features = shard.features.copy()
    features[7, 1] = np.nan
    with pytest.raises(NumericError, match="features") as ei:
        local_update(SPEC3, np.zeros(param_dim(SPEC3)), Dataset(features, shard.labels, 3),
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
    out = local_update(QUAD, np.zeros(1), quad_shard(1e6), cfg, 0,
                       np.random.default_rng(0), "fedavg")
    assert out.final_params[0] == pytest.approx(0.2, abs=1e-15)


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
    a = run("fedavg", seed=7, cfg=cfg, shard=shard)
    b = run("fedavg", seed=7, cfg=cfg, shard=shard)
    assert a.final_params.tobytes() == b.final_params.tobytes()
    c = run("fedavg", seed=8, cfg=cfg, shard=shard)
    assert a.final_params.tobytes() != c.final_params.tobytes()
    assert a.local_steps_taken == 24


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
        local_update(QUAD, np.zeros(1), quad_shard(1e200), LocalConfig(k=3, batch_size=1),
                     5, np.random.default_rng(0), "fedavg")
    assert ei.value.round == 5
    assert ei.value.step is not None


def test_fedcm_requires_momentum_aux():
    with pytest.raises(StructuralError):
        run("fedcm", cfg=LocalConfig(k=2, cm_alpha=0.5), aux=None)


def test_bad_configs_rejected():
    with pytest.raises(StructuralError):
        LocalConfig(k=0)
    with pytest.raises(StructuralError):
        LocalConfig(lr_decay=0.0)
    with pytest.raises(StructuralError):
        LocalConfig(cm_alpha=1.5)
    with pytest.raises(StructuralError):
        run("sgd")
