import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from hypothesis.extra import numpy as hnp

from fedsim.algorithms import (REGISTRY, aggregate_fedagm, momentum_residual,
                               momentum_residual_bound)
from fedsim.client import LocalConfig
from fedsim.errors import NumericError, StructuralError
from fedsim.server import Round, ServerHyper, aggregate, init_state
from oracles import mean_by_rows, momentum_residual_by_rows, server_round_by_rows


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def state_with(theta, hyper=None, algorithm="fedagm", n_clients=4, **buffers):
    """A fresh state of ``algorithm``, with ``buffers`` overriding its own."""
    theta = np.asarray(theta, dtype=np.float64)
    own = REGISTRY[algorithm].buffers(theta, n_clients)
    return init_state(theta, hyper or ServerHyper(), **{**own, **buffers})


def server_round(st, returns, algorithm, local=None, ids=None):
    """One server round of ``algorithm`` from ``st``, as the engine runs it."""
    ids = list(range(len(returns))) if ids is None else ids
    return aggregate(st, REGISTRY[algorithm], returns, ids, st.theta,
                     local or LocalConfig())


def broadcast(st, algorithm):
    """The payload, split as (model, extra array or None)."""
    model, *extra = REGISTRY[algorithm].payload(st)
    return model, (extra[0] if extra else None)


def test_broadcast_zero_momentum_is_theta():
    st = state_with(vec(1.0, -2.0))
    out, aux = broadcast(st, "fedagm")
    np.testing.assert_array_equal(out, vec(1.0, -2.0))
    assert aux is None


def test_broadcast_hand_oracle():
    st = state_with(vec(1.0), hyper=ServerHyper(lam=0.85), delta=vec(0.2))
    out, _ = broadcast(st, "fedagm")
    assert out[0] == 0.83


def test_broadcast_plain_for_baselines():
    st = state_with(vec(3.0), algorithm="fedavg")
    out, aux = broadcast(st, "fedavg")
    assert out is st.theta and aux is None


def test_broadcast_fedcm_carries_momentum():
    st = state_with(vec(3.0), algorithm="fedcm", cm_momentum=vec(0.125))
    out, aux = broadcast(st, "fedcm")
    assert out is st.theta
    np.testing.assert_array_equal(aux, vec(0.125))


def test_aggregate_fedagm_zero_movement_fixed_point():
    # dyadic values keep every intermediate exact, so the pure momentum
    # decay and the zero recurrence residual hold bit for bit
    st = state_with(vec(1.0), hyper=ServerHyper(lam=0.5, tau=0.25), delta=vec(0.25))
    bc, _ = broadcast(st, "fedagm")
    assert bc[0] == 0.875
    nxt = aggregate_fedagm(st, np.array([bc.copy(), bc.copy(), bc.copy()]))
    assert nxt.theta[0] == 0.875
    assert nxt.buffers["delta"][0] == 0.125  # lam*delta
    assert momentum_residual(st, np.array([bc, bc, bc]), nxt) == 0.0
    assert nxt.round == 1


def test_aggregate_fedagm_worked_example():
    st = state_with(vec(1.0), hyper=ServerHyper(lam=0.85, tau=1.0), delta=vec(0.2))
    returns = np.array([vec(0.9), vec(0.7)])
    nxt = aggregate_fedagm(st, returns)
    assert nxt.theta[0] == 0.8
    assert nxt.buffers["delta"][0] == pytest.approx(0.2, abs=1e-15)
    assert momentum_residual(st, returns, nxt) <= 1e-15


def test_aggregate_fedagm_lam_zero_tau_one_is_plain_mean():
    st = state_with(vec(1.0, 1.0), hyper=ServerHyper(lam=0.0, tau=1.0),
                    delta=vec(0.3, 0.3))
    returns = np.array([vec(0.9, 0.1), vec(0.7, 0.3)])
    nxt = aggregate_fedagm(st, returns)
    from fedsim.params import mean
    assert nxt.theta.tobytes() == mean(returns).tobytes()


def test_aggregate_fedagm_partial_tau_blends_toward_mean():
    st = state_with(vec(0.0), hyper=ServerHyper(lam=0.0, tau=0.5))
    nxt = aggregate_fedagm(st, np.array([vec(1.0)]))
    assert nxt.theta[0] == 0.5
    assert nxt.buffers["delta"][0] == -0.5


def test_momentum_residual_random_rounds():
    rng = np.random.default_rng(0)
    d = 50
    hyper = ServerHyper(lam=0.9, tau=0.2)
    st = state_with(rng.normal(size=d), hyper=hyper)
    worst = 0.0
    for _ in range(200):
        bc, _ = broadcast(st, "fedagm")
        returns = np.array([bc + 0.1 * rng.normal(size=d)
                            for _ in range(int(rng.integers(1, 8)))])
        nxt = aggregate_fedagm(st, returns)
        res = momentum_residual(st, returns, nxt)
        assert res <= momentum_residual_bound(nxt)
        worst = max(worst, res)
        st = nxt
    assert worst <= 1e-12 * (1 + np.max(np.abs(st.buffers["delta"])))


def test_momentum_residual_of_overflowing_models_raises_and_warns_nothing():
    st = state_with(vec(0.0), hyper=ServerHyper(lam=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="mean produced non-finite entries"):
            momentum_residual(st, np.array([[1e308], [-1e308]]), st)


def test_unused_buffers_stay_zero():
    # a rule's state holds its own buffers and no other rule's
    st = state_with(np.zeros(3), hyper=ServerHyper(lam=0.8, tau=1.0))
    nxt = aggregate_fedagm(st, np.array([vec(0.1, 0.2, 0.3)]))
    assert set(nxt.buffers) == {"delta"}
    st2 = server_round(state_with(np.zeros(3), algorithm="fedavg"),
                       np.array([vec(0.1, 0.2, 0.3)]), "fedavg")
    assert st2.buffers == {}
    for name, algo in REGISTRY.items():
        st = state_with(np.zeros(3), algorithm=name, hyper=ServerHyper(global_lr=0.5))
        nxt = server_round(st, np.array([vec(0.1, 0.2, 0.3)]), name)
        assert set(nxt.buffers) == set(algo.buffers(np.zeros(3), 4)) == set(st.buffers)


def test_aggregate_rejects_empty_and_mismatched():
    st = state_with(vec(1.0), algorithm="fedavg")
    with pytest.raises(StructuralError):
        aggregate_fedagm(st, np.empty((0, 1)))
    with pytest.raises(StructuralError):
        server_round(st, np.empty((0, 1)), "fedavg")
    with pytest.raises(StructuralError):
        server_round(st, np.array([vec(1.0, 2.0)]), "fedavg")
    # one model not stacked as a row, and a stack of the wrong width
    with pytest.raises(StructuralError):
        server_round(st, vec(1.0), "fedavg")
    with pytest.raises(StructuralError):
        server_round(state_with(vec(1.0, 2.0, 3.0), algorithm="fedavg"),
                     np.zeros((2, 2)), "fedavg")


def test_fedavg_mean_oracle():
    st = state_with(vec(1.0), algorithm="fedavg")
    nxt = server_round(st, np.array([vec(0.9), vec(0.7)]), "fedavg")
    assert nxt.theta[0] == 0.8
    assert nxt.round == 1


def test_fedavgm_zero_beta_unit_lr_degenerates_to_mean():
    st = state_with(vec(1.0), hyper=ServerHyper(avgm_beta=0.0, global_lr=1.0),
                    algorithm="fedavgm")
    returns = np.array([vec(0.9), vec(0.7)])
    nxt = server_round(st, returns, "fedavgm")
    from fedsim.params import mean
    assert nxt.theta.tobytes() == mean(returns).tobytes()


def test_fedavgm_momentum_accumulates():
    # dyadic hand oracle: theta=1, returns mean 0.75 -> pseudo 0.25,
    # buf 0.25, theta 0.75; again returns mean 0.75 -> pseudo 0, buf
    # 0.5*0.25=0.125, theta 0.625
    st = state_with(vec(1.0), hyper=ServerHyper(avgm_beta=0.5, global_lr=1.0),
                    algorithm="fedavgm")
    st = server_round(st, np.array([vec(0.75)]), "fedavgm")
    assert st.theta[0] == 0.75 and st.buffers["avgm_buf"][0] == 0.25
    st = server_round(st, np.array([vec(0.75)]), "fedavgm")
    assert st.buffers["avgm_buf"][0] == 0.125
    assert st.theta[0] == 0.625


def test_fedadam_zero_pseudo_gradient_is_fixed_point():
    st = state_with(vec(0.5, -0.25), hyper=ServerHyper(global_lr=0.01),
                    algorithm="fedadam")
    theta0 = st.theta.copy()
    for _ in range(3):
        st = server_round(st, np.array([st.theta.copy(), st.theta.copy()]), "fedadam")
    assert st.theta.tobytes() == theta0.tobytes()
    assert np.all(st.buffers["adam_m"] == 0.0) and np.all(st.buffers["adam_v"] == 0.0)


def test_fedadam_scalar_hand_oracle():
    # pseudo = 0.25; m = 0.1*0.25 = 0.025; v = 0.01*0.0625 = 0.000625;
    # theta' = 1 - 0.01*m/(sqrt(v)+0.001)
    st = state_with(vec(1.0), hyper=ServerHyper(global_lr=0.01, adam_tau=0.001),
                    algorithm="fedadam")
    nxt = server_round(st, np.array([vec(0.75)]), "fedadam")
    assert nxt.buffers["adam_m"][0] == pytest.approx(0.025, abs=1e-15)
    assert nxt.buffers["adam_v"][0] == pytest.approx(0.000625, abs=1e-15)
    expected = 1.0 - 0.01 * 0.025 / (np.sqrt(0.000625) + 0.001)
    assert nxt.theta[0] == pytest.approx(expected, abs=1e-12)


def test_feddyn_zero_alpha_degenerates_to_mean():
    st = state_with(vec(1.0), algorithm="feddyn")
    returns = np.array([vec(0.9), vec(0.7)])
    nxt = server_round(st, returns, "feddyn", local=LocalConfig(dyn_alpha=0.0))
    from fedsim.params import mean
    assert nxt.theta.tobytes() == mean(returns).tobytes()
    assert np.all(nxt.buffers["dyn_h"] == 0.0) and np.all(nxt.buffers["h"] == 0.0)


def test_feddyn_scalar_hand_oracle():
    # theta=1, returns {0.8, 0.6}: displacements sum -0.6;
    # h' = 0 - 0.1*(-0.6)/4 = 0.015; theta' = 0.7 - 0.015/0.1 = 0.55
    st = state_with(vec(1.0), algorithm="feddyn", n_clients=4)
    nxt = server_round(st, np.array([vec(0.8), vec(0.6)]), "feddyn",
                       local=LocalConfig(dyn_alpha=0.1))
    assert nxt.buffers["dyn_h"][0] == pytest.approx(0.015, abs=1e-15)
    assert nxt.theta[0] == pytest.approx(0.55, abs=1e-14)


def test_feddyn_needs_population():
    # the server corrector averages over the whole population, which the
    # state holds one client corrector row for, not over the sampled clients
    for n, h in ((4, 0.015), (2, 0.03)):
        st = state_with(vec(1.0), algorithm="feddyn", n_clients=n)
        nxt = server_round(st, np.array([vec(0.8), vec(0.6)]), "feddyn",
                           local=LocalConfig(dyn_alpha=0.1))
        assert nxt.buffers["h"].shape == (n, 1)
        assert nxt.buffers["dyn_h"][0] == pytest.approx(h, abs=1e-15)


def test_feddyn_refreshes_the_sampled_correctors():
    # h_i <- h_i - dyn_alpha*(theta_i - init) for the sampled ids only
    st = state_with(vec(1.0), algorithm="feddyn", n_clients=4)
    nxt = server_round(st, np.array([vec(0.5), vec(3.0)]), "feddyn", ids=[1, 3],
                       local=LocalConfig(dyn_alpha=0.5))
    np.testing.assert_array_equal(nxt.buffers["h"][:, 0], [0.0, 0.25, 0.0, -1.0])
    v = REGISTRY["feddyn"].terms(nxt, LocalConfig(), [3, 1])["v"]
    np.testing.assert_array_equal(v[:, 0], [-1.0, 0.25])


def test_fedcm_refreshes_momentum():
    # the step scale is K*eta = 5*1.0; with lr0 = 0 the momentum is kept
    st = state_with(vec(1.0), algorithm="fedcm")
    nxt = server_round(st, np.array([vec(0.8), vec(0.6)]), "fedcm",
                       local=LocalConfig(k=5, lr0=1.0))
    assert nxt.theta[0] == pytest.approx(0.7, abs=1e-15)
    assert nxt.buffers["cm_momentum"][0] == pytest.approx(0.3 / 5.0, abs=1e-15)
    frozen = server_round(st, np.array([vec(0.8)]), "fedcm", local=LocalConfig(k=5, lr0=0.0))
    assert frozen.buffers["cm_momentum"] is st.buffers["cm_momentum"]


def test_hyper_validation():
    with pytest.raises(StructuralError):
        ServerHyper(tau=0.0)
    with pytest.raises(StructuralError):
        ServerHyper(lam=1.0)
    with pytest.raises(StructuralError):
        ServerHyper(adam_tau=0.0)
    with pytest.raises(StructuralError, match="global_lr"):  # null only in a config
        ServerHyper(global_lr=None)
    for key in ("tau", "lam", "global_lr", "avgm_beta", "adam_tau"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(StructuralError, match=key):
                ServerHyper(**{key: bad})


@pytest.mark.parametrize("algorithm,hyper", [
    ("fedadam", ServerHyper(global_lr=1e300)),
    ("fedavgm", ServerHyper(global_lr=1e308)),
])
def test_server_model_overflow_names_its_round(algorithm, hyper):
    # the new model is finite entry by entry, but its squared norm is not
    st = state_with(vec(0.5, -0.25), hyper=hyper, algorithm=algorithm)
    st = server_round(st, np.array([vec(0.5, -0.25)]), algorithm)
    with pytest.raises(NumericError, match="server model is not finite") as ei:
        server_round(st, np.array([vec(0.25, 0.0), vec(0.5, -0.5)]), algorithm)
    assert ei.value.round == 1


def test_a_mean_that_overflows_ends_the_round_with_its_number():
    # finite client models whose mean is not: the mean's own check raises
    # inside the rule's step, and finish re-raises it with the round
    st = replace(state_with(vec(0.0), algorithm="fedavg"), round=6)
    rnd = Round(st, REGISTRY["fedavg"], [0, 1])
    rnd.add([0, 1], np.array([[1e308], [-1e308]]))
    with pytest.raises(NumericError, match="mean produced non-finite entries") as ei:
        rnd.finish()
    assert ei.value.round == 6


def fedavg_round(ids=(0, 1), d=1):
    return Round(state_with(np.zeros(d), algorithm="fedavg"), REGISTRY["fedavg"], ids)


@pytest.mark.parametrize("ids, message", [
    ([0, 0], "client 0 was already added"), ([1, 5], "client 5 is not in this round")])
def test_a_round_rejects_a_block_it_cannot_fold(ids, message):
    # a repeated id would count its client twice, an id from outside the
    # round was not sampled; the check comes before anything is folded
    rnd = fedavg_round()
    with pytest.raises(StructuralError, match=message):
        rnd.add(ids, np.array([[10.0], [20.0]])[:len(ids)])
    rnd.add([1, 0], np.array([[3.0], [1.0]]))
    assert rnd.finish().theta.tolist() == [2.0]


def test_a_round_rejects_a_client_added_twice():
    for first in ([0], [1]):
        rnd = fedavg_round()
        rnd.add(first, np.array([[1.0]]))
        with pytest.raises(StructuralError, match="already added"):
            rnd.add(first, np.array([[2.0]]))


def test_a_round_finishes_only_once_every_client_is_added():
    rnd = fedavg_round()
    rnd.add([0], np.array([[1.0]]))
    with pytest.raises(StructuralError, match="client 1 was never added"):
        rnd.finish()
    rnd.add([1], np.array([[2.0]]))
    assert rnd.finish().theta.tolist() == [1.5]


def test_a_caller_may_reuse_its_rows_once_add_returns():
    # as the engine's workspace does: the round folds the rows of clients
    # 1 and 3 before the next block comes, and keeps none of them
    rnd = fedavg_round([0, 1, 2, 3], d=2)
    block = np.array([[1.0, -2.0], [3.0, 5.0]])
    rnd.add([1, 3], block)
    kept = block.copy()
    block[:] = 99.0
    rnd.add([0, 2], np.array([[7.0, 0.5], [-4.0, 8.0]]))
    expected = mean_by_rows(np.array([kept[0], kept[1], [7.0, 0.5], [-4.0, 8.0]]))
    assert rnd.finish().theta.tobytes() == expected.tobytes()


# entries of client models and server states: signed zeros, often
values = hs.sampled_from([0.0, -0.0]) | hs.floats(-4.0, 4.0, allow_nan=False)


@hs.composite
def arrivals(draw):
    """A round's client count N, its sampled ids, their models (S, d), and
    the blocks of positions in which the models arrive: the positions in
    any order, cut into blocks anywhere."""
    S, d = draw(hs.integers(1, 8)), draw(hs.integers(1, 5))
    N = S + draw(hs.integers(0, 4))
    ids = sorted(draw(hs.lists(hs.integers(0, N - 1), min_size=S, max_size=S, unique=True)))
    returns = draw(hnp.arrays(np.float64, (S, d), elements=values))
    order = draw(hs.permutations(range(S)))
    cuts = draw(hs.lists(hs.booleans(), min_size=S - 1, max_size=S - 1))
    blocks = [[order[0]]]
    for p, cut in zip(order[1:], cuts):
        if cut:
            blocks.append([])
        blocks[-1].append(p)
    return N, ids, returns, blocks


@settings(max_examples=150, deadline=None)
@given(arrived=arrivals(), data=hs.data())
def test_the_fold_equals_the_matrix_code_bit_for_bit(arrived, data):
    # every rule's new model, buffers and check residual, folded block by
    # block, are the bits of the round computed over the whole (S, d)
    # matrix with its rows in the order they arrived
    N, ids, returns, blocks = arrived
    order = [p for block in blocks for p in block]
    in_order = returns[order]
    theta = data.draw(hnp.arrays(np.float64, returns.shape[1], elements=values))
    hyper = ServerHyper(**{key: data.draw(hs.sampled_from(choices)) for key, choices in (
        ("tau", [1.0, 0.5]), ("lam", [0.0, 0.85]), ("avgm_beta", [0.0, 0.6]),
        ("global_lr", [1.0, 0.5]))})
    local = LocalConfig(dyn_alpha=data.draw(hs.sampled_from([0.0, 0.01, 0.5])))
    for name, rule in REGISTRY.items():
        buffers = {key: data.draw(hnp.arrays(np.float64, b.shape, elements=values))
                   for key, b in rule.buffers(theta, N).items()}
        if "adam_v" in buffers:  # a second moment is never negative
            buffers["adam_v"] = np.abs(buffers["adam_v"])

        def fresh():
            return init_state(theta, hyper, **{k: b.copy() for k, b in buffers.items()})

        before = fresh()
        sent = rule.payload(before)[0]
        rnd = Round(before, rule, ids, sent, local)
        for block in blocks:
            rnd.add([ids[p] for p in block], returns[block])
        after = rnd.finish()
        expected = server_round_by_rows(fresh(), name, in_order, [ids[p] for p in order],
                                        sent, local)
        assert after.theta.tobytes() == expected.theta.tobytes(), name
        assert after.buffers.keys() == expected.buffers.keys()
        for key, b in after.buffers.items():
            assert b.tobytes() == expected.buffers[key].tobytes(), (name, key)
        if rule.check is not None:
            residual = momentum_residual_by_rows(fresh(), in_order, after)
            assert rule.check(before, rnd.sums, after) == residual
