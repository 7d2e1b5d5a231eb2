import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from fedsim.errors import NumericError, StructuralError
from fedsim.models import (EVAL_BLOCK_ROWS, MAX_PARAM_DIM, Batch, ModelSpec, _cross_entropy,
                           _forward,
                           accuracy, class_sum, example_losses, fd_gradient, gradient,
                           layer_views,
                           init_params, loss, make_batch, param_dim)

QUAD = ModelSpec("linear_regression", input_dim=1)
SOFTMAX_3 = ModelSpec("softmax_classifier", input_dim=4, output_dim=3)
MLP_232 = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dims=(3,))


def quad_batch(target):
    # Single example (x=1, y=target) turns the squared-error loss into the
    # scalar quadratic 0.5*(theta - target)**2.
    return make_batch([[1.0]], [float(target)])


def test_param_dim():
    assert param_dim(QUAD) == 1
    assert param_dim(SOFTMAX_3) == 4 * 3 + 3
    assert param_dim(MLP_232) == (2 * 3 + 3) + (3 * 2 + 2)


def test_spec_validation():
    with pytest.raises(StructuralError):
        ModelSpec("mlp", input_dim=2, output_dim=2)
    with pytest.raises(StructuralError):
        ModelSpec("softmax_classifier", input_dim=2, output_dim=2, hidden_dims=(3,))
    with pytest.raises(StructuralError):
        ModelSpec("perceptron", input_dim=2)


def test_spec_rejects_a_linear_regression_with_more_than_one_output():
    with pytest.raises(StructuralError, match="^model.output_dim must be 1 when model.kind "
                                              "is linear_regression$"):
        ModelSpec("linear_regression", input_dim=3, output_dim=4)


@pytest.mark.parametrize("hidden", [(1.5,), (True,), (3, 2.0), ("4",), (0,)])
def test_spec_rejects_hidden_sizes_that_are_not_positive_ints(hidden):
    with pytest.raises(StructuralError, match=r"^model\.hidden_dims\[\d\] must "):
        ModelSpec("mlp", input_dim=4, output_dim=3, hidden_dims=hidden)


def test_spec_rejects_more_parameters_than_the_bound():
    assert param_dim(ModelSpec("linear_regression", input_dim=MAX_PARAM_DIM)) == MAX_PARAM_DIM
    with pytest.raises(StructuralError, match="parameters"):
        ModelSpec("linear_regression", input_dim=MAX_PARAM_DIM + 1)
    with pytest.raises(StructuralError, match="3100000010 parameters"):
        ModelSpec("mlp", input_dim=20, output_dim=10, hidden_dims=(100_000_000,))


def negated_log_softmax(logits, y):
    """The per-example loss as the whole log-softmax array gives it."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    S, n = y.shape
    return -log_softmax[np.arange(S)[:, None], np.arange(n), y]


# ties, both zeros, and magnitudes whose differences overflow
LOGITS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 745.0, -745.0]),
                   st.floats(min_value=-1e308, max_value=1e308, allow_nan=False))


@given(data=st.data(), shape=hnp.array_shapes(min_dims=3, max_dims=3, max_side=6))
def test_cross_entropy_equals_the_negated_log_softmax_bit_for_bit(data, shape):
    logits = data.draw(hnp.arrays(np.float64, shape, elements=LOGITS))
    y = data.draw(hnp.arrays(np.int64, shape[:2],
                             elements=st.integers(0, shape[2] - 1)))
    # _cross_entropy takes the logits class-major, (C, rows), and overwrites them
    class_major = logits.reshape(-1, shape[2]).T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = _cross_entropy(class_major, y.reshape(-1))
    assert got.tobytes() == negated_log_softmax(logits, y).tobytes()


def test_class_sum_equals_numpys_row_sum_bit_for_bit():
    # ties of either zero, sums that overflow to inf and inf - inf, and
    # rows of -0.0 alone, whose sum is +0.0
    for C in range(1, 301):
        rng = np.random.default_rng(C)
        A = rng.normal(size=(40, C)) * rng.choice([1.0, 1e-3, 1e10], size=(40, C))
        special = rng.random((40, C)) < np.linspace(0.0, 1.0, 40)[:, None]
        A[special] = rng.choice([0.0, -0.0, 1e308, -1e308, 745.0, -745.0],
                                size=special.sum())
        A[0], A[1], A[2, ::2] = -0.0, 0.0, -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            want = A.sum(axis=-1)
            got = class_sum(A.T.copy())
        assert got.tobytes() == want.tobytes(), C


MLP_4325 = ModelSpec("mlp", input_dim=4, output_dim=5, hidden_dims=(3, 2))


@pytest.mark.parametrize("spec", [SOFTMAX_3, MLP_232, MLP_4325],
                         ids=lambda s: f"{s.kind}{s.hidden_dims}")
@given(seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.0, -0.0, 1e-300, 1.0, 1e3, 1e150]), n=st.integers(1, 9))
def test_example_losses_equal_the_negated_log_softmax_bit_for_bit(spec, seed, scale, n):
    # scale 0 and -0 give tied logits of either zero; 1e150 gives logits
    # whose differences overflow
    rng = np.random.default_rng(seed)
    params = scale * rng.normal(size=(2, param_dim(spec)))
    X = scale * rng.normal(size=(2, n, spec.input_dim))
    y = rng.integers(0, spec.output_dim, size=(2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        _, logits = _forward(layer_views(spec, params), X)
    want = negated_log_softmax(logits, y)
    for s in range(2):
        assert example_losses(spec, params[s], X[s], y[s]).tobytes() == want[s].tobytes()


def test_zero_model_zero_targets_zero_loss():
    batch = make_batch([[1.0, 2.0], [0.5, -1.0]], [0.0, 0.0])
    spec = ModelSpec("linear_regression", input_dim=2)
    assert loss(spec, np.zeros(2), batch) == 0.0


def test_loss_whose_mean_overflows_raises_and_warns_nothing():
    # each squared residual, 5e307, is finite; the sum of four overflows
    batch = make_batch([[1e154]] * 4, [0.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="loss is not finite"):
            loss(QUAD, np.ones(1), batch)


def test_zero_softmax_loss_is_log_k():
    batch = make_batch(np.random.default_rng(3).normal(size=(7, 4)), [0, 1, 2, 0, 1, 2, 0])
    assert loss(SOFTMAX_3, np.zeros(param_dim(SOFTMAX_3)), batch) == pytest.approx(
        math.log(3), abs=1e-15)


def test_mlp_loss_matches_frozen_reference_value():
    # Expected value computed by an independent plain-loop forward pass
    # (per-example, per-unit Python arithmetic) before this module existed.
    params = np.random.default_rng(0).normal(size=17)
    X = np.random.default_rng(1).normal(size=(4, 2))
    batch = make_batch(X, [0, 1, 1, 0])
    assert loss(MLP_232, params, batch) == pytest.approx(0.85990414818891259, abs=1e-15)


def test_mlp_loss_matches_plain_loop_oracle():
    params = np.random.default_rng(0).normal(size=17)
    X = np.random.default_rng(1).normal(size=(4, 2))
    y = [0, 1, 1, 0]
    W1 = [[params[i * 3 + j] for j in range(3)] for i in range(2)]
    b1 = [params[6 + j] for j in range(3)]
    W2 = [[params[9 + i * 2 + j] for j in range(2)] for i in range(3)]
    b2 = [params[15 + j] for j in range(2)]
    total = 0.0
    for n in range(4):
        h = [math.tanh(b1[j] + sum(X[n][i] * W1[i][j] for i in range(2))) for j in range(3)]
        logits = [b2[j] + sum(h[i] * W2[i][j] for i in range(3)) for j in range(2)]
        mx = max(logits)
        total += mx + math.log(sum(math.exp(z - mx) for z in logits)) - logits[y[n]]
    expected = total / 4
    got = loss(MLP_232, params, make_batch(X, y))
    assert got == pytest.approx(expected, abs=1e-14)


def test_decay_term_is_exactly_additive():
    rng = np.random.default_rng(5)
    params = rng.normal(size=param_dim(SOFTMAX_3))
    batch = make_batch(rng.normal(size=(6, 4)), rng.integers(0, 3, size=6))
    plain = loss(SOFTMAX_3, params, batch)
    spec_wd = ModelSpec("softmax_classifier", input_dim=4, output_dim=3,
                        l2_weight_decay=0.001)
    decayed = loss(spec_wd, params, batch)
    assert decayed == plain + 0.5 * 0.001 * float(np.dot(params, params))


def test_gradient_at_stationary_point():
    np.testing.assert_array_equal(gradient(QUAD, np.array([1.0]), quad_batch(1.0)),
                                  np.array([0.0]))


def test_gradient_zero_softmax_single_example_vs_fd():
    params = np.zeros(param_dim(SOFTMAX_3))
    batch = make_batch([[0.3, -1.2, 0.7, 2.0]], [1])
    g = gradient(SOFTMAX_3, params, batch)
    fd = fd_gradient(SOFTMAX_3, params, batch, h=1e-6)
    np.testing.assert_allclose(g, fd, atol=1e-8)
    # structure: (softmax - onehot) outer features, uniform softmax = 1/3
    coeff = np.full(3, 1.0 / 3.0)
    coeff[1] -= 1.0
    expected_W = np.outer(batch.features[0], coeff).ravel()
    np.testing.assert_allclose(g[:12], expected_W, atol=1e-12)
    np.testing.assert_allclose(g[12:], coeff, atol=1e-12)


def test_fd_gradient_constant_loss_is_zero():
    spec = ModelSpec("linear_regression", input_dim=2)
    batch = make_batch([[0.0, 0.0]], [0.0])
    np.testing.assert_allclose(fd_gradient(spec, np.array([0.4, -0.2]), batch), 0.0,
                               atol=1e-10)


def test_fd_gradient_scalar_quadratic():
    out = fd_gradient(QUAD, np.array([2.0]), quad_batch(0.0), h=1e-6)
    assert abs(out[0] - 2.0) <= 1e-6


def _random_case(kind, rng):
    if kind == "linear_regression":
        spec = ModelSpec(kind, input_dim=int(rng.integers(1, 6)),
                         l2_weight_decay=float(rng.choice([0.0, 0.001, 0.01])))
        n = int(rng.integers(1, 8))
        batch = make_batch(rng.normal(size=(n, spec.input_dim)), rng.normal(size=n))
    else:
        hidden = (int(rng.integers(2, 5)),) if kind == "mlp" else ()
        spec = ModelSpec(kind, input_dim=int(rng.integers(2, 6)),
                         output_dim=int(rng.integers(2, 5)), hidden_dims=hidden,
                         l2_weight_decay=float(rng.choice([0.0, 0.001, 0.01])))
        n = int(rng.integers(1, 8))
        batch = make_batch(rng.normal(size=(n, spec.input_dim)),
                           rng.integers(0, spec.output_dim, size=n))
    params = rng.normal(size=param_dim(spec))
    return spec, params, batch


@pytest.mark.parametrize("kind", ["linear_regression", "softmax_classifier", "mlp"])
def test_gradient_matches_fd_on_random_cases(kind):
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec, params, batch = _random_case(kind, rng)
        g = gradient(spec, params, batch)
        fd = fd_gradient(spec, params, batch, h=1e-6)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5


def test_accuracy_tie_breaks_to_lowest_class():
    spec = ModelSpec("softmax_classifier", input_dim=3, output_dim=2)
    batch = make_batch(np.random.default_rng(0).normal(size=(5, 3)), [0] * 5)
    assert accuracy(spec, np.zeros(param_dim(spec)), batch) == 1.0


def test_accuracy_perfect_fit():
    spec = ModelSpec("softmax_classifier", input_dim=2, output_dim=2)
    # weights push class 0 for x=(1,0) and class 1 for x=(0,1)
    params = np.array([5.0, -5.0, -5.0, 5.0, 0.0, 0.0])
    batch = make_batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    assert accuracy(spec, params, batch) == 1.0


def test_accuracy_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    spec = SOFTMAX_3
    params = rng.normal(size=param_dim(spec))
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    W = params[:12].reshape(4, 3)
    b = params[12:]
    hits = 0
    for i in range(40):
        logits = [b[j] + sum(X[i][k] * W[k][j] for k in range(4)) for j in range(3)]
        best = 0
        for j in range(1, 3):
            if logits[j] > logits[best]:
                best = j
        hits += best == y[i]
    assert accuracy(spec, params, make_batch(X, y)) == hits / 40


def test_accuracy_invariant_under_row_permutation():
    rng = np.random.default_rng(2)
    params = rng.normal(size=param_dim(SOFTMAX_3))
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    base = accuracy(SOFTMAX_3, params, make_batch(X, y))
    assert 0.0 <= base <= 1.0
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(30)
        assert accuracy(SOFTMAX_3, params, make_batch(X[perm], y[perm])) == base


def test_accuracy_rejects_regression():
    with pytest.raises(StructuralError):
        accuracy(QUAD, np.array([1.0]), quad_batch(1.0))


def test_input_validation():
    with pytest.raises(StructuralError):
        loss(SOFTMAX_3, np.zeros(3), make_batch([[1, 2, 3, 4]], [0]))
    with pytest.raises(StructuralError):
        loss(SOFTMAX_3, np.zeros(param_dim(SOFTMAX_3)), make_batch([[1, 2, 3, 4]], [7]))
    with pytest.raises(StructuralError):
        make_batch(np.zeros((0, 2)), [])


def test_init_params_deterministic_and_shaped():
    a = init_params(MLP_232, np.random.default_rng(0))
    b = init_params(MLP_232, np.random.default_rng(0))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (param_dim(MLP_232),)
    assert not np.all(a == 0.0)
    # hidden-layer biases start at zero
    assert np.all(a[6:9] == 0.0) and np.all(a[15:] == 0.0)
    np.testing.assert_array_equal(init_params(SOFTMAX_3, np.random.default_rng(0)),
                                  np.zeros(param_dim(SOFTMAX_3)))


MLP_96_64 = ModelSpec("mlp", input_dim=64, output_dim=10, hidden_dims=(96, 64))


@pytest.mark.parametrize("rows", [2 * EVAL_BLOCK_ROWS + 3, 2 * EVAL_BLOCK_ROWS])
@pytest.mark.parametrize("spec", [QUAD, SOFTMAX_3, MLP_4325, MLP_96_64],
                         ids=["linear_regression", "softmax_classifier", "mlp", "mlp_96_64"])
def test_evaluation_gemms_take_at_most_eval_block_rows(monkeypatch, spec, rows):
    # two full blocks, with a tail of 3 rows or none; every layer's gemms
    # must cover the rows once, none of them wider than the bound
    rng = np.random.default_rng(8)
    params = rng.normal(size=param_dim(spec))
    X = rng.normal(size=(rows, spec.input_dim))
    y = (rng.normal(size=rows) if spec.kind == "linear_regression"
         else rng.integers(0, spec.output_dim, size=rows))
    gemms = []  # the rows of each gemm; a 3-d call makes one per leading item
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        gemms.extend([a.shape[-2]] * (a.shape[0] if a.ndim == 3 else 1))
        return matmul(a, b, *args, **kwargs)
    monkeypatch.setattr(np, "matmul", spy)
    got = example_losses(spec, params, X, y)
    monkeypatch.setattr(np, "matmul", matmul)
    assert max(gemms) <= EVAL_BLOCK_ROWS
    assert sum(gemms) == (len(spec.hidden_dims) + 1) * rows
    # and the rows come out as an explicit loop over the blocks gives them
    blocks = [example_losses(spec, params, X[lo:lo + EVAL_BLOCK_ROWS], y[lo:lo + EVAL_BLOCK_ROWS])
              for lo in range(0, rows, EVAL_BLOCK_ROWS)]
    assert got.tobytes() == np.concatenate(blocks).tobytes()


@pytest.mark.parametrize("hidden", [(512,), (96, 64)])
def test_evaluation_memory_grows_with_the_rows_by_the_logits_alone(hidden):
    # Beyond one block of its layers, the pass holds the (C, rows) logits
    # and a few (rows,) vectors, so from 2,048 to 8,192 rows its traced
    # peak may grow by at most C + 2 float64 a row. Measured with numpy
    # 2.4: 80 (96-64) and 88 bytes (512) a row; a pass that holds each
    # layer's (rows, width) output reads 1,280 and 4,235.
    spec = ModelSpec("mlp", input_dim=64, output_dim=10, hidden_dims=hidden)
    params = init_params(spec, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    peaks = []
    for rows in (2048, 8192):
        X = rng.normal(size=(rows, spec.input_dim))
        y = rng.integers(0, spec.output_dim, size=rows)
        tracemalloc.start()
        try:
            example_losses(spec, params, X, y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= (spec.output_dim + 2) * 8 * (8192 - 2048)
