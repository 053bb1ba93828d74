"""Loss, gradient, spectral norm, and prediction.

Oracles: mpmath high-precision evaluation for the loss, central finite
differences for the gradient, dense SVD for the spectral norm.
"""

import math

import mpmath
import numpy as np
import pytest

from wclogit.model import (
    Dataset,
    _kernels,
    lipschitz_bound,
    loss,
    loss_gradient,
    predict,
    predict_many,
    sigmoid,
    spectral_norm,
)


def random_instance(rng, n, d):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    return Dataset(X, y)


def loss_highprec(theta, data):
    """Loss via 50-digit arithmetic, summed in index order."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for x, y in zip(data.features, data.labels):
            z = mpmath.fsum(mpmath.mpf(float(a)) * mpmath.mpf(float(b))
                            for a, b in zip(theta, x))
            s = 1 if y == 1 else -1
            total += mpmath.log(1 + mpmath.exp(-s * z))
        return float(total)


def grad_central_fd(theta, data, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (loss(theta + e, data) - loss(theta - e, data)) / (2.0 * h)
    return g


# --- sigmoid ----------------------------------------------------------------


def test_sigmoid_values_and_symmetry():
    assert sigmoid(0.0) == 0.5
    for t in (1.0, 10.0, 700.0):
        assert sigmoid(t) + sigmoid(-t) == pytest.approx(1.0, abs=1e-15)
    with np.errstate(over="raise"):
        assert sigmoid(700.0) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-700.0) >= 0.0


def test_sigmoid_monotone_in_bounds():
    t = np.linspace(-40, 40, 401)
    v = sigmoid(t)
    assert np.all(np.diff(v) >= 0)
    assert np.all((v >= 0) & (v <= 1))


# --- loss --------------------------------------------------------------------


def test_loss_at_zero_is_n_log_two():
    rng = np.random.default_rng(1)
    for n in (1, 17, 24, 200):
        data = random_instance(rng, n, 5)
        value = loss(np.zeros(5), data)
        # every term is exactly log 2, as logaddexp(0, 0) gives it
        assert value == np.full(n, math.log(2.0)).sum()
        assert value == np.logaddexp(0.0, np.zeros(n)).sum()
        if n <= 24:  # beyond, the pairwise sum of n equal terms may round off n*log 2
            assert value == n * math.log(2.0)


def test_loss_single_sample_closed_form():
    for t in (-5.0, 0.0, 5.0):
        data = Dataset(np.array([[1.0]]), np.array([1]))
        assert loss(np.array([t]), data) == pytest.approx(np.log1p(np.exp(-t)), rel=1e-14)
        data0 = Dataset(np.array([[1.0]]), np.array([0]))
        assert loss(np.array([t]), data0) == pytest.approx(np.log1p(np.exp(t)), rel=1e-12)


def test_loss_matches_high_precision():
    rng = np.random.default_rng(2)
    for _ in range(10):
        data = random_instance(rng, 12, 4)
        theta = rng.standard_normal(4) * 3.0
        assert loss(theta, data) == pytest.approx(loss_highprec(theta, data), rel=1e-12)


def test_loss_separable_monotone_in_scale():
    X = np.array([[1.0, 0.3], [-1.0, 0.1]])
    y = np.array([1, 0])
    data = Dataset(X, y)
    theta0 = np.array([1.0, 0.0])  # separates the two points
    values = [loss(c * theta0, data) for c in (1.0, 10.0, 100.0)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-40


def test_loss_stable_at_huge_margins():
    data = Dataset(np.array([[1e4], [-1e4]]), np.array([1, 0]))
    for t in (-1.0, 1.0):
        v = loss(np.array([t]), data)
        assert np.isfinite(v) and v >= 0.0


def test_loss_nonnegative_and_convex_along_lines():
    rng = np.random.default_rng(3)
    for _ in range(50):
        data = random_instance(rng, 10, 3)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        la, lb = loss(a, data), loss(b, data)
        mid = loss(0.5 * (a + b), data)
        assert la >= 0 and lb >= 0
        assert mid <= 0.5 * la + 0.5 * lb + 1e-12


# --- gradient ----------------------------------------------------------------


def test_gradient_hand_case():
    data = Dataset(np.array([[1.0, 0.0]]), np.array([1]))
    g = loss_gradient(np.zeros(2), data)
    assert np.allclose(g, [-0.5, 0.0], atol=1e-15)


def test_gradient_at_zero_on_centered_data():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 6))
    X -= X.mean(axis=0)
    y = rng.integers(0, 2, size=30)
    data = Dataset(X, y)
    expected = -X[y == 1].sum(axis=0)
    assert np.allclose(loss_gradient(np.zeros(6), data), expected, atol=1e-10)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(5, 50))
        d = int(rng.integers(2, 20))
        data = random_instance(rng, n, d)
        theta = rng.standard_normal(d)
        g = loss_gradient(theta, data)
        fd = grad_central_fd(theta, data)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_gradient_partition_independence():
    rng = np.random.default_rng(6)
    data = random_instance(rng, 40, 7)
    theta = rng.standard_normal(7)
    whole = loss_gradient(theta, data)
    pieces = np.zeros(7)
    for lo, hi in ((0, 13), (13, 26), (26, 40)):
        part = Dataset(data.features[lo:hi], data.labels[lo:hi])
        pieces += loss_gradient(theta, part)
    assert np.linalg.norm(whole - pieces) <= 1e-12 * max(1.0, np.linalg.norm(whole))


def test_gradient_and_sigmoid_from_the_shared_margins_bitwise():
    rng = np.random.default_rng(13)
    data = random_instance(rng, 40, 6)
    evaluate, gradient, loss_of = _kernels(data)
    y = data.labels.astype(float)
    for scale in (0.0, 1.0, 30.0, 1e3):
        theta = scale * rng.standard_normal(6)
        margins, value = evaluate(theta)
        z, e = margins
        assert z.tobytes() == (data.features @ theta).tobytes()
        assert e.tobytes() == np.exp(-np.abs(z)).tobytes()
        assert value == loss(theta, data) == loss_of(margins)
        # the one-division sigmoid the gradient has always used, written out
        p = np.where(z >= 0, 1.0, np.exp(-np.abs(z))) / (1.0 + np.exp(-np.abs(z)))
        assert sigmoid(z).tobytes() == p.tobytes()
        assert gradient(margins).tobytes() == ((p - y) @ data.features).tobytes()
        assert gradient(margins).tobytes() == loss_gradient(theta, data).tobytes()


def test_non_finite_margins_give_a_non_finite_loss_without_warnings():
    # the solver's finiteness check needs the NaN to reach the objective
    evaluate, gradient, _ = _kernels(Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0])))
    margins, value = evaluate(np.array([np.nan]))
    assert math.isnan(value) and np.isnan(gradient(margins)).all()
    # infinite margins on the right side of both labels cost nothing, as in logaddexp
    margins, value = evaluate(np.array([np.inf]))
    assert value == 0.0
    margins, value = evaluate(np.array([-np.inf]))
    assert value == math.inf

def test_margins_beyond_the_float_range_give_inf_and_a_finite_gradient_without_warnings():
    # both margins overflow to -inf, which numpy's warning (an error here)
    # would announce: the label-1 sample then costs inf, and both sigmoids
    # are exactly 0
    data = Dataset(np.array([[1e10, 1.0], [1.0, -1e10]]), np.array([1, 0]))
    theta = np.array([-1e300, 1e300])
    assert loss(theta, data) == math.inf
    assert loss_gradient(theta, data).tolist() == [-1e10, -1.0]


def test_gradient_lipschitz_bound_holds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        data = random_instance(rng, 15, 4)
        bound = lipschitz_bound(data)
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        lhs = np.linalg.norm(loss_gradient(a, data) - loss_gradient(b, data))
        assert lhs <= bound * np.linalg.norm(a - b) + 1e-10


# --- spectral norm -----------------------------------------------------------


def test_spectral_norm_known_matrices():
    eye = Dataset(np.eye(3), np.array([0, 1, 0]))
    assert spectral_norm(eye) == pytest.approx(1.0, abs=1e-9)
    diag = Dataset(np.diag([3.0, 1.0]), np.array([1, 0]))
    assert spectral_norm(diag) == pytest.approx(3.0, abs=1e-9)
    zero = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    assert spectral_norm(zero) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(2, 15))
        X = rng.standard_normal((n, d))
        data = Dataset(X, rng.integers(0, 2, size=n))
        exact = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(data) == exact


def test_spectral_norm_deterministic():
    rng = np.random.default_rng(9)
    data = random_instance(rng, 20, 6)
    assert spectral_norm(data) == spectral_norm(data)


def test_lipschitz_bound_values():
    data = Dataset(np.diag([2.0, 2.0]), np.array([0, 1]))
    assert lipschitz_bound(data) == pytest.approx(1.0, rel=1e-8)
    unit = Dataset(np.array([[1.0]]), np.array([1]))
    assert lipschitz_bound(unit) == pytest.approx(0.25, rel=1e-10)


# --- prediction ---------------------------------------------------------------


def test_predict_cases():
    theta = np.array([1.0, -1.0])
    label, prob = predict(theta, np.array([0.0, 0.0]))  # on the boundary
    assert label == 1 and prob == 0.5
    label, prob = predict(theta, np.array([-3.0, 0.0]))
    assert label == 0 and prob == pytest.approx(sigmoid(-3.0))
    label, prob = predict(np.zeros(2), np.array([5.0, -2.0]))
    assert label == 1 and prob == 0.5  # zero weights put everything on the boundary
    with pytest.raises(ValueError, match=r"sample has shape \(3,\) but theta has shape \(2,\)"):
        predict(theta, np.zeros(3))


def test_predict_many_matches_predict():
    rng = np.random.default_rng(10)
    theta = rng.standard_normal(4)
    X = rng.standard_normal((12, 4))
    labels, probs = predict_many(theta, X)
    for i in range(12):
        l1, p1 = predict(theta, X[i])
        assert labels[i] == l1
        assert probs[i] == pytest.approx(p1, abs=1e-15)


# --- dataset validation -------------------------------------------------------


def test_dataset_validation_errors():
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.array([0, 1, 2]))  # non-binary label
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([1]))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.array([0, 1]))  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.ones(3), np.array([0, 1, 1]))  # not 2-d
    with pytest.raises(ValueError, match="center must be a finite length-d vector"):
        Dataset(np.ones((2, 2)), np.array([0, 1]), center=np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        loss(np.zeros(3), Dataset(np.ones((2, 2)), np.array([0, 1])))


def test_dataset_checks_labels_before_casting():
    # casting first would silently map 0.5 -> 0 and 1.7 -> 1
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.ones((2, 1)), np.array([0.5, 1.7]))
    data = Dataset(np.ones((2, 1)), np.array([1.0, 0.0]))
    assert data.labels.tolist() == [1, 0]


def test_dataset_is_immutable():
    data = Dataset(np.eye(2), np.array([0, 1]))
    with pytest.raises(AttributeError):
        data.features = np.zeros((2, 2))
    with pytest.raises(ValueError):
        data.features[0, 0] = 5.0


# --- spectral norm cache -------------------------------------------------------


def test_one_svd_per_dataset(monkeypatch):
    from wclogit.certify import check_mcp_local_opt, is_problem_nonconvex
    from wclogit.data import center
    from wclogit.penalty import PenaltySpec
    from wclogit.solver import SolverConfig, fit, max_constant_stepsize

    # every decomposition of the features, whichever numpy entry point runs it
    calls = []
    svd, matrix_rank = np.linalg.svd, np.linalg.matrix_rank

    def counted(function):
        def wrapper(X, *args, **kwargs):
            calls.append(function.__name__)
            return function(X, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(svd))
    monkeypatch.setattr(np.linalg, "matrix_rank", counted(matrix_rank))
    data = random_instance(np.random.default_rng(11), 30, 5)
    spec = PenaltySpec(zeta=0.2)
    bounds = {max_constant_stepsize(0.5, spec, data) for _ in range(3)}
    theta = fit(data, 0.5, spec, SolverConfig(max_iters=5)).theta
    fit(data, 0.5, spec, SolverConfig(accelerate=True, max_iters=5))
    check_mcp_local_opt(theta, 0.5, spec, data)
    is_problem_nonconvex(data)
    norms = {spectral_norm(data) for _ in range(3)}
    assert calls == ["svd"]
    assert len(bounds) == 1 and len(norms) == 1
    assert norms.pop() == svd(data.features, compute_uv=False)[0]

    centered = center(data)  # a derived dataset starts with an empty cache
    spectral_norm(centered)
    is_problem_nonconvex(centered)
    assert calls == ["svd", "svd"]
