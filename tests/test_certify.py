"""Optimality certification: nonconvexity, zero-solution threshold, and the
critical / sufficient / necessary / exact-MCP checks.

Empirical probes back the verdicts: random perturbations must never beat a
certified local minimum, and a coordinate pushed into the inner region
must admit a descent direction along its axis.
"""

import numpy as np
import pytest
from helpers import random_instance

from wclogit.certify import (
    CASE_ACTIVE_ABOVE_KINK,
    CASE_GRADIENT_NONZERO,
    CASE_INNER_REGION,
    CASE_ZERO_BOUNDARY,
    CASE_ZERO_STRICT,
    beta_threshold,
    check_critical_point,
    check_mcp_local_opt,
    check_necessary_local_opt,
    check_sufficient_local_opt,
    is_problem_nonconvex,
)
from wclogit.data import SynthSpec, gen_separable
from wclogit.model import Dataset, loss, loss_gradient, spectral_norm
from wclogit.penalty import (
    PenaltySpec,
    convexified_derivatives,
    convexified_second_derivatives,
    penalty_derivatives,
    penalty_total,
)
from wclogit.solver import SolverConfig, fit


def objective(theta, data, beta, spec):
    return loss(theta, data) + beta * penalty_total(theta, spec)


def centered_instance(rng, n, d):
    X = rng.standard_normal((n, d))
    X -= X.mean(axis=0)
    y = rng.integers(0, 2, size=n)
    return Dataset(X, y, centered=True)


def strict_regime_instance(rng, n=60, d=8, zeta=2.0):
    """Noisy, non-separable instance with beta*zeta > ||X||^2 / 8."""
    X = 0.3 * rng.standard_normal((n, d))
    theta_true = np.zeros(d)
    theta_true[:3] = rng.uniform(1.0, 3.0, 3)
    z = X @ theta_true + 0.5 * rng.standard_normal(n)
    data = Dataset(X, (z >= 0).astype(int))
    norm = spectral_norm(data)
    beta = 0.14 * norm * norm / zeta
    return data, beta, PenaltySpec(zeta=zeta)


def perturbation_probe(theta, data, beta, spec, rng, draws=200, radius=1e-4):
    """Largest objective decrease over random perturbations of norm <= radius."""
    base = objective(theta, data, beta, spec)
    worst = 0.0
    for _ in range(draws):
        delta = rng.standard_normal(theta.size)
        delta *= rng.uniform(0.0, radius) / np.linalg.norm(delta)
        worst = min(worst, objective(theta + delta, data, beta, spec) - base)
    return worst


# --- nonconvexity -----------------------------------------------------------


def test_nonconvex_iff_rank_deficient():
    assert not is_problem_nonconvex(Dataset(np.eye(3), np.array([0, 1, 0])))
    wide = Dataset(np.ones((2, 5)), np.array([0, 1]))  # N < d forces deficiency
    assert is_problem_nonconvex(wide)


def test_nonconvex_on_low_rank_synthetic():
    spec = SynthSpec(d=20, n_train=100, k=4, latent_dim=15, seed=3)
    train, _, _ = gen_separable(spec)
    assert is_problem_nonconvex(train)
    assert np.linalg.matrix_rank(train.features) == 15


def test_nonconvex_matches_svd_rank():
    rng = np.random.default_rng(40)
    near_verdicts = set()
    for trial in range(60):
        n, d = int(rng.integers(2, 15)), int(rng.integers(2, 10))
        X = rng.standard_normal((n, d))
        if trial >= 20:
            # nearly rank-deficient: one column scaled to ~1e-14, about the rank cutoff
            X[:, rng.integers(d)] *= 10.0 ** rng.uniform(-15.0, -13.0)
        data = Dataset(X, rng.integers(0, 2, size=n))
        expected = np.linalg.matrix_rank(X) < d
        assert is_problem_nonconvex(data) == expected
        if trial >= 20 and n >= d:
            near_verdicts.add(expected)
    assert near_verdicts == {True, False}


# --- zero-solution threshold --------------------------------------------------


def test_beta_threshold_hand_case():
    X = np.array([[2.0, -1.0], [-2.0, 1.0]])
    y = np.array([1, 0])
    data = Dataset(X, y, centered=True)
    spec = PenaltySpec(zeta=0.1)
    assert beta_threshold(data, spec) == pytest.approx(2.0)


def test_beta_threshold_zero_when_no_positives():
    X = np.array([[1.0], [-1.0]])
    data = Dataset(X, np.array([0, 0]), centered=True)
    assert beta_threshold(data, PenaltySpec(zeta=0.3)) == 0.0


def test_beta_threshold_scales_with_data():
    rng = np.random.default_rng(41)
    data = centered_instance(rng, 30, 4)
    spec = PenaltySpec(zeta=0.2)
    thr = beta_threshold(data, spec)
    doubled = Dataset(2.0 * data.features, data.labels, centered=True)
    assert beta_threshold(doubled, spec) == pytest.approx(2.0 * thr, rel=1e-12)


def test_beta_threshold_requires_centering():
    rng = np.random.default_rng(42)
    data = random_instance(rng, 10, 3)
    with pytest.raises(ValueError):
        beta_threshold(data, PenaltySpec(zeta=0.1))
    with_icpt = Dataset(np.hstack([data.features, np.ones((10, 1))]),
                        data.labels, centered=True, has_intercept=True)
    with pytest.raises(ValueError):
        beta_threshold(with_icpt, PenaltySpec(zeta=0.1))


def test_beta_threshold_separates_critical_from_noncritical_zero():
    rng = np.random.default_rng(43)
    for _ in range(20):
        data = centered_instance(rng, int(rng.integers(20, 60)), int(rng.integers(3, 10)))
        spec = PenaltySpec(zeta=0.1)
        thr = beta_threshold(data, spec)
        zero = np.zeros(data.n_features)
        assert check_critical_point(zero, 1.01 * thr, spec, data)
        assert not check_critical_point(zero, 0.99 * thr, spec, data)
        # above the threshold, zero is a genuine local minimum
        assert perturbation_probe(zero, data, 1.01 * thr, spec, rng) >= -1e-12


# --- critical point check -------------------------------------------------------


def test_critical_point_on_converged_solver_output():
    rng = np.random.default_rng(44)
    data = random_instance(rng, 50, 6)
    spec = PenaltySpec(zeta=0.4)
    beta = 0.8
    result = fit(data, beta, spec, SolverConfig(eps_tol=1e-14, max_iters=30000))
    assert result.converged
    assert check_critical_point(result.theta, beta, spec, data, tol=1e-4)


def test_critical_point_rejects_random_points():
    rng = np.random.default_rng(45)
    data = random_instance(rng, 40, 5)
    spec = PenaltySpec(zeta=0.2)
    rejected = 0
    for _ in range(20):
        theta = rng.standard_normal(5)
        rejected += not check_critical_point(theta, 0.5, spec, data, tol=1e-6)
    assert rejected >= 19  # random points are essentially never critical


# --- sufficient and necessary conditions ------------------------------------------


def test_sufficient_zero_coordinate_cases():
    rng = np.random.default_rng(46)
    data = centered_instance(rng, 30, 4)
    spec = PenaltySpec(zeta=0.1)
    thr = beta_threshold(data, spec)
    zero = np.zeros(4)
    assert check_sufficient_local_opt(zero, 1.01 * thr, spec, data)
    assert not check_sufficient_local_opt(zero, 0.99 * thr, spec, data)


def test_sufficient_fails_exactly_at_threshold():
    # hand case with an exact threshold of 2: the scaled gradient lands on the
    # boundary of the subdifferential interval, so strict membership fails but
    # the non-strict necessary condition still holds
    data = Dataset(np.array([[2.0, -1.0], [-2.0, 1.0]]), np.array([1, 0]),
                   centered=True)
    spec = PenaltySpec(zeta=0.1)
    thr = beta_threshold(data, spec)
    assert thr == 2.0
    zero = np.zeros(2)
    assert not check_sufficient_local_opt(zero, thr, spec, data)
    assert check_necessary_local_opt(zero, thr, spec, data)


def test_sufficient_active_above_kink_with_zero_gradient():
    flat = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]))  # gradient vanishes
    spec = PenaltySpec(zeta=0.1)  # kink radius 5
    assert check_sufficient_local_opt(np.array([10.0, 0.0]), 1.0, spec, flat)
    # inner-region coordinate: curvature floor 2*zeta is not met
    assert not check_sufficient_local_opt(np.array([2.0, 0.0]), 1.0, spec, flat)


def test_sufficient_implies_necessary_implies_critical():
    rng = np.random.default_rng(47)
    candidates = []
    flat = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]))
    spec = PenaltySpec(zeta=0.1)
    candidates.append((np.array([10.0, 0.0]), 1.0, spec, flat))
    candidates.append((np.array([2.0, 0.0]), 1.0, spec, flat))
    for _ in range(20):
        data = centered_instance(rng, 30, 4)
        thr = beta_threshold(data, spec)
        for scale in (0.99, 1.0, 1.01):
            candidates.append((np.zeros(4), max(scale * thr, 1e-6), spec, data))
        candidates.append((rng.standard_normal(4), 0.7, spec, data))
    for theta, beta, pspec, data in candidates:
        suff = check_sufficient_local_opt(theta, beta, pspec, data)
        nec = check_necessary_local_opt(theta, beta, pspec, data, tol=1e-12)
        crit = check_critical_point(theta, beta, pspec, data, tol=1e-12)
        if suff:
            assert nec
        if nec:
            assert crit


def local_opt_by_coordinate(theta, beta, spec, data, tol, curvature_floor, strict_kinks):
    """The sufficient/necessary test one coordinate at a time, from the public
    derivative functions: the reference for the vectorized checks."""
    target = 2.0 * spec.zeta * theta - loss_gradient(theta, data) / beta
    fl, fr = penalty_derivatives(theta, spec)
    hl, hr = convexified_derivatives(theta, spec)
    cl, cr = convexified_second_derivatives(theta, spec)
    for i in range(theta.size):
        if fl[i] != fr[i]:  # penalty kink at this coordinate
            if strict_kinks:
                if not (hl[i] < target[i] < hr[i]):
                    return False
            elif not (hl[i] - tol <= target[i] <= hr[i] + tol):
                return False
        else:
            if abs(target[i] - hl[i]) > tol:
                return False
            if cl[i] < curvature_floor or cr[i] < curvature_floor:
                return False
    return True


def test_local_opt_checks_equal_the_per_coordinate_reference():
    rng = np.random.default_rng(55)
    flat = Dataset(np.zeros((3, 3)), np.array([0, 1, 1]))
    seen = set()
    for trial in range(24):
        zeta = (0.0, 0.1, 0.5, 2.0)[trial % 4]
        spec = PenaltySpec(zeta=zeta)
        data = flat if trial % 5 == 0 else centered_instance(rng, 12, 3)
        norm = spectral_norm(data)
        for beta in (0.05, 0.5, 3.0):
            floor = 2.0 * zeta - 0.25 * norm * norm / beta
            for _ in range(6):
                # zeros (kinks), plateau edges, plateau and inner coordinates
                theta = rng.standard_normal(3) * rng.choice([0.1, 1.0, 10.0])
                theta[rng.random(3) < 0.4] = 0.0
                if zeta > 0:
                    edge = rng.random(3) < 0.3
                    theta[edge] = rng.choice([-1.0, 1.0], edge.sum()) * spec.plateau_start
                for tol in (0.0, 1e-9, 1e-2, 10.0):
                    suff = check_sufficient_local_opt(theta, beta, spec, data, tol=tol)
                    nec = check_necessary_local_opt(theta, beta, spec, data, tol=tol)
                    assert suff == local_opt_by_coordinate(theta, beta, spec, data, tol,
                                                           2.0 * zeta, True)
                    assert nec == local_opt_by_coordinate(theta, beta, spec, data, tol,
                                                          floor, False)
                    seen.update({("suff", suff), ("nec", nec)})
                report = check_mcp_local_opt(theta, beta, spec, data)
                slack = 1e-6 * (1.0 + norm) / beta
                assert report.is_critical_point == check_critical_point(
                    theta, beta, spec, data, tol=slack)
                assert report.satisfies_sufficient == check_sufficient_local_opt(
                    theta, beta, spec, data, tol=slack)
                assert report.satisfies_necessary == check_necessary_local_opt(
                    theta, beta, spec, data, tol=slack)
    # both verdicts of both checks were exercised
    assert len(seen) == 4


def test_checks_reject_non_finite_points():
    rng = np.random.default_rng(56)
    data = centered_instance(rng, 10, 2)
    spec = PenaltySpec(zeta=0.1)
    for check in (check_critical_point, check_sufficient_local_opt,
                  check_necessary_local_opt, check_mcp_local_opt):
        with pytest.raises(ValueError, match="finite"):
            check(np.array([np.nan, 0.0]), 1.0, spec, data)


def test_necessary_rejects_inner_region_in_strict_regime():
    rng = np.random.default_rng(48)
    data, beta, spec = strict_regime_instance(rng)
    result = fit(data, beta, spec, SolverConfig(eps_tol=1e-14, max_iters=30000))
    assert result.converged
    theta = result.theta.copy()
    active = np.flatnonzero(theta)
    assert active.size > 0
    theta[active[0]] = 0.5 * spec.plateau_start  # push into the inner region
    assert not check_necessary_local_opt(theta, beta, spec, data, tol=1e-6)


# --- exact MCP characterization ----------------------------------------------------


def test_mcp_report_on_converged_solutions():
    rng = np.random.default_rng(49)
    for _ in range(5):
        data, beta, spec = strict_regime_instance(rng)
        result = fit(data, beta, spec, SolverConfig(eps_tol=1e-14, max_iters=30000))
        assert result.converged
        report = check_mcp_local_opt(result.theta, beta, spec, data)
        assert report.mcp_iff_applicable
        assert report.mcp_iff_verdict
        assert report.is_critical_point
        assert not report.possible_separable_escape
        assert {r.case for r in report.per_coordinate} <= {
            CASE_ZERO_STRICT, CASE_ACTIVE_ABOVE_KINK
        }
        # certified local minimum survives the random perturbation probe
        assert perturbation_probe(result.theta, data, beta, spec, rng) >= -1e-12


def test_mcp_report_rejects_inner_region_and_finds_descent():
    rng = np.random.default_rng(50)
    data, beta, spec = strict_regime_instance(rng)
    result = fit(data, beta, spec, SolverConfig(eps_tol=1e-14, max_iters=30000))
    theta = result.theta.copy()
    active = np.flatnonzero(theta)
    j = int(active[0])
    theta[j] = 0.25 * spec.plateau_start
    report = check_mcp_local_opt(theta, beta, spec, data)
    assert report.mcp_iff_applicable
    assert not report.mcp_iff_verdict
    assert report.per_coordinate[j].case == CASE_INNER_REGION
    # a coordinate descent direction exists along that axis
    base = objective(theta, data, beta, spec)
    drops = []
    for step in (1e-3, 5e-4, 1e-4):
        for sign in (1.0, -1.0):
            cand = theta.copy()
            cand[j] += sign * step
            drops.append(objective(cand, data, beta, spec) - base)
    assert min(drops) < 0.0


def test_mcp_report_gradient_nonzero_case():
    rng = np.random.default_rng(51)
    data, beta, spec = strict_regime_instance(rng)
    theta = np.zeros(data.n_features)
    theta[0] = 2.0 * spec.plateau_start  # beyond the kink but not stationary
    report = check_mcp_local_opt(theta, beta, spec, data)
    assert report.per_coordinate[0].case == CASE_GRADIENT_NONZERO
    assert report.mcp_iff_verdict is False


def test_mcp_report_zero_boundary_case():
    # single sample (1), label 1: gradient at zero is exactly -1/2
    data = Dataset(np.array([[1.0]]), np.array([1]))
    spec = PenaltySpec(zeta=1.0)
    report = check_mcp_local_opt(np.zeros(1), 0.5, spec, data)
    assert report.per_coordinate[0].case == CASE_ZERO_BOUNDARY
    assert report.mcp_iff_applicable  # beta*zeta = 0.5 > 1/8 * ||X||^2 = 0.125
    assert report.mcp_iff_verdict is False


def test_mcp_report_not_applicable_when_product_small():
    rng = np.random.default_rng(52)
    data = random_instance(rng, 30, 4)
    spec = PenaltySpec(zeta=0.01)
    report = check_mcp_local_opt(np.zeros(4), 0.1, spec, data)
    assert not report.mcp_iff_applicable
    assert report.mcp_iff_verdict is None


def test_mcp_characterization_needs_beta_zeta_above_the_exact_norm_bound():
    # reproduce fig1's data; with a norm estimated from below, as by power
    # iteration, beta*zeta just under ||X||^2/8 would pass as above it
    train, _, _ = gen_separable(SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=0))
    s0 = np.linalg.svd(train.features, compute_uv=False)[0]
    spec = PenaltySpec(zeta=1.0)  # beta*zeta = beta
    for scale, applicable in ((1.0 - 1e-13, False), (1.0, False), (1.0 + 1e-13, True)):
        report = check_mcp_local_opt(np.zeros(50), 0.125 * s0 * s0 * scale, spec, train)
        assert report.mcp_iff_applicable == applicable


def test_mcp_verdict_matches_sufficient_on_exact_inputs():
    # with margin = grad_tol = 0 the classification coincides with the
    # sufficient condition whenever the exact characterization applies
    spec = PenaltySpec(zeta=0.1)
    flat = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]))
    rng = np.random.default_rng(53)
    points = [
        np.array([10.0, 0.0]),
        np.array([2.0, 0.0]),
        np.array([5.0, 0.0]),
        np.zeros(2),
        np.array([10.0, -20.0]),
    ] + [rng.standard_normal(2) * 8 for _ in range(10)]
    for theta in points:
        report = check_mcp_local_opt(theta, 1.0, spec, flat, grad_tol=0.0, margin=0.0)
        assert report.mcp_iff_applicable  # ||X|| = 0 makes any beta*zeta > 0 enough
        suff = check_sufficient_local_opt(theta, 1.0, spec, flat, tol=0.0)
        assert report.mcp_iff_verdict == suff


def test_report_text_and_escape_flag():
    rng = np.random.default_rng(54)
    data, beta, spec = strict_regime_instance(rng)
    report = check_mcp_local_opt(np.full(data.n_features, 500.0), beta, spec, data)
    assert report.possible_separable_escape  # norm 500*sqrt(8) > 1e3
    text = report.to_text()
    assert "separable-escape" in text
    assert "per-coordinate" in text
    ok_report = check_mcp_local_opt(np.zeros(data.n_features), beta, spec, data)
    assert "critical point" in ok_report.to_text()
