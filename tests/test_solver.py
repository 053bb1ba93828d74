"""Proximal gradient solver: stepsizes, descent, convergence, acceleration.

Key oracles: the coordinatewise grid oracle for one prox-gradient step,
and the sign-pattern l1 oracle for the convex zeta = 0 special case.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    backtracking_fit_oracle,
    l1_global_oracle,
    l1_objective,
    prox_grid_oracle,
    random_instance,
    stacked_fit_oracle,
    write_trace_oracle,
)

from wclogit import solver
from wclogit.certify import check_critical_point
from wclogit.data import SynthSpec, center, gen_noisy, gen_separable
from wclogit.model import Dataset, lipschitz_bound, loss, loss_gradient
from wclogit.penalty import PenaltySpec, penalty_total, prox_vector
from wclogit.solver import (
    BACKTRACKING,
    CONSTANT,
    CellsResult,
    FitResult,
    NumericalError,
    SolverConfig,
    TraceRow,
    _initial_alpha,
    backtrack_stepsize,
    criticality_residual,
    fit,
    fit_cells,
    max_constant_stepsize,
    prox_grad_step,
    write_trace_csv,
)


def objective(theta, data, beta, spec):
    return loss(theta, data) + beta * penalty_total(theta, spec)


def centered_instance(rng, n, d):
    X = rng.standard_normal((n, d))
    X -= X.mean(axis=0)
    y = rng.integers(0, 2, size=n)
    return Dataset(X, y, centered=True)


# --- stepsize bounds ----------------------------------------------------------


def test_max_constant_stepsize_frozen_cases():
    unit = Dataset(np.array([[1.0]]), np.array([1]))  # ||X|| = 1
    spec = PenaltySpec(zeta=0.1)
    bound = max_constant_stepsize(1.2, spec, unit)
    assert 4.08 < bound < 4.09  # 1 / max(0.24, 1/8 + 0.12) = 1/0.245

    two = Dataset(np.array([[2.0]]), np.array([1]))  # ||X|| = 2
    assert max_constant_stepsize(1.0, PenaltySpec(zeta=0.0), two) == pytest.approx(2.0, rel=1e-9)

    tiny_beta = max_constant_stepsize(1e-12, spec, unit)
    assert tiny_beta == pytest.approx(8.0, rel=1e-6)


def test_max_constant_stepsize_raises_when_the_feature_scale_overflows():
    # ||X||^2 / 8 overflows: the bound would read 0 and admit no stepsize
    huge = Dataset(np.array([[1e300, 2.0], [1.5, -1.0]]), np.array([1, 0]))
    spec = PenaltySpec(zeta=0.1)
    with pytest.raises(NumericalError, match=r"not finite .* \|\|X\|\| = 1e\+300"):
        max_constant_stepsize(0.1, spec, huge)
    with pytest.raises(NumericalError):
        fit(huge, 0.1, spec, SolverConfig())
    with pytest.raises(NumericalError):
        fit_cells(huge, [(0.1, 0.1)], [None])
    # just inside the float range the bound is tiny but positive
    large = Dataset(np.array([[1e150, 0.0]]), np.array([1]))
    assert max_constant_stepsize(0.1, spec, large) == 1.0 / (1e300 / 8.0 + 0.1 * 0.1)


def test_max_constant_stepsize_at_a_beta_whose_double_overflows():
    # 2*beta overflows at beta = 1e308 while beta*zeta does not: at zeta = 0
    # the bound is the beta = 1 one, 8/||X||^2, and at zeta = 0.1 it is
    # 1/(2*beta*zeta), finite and positive
    rng = np.random.default_rng(21)
    data = centered_instance(rng, 8, 3)
    l1 = max_constant_stepsize(1e308, PenaltySpec(zeta=0.0), data)
    assert l1 == max_constant_stepsize(1.0, PenaltySpec(zeta=0.0), data)
    norm = solver.spectral_norm(data)
    assert l1 == pytest.approx(8.0 / (norm * norm), rel=1e-15)
    assert max_constant_stepsize(1e308, PenaltySpec(zeta=0.1), data) == 1.0 / (2.0 * (1e308 * 0.1))


def test_max_constant_stepsize_keeps_prox_well_posed():
    rng = np.random.default_rng(20)
    for _ in range(50):
        data = random_instance(rng, int(rng.integers(2, 20)), int(rng.integers(1, 8)))
        beta = float(rng.uniform(0.01, 5.0))
        spec = PenaltySpec(zeta=float(rng.uniform(0.0, 3.0)))
        bound = max_constant_stepsize(beta, spec, data)
        assert bound * beta * spec.zeta <= 0.5 + 1e-12


# --- single step ---------------------------------------------------------------


def test_prox_grad_step_fixed_points():
    # zero feature matrix: gradient vanishes everywhere, so any theta with
    # coordinates at 0 or beyond the kink radius is a fixed point
    data = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]))
    spec = PenaltySpec(zeta=0.1)
    theta = np.array([10.0, -10.0])
    out = prox_grad_step(theta, 1.0, 1.0, spec, data)
    assert np.array_equal(out, theta)

    # features orthogonal to theta with balanced labels: gradient is zero,
    # the active coordinate sits beyond the kink, the rest stay at zero
    X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, 0, 1, 0])
    data2 = Dataset(X, y)
    theta2 = np.array([0.0, 10.0])
    out2 = prox_grad_step(theta2, 0.5, 1.0, spec, data2)
    assert np.array_equal(out2, theta2)


def test_prox_grad_step_stalls_at_zero_above_threshold():
    rng = np.random.default_rng(21)
    data = centered_instance(rng, 30, 4)
    grad0 = np.abs(loss_gradient(np.zeros(4), data))
    beta = 1.5 * float(grad0.max())
    spec = PenaltySpec(zeta=0.1)
    alpha = 0.9 * max_constant_stepsize(beta, spec, data)
    out = prox_grad_step(np.zeros(4), alpha, beta, spec, data)
    assert np.array_equal(out, np.zeros(4))


def test_prox_grad_step_matches_coordinate_grid_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        data = random_instance(rng, 12, 2)
        spec = PenaltySpec(zeta=float(rng.uniform(0.0, 0.4)))
        beta = float(rng.uniform(0.2, 1.5))
        alpha = 0.9 * max_constant_stepsize(beta, spec, data)
        theta = rng.standard_normal(2)
        step = prox_grad_step(theta, alpha, beta, spec, data)
        v = theta - alpha * loss_gradient(theta, data)
        for i in range(2):
            expected = prox_grid_oracle(float(v[i]), alpha * beta, spec.zeta)
            assert step[i] == pytest.approx(expected, abs=2e-4)


def test_prox_grad_step_rejects_ill_posed_alpha():
    data = Dataset(np.ones((2, 2)), np.array([0, 1]))
    spec = PenaltySpec(zeta=0.5)
    with pytest.raises(ValueError):
        prox_grad_step(np.zeros(2), 1.0, 1.0, spec, data)  # alpha*beta*zeta = 0.5


# --- backtracking ---------------------------------------------------------------


def test_backtracking_accepts_small_alpha_immediately():
    rng = np.random.default_rng(23)
    data = random_instance(rng, 20, 3)
    spec = PenaltySpec(zeta=0.1)
    config = SolverConfig(stepsize_rule=BACKTRACKING)
    tiny = 1e-4
    alpha, theta1 = backtrack_stepsize(np.zeros(3), tiny, config, 1.0, spec, data)
    assert alpha == tiny  # no reduction needed


def test_backtracking_shrinks_oversized_alpha():
    # single unit sample: curvature at 0 equals the Lipschitz bound 1/4,
    # so a huge starting alpha must be cut down to ~1/L
    data = Dataset(np.array([[1.0]]), np.array([1]))
    spec = PenaltySpec(zeta=0.0)
    beta = 1e-6
    config = SolverConfig(stepsize_rule=BACKTRACKING)
    big = 10.0 * max_constant_stepsize(beta, spec, data)
    alpha, theta1 = backtrack_stepsize(np.zeros(1), big, config, beta, spec, data)
    assert alpha < big
    assert alpha <= (1.0 / lipschitz_bound(data)) * 1.01
    # accepted pair satisfies the quadratic upper bound
    diff = theta1 - 0.0
    lhs = loss(theta1, data)
    rhs = loss(np.zeros(1), data) + float(diff @ loss_gradient(np.zeros(1), data)) \
        + float(diff @ diff) / (2.0 * alpha)
    assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("eta", [0.5, 1e-300])
def test_a_search_that_finds_no_stepsize_is_a_numerical_error_whatever_eta(eta):
    # every trial overflows; at eta = 1e-300 the third trial stepsize
    # underflows to 0, whose bound is not finite, so it fails the acceptance
    # test as the overflowed ones do, with no ZeroDivisionError or warning
    data = Dataset(np.array([[1e10, 1.0], [1.0, -1e10]]), np.array([1, 0]))
    config = SolverConfig(stepsize_rule=BACKTRACKING, eta=eta)
    with pytest.raises(NumericalError, match="did not accept a stepsize"):
        backtrack_stepsize(np.array([-1e300, 1e300]), 1.0, config, 0.5,
                           PenaltySpec(zeta=0.1, beta=0.5), data)


def test_backtrack_stepsize_checks_its_first_prox_weight():
    data = Dataset(np.array([[1.0, 0.5], [0.5, -1.0]]), np.array([1, 0]))
    spec = PenaltySpec(zeta=0.1)
    config = SolverConfig(stepsize_rule=BACKTRACKING)
    # weight*zeta = 10*0.5*0.1 = 1/2 is not admissible
    with pytest.raises(ValueError, match="prox is not well posed"):
        backtrack_stepsize(np.zeros(2), 10.0, config, 0.5, spec, data)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="prox weight must be a finite positive real"):
            backtrack_stepsize(np.zeros(2), bad, config, 0.5, spec, data)


def test_each_input_is_checked_once_where_the_run_starts(monkeypatch):
    # the run's beta, spec and first prox weight are checked before the first
    # iteration, and nothing in the iteration checks them again
    counts = {"weight": 0, "spec": 0, "config": 0}
    check_weight, spec_init, config_init = (solver._check_weight, PenaltySpec.__post_init__,
                                            SolverConfig.__post_init__)

    def counted(name, check):
        def wrapped(*args):
            counts[name] += 1
            return check(*args)
        return wrapped

    monkeypatch.setattr(solver, "_check_weight", counted("weight", check_weight))
    monkeypatch.setattr(PenaltySpec, "__post_init__", counted("spec", spec_init))
    monkeypatch.setattr(SolverConfig, "__post_init__", counted("config", config_init))
    rng = np.random.default_rng(25)
    data = random_instance(rng, 40, 6)
    spec = PenaltySpec(zeta=0.2)
    for rule in (CONSTANT, BACKTRACKING):
        config = SolverConfig(stepsize_rule=rule, eps_tol=1e-300, max_iters=60)
        counts.update(weight=0, spec=0, config=0)
        assert fit(data, 0.5, spec, config).iterations > 10
        assert counts == {"weight": 1, "spec": 1, "config": 0}, rule
    cells = [(0.5, 0.0), (0.5, 0.2), (1.0, 0.2)]
    counts.update(weight=0, spec=0, config=0)
    fit_cells(data, cells, [0.1, None, 0.1], max_iters=50)
    assert counts == {"weight": 3, "spec": 3, "config": 1}


def test_backtracking_alpha_non_increasing_across_iterations():
    rng = np.random.default_rng(24)
    data = random_instance(rng, 40, 6)
    spec = PenaltySpec(zeta=0.2)
    config = SolverConfig(stepsize_rule=BACKTRACKING, eps_tol=1e-10, max_iters=200)
    result = fit(data, 0.5, spec, config)
    steps = [row.stepsize for row in result.trace[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(steps, steps[1:]))


def _assert_is_the_backtracking_oracle(result, expected):
    assert result.theta.tobytes() == expected.theta.tobytes()
    assert (result.iterations, result.converged) == (expected.iterations, expected.converged)
    assert result.final_objective == expected.final_objective
    assert result.trace == expected.trace
    # train prints these with repr, which differs for numpy scalars
    assert type(result.iterations) is int and type(result.converged) is bool
    assert type(result.final_objective) is float
    assert all(type(value) is float for row in result.trace for value in row)


def test_backtracking_fit_is_the_one_point_oracle_bitwise():
    # fit's backtracking rule against the oracle loop on the checked public
    # functions: stalls at every offset of a block of objectives and on both
    # of its ends, capped fits from max_iters 1 up, traced and untraced, plain
    # and momentum, zero and random theta0, with stepsize reductions at the
    # first step and later ones
    cap = solver._OBJECTIVE_BLOCK
    max_iters = 2 * cap + 5
    rng = np.random.default_rng(52)
    data = centered_instance(rng, 30, 5)
    beta, spec = 0.4, PenaltySpec(zeta=0.3)
    offsets, reductions = set(), set()
    for accelerate in (False, True):
        for start in (None, rng.standard_normal(5)):
            config = SolverConfig(stepsize_rule=BACKTRACKING, accelerate=accelerate,
                                  eps_tol=1e-300, max_iters=max_iters)
            full = backtracking_fit_oracle(data, beta, spec, config, theta0=start)
            steps = [row.stepsize for row in full.trace[1:]]
            reductions.update(k for k in range(1, len(steps)) if steps[k] < steps[k - 1])
            first = _initial_alpha(config.alpha, config, replace(spec, beta=beta), data)
            reductions.add(0 if steps[0] < first else None)
            # eps_tol at the k-th objective change stalls the fit at k or before
            changes = np.abs(np.diff([row.objective for row in full.trace])).tolist()
            every = 1 if start is None else 3
            runs = [replace(config, eps_tol=max(c, 1e-300)) for c in changes[::every]]
            runs += [replace(config, max_iters=m) for m in (1, 2, 3, 5, cap, cap + 1)]
            for run in runs:
                expected = backtracking_fit_oracle(data, beta, spec, run, theta0=start)
                for traced in (False, True):
                    result = fit(data, beta, spec, replace(run, record_trace=traced),
                                 theta0=start)
                    _assert_is_the_backtracking_oracle(
                        result, replace(expected, trace=expected.trace if traced else []))
                k = expected.iterations
                if expected.converged and k >= cap:
                    offsets.add(k - _block_start(k, cap, run.max_iters))
    assert offsets == set(range(cap))
    assert 0 in reductions and len(reductions - {0, None}) > 0


@pytest.mark.parametrize("accelerate", [False, True])
def test_a_backtracking_failure_past_the_stall_is_dropped(monkeypatch, accelerate):
    # fit may take steps past a stall before it computes their objectives,
    # and drops them; a step that fails there (no stepsize accepted) is one
    # the fit never takes, so it returns the stalled result; a failure at or
    # before the stall raises after exactly that many steps
    rng = np.random.default_rng(53)
    data = centered_instance(rng, 30, 5)
    beta, spec = 0.4, PenaltySpec(zeta=0.3)
    config = SolverConfig(stepsize_rule=BACKTRACKING, accelerate=accelerate, eps_tol=1e-300,
                          max_iters=100, record_trace=False)
    changes = np.abs(np.diff([row.objective for row in fit(
        data, beta, spec, replace(config, record_trace=True)).trace])).tolist()
    # the first stall after 32 iterations that some eps_tol gives: at most 15
    # iterations into a block of 16, so the fit takes steps past it
    stall = next(k for k in range(33, len(changes)) if changes[k - 1] < min(changes[:k - 1]))
    assert stall - _block_start(stall, solver._OBJECTIVE_BLOCK, 100) < 15
    config = replace(config, eps_tol=changes[stall - 1])
    expected = fit(data, beta, spec, config)
    assert (expected.iterations, expected.converged) == (stall, True)
    backtrack, calls, fail_at = solver._backtrack, [0], [0]

    def failing(*args):
        calls[0] += 1
        if calls[0] == fail_at[0]:
            raise NumericalError("no stepsize accepted")
        return backtrack(*args)

    monkeypatch.setattr(solver, "_backtrack", failing)
    for n in range(1, stall + 17):
        calls[0], fail_at[0] = 0, n
        if n <= stall:
            with pytest.raises(NumericalError, match="no stepsize accepted"):
                fit(data, beta, spec, config)
            assert calls[0] == n
            continue
        result = fit(data, beta, spec, config)
        assert result.theta.tobytes() == expected.theta.tobytes()
        assert (result.iterations, result.converged) == (stall, True)
        assert result.final_objective == expected.final_objective


# --- full fit -------------------------------------------------------------------


@pytest.mark.parametrize("rule", [CONSTANT, BACKTRACKING])
def test_fit_monotone_descent(rule):
    rng = np.random.default_rng(25)
    for _ in range(15):
        data = random_instance(rng, int(rng.integers(10, 40)), int(rng.integers(2, 8)))
        beta = float(rng.uniform(0.05, 2.0))
        spec = PenaltySpec(zeta=float(rng.uniform(0.0, 1.0)))
        config = SolverConfig(stepsize_rule=rule, eps_tol=1e-10, max_iters=300)
        result = fit(data, beta, spec, config)
        objs = [row.objective for row in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert all(row.objective >= 0.0 for row in result.trace)


def test_fit_stalls_at_zero_above_threshold():
    rng = np.random.default_rng(26)
    data = centered_instance(rng, 25, 5)
    grad0 = np.abs(loss_gradient(np.zeros(5), data))
    beta = 1.2 * float(grad0.max())
    spec = PenaltySpec(zeta=0.05)
    result = fit(data, beta, spec, SolverConfig())
    assert result.converged
    assert result.iterations == 1
    assert np.array_equal(result.theta, np.zeros(5))


def test_fit_converges_to_fixed_point_at_tight_tolerance():
    # the objective-difference stall cannot resolve below the rounding
    # noise of the objective (~|obj|*eps), which caps the reachable
    # fixed-point gap at sqrt(2*noise/mu); assert that level here and the
    # exact fixed point on stall-exact instances below
    rng = np.random.default_rng(27)
    data = random_instance(rng, 50, 5)
    spec = PenaltySpec(zeta=0.5)
    beta = 0.8
    config = SolverConfig(eps_tol=1e-15, max_iters=20000)
    result = fit(data, beta, spec, config)
    assert result.converged
    alpha = result.trace[-1].stepsize
    again = prox_grad_step(result.theta, alpha, beta, spec, data)
    assert np.linalg.norm(again - result.theta) <= 1e-7


def test_fit_exact_fixed_point_on_stall_instances():
    spec = PenaltySpec(zeta=0.1)
    flat = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]))
    result = fit(flat, 1.0, spec, SolverConfig(), theta0=np.array([10.0, -7.0]))
    assert result.converged and result.iterations == 1
    alpha = result.trace[-1].stepsize
    assert np.array_equal(prox_grad_step(result.theta, alpha, 1.0, spec, flat), result.theta)


def test_fit_steps_and_residuals_vanish():
    rng = np.random.default_rng(28)
    data = random_instance(rng, 60, 6)
    spec = PenaltySpec(zeta=0.3)
    config = SolverConfig(eps_tol=1e-14, max_iters=20000)
    result = fit(data, 1.0, spec, config)
    assert result.converged
    assert result.trace[-1].step_norm < 1e-6
    assert result.trace[-1].residual < 1e-4 * max(1.0, result.trace[0].residual)
    # the residual matches an out-of-band recomputation at the final point
    assert result.trace[-1].residual == pytest.approx(
        criticality_residual(result.theta, 1.0, spec, data), abs=1e-12
    )


def test_fit_zeta_zero_reaches_l1_global_optimum():
    rng = np.random.default_rng(29)
    for _ in range(3):
        data = random_instance(rng, 20, 4)
        beta = float(rng.uniform(0.2, 1.0))
        spec = PenaltySpec(zeta=0.0)
        config = SolverConfig(eps_tol=1e-14, max_iters=30000)
        result = fit(data, beta, spec, config)
        oracle = l1_global_oracle(data, beta)
        assert result.final_objective == pytest.approx(oracle, abs=1e-6)


def test_fit_deterministic_and_trace_export(tmp_path):
    rng = np.random.default_rng(30)
    data = random_instance(rng, 30, 4)
    spec = PenaltySpec(zeta=0.2)
    config = SolverConfig(stepsize_rule=BACKTRACKING, eps_tol=1e-10, max_iters=100)
    r1 = fit(data, 0.7, spec, config)
    r2 = fit(data, 0.7, spec, config)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.trace == r2.trace

    path = tmp_path / "trace.csv"
    write_trace_csv(r1, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,objective,step_norm,residual,stepsize"
    assert len(lines) == len(r1.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == r1.trace[0].objective


def test_trace_csv_is_the_csv_writer_file_byte_for_byte(tmp_path):
    specials = [0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e16, 1.7976931348623157e308,
                math.inf, -math.inf, math.nan]
    rows = [TraceRow(*(specials[(k + j) % len(specials)] for j in range(4)))
            for k in range(len(specials))]
    made_up = FitResult(np.zeros(1), len(rows) - 1, False, 0.0, rows)
    data = random_instance(np.random.default_rng(31), 30, 4)
    config = SolverConfig(stepsize_rule=BACKTRACKING, eps_tol=1e-10, max_iters=150)
    for result in (made_up, fit(data, 0.7, PenaltySpec(zeta=0.2), config)):
        write_trace_csv(result, tmp_path / "trace.csv")
        write_trace_oracle(result, tmp_path / "oracle.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_fit_respects_theta0_and_defaults():
    rng = np.random.default_rng(31)
    data = random_instance(rng, 20, 3)
    spec = PenaltySpec(zeta=0.1, beta=0.5)
    theta0 = rng.standard_normal(3)
    result = fit(data, None, spec, SolverConfig(max_iters=5), theta0=theta0)
    assert result.trace[0].objective == pytest.approx(objective(theta0, data, 0.5, spec))
    with pytest.raises(ValueError):
        fit(data, 0.5, spec, SolverConfig(), theta0=np.zeros(7))


def test_fit_rejects_inadmissible_constant_alpha():
    rng = np.random.default_rng(32)
    data = random_instance(rng, 20, 3)
    spec = PenaltySpec(zeta=0.1)
    bound = max_constant_stepsize(1.0, spec, data)
    with pytest.raises(ValueError) as err:
        fit(data, 1.0, spec, SolverConfig(alpha=bound * 1.5))
    assert f"{bound}" in str(err.value)


def test_constant_stepsize_bound_on_fig1_uses_the_exact_norm():
    # reproduce fig1's problem; a norm estimated from below, as by power
    # iteration, would raise the bound and admit the stepsize below
    train, _, _ = gen_separable(SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=0))
    beta, spec = 1.2, PenaltySpec(zeta=0.1)
    s0 = np.linalg.svd(train.features, compute_uv=False)[0]
    bound = max_constant_stepsize(beta, spec, train)
    assert bound == 1.0 / max(2.0 * beta * spec.zeta, s0 * s0 / 8.0 + beta * spec.zeta)
    alpha = 4.081632653088194
    assert bound < alpha
    with pytest.raises(ValueError, match="not admissible"):
        fit(train, beta, spec, SolverConfig(alpha=alpha, max_iters=1))


def test_fit_raises_on_numerical_blowup():
    data = Dataset(np.array([[1e3], [-1e3]]), np.array([0, 1]))
    spec = PenaltySpec(zeta=0.0)
    with pytest.raises(NumericalError):
        fit(data, 1.0, spec, SolverConfig(max_iters=5), theta0=np.array([1e307]))


@pytest.mark.parametrize("rule, accelerate",
                         [(CONSTANT, True), (BACKTRACKING, False), (BACKTRACKING, True)])
def test_a_start_whose_margins_overflow_raises_without_a_numpy_warning(rule, accelerate):
    # the start's objective is inf, which raises NumericalError; the pytest
    # configuration turns numpy's overflow warning into an error
    data = Dataset(np.array([[1e3], [-1e3]]), np.array([0, 1]))
    config = SolverConfig(stepsize_rule=rule, accelerate=accelerate, max_iters=5)
    with pytest.raises(NumericalError, match="non-finite"):
        fit(data, 1.0, PenaltySpec(zeta=0.0), config, theta0=[1e307])


@pytest.mark.parametrize("accelerate", [False, True])
@pytest.mark.parametrize("traced", [False, True])
def test_the_default_constant_stepsize_on_all_zero_features_at_zeta_zero(accelerate, traced):
    # ||X|| = 0 and zeta = 0 bound no stepsize: the default is 1.0, backtracking's
    # start there, and the fit stalls at theta = 0 after one iteration as the
    # backtracking fit does
    data = Dataset(np.zeros((2, 2)), np.array([1, 0]))
    spec = PenaltySpec(zeta=0.0)
    config = SolverConfig(accelerate=accelerate, record_trace=traced)
    assert max_constant_stepsize(0.1, spec, data) == math.inf
    assert _initial_alpha(config.alpha, config, replace(spec, beta=0.1), data) == 1.0
    result = fit(data, 0.1, spec, config)
    expected = fit(data, 0.1, spec, replace(config, stepsize_rule=BACKTRACKING))
    for r in (result, expected):
        assert r.theta.tolist() == [0.0, 0.0]
        assert (r.iterations, r.converged) == (1, True)
        assert r.final_objective == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert result.final_objective == expected.final_objective
    assert len(result.trace) == (2 if traced else 0)
    cells = fit_cells(data, [(0.1, 0.0), (0.5, 0.0)], [None, None])
    assert cells.theta.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert cells.iterations.tolist() == [1, 1] and cells.converged.all()
    assert cells.final_objective.tolist() == [result.final_objective] * 2
    assert fit_cells(data, [(0.1, 0.0)], [None]).iterations.tolist() == [1]


@pytest.mark.parametrize("rule", [CONSTANT, BACKTRACKING])
@pytest.mark.parametrize("accelerate", [False, True])
def test_fit_reads_its_start_point_without_copying_or_writing_it(rule, accelerate):
    # the checked theta0 is the caller's array: a write would raise here
    rng = np.random.default_rng(44)
    data = random_instance(rng, 30, 4)
    theta0 = rng.standard_normal(4)
    theta0.flags.writeable = False
    config = SolverConfig(stepsize_rule=rule, accelerate=accelerate, max_iters=40)
    result = fit(data, 0.5, PenaltySpec(zeta=0.1), config, theta0=theta0)
    expected = fit(data, 0.5, PenaltySpec(zeta=0.1), config, theta0=theta0.tolist())
    assert result.theta.tobytes() == expected.theta.tobytes()
    assert result.trace == expected.trace
    assert result.theta is not theta0 and result.theta.flags.writeable


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(stepsize_rule="fancy")
    with pytest.raises(ValueError):
        SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "7", np.inf, np.nan, None,
                                 np.float64(3.0), -2, np.int64(0)])
def test_solver_config_rejects_a_max_iters_that_is_no_positive_integer(bad):
    # int() would have run 2.5 as 2 iterations, True as 1 and '7' as 7
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=bad)


def test_solver_config_keeps_integer_max_iters():
    for good in (1, 7, np.int64(7), np.int32(7)):
        config = SolverConfig(max_iters=good)
        assert config.max_iters == int(good) and type(config.max_iters) is int


@pytest.mark.parametrize("field, bad", [
    ("accelerate", "no"), ("accelerate", 1), ("record_trace", "no"), ("record_trace", None),
    ("eps_tol", True), ("eps_tol", "1e-3"), ("eta", "0.5"), ("eta", np.True_),
    ("alpha", "0.1"), ("alpha", False),
])
def test_solver_config_rejects_mistyped_fields(field, bad):
    # a string switch is truthy, True would run as 1.0, and a string number
    # would fail a comparison with TypeError or be parsed late
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})


def test_solver_config_keeps_typed_fields():
    config = SolverConfig(stepsize_rule=BACKTRACKING, alpha=np.float64(0.5),
                          eta=np.float32(0.25), eps_tol=1e-3, accelerate=np.True_,
                          record_trace=False)
    assert (config.alpha, config.eta, config.eps_tol) == (0.5, 0.25, 1e-3)
    assert SolverConfig(alpha=None).alpha is None


def test_alpha_is_the_first_stepsize_under_either_rule():
    rng = np.random.default_rng(41)
    data = random_instance(rng, 30, 4)
    spec = PenaltySpec(zeta=0.1)
    for rule in (CONSTANT, BACKTRACKING):
        config = SolverConfig(stepsize_rule=rule, alpha=0.01, max_iters=5)
        assert _initial_alpha(config.alpha, config, replace(spec, beta=0.5), data) == 0.01
        assert fit(data, 0.5, spec, config).trace[1].stepsize == 0.01
    # backtracking's bound on its first stepsize names alpha
    with pytest.raises(ValueError, match=r"alpha = 20.0 violates beta\*zeta\*alpha < 1/2"):
        _initial_alpha(20.0, SolverConfig(stepsize_rule=BACKTRACKING), replace(spec, beta=0.5),
                       data)
    with pytest.raises(TypeError):
        SolverConfig(alpha0=0.01)


def test_eta_is_refused_under_the_constant_rule():
    for accelerate in (False, True):
        with pytest.raises(ValueError, match="eta = 0.3 has no effect"):
            SolverConfig(eta=0.3, accelerate=accelerate)
    # the default's own value is harmless; backtracking reads any eta in (0, 1)
    assert SolverConfig(eta=0.5).eta == 0.5
    assert SolverConfig(stepsize_rule=BACKTRACKING, eta=0.3).eta == 0.3


# --- criticality residual --------------------------------------------------------


def test_residual_zero_at_exact_critical_points():
    # at theta = 0 with beta above the gradient's max entry the inclusion holds
    rng = np.random.default_rng(33)
    data = centered_instance(rng, 25, 4)
    grad0 = np.abs(loss_gradient(np.zeros(4), data))
    spec = PenaltySpec(zeta=0.1)
    assert criticality_residual(np.zeros(4), 1.5 * float(grad0.max()), spec, data) == 0.0

    # zero gradient and coordinates beyond the kink radius
    flat = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]))
    assert criticality_residual(np.array([10.0, -7.0]), 1.0, spec, flat) == 0.0


def test_residual_is_beta_times_the_norm_of_the_shared_violation():
    # the trace, criticality_residual and certify's checks read one inclusion
    # test: the residual has its bits, and certify's critical-point check
    # holds exactly from the largest violation on
    rng = np.random.default_rng(36)
    data = centered_instance(rng, 25, 6)
    theta = np.array([0.0, 0.3, -2.5, 0.0, 7.0, -0.05])  # zero, inner and plateau
    for zeta, beta in ((0.0, 0.7), (0.4, 0.7), (0.4, 40.0)):
        spec = PenaltySpec(zeta=zeta)
        violation = solver._violation(*solver._conditions(
            theta, loss_gradient(theta, data), beta, spec))
        residual = criticality_residual(theta, beta, spec, data)
        assert residual == beta * float(np.linalg.norm(violation))
        worst = float(violation.max())
        assert check_critical_point(theta, beta, spec, data, tol=worst)
        if worst > 0:
            assert not check_critical_point(theta, beta, spec, data,
                                            tol=math.nextafter(worst, 0.0))


def test_residual_positive_away_from_critical_points():
    rng = np.random.default_rng(34)
    data = centered_instance(rng, 25, 4)
    grad0 = np.abs(loss_gradient(np.zeros(4), data))
    beta = 0.5 * float(grad0.max())  # below the threshold: zero is not critical
    spec = PenaltySpec(zeta=0.1)
    assert criticality_residual(np.zeros(4), beta, spec, data) > 0.0


def _scaled_residual(theta, beta, spec, data) -> float:
    """beta * ||v|| with beta multiplied in before anything is divided by it:
    beta * v_j is the distance of 2*beta*zeta*theta_j - grad_j to
    [beta * H'(theta_j-), beta * H'(theta_j+)]."""
    parts = []
    for t, g in zip(theta.tolist(), loss_gradient(theta, data).tolist()):
        if t == 0.0:
            lo, hi = -1.0, 1.0
        elif abs(t) < spec.plateau_start:
            lo = hi = math.copysign(1.0, t)
        else:  # on the plateau H' is 2*zeta*t
            lo = hi = 2.0 * spec.zeta * t
        target = 2.0 * beta * spec.zeta * t - g
        parts.append(max(0.0, beta * lo - target, target - beta * hi))
    return math.hypot(*parts)


@pytest.mark.parametrize("zeta", [0.0, 0.3])
def test_residual_at_a_tiny_beta_is_finite(zeta):
    # at beta = 1e-300, grad/beta leaves the float range, but the residual
    # beta * ||v|| is about ||grad||: the trace and criticality_residual give
    # it finite and without a warning (a RuntimeWarning fails the test)
    data = Dataset(np.array([[1e10, 2e10], [-1.5e10, 3e9], [2e10, -1e10]]),
                   np.array([1, 0, 1]))
    beta, spec = 1e-300, PenaltySpec(zeta=zeta)
    result = fit(data, beta, spec, SolverConfig(max_iters=5))
    for k, row in enumerate(result.trace):
        theta = _iterate(data, beta, spec, SolverConfig(max_iters=5), None, k)
        assert math.isfinite(row.residual)
        assert row.residual == criticality_residual(theta, beta, spec, data), k
        assert row.residual == pytest.approx(_scaled_residual(theta, beta, spec, data),
                                             rel=1e-12), k
    assert not check_critical_point(result.theta, beta, spec, data)


# --- accelerated variant ----------------------------------------------------------


def test_accelerated_first_steps_match_plain_then_diverge():
    rng = np.random.default_rng(35)
    data = random_instance(rng, 40, 5)
    spec = PenaltySpec(zeta=0.1)
    beta = 0.6
    alpha = 0.5 * max_constant_stepsize(beta, spec, data)

    def run(accel, iters):
        config = SolverConfig(alpha=alpha, accelerate=accel, eps_tol=1e-16, max_iters=iters)
        return fit(data, beta, spec, config)

    # momentum coefficient is zero at the first step, so one- and two-step
    # runs coincide with the plain iteration exactly
    assert np.array_equal(run(True, 1).theta, run(False, 1).theta)
    assert np.array_equal(run(True, 2).theta, run(False, 2).theta)
    assert not np.array_equal(run(True, 3).theta, run(False, 3).theta)


def test_accelerated_matches_plain_on_convex_problem():
    # with zeta = 0 the problem is convex, so both variants must land on
    # the same global optimum (nonconvex runs may pick different minima)
    rng = np.random.default_rng(36)
    data = random_instance(rng, 60, 8)
    spec = PenaltySpec(zeta=0.0)
    beta = 0.4
    plain = fit(data, beta, spec, SolverConfig(eps_tol=1e-14, max_iters=30000))
    accel = fit(data, beta, spec, SolverConfig(accelerate=True, eps_tol=1e-14, max_iters=30000))
    assert accel.final_objective == pytest.approx(plain.final_objective, abs=1e-6)


def test_accelerated_backtracking_runs():
    rng = np.random.default_rng(37)
    data = random_instance(rng, 30, 4)
    spec = PenaltySpec(zeta=0.3)
    config = SolverConfig(stepsize_rule=BACKTRACKING, accelerate=True,
                          eps_tol=1e-12, max_iters=5000)
    result = fit(data, 0.5, spec, config)
    assert result.converged
    assert np.isfinite(result.final_objective)


def test_accelerated_reaches_target_faster_on_low_rank_replica():
    # low-rank synthetic problem in the style of the convergence benchmark:
    # momentum should need fewer iterations to reach a fixed objective gap
    from wclogit.data import SynthSpec, gen_separable

    spec_data = SynthSpec(d=30, n_train=300, k=5, latent_dim=25,
                          amplitude="uniform", amp_low=5.0, amp_high=15.0, seed=7)
    train, _, _ = gen_separable(spec_data)
    spec = PenaltySpec(zeta=0.1)
    beta = 1.2
    plain = fit(train, beta, spec, SolverConfig(alpha=None, eps_tol=1e-30, max_iters=400))
    accel = fit(train, beta, spec,
                SolverConfig(alpha=None, accelerate=True, eps_tol=1e-30, max_iters=400))
    target = plain.trace[-1].objective
    hit = next(k for k, row in enumerate(accel.trace) if row.objective <= target)
    assert hit < plain.iterations


# --- both loops, checked public functions ------------------------------------------

ENGINE_CONFIGS = {
    "constant": SolverConfig(eps_tol=1e-12, max_iters=150),
    "backtracking": SolverConfig(stepsize_rule=BACKTRACKING, eps_tol=1e-12, max_iters=150),
    "accelerated": SolverConfig(accelerate=True, eps_tol=1e-12, max_iters=150),
    "accelerated-backtracking": SolverConfig(stepsize_rule=BACKTRACKING, accelerate=True,
                                             eps_tol=1e-12, max_iters=150),
}


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_engine_trace_matches_checked_public_functions(name):
    # the engine's fused kernels must give the very bits of the public,
    # input-checked loss, penalty and residual at the returned point
    rng = np.random.default_rng(38)
    data = centered_instance(rng, 50, 6)
    spec = PenaltySpec(zeta=0.3)
    beta = 0.4
    result = fit(data, beta, spec, ENGINE_CONFIGS[name], theta0=rng.standard_normal(6))
    last = result.trace[-1]
    assert last.objective == objective(result.theta, data, beta, spec)
    assert last.objective == result.final_objective
    assert last.residual == criticality_residual(result.theta, beta, spec, data)
    assert len(result.trace) == result.iterations + 1


def _iterate(data, beta, spec, config, theta0, k):
    """theta_k: the start for k = 0, else what fit returns when capped at k iterations."""
    if k == 0:
        return np.zeros(data.n_features) if theta0 is None else theta0
    return fit(data, beta, spec, replace(config, max_iters=k), theta0=theta0).theta


def _assert_rows_are_those_of_the_iterates(data, beta, spec, config, theta0, result, rows):
    for k in rows:
        theta = _iterate(data, beta, spec, config, theta0, k)
        prev = _iterate(data, beta, spec, config, theta0, max(k - 1, 0))
        row = result.trace[k]
        assert row.residual == criticality_residual(theta, beta, spec, data), k
        assert row.step_norm == np.linalg.norm(theta - prev), k
        assert row.objective == objective(theta, data, beta, spec), k


@pytest.mark.parametrize("start", ["zeros", "theta0"])
@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_trace_rows_across_blocks_are_those_of_each_iterate(name, start):
    # fit computes trace rows after the fact, with its blocks of up to 16
    # objectives: the rows on both sides of a block boundary (iterations 63
    # and 64), the first and the last keep the bits of the checked public
    # functions at each iterate
    rng = np.random.default_rng(44)
    data = centered_instance(rng, 20, 10)
    theta0 = rng.standard_normal(10) if start == "theta0" else None
    spec, beta = PenaltySpec(zeta=0.3), 0.4
    config = replace(ENGINE_CONFIGS[name], eps_tol=1e-30, max_iters=100)
    result = fit(data, beta, spec, config, theta0=theta0)
    assert result.iterations > 65 and len(result.trace) == result.iterations + 1
    _assert_rows_are_those_of_the_iterates(data, beta, spec, config, theta0, result,
                                           (0, 1, 63, 64, 65, result.iterations))


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_trace_rows_of_a_fit_that_stalls_within_one_block(name):
    rng = np.random.default_rng(43)
    data = centered_instance(rng, 30, 8)
    spec, beta = PenaltySpec(zeta=0.3), 0.4
    config = replace(ENGINE_CONFIGS[name], eps_tol=1e-3, max_iters=100)
    result = fit(data, beta, spec, config)
    assert result.converged and result.iterations < 32
    _assert_rows_are_those_of_the_iterates(data, beta, spec, config, None, result,
                                           range(result.iterations + 1))


@pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
def test_trace_leaves_the_iteration_unchanged(name):
    rng = np.random.default_rng(45)
    data = centered_instance(rng, 30, 8)
    spec, beta = PenaltySpec(zeta=0.3), 0.4
    for eps_tol in (1e-30, 1e-6):
        config = replace(ENGINE_CONFIGS[name], eps_tol=eps_tol, max_iters=150)
        theta0 = rng.standard_normal(8)
        traced = fit(data, beta, spec, config, theta0=theta0)
        untraced = fit(data, beta, spec, replace(config, record_trace=False), theta0=theta0)
        assert untraced.trace == []
        assert traced.theta.tobytes() == untraced.theta.tobytes()
        assert traced.final_objective == untraced.final_objective
        assert traced.trace[-1].objective == untraced.final_objective
        assert (traced.iterations, traced.converged) == (untraced.iterations,
                                                         untraced.converged)


def test_trace_memory_does_not_grow_with_the_iterations():
    # keeping every iterate and gradient of this fit would take
    # 2 * 2000 * 5000 * 8 B = 160 MB; the trace holds one block of up to 16
    # of them, and its peak (~7 MB) is mostly that block's temporaries
    rng = np.random.default_rng(46)
    data = random_instance(rng, 20, 5000)
    config = SolverConfig(eps_tol=1e-300, max_iters=2000)
    tracemalloc.start()
    try:
        result = fit(data, 0.01, PenaltySpec(zeta=0.0), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations == 2000 and len(result.trace) == 2001
    assert peak < 40e6


def test_momentum_trace_memory_does_not_grow_with_the_iterations():
    # with momentum the block computes its iterates' margins and gradients
    # itself, into its own rows: the peak stays that of one block
    rng = np.random.default_rng(46)
    data = random_instance(rng, 20, 5000)
    config = SolverConfig(accelerate=True, eps_tol=1e-300, max_iters=2000)
    tracemalloc.start()
    try:
        result = fit(data, 0.01, PenaltySpec(zeta=0.0), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations == 2000 and len(result.trace) == 2001
    assert peak < 40e6


def test_fit_checks_stay_at_the_boundary():
    rng = np.random.default_rng(40)
    data = random_instance(rng, 20, 3)
    spec = PenaltySpec(zeta=0.1)
    for bad_beta in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            fit(data, bad_beta, spec, SolverConfig())
    with pytest.raises(ValueError):
        fit(data, 1.0, spec, SolverConfig(accelerate=True), theta0=np.zeros(2))
    with pytest.raises(ValueError):
        fit(data, 1.0, spec, SolverConfig(stepsize_rule=BACKTRACKING, alpha=5.0))


# --- stacked cells ------------------------------------------------------------


def _assert_is_the_oracle_row(result, expected):
    """A fit, or a one-cell stack, has the bits of the one-row oracle."""
    assert np.ravel(result.theta).tobytes() == expected.theta[0].tobytes()
    assert np.ravel(result.final_objective)[0] == expected.final_objective[0]
    assert np.ravel(result.iterations)[0] == expected.iterations[0]
    assert np.ravel(result.converged)[0] == expected.converged[0]


@pytest.mark.parametrize("cell", [(0.4, 0.3), (0.05, 0.0), (2.0, 1.0)])
def test_fit_cells_single_cell_is_fit_bitwise(cell):
    # fit steps a 1-D point and a one-cell fit_cells a (1, d) stack: fit,
    # with and without momentum and from zeros or a theta0, and the one-cell
    # stack must give the bits of the one-row oracle loop, whose (1, d)
    # products have the bits of the 1-D products
    rng = np.random.default_rng(41)
    data = centered_instance(rng, 60, 7)
    theta0 = rng.standard_normal(7)
    beta, zeta = cell
    spec = PenaltySpec(zeta=zeta)
    for alpha in (None, 0.5 * max_constant_stepsize(beta, spec, data)):
        stacked = fit_cells(data, [cell], [alpha], eps_tol=1e-10, max_iters=400)
        assert stacked.theta.shape == (1, 7)
        _assert_is_the_oracle_row(stacked, stacked_fit_oracle(data, [cell], [alpha],
                                                              eps_tol=1e-10, max_iters=400))
        for accelerate in (False, True):
            for start in (None, theta0):
                config = SolverConfig(alpha=alpha, accelerate=accelerate, eps_tol=1e-10,
                                      max_iters=400)
                single = fit(data, beta, spec, config, theta0=start)
                expected = stacked_fit_oracle(data, [cell], [alpha], eps_tol=1e-10,
                                              max_iters=400, theta0=start,
                                              accelerate=accelerate)
                _assert_is_the_oracle_row(single, expected)
                # train prints these with repr, which differs for numpy scalars
                assert type(single) is FitResult and type(single.trace) is list
                assert type(single.iterations) is int and type(single.converged) is bool
                assert type(single.final_objective) is float


@pytest.mark.parametrize("accelerate", [False, True])
def test_fit_constant_rule_is_the_one_row_oracle_on_fig1(accelerate):
    # reproduce fig1's and fig2's problem and stepsizes, 200 iterations
    train, _, _ = gen_separable(SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=0))
    spec = PenaltySpec(zeta=0.1)
    theta0 = np.random.default_rng(47).uniform(-0.01, 0.01, 50)
    for alpha in (1.0, 2.0, 4.0):
        for start in (None, theta0):
            config = SolverConfig(alpha=alpha, accelerate=accelerate, eps_tol=1e-15,
                                  max_iters=200, record_trace=False)
            result = fit(train, 1.2, spec, config, theta0=start)
            expected = stacked_fit_oracle(train, [(1.2, 0.1)], [alpha], eps_tol=1e-15,
                                          max_iters=200, theta0=start, accelerate=accelerate)
            _assert_is_the_oracle_row(result, expected)
            assert result.iterations == 200


def test_fit_cells_is_the_stacked_oracle_loop_bitwise():
    # the fig3 grid on the draws of its first four repeats: the in-place
    # kernels and the label blocks must give the bits of the plain formulas,
    # also once cells have left the stack
    cells = [(beta, zeta) for beta in 10.0 ** np.linspace(-2.8, 0.6, 7)
             for zeta in (0.0, 0.01, 0.1, 1.0)]
    stalled = 0
    for seed in range(1000, 1004):
        spec = SynthSpec(d=50, n_train=200, k=5, n_test=1000, amplitude="normal", seed=seed)
        train = center(gen_noisy(spec)[0])
        alphas = [None] * len(cells)
        result = fit_cells(train, cells, alphas, eps_tol=1e-9, max_iters=1000)
        expected = stacked_fit_oracle(train, cells, alphas, eps_tol=1e-9, max_iters=1000)
        # one row of theta and one entry of every other field per cell
        assert type(result) is CellsResult and result.theta.shape == (len(cells), 50)
        assert [len(entries) for entries in result[1:]] == [len(cells)] * 3
        assert result.theta.tobytes() == expected.theta.tobytes()
        assert result.final_objective.tobytes() == expected.final_objective.tobytes()
        assert np.array_equal(result.iterations, expected.iterations)
        assert np.array_equal(result.converged, expected.converged)
        stalled += int(result.converged.sum())
    assert 0 < stalled < 4 * len(cells)


def test_fit_cells_at_a_stepsize_whose_reciprocal_overflows_is_the_oracle_loop():
    # 1/alpha overflows: the decrease certificate's coefficients are NaN and
    # prove nothing, so every iteration computes its objective
    rng = np.random.default_rng(44)
    data = centered_instance(rng, 30, 4)
    cells, alphas = [(0.1, 0.0), (0.1, 0.5)], [1e-320, 1e-320]
    result = fit_cells(data, cells, alphas, eps_tol=1e-9, max_iters=50)
    expected = stacked_fit_oracle(data, cells, alphas, eps_tol=1e-9, max_iters=50)
    assert result.theta.tobytes() == expected.theta.tobytes()
    assert result.final_objective.tobytes() == expected.final_objective.tobytes()
    assert np.array_equal(result.iterations, expected.iterations)


def test_fit_cells_at_a_prox_weight_whose_double_overflows():
    # alpha*beta = 1e308 at zeta = 0: 2*alpha*beta overflows, and soft
    # thresholding by 1e308 keeps the cell at zero, as it does by 1e300
    rng = np.random.default_rng(45)
    data = Dataset(0.1 * rng.standard_normal((30, 4)), rng.integers(0, 2, 30))
    huge = fit_cells(data, [(1e308, 0.0), (0.1, 0.0)], [1.0, 1.0], max_iters=50)
    large = fit_cells(data, [(1e300, 0.0), (0.1, 0.0)], [1.0, 1.0], max_iters=50)
    assert not huge.theta[0].any() and huge.iterations[0] == 1
    assert huge.theta.tobytes() == large.theta.tobytes()
    assert huge.final_objective.tobytes() == large.final_objective.tobytes()
    assert np.array_equal(huge.iterations, large.iterations)


def test_fit_cells_at_a_beta_that_overflows_the_certificate_is_the_oracle_loop():
    # from beta ~ 1e300 a coefficient of the decrease certificate is inf, and
    # the zero start's ||theta||_1 = 0 makes its floor NaN: it proves
    # nothing, and numpy does not warn (a warning fails this suite); 2*beta
    # overflows at 1e308, where the stepsize bound 1/(2*beta*zeta) holds
    rng = np.random.default_rng(46)
    data = centered_instance(rng, 30, 4)
    cells = [(1e300, 0.0), (1e300, 0.1), (1e308, 0.0), (1e308, 0.1)]
    result = fit_cells(data, cells, [None] * 4, eps_tol=1e-9, max_iters=50)
    expected = stacked_fit_oracle(data, cells, [None] * 4, eps_tol=1e-9, max_iters=50)
    _assert_rows_are_the_oracle(result, expected)
    assert not result.theta.any() and result.converged.all()


def test_fit_cells_checks_every_cell_before_iterating():
    rng = np.random.default_rng(42)
    data = centered_instance(rng, 30, 4)
    cells = [(0.5, 0.1), (0.5, 0.2)]
    bound = max_constant_stepsize(0.5, PenaltySpec(zeta=0.2), data)
    with pytest.raises(ValueError) as err:
        fit_cells(data, cells, [None, 1.5 * bound])
    assert f"{bound}" in str(err.value)
    with pytest.raises(ValueError):
        fit_cells(data, cells, [None])
    with pytest.raises(ValueError):
        fit_cells(data, [], [])
    with pytest.raises(ValueError):
        fit_cells(data, [(0.0, 0.1)], [None])
    with pytest.raises(ValueError):
        fit_cells(data, [(0.5, -0.1)], [None])
    with pytest.raises(ValueError):
        fit_cells(data, cells, [None, None], eps_tol=0.0)
    # True would run as 1.0, and "0.1" would be parsed late
    for bad in ("0.1", True, np.False_):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            fit_cells(data, cells, [None, bad])


def test_fit_cells_raises_when_a_running_cell_turns_non_finite(monkeypatch):
    rng = np.random.default_rng(43)
    data = centered_instance(rng, 30, 4)
    kernels = solver._kernels

    def poisoned(data):
        evaluate, gradient, loss_of = kernels(data)

        def loss_nan_after_start(margins):
            losses = loss_of(margins)
            if margins[0].any():  # every point but the zero start
                losses[-1] = np.nan
            return losses
        return evaluate, gradient, loss_nan_after_start

    monkeypatch.setattr(solver, "_kernels", poisoned)
    with pytest.raises(NumericalError):
        fit_cells(data, [(0.1, 0.0), (0.1, 0.5)], [None, None])


# --- skipping the objective ------------------------------------------------------


def _record_evaluations(monkeypatch):
    """Patch the solver so that each iteration's use of the objective shows:
    ``calls["prox"]`` counts the iterations, ``calls["evaluated"]`` holds
    the count at each call of the kernels' loss (0 for the start), and
    ``calls["rows"]`` the points whose margins each call takes (one for the
    1-D margins of a fit's start)."""
    calls = {"prox": 0, "evaluated": [], "rows": []}
    prox, kernels = solver._prox, solver._kernels

    def counting_prox(*args):
        calls["prox"] += 1
        return prox(*args)

    def recording_kernels(data):
        evaluate, gradient, loss_of = kernels(data)

        def recording(margins):
            calls["evaluated"].append(calls["prox"])
            calls["rows"].append(len(np.atleast_2d(margins[0])))
            return loss_of(margins)
        return evaluate, gradient, recording

    monkeypatch.setattr(solver, "_prox", counting_prox)
    monkeypatch.setattr(solver, "_kernels", recording_kernels)
    return calls


def _skip_cases(rng):
    """Problems of several sizes and feature scales, each with an l1 cell, a
    cell whose bound is 1/(2*beta*zeta) and cells between, at stepsizes from
    0.5x to 0.9999x the bound."""
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        for _ in range(3):
            n, d = int(rng.integers(20, 301)), int(rng.integers(3, 61))
            X = scale * rng.standard_normal((n, d))
            data = Dataset(X - X.mean(axis=0), rng.integers(0, 2, size=n), centered=True)
            norm = solver.spectral_norm(data)
            betas = 10.0 ** rng.uniform(-3.0, 0.0, size=4)
            # beta*zeta = ||X||^2/4 > ||X||^2/8: the bound is 1/(2*beta*zeta)
            zetas = [0.0, 10.0 ** rng.uniform(-3.0, 1.0) / scale, norm * norm / (4.0 * betas[2]),
                     0.0]
            cells = list(zip(betas.tolist(), zetas))
            shares = [0.5, 0.9999, rng.uniform(0.5, 0.9999), 0.99]
            alphas = [share * max_constant_stepsize(beta, PenaltySpec(zeta=zeta), data)
                      for share, (beta, zeta) in zip(shares, cells)]
            yield data, cells, alphas, rng.standard_normal(d) / scale


def _assert_rows_are_the_oracle(result, expected):
    """A stack, or fit's one row, has the bits of the oracle loop's rows."""
    assert np.ravel(result.theta).tobytes() == expected.theta.tobytes()
    assert np.ravel(result.final_objective).tobytes() == expected.final_objective.tobytes()
    assert np.array_equal(np.ravel(result.iterations), expected.iterations)
    assert np.array_equal(np.ravel(result.converged), expected.converged)


def test_skipping_the_objective_keeps_the_oracle_loop_bitwise(monkeypatch):
    # a grid's stack may skip the objective only where the stall test would
    # fail: iterates, objectives, counts and stall flags keep the bits of the
    # oracle loop, which evaluates it on every iteration
    calls = _record_evaluations(monkeypatch)
    paths = {"skipped": 0, "exact": 0, "stalled": 0}

    def check(run, expected):
        calls["prox"], calls["evaluated"] = 0, []
        result = run()
        _assert_rows_are_the_oracle(result, expected)
        evaluated = set(calls["evaluated"]) - {0}
        paths["exact"] += len(evaluated)
        paths["skipped"] += calls["prox"] - len(evaluated)
        paths["stalled"] += int(np.sum(result.converged))

    rng = np.random.default_rng(48)
    for case, (data, cells, alphas, theta0) in enumerate(_skip_cases(rng)):
        eps_tol, iters = (1e-12, 1e-9, 1e-6)[case % 3], 200
        specs = [PenaltySpec(zeta=zeta, beta=beta) for beta, zeta in cells]
        config = SolverConfig(eps_tol=eps_tol, max_iters=iters, record_trace=False)
        check(lambda: fit_cells(data, cells, alphas, eps_tol=eps_tol, max_iters=iters),
              stacked_fit_oracle(data, cells, alphas, eps_tol, iters))
        stack = np.repeat(theta0[None], len(cells), axis=0)
        check(lambda: solver._iterate(solver._Descent(data, specs, alphas, config, stack),
                                      config),
              stacked_fit_oracle(data, cells, alphas, eps_tol, iters, theta0=theta0))
        # fit's constant rule steps a 1-D point and skips nothing
        cell, alpha = cells[case % 4], alphas[case % 4]
        for start in (None, theta0):
            check(lambda: fit(data, cell[0], PenaltySpec(zeta=cell[1]),
                              replace(config, alpha=alpha), theta0=start),
                  stacked_fit_oracle(data, [cell], [alpha], eps_tol, iters, theta0=start))
    assert paths["skipped"] > 4000 and paths["exact"] > 500 and paths["stalled"] > 40, paths


def test_a_grid_skips_most_objectives_and_a_fit_none(monkeypatch):
    # fig3's grid on draw 1000 at its eps_tol and cap: at most a quarter of
    # the iterations evaluate the objective; a fit, traced or not, plain or
    # accelerated, evaluates it on every iteration, per block of iterates:
    # a call on m rows of a fit's block covers the m iterates up to the
    # current one
    calls = _record_evaluations(monkeypatch)
    cells = [(beta, zeta) for beta in 10.0 ** np.linspace(-2.8, 0.6, 7)
             for zeta in (0.0, 0.01, 0.1, 1.0)]
    spec = SynthSpec(d=50, n_train=200, k=5, n_test=1000, amplitude="normal", seed=1000)
    train = center(gen_noisy(spec)[0])
    result = fit_cells(train, cells, [None] * len(cells), eps_tol=1e-9, max_iters=1000)
    assert calls["prox"] == 1000 and not result.converged.all()
    assert len(calls["evaluated"]) <= 250
    for config in (SolverConfig(eps_tol=1e-9, max_iters=300),
                   SolverConfig(eps_tol=1e-9, max_iters=300, record_trace=False),
                   SolverConfig(accelerate=True, eps_tol=1e-9, max_iters=300,
                                record_trace=False)):
        calls["prox"], calls["evaluated"], calls["rows"] = 0, [], []
        fit(train, 0.1, PenaltySpec(zeta=0.1), config)
        covered = [k for last, m in zip(calls["evaluated"], calls["rows"])
                   for k in range(last - m + 1, last + 1)]
        assert covered == list(range(calls["prox"] + 1))


def test_the_decrease_certificate_checks_every_iteration_but_a_capped_last(monkeypatch):
    # a grid's stack of any height, one cell included, takes the certificate
    # on every iteration, and on the last one only when a stall ends it: no
    # iteration goes unchecked, whether or not the one before was proven
    calls = _record_evaluations(monkeypatch)
    proves, checked = solver._Descent.proves, []

    def recording(descent, *args):
        checked.append(calls["prox"])
        return proves(descent, *args)

    monkeypatch.setattr(solver._Descent, "proves", recording)
    cells = [(beta, zeta) for beta in 10.0 ** np.linspace(-2.8, 0.6, 7)
             for zeta in (0.0, 0.01, 0.1, 1.0)]
    spec = SynthSpec(d=50, n_train=200, k=5, n_test=1000, amplitude="normal", seed=1000)
    train = center(gen_noisy(spec)[0])
    # cell 24 stalls after 142 iterations
    for grid, max_iters in ((cells, 1000), (cells[24:25], 1000), (cells[24:25], 20)):
        calls["prox"], checked[:] = 0, []
        result = fit_cells(train, grid, [None] * len(grid), eps_tol=1e-9, max_iters=max_iters)
        last = calls["prox"]
        if not result.converged.all():
            assert last == max_iters
            last -= 1
        assert checked == list(range(1, last + 1))
        # the one cell stalls before the cap of 1000 and runs to the cap of 20
        assert result.converged.all() == (len(grid) == 1 and max_iters == 1000)


def _block_start(k, cap, max_iters):
    """The first iteration of the block of objectives that holds iteration
    k: a block that starts at iteration s holds min(s, cap, the iterations
    left) iterates."""
    start = 1
    while k >= start + min(start, cap, max_iters + 1 - start):
        start += min(start, cap, max_iters + 1 - start)
    return start


def test_one_row_objectives_per_block_keep_the_oracle_loop_bitwise(monkeypatch):
    # fit's constant rule computes its objectives per block of iterates and
    # drops the steps it took past a stall: stalls at every offset of a block
    # and on both of its ends, in a last block that the cap cuts short, and
    # capped fits keep the bits of the oracle loop (theta, objective, count,
    # flag and every trace row), and a stall at k costs at most
    # min(k, cap) - 1 extra steps
    calls = _record_evaluations(monkeypatch)
    cap = solver._OBJECTIVE_BLOCK
    max_iters = 2 * cap + 5
    rng = np.random.default_rng(50)
    data = centered_instance(rng, 30, 5)
    beta, zeta = 0.4, 0.3
    offsets, last_block = set(), 0
    for accelerate in (False, True):
        for start in (None, rng.standard_normal(5)):
            config = SolverConfig(accelerate=accelerate, eps_tol=1e-300, max_iters=max_iters)
            # eps_tol at the k-th objective change stalls the fit at k or before
            objectives = [row.objective for row in fit(data, beta, PenaltySpec(zeta=zeta), config,
                                                       theta0=start).trace]
            changes = np.abs(np.diff(objectives)).tolist()
            every = 1 if start is None else 3
            for eps_tol in [max(c, 1e-300) for c in changes[::every]] + [1e-300]:
                for traced in (False, True):
                    run = replace(config, eps_tol=eps_tol, record_trace=traced)
                    calls["prox"] = 0
                    result = fit(data, beta, PenaltySpec(zeta=zeta), run, theta0=start)
                    expected = stacked_fit_oracle(data, [(beta, zeta)], [None], eps_tol,
                                                  max_iters, theta0=start,
                                                  accelerate=accelerate, record_trace=traced)
                    _assert_rows_are_the_oracle(result, expected)
                    assert type(result.final_objective) is float
                    assert result.trace == expected.trace
                    k = result.iterations
                    if not result.converged:
                        assert k == max_iters == calls["prox"]
                        continue
                    assert calls["prox"] - k <= min(k, cap) - 1
                    if k >= cap:
                        offsets.add(k - _block_start(k, cap, max_iters))
                    last_block += _block_start(k, cap, max_iters) == 2 * cap
    assert offsets == set(range(cap)) and last_block > 0


def test_a_traced_momentum_fit_under_a_short_block_cap_is_the_oracle_loop_bitwise():
    # at N > 2048 a block holds fewer than 16 iterates; with momentum it
    # computes its iterates' margins and trace gradients as one batch of
    # one-point products per block: stalls at every offset of a full block
    # and capped fits keep the bits of the oracle loop, trace rows included
    rng = np.random.default_rng(54)
    n = 3000
    cap = solver._OBJECTIVE_BLOCK_BYTES // (16 * n)
    assert 1 < cap < solver._OBJECTIVE_BLOCK
    X = rng.standard_normal((n, 6))
    X -= X.mean(axis=0)
    # separable: the objective keeps falling, so each change stalls the fit there
    data = Dataset(X, (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int), centered=True)
    beta, zeta = 0.05, 0.3
    max_iters = 16 + 3 * cap + 2
    config = SolverConfig(accelerate=True, eps_tol=1e-300, max_iters=max_iters)
    objectives = [row.objective for row in fit(data, beta, PenaltySpec(zeta=zeta),
                                               config).trace]
    changes = np.abs(np.diff(objectives)).tolist()
    offsets = set()
    for eps_tol in [max(c, 1e-300) for c in changes[15:]] + [1e-300]:
        result = fit(data, beta, PenaltySpec(zeta=zeta), replace(config, eps_tol=eps_tol))
        expected = stacked_fit_oracle(data, [(beta, zeta)], [None], eps_tol, max_iters,
                                      accelerate=True, record_trace=True)
        _assert_rows_are_the_oracle(result, expected)
        assert result.trace == expected.trace
        k = result.iterations
        if result.converged and k >= 16:
            offsets.add(k - _block_start(k, cap, max_iters))
    assert offsets == set(range(cap))


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("at", [1, 6, 21])
def test_a_momentum_iterate_past_the_norm_bound_has_its_block_evaluated_there(
        monkeypatch, at, traced):
    # a momentum fit computes its iterates' margins per block; an iterate
    # that fails the ||theta||^2 bound mid-block has its block evaluated at
    # once: an overflowing objective raises at that iteration, with no numpy
    # warning, and a finite one (a huge theta on all-zero feature columns,
    # whose penalty terms MCP caps) lets the fit go on
    prox, evaluate = solver._prox, solver._Block.evaluate
    calls, evaluated, poison = [0], [], {}

    def poisoned(v, *args):
        calls[0] += 1
        out = prox(v, *args)
        if calls[0] == at:
            out[..., poison["columns"]] = poison["value"]
        return out

    def recording(block):
        evaluated.append(block.first + block.count - 1)
        return evaluate(block)

    monkeypatch.setattr(solver, "_prox", poisoned)
    monkeypatch.setattr(solver._Block, "evaluate", recording)
    rng = np.random.default_rng(51)
    X = rng.standard_normal((40, 5))
    X[:, [1, 3]] = 0.0
    # separable: the fits run to the cap
    data = Dataset(X, (X[:, 0] + X[:, 2] > 0).astype(int))
    config = SolverConfig(accelerate=True, eps_tol=1e-15, max_iters=40, record_trace=traced)
    poison.update(columns=[0], value=1.7e308)
    with pytest.raises(NumericalError):
        fit(data, 0.01, PenaltySpec(zeta=0.0), config)
    assert calls[0] == at and evaluated[-1] == at
    poison.update(columns=[1, 3], value=1e200)
    calls[0], evaluated[:] = 0, []
    spec = PenaltySpec(zeta=0.5)
    result = fit(data, 0.01, spec, config)
    assert (result.iterations, result.converged) == (40, False)
    assert at in evaluated and math.isfinite(result.final_objective)
    # every iterate from there on fails the bound and is evaluated alone
    assert evaluated[evaluated.index(at):] == list(range(at, 41))
    calls[0] = 0
    capped = fit(data, 0.01, spec, replace(config, max_iters=at))
    assert capped.theta[1] == 1e200
    if traced:
        assert result.trace[at].objective == objective(capped.theta, data, 0.01, spec)


@pytest.mark.parametrize("at", [1, 2, 40, 150])
def test_a_nan_in_one_rows_prox_output_raises_at_that_iteration(monkeypatch, at):
    # the certificate fails on NaN, so the iteration that made it takes the
    # exact path and raises there, after a run of skipped objectives too;
    # fit evaluates every objective and raises there as well
    prox = solver._prox
    calls = [0]

    def poisoned(v, *args):
        calls[0] += 1
        out = prox(v, *args)
        if calls[0] == at:
            # the last row of a stack, fit's 1-D point
            np.atleast_2d(out)[-1, 1] = np.nan
        return out

    monkeypatch.setattr(solver, "_prox", poisoned)
    rng = np.random.default_rng(49)
    # separable: no cell stalls before the cap, and all but two of its
    # objectives are skipped
    data = centered_instance(rng, 40, 20)
    with pytest.raises(NumericalError):
        fit_cells(data, [(0.01, 0.0), (0.01, 0.5), (0.05, 0.1)], [None] * 3,
                  eps_tol=1e-12, max_iters=300)
    assert calls[0] == at
    calls[0] = 0
    with pytest.raises(NumericalError):
        fit(data, 0.01, PenaltySpec(zeta=0.5),
            SolverConfig(eps_tol=1e-12, max_iters=300, record_trace=False))
    assert calls[0] == at


@pytest.mark.parametrize("at", [1, 2, 17, 40])
def test_an_objective_that_only_the_penalty_makes_non_finite_raises_there(monkeypatch, at):
    # l1 on data with two all-zero feature columns: a prox output of 1.7e308
    # in both columns leaves every margin and the loss finite, and J
    # overflows; the iteration that made it raises, whether or not its block
    # of objectives was due, and no numpy warning comes before the error
    prox = solver._prox
    calls = [0]

    def poisoned(v, *args):
        calls[0] += 1
        out = prox(v, *args)
        if calls[0] == at:
            out[..., [1, 3]] = 1.7e308
        return out

    monkeypatch.setattr(solver, "_prox", poisoned)
    rng = np.random.default_rng(51)
    X = rng.standard_normal((40, 5))
    X[:, [1, 3]] = 0.0
    # separable: the fits run to the cap
    data = Dataset(X, (X[:, 0] + X[:, 2] > 0).astype(int))
    for accelerate in (False, True):
        for traced in (False, True):
            calls[0] = 0
            config = SolverConfig(accelerate=accelerate, eps_tol=1e-15, max_iters=300,
                                  record_trace=traced)
            with pytest.raises(NumericalError):
                fit(data, 0.01, PenaltySpec(zeta=0.0), config)
            assert calls[0] == at
