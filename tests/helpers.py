"""Shared independent oracles for the test suite.

These deliberately avoid the library's closed-form code paths: the prox
oracle minimizes over a dense grid, the l1 oracle enumerates sign
patterns and solves smooth bound-constrained problems with L-BFGS-B, and
the CSV oracle is the loader's Python row loop on its own.

The kernel oracles are the plain formulas the stacked kernels had before
they worked in place: nested ``where`` selections, fresh arrays for every
step and label rows broadcast over a stack.  The kernels must reproduce
their bits, and ``stacked_fit_oracle`` runs the stacked loop on them.
``backtracking_fit_oracle`` runs the backtracking rule one iteration at a
time on the checked public functions.  ``certificate_oracle`` states the
certificate's inclusions as the pairs of widened bounds they were written as
before they shared one violation.  The CSV-writer oracles write the dataset,
trace, grid and prediction files row by row with ``csv.writer``, whose bytes
the library's own line formatter must reproduce.
"""

import csv
import dataclasses
from dataclasses import replace
from itertools import product

import numpy as np
from scipy.optimize import minimize

from wclogit.data import _read_rows, load_csv
from wclogit.experiments import ErrorRow
from wclogit.model import Dataset, loss, loss_gradient, predict_many, spectral_norm
from wclogit.penalty import (PenaltySpec, _repeat_rows, _StackedSpec,
                             convexified_derivatives, convexified_second_derivatives,
                             penalty_total)
from wclogit.solver import (FitResult, SolverConfig, TraceRow, _initial_alpha,
                            backtrack_stepsize, criticality_residual)


def _outcome(read):
    """A load's result as bytes, or its error's type and message."""
    try:
        data = read()
    except ValueError as exc:  # DataError included
        return type(exc).__name__, str(exc)
    return data.features.shape, data.features.tobytes(), data.labels.tobytes()


def csv_outcomes(path, label_column=None, header="auto", labeled=True):
    """``load_csv`` and the Python row loop alone, on the same file."""
    loaded = _outcome(lambda: load_csv(path, label_column=label_column, header=header,
                                       labeled=labeled))
    row_loop = _outcome(lambda: Dataset(*_read_rows(path, label_column, None, header,
                                                    labeled)))
    return loaded, row_loop


def random_instance(rng, n, d):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    return Dataset(X, y)


def mcp_value_reference(t, zeta):
    """Straight transcription of the piecewise penalty, scalars only."""
    a = abs(t)
    if zeta == 0:
        return a
    if a <= 1.0 / (2.0 * zeta):
        return a - zeta * a * a
    return 1.0 / (4.0 * zeta)


def prox_grid_oracle(v, w, zeta, spacing=1e-4):
    """Minimize w*F(u) + (u - v)^2/2 on a dense grid around v."""
    lo, hi = -10.0 * abs(v) - 1.0, 10.0 * abs(v) + 1.0
    grid = np.arange(lo, hi + spacing, spacing)
    a = np.abs(grid)
    if zeta == 0:
        pen = a
    else:
        pen = np.where(a <= 1.0 / (2.0 * zeta), a - zeta * grid * grid, 1.0 / (4.0 * zeta))
    objective = w * pen + 0.5 * (grid - v) ** 2
    return float(grid[np.argmin(objective)])


def random_prox_case(rng):
    """(v, w, zeta) with w*zeta < 1/2 and |v| small enough for the oracle grid."""
    v = rng.uniform(-3.0, 3.0)
    w = rng.uniform(0.05, 2.0)
    zeta = rng.uniform(0.0, 0.475) / w
    return v, w, zeta


def l1_objective(theta, data, beta):
    return loss(theta, data) + beta * float(np.sum(np.abs(theta)))


def l1_global_oracle(data, beta):
    """Global minimum of loss + beta*||theta||_1 by sign-pattern enumeration.

    For each pattern s in {-1,0,+1}^d the objective restricted to the
    matching orthant is the smooth function loss(theta) + beta * s@theta,
    minimized under bound constraints; the best value over all patterns is
    the global optimum of the convex problem.  Only usable for small d.
    """
    d = data.n_features
    best = np.inf
    for pattern in product((-1.0, 0.0, 1.0), repeat=d):
        s = np.array(pattern)
        bounds = []
        for si in s:
            if si > 0:
                bounds.append((0.0, None))
            elif si < 0:
                bounds.append((None, 0.0))
            else:
                bounds.append((0.0, 0.0))

        def fun(theta, s=s):
            return loss(theta, data) + beta * float(s @ theta)

        def jac(theta, s=s):
            return loss_gradient(theta, data) + beta * s

        res = minimize(fun, x0=0.01 * s, jac=jac, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 3000})
        value = l1_objective(res.x, data, beta)
        best = min(best, value)
    return best


# --- kernel oracles -----------------------------------------------------------


def exp_oracle(z):
    return np.exp(-np.abs(z))


def sigmoid_oracle(z, e):
    """sigmoid(z) from z and e = exp(-|z|): 1/(1+e) where z >= 0, e/(1+e) elsewhere."""
    p = np.where(z >= 0, 1.0, e)
    p /= 1.0 + e
    return p


def loss_oracle(labels, z, e):
    """The loss of each row of margins z, with the (N,) signs broadcast."""
    terms = (1.0 - 2.0 * labels) * z
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e)
    return terms.sum(axis=-1)


def gradient_oracle(X, labels, z, e):
    residual = sigmoid_oracle(z, e)
    residual -= labels
    return residual @ X


def prox_oracle(v, w, spec):
    """Firm shrinkage; ``spec`` may be a PenaltySpec or a _StackedSpec."""
    a = np.abs(v)
    shrunk = (v - w * np.sign(v)) / (1.0 - 2.0 * w * spec.zeta)
    return np.where(a < w, 0.0, np.where(a <= spec.plateau_start, shrunk, v))


def penalty_values_oracle(t, spec):
    a = np.abs(t)
    inner = a - spec.zeta * a * a
    return np.where(a <= spec.plateau_start, inner, spec.plateau_value)


def stacked_fit_oracle(data, cells, alphas, eps_tol=1e-8, max_iters=10000, theta0=None,
                       accelerate=False, record_trace=False):
    """``fit_cells``' loop on the oracle kernels: every cell a row of one
    (C, d) stack, each stalled cell leaving it with its iterate, objective
    and iteration count.  Every row starts at ``theta0`` (zeros when None);
    with ``accelerate`` each step starts from the momentum schedule's
    extrapolated point.  ``record_trace`` (one cell only) computes each
    iteration's trace row on its own, with ``np.linalg.norm`` and the checked
    ``criticality_residual``."""
    X, labels = data.features, data.labels.astype(float)
    config = SolverConfig(eps_tol=eps_tol, max_iters=max_iters, accelerate=accelerate,
                          record_trace=False)
    specs = [PenaltySpec(zeta=zeta, beta=beta) for beta, zeta in cells]
    steps = [_initial_alpha(a, config, s, data) for a, s in zip(alphas, specs)]
    d = data.n_features
    rows = np.arange(len(specs))
    beta = np.array([s.beta for s in specs])
    alpha = _repeat_rows(steps, d)
    weight = _repeat_rows([a * s.beta for a, s in zip(steps, specs)], d)
    stacked = _StackedSpec.of(specs, d)

    def evaluate(theta):
        z = theta @ X.T
        e = exp_oracle(z)
        penalties = penalty_values_oracle(theta, stacked).sum(axis=-1)
        return z, e, loss_oracle(labels, z, e) + beta * penalties

    theta = np.zeros((len(specs), d))
    if theta0 is not None:
        theta[:] = theta0
    z, e, obj = evaluate(theta)
    trace = []

    def record(theta, prev, stepsize):
        if record_trace:
            assert len(specs) == 1
            trace.append(TraceRow(obj.item(0), float(np.linalg.norm(theta[0] - prev[0])),
                                  criticality_residual(theta[0], None, specs[0], data),
                                  stepsize))
    record(theta, theta, 0.0)
    thetas, objectives = np.empty_like(theta), np.empty_like(obj)
    iterations = np.full(len(specs), max_iters)
    converged = np.zeros(len(specs), dtype=bool)
    base, t = theta, 1.0
    for k in range(1, max_iters + 1):
        new = prox_oracle(base - alpha * gradient_oracle(X, labels, z, e), weight, stacked)
        z, e, obj_new = evaluate(new)
        stalled = np.abs(obj_new - obj) <= eps_tol
        prev, theta, obj = theta, new, obj_new
        assert np.isfinite(obj).all()
        record(theta, prev, steps[0])
        if stalled.any():
            done = rows[stalled]
            thetas[done], objectives[done] = theta[stalled], obj[stalled]
            iterations[done], converged[done] = k, True
            run = ~stalled
            rows, beta, alpha, weight = rows[run], beta[run], alpha[run], weight[run]
            stacked, theta, obj, z, e = stacked.take(run), theta[run], obj[run], z[run], e[run]
            prev = prev[run]
            if not rows.size:
                break
        base = theta
        if accelerate:
            # Beck & Teboulle's t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            base = theta + ((t - 1.0) / t_next) * (theta - prev)
            t = t_next
            z = base @ X.T
            e = exp_oracle(z)
    thetas[rows], objectives[rows] = theta, obj
    return FitResult(thetas, iterations, converged, objectives, trace)


def backtracking_fit_oracle(data, beta, spec, config, theta0=None):
    """``fit``'s backtracking rule one iteration at a time on the checked
    public functions: each step is ``backtrack_stepsize`` from the base
    point, each objective ``loss`` + beta*``penalty_total``, each trace row
    ``np.linalg.norm`` of the step with ``criticality_residual``, and with
    ``config.accelerate`` the base point follows Beck & Teboulle's
    t-sequence."""
    def objective(theta):
        value = loss(theta, data) + beta * penalty_total(theta, spec)
        assert np.isfinite(value)
        return value

    theta = np.zeros(data.n_features) if theta0 is None else np.array(theta0, dtype=float)
    alpha = _initial_alpha(config.alpha, config, replace(spec, beta=beta), data)
    obj = objective(theta)
    trace = [TraceRow(obj, 0.0, criticality_residual(theta, beta, spec, data), 0.0)]
    iterations, converged = config.max_iters, False
    base, t = theta, 1.0
    for k in range(1, config.max_iters + 1):
        alpha, new = backtrack_stepsize(base, alpha, config, beta, spec, data)
        prev, theta, obj_prev, obj = theta, new, obj, objective(new)
        trace.append(TraceRow(obj, float(np.linalg.norm(theta - prev)),
                              criticality_residual(theta, beta, spec, data), alpha))
        if abs(obj - obj_prev) <= config.eps_tol:
            iterations, converged = k, True
            break
        base = theta
        if config.accelerate:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            base = theta + ((t - 1.0) / t_next) * (theta - prev)
            t = t_next
    return FitResult(theta, iterations, converged, obj, trace if config.record_trace else [])


def write_trace_oracle(result, path):
    """The trace CSV written row by row with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "step_norm", "residual", "stepsize"])
        for k, row in enumerate(result.trace):
            writer.writerow([k, repr(row.objective), repr(row.step_norm),
                             repr(row.residual), repr(row.stepsize)])


def save_csv_oracle(data, path):
    """The dataset CSV written row by row with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{j + 1}" for j in range(data.n_features)])
        for y, x in zip(data.labels, data.features):
            writer.writerow([int(y)] + [repr(float(v)) for v in x])


def grid_csv_oracle(grid, path):
    """The grid CSV written row by row with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(ErrorRow)])
        writer.writerows([repr(v) for v in dataclasses.astuple(r)] for r in grid.rows)


def predictions_oracle(theta, features, path):
    """The prediction CSV of ``theta`` on ``features``, written row by row
    with ``csv.writer``."""
    predicted, probs = predict_many(theta, features)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label", "prob"])
        for i, (lbl, p) in enumerate(zip(predicted, probs)):
            writer.writerow([i, int(lbl), repr(float(p))])


def certificate_oracle(theta, beta, spec, data, tol):
    """(critical point, sufficient, necessary) for ``theta``: the target
    2*zeta*theta - grad/beta against [lo - tol, hi + tol] at a kink (strictly
    inside (lo, hi) for the sufficient condition), and against lo within tol
    with enough curvature at a smooth coordinate."""
    grad = loss_gradient(theta, data)
    lo, hi = convexified_derivatives(theta, spec)
    cl, cr = convexified_second_derivatives(theta, spec)
    target = 2.0 * spec.zeta * theta - grad / beta
    norm = spectral_norm(data)

    def local_opt(curvature_floor, strict_kinks):
        if strict_kinks:
            kink_ok = (lo < target) & (target < hi)
        else:
            kink_ok = (lo - tol <= target) & (target <= hi + tol)
        smooth_fails = ((np.abs(target - lo) > tol)
                        | (cl < curvature_floor) | (cr < curvature_floor))
        return not np.any(np.where(theta == 0.0, ~kink_ok, smooth_fails))

    critical = bool(np.all(target >= lo - tol) and np.all(target <= hi + tol))
    return (critical, local_opt(2.0 * spec.zeta, True),
            local_opt(2.0 * spec.zeta - 0.25 * norm * norm / beta, False))
