"""Proximal gradient solver for  loss(theta) + beta * J(theta).

Each update is

    theta_{k+1} = prox_{alpha_k * beta * J}(y_k - alpha_k * grad(y_k))

from the base point y_k = theta_k (plain descent) or, with momentum, the
extrapolated point of the t-sequence of Beck & Teboulle (FISTA, SIAM J.
Imaging Sci. 2009):

    t_1 = 1,   t_{k+1} = (1 + sqrt(1 + 4*t_k^2)) / 2,
    y_{k+1} = theta_{k+1} + ((t_k - 1)/t_{k+1}) * (theta_{k+1} - theta_k),

so the first momentum coefficient is 0.  The stepsize is either constant,
admissible under

    1/alpha > max(2*beta*zeta, ||X||^2 / 8 + beta*zeta)

(with momentum the default is also capped at 4/||X||^2), or backtracked:
alpha_k = eta^{n_k} * alpha_{k-1} where n_k is the smallest count of
reductions for which the candidate satisfies the quadratic upper bound

    loss(cand) <= loss(y_k) + (cand - y_k) @ grad(y_k)
                  + ||cand - y_k||^2 / (2*alpha_k).

Both rules keep each subproblem strongly convex (alpha*beta*zeta < 1/2);
without momentum they make the objective non-increasing and drive the
steps and the criticality residual to zero.

One engine, :func:`fit`, runs every combination of stepsize rule and
momentum.  It checks its inputs once at entry and then calls the unchecked
kernels of ``model`` and ``penalty``: each point it evaluates (iterate,
base point, backtracking candidate) costs one pass z = X @ point and one
exp(-|z|), which give both the loss and the gradient X^T (sigmoid(z) - y),
and the accepted point's loss and gradient carry over to the next step and to its
trace row.  ||X|| comes from the per-dataset cache of ``spectral_norm``.

Iterations stop once the objective change falls to ``eps_tol`` or
``max_iters`` is reached.  Every iteration can be recorded as a trace row
(objective, step norm, criticality residual, stepsize) and exported as CSV.

:func:`fit_cells` runs the plain constant-stepsize iteration of many
(beta, zeta) cells on one dataset at once, as a grid search needs: the
iterates are the rows of a (C, d) matrix, so each iteration costs one
product Theta @ X^T for all cells and one (sigmoid(Z) - y) @ X for their
gradients, and the penalty kernels take per-row weights and zetas.  A cell
whose objective stalls leaves the stack with its iterate, objective and
iteration count, exactly as ``fit`` stops; the others go on.  Its results
equal those of one ``fit`` per cell up to the rounding of the matrix
products.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .model import Dataset, _kernels, _margins, loss, loss_gradient, spectral_norm
from .penalty import (
    PenaltySpec,
    _repeat_rows,
    _StackedSpec,
    _as_float_array,
    _check_weight,
    _convexified_derivatives,
    _penalty_sum,
    _prox,
    prox_vector,
)

CONSTANT = "constant"
BACKTRACKING = "backtracking"

__all__ = [
    "CONSTANT",
    "BACKTRACKING",
    "SolverConfig",
    "TraceRow",
    "FitResult",
    "NumericalError",
    "max_constant_stepsize",
    "prox_grad_step",
    "backtrack_stepsize",
    "fit",
    "accelerated_fit",
    "fit_cells",
    "criticality_residual",
    "write_trace_csv",
]

# one extra reduction per entry would mean alpha shrank by 2^-100: a bug,
# not a hard problem instance
_MAX_BACKTRACK_REDUCTIONS = 100


class NumericalError(RuntimeError):
    """The iteration produced a non-finite quantity."""


@dataclass
class SolverConfig:
    """Stepsize rule, stopping parameters, and trace switches.

    ``alpha`` (constant rule) defaults to 0.99x the largest admissible
    stepsize for the problem at hand; ``alpha0`` (backtracking start)
    defaults to 0.49/(beta*zeta), or 1.0 when zeta = 0.
    """

    stepsize_rule: str = CONSTANT
    alpha: float | None = None
    alpha0: float | None = None
    eta: float = 0.5
    accelerate: bool = False
    eps_tol: float = 1e-8
    max_iters: int = 10000
    record_trace: bool = True

    def __post_init__(self):
        if self.stepsize_rule not in (CONSTANT, BACKTRACKING):
            raise ValueError(f"unknown stepsize rule {self.stepsize_rule!r}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not (np.isfinite(self.eps_tol) and self.eps_tol > 0):
            raise ValueError(f"eps_tol must be a positive real, got {self.eps_tol}")
        if int(self.max_iters) < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        self.max_iters = int(self.max_iters)


class TraceRow(NamedTuple):
    objective: float
    step_norm: float
    residual: float
    stepsize: float


@dataclass
class FitResult:
    """Outcome of :func:`fit`; for :func:`fit_cells`, ``theta`` holds one row
    and ``iterations``, ``converged`` and ``final_objective`` one array
    entry per cell, and the trace is empty."""

    theta: np.ndarray
    iterations: int
    converged: bool
    final_objective: float
    trace: list[TraceRow] = field(default_factory=list)


def write_trace_csv(result: FitResult, path) -> None:
    """Export the iteration trace with columns iter,objective,step_norm,residual,stepsize."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "step_norm", "residual", "stepsize"])
        for k, row in enumerate(result.trace):
            writer.writerow(
                [k, repr(row.objective), repr(row.step_norm), repr(row.residual), repr(row.stepsize)]
            )


def max_constant_stepsize(beta: float, spec: PenaltySpec, data: Dataset) -> float:
    """Supremum of admissible constant stepsizes, 1 / max(2*beta*zeta, ||X||^2/8 + beta*zeta)."""
    beta = _check_beta(beta, spec)
    norm = spectral_norm(data, tol=1e-12)
    denom = max(2.0 * beta * spec.zeta, norm * norm / 8.0 + beta * spec.zeta)
    return 1.0 / denom if denom > 0 else np.inf


def prox_grad_step(theta, alpha: float, beta: float, spec: PenaltySpec, data: Dataset):
    """One update theta -> prox_{alpha*beta*J}(theta - alpha*grad(theta))."""
    beta = _check_beta(beta, spec)
    g = loss_gradient(theta, data)
    return prox_vector(np.asarray(theta, dtype=float) - alpha * g, alpha * beta, spec)


def criticality_residual(theta, beta: float, spec: PenaltySpec, data: Dataset) -> float:
    """Distance to criticality: min over subgradients g of H of
    ||beta*g - 2*beta*zeta*theta + grad(theta)||_2, computed coordinatewise."""
    beta = _check_beta(beta, spec)
    g = loss_gradient(theta, data)
    return _residual(_as_float_array(theta), g, beta, spec)


def _residual(theta, grad, beta, spec) -> float:
    lo, hi = _convexified_derivatives(theta, spec)
    target = 2.0 * spec.zeta * theta - grad / beta
    # per coordinate the minimizing subgradient clamps the target into [lo, hi]
    violation = np.maximum(0.0, np.maximum(lo - target, target - hi))
    return beta * _norm(violation)


def _norm(v) -> float:
    """Euclidean norm, the value np.linalg.norm gives for a real vector."""
    return math.sqrt(v @ v)


def _check_beta(beta, spec: PenaltySpec) -> float:
    beta = spec.beta if beta is None else float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be a finite positive real, got {beta}")
    return beta


def _default_alpha0(beta: float, spec: PenaltySpec) -> float:
    if spec.zeta > 0:
        return 0.49 / (beta * spec.zeta)
    return 1.0


def _prox_step(point, grad, alpha, beta, spec):
    """prox_{alpha*beta*J}(point - alpha*grad), its weight checked on every call."""
    return _prox(point - alpha * grad, _check_weight(alpha * beta, spec), spec)


def _backtrack(point, grad, point_loss, alpha, eta, beta, spec, evaluate):
    """Shrink alpha until the quadratic upper bound accepts the prox step.

    Returns (alpha, candidate, candidate margins pair, candidate loss).  The
    acceptance test gets a small additive slack so that cancellation noise
    near a fixed point cannot force spurious reductions.
    """
    slack = 1e-12 * (1.0 + abs(point_loss))
    for _ in range(_MAX_BACKTRACK_REDUCTIONS + 1):
        cand = _prox_step(point, grad, alpha, beta, spec)
        diff = cand - point
        margins, cand_loss = evaluate(cand)
        bound = point_loss + float(diff @ grad) + float(diff @ diff) / (2.0 * alpha)
        # an overflowed bound certifies nothing, so it cannot accept the step
        if math.isfinite(bound) and math.isfinite(cand_loss) and cand_loss <= bound + slack:
            return alpha, cand, margins, cand_loss
        alpha *= eta
    raise NumericalError(
        f"backtracking did not accept a stepsize after {_MAX_BACKTRACK_REDUCTIONS} "
        "reductions; this indicates a numerical problem"
    )


def backtrack_stepsize(theta_prev, alpha_prev: float, config: SolverConfig,
                       beta: float, spec: PenaltySpec, data: Dataset):
    """One backtracked update from theta_prev; returns (alpha_k, theta_k)."""
    beta = _check_beta(beta, spec)
    theta_prev = _as_float_array(theta_prev)
    grad = loss_gradient(theta_prev, data)
    evaluate, _ = _kernels(data)
    alpha, cand, _, _ = _backtrack(theta_prev, grad, loss(theta_prev, data), float(alpha_prev),
                                   config.eta, beta, spec, evaluate)
    return alpha, cand


def _initial_alpha(config: SolverConfig, beta: float, spec: PenaltySpec, data: Dataset,
                   accelerated: bool = False) -> float:
    if config.stepsize_rule == CONSTANT:
        bound = max_constant_stepsize(beta, spec, data)
        if config.alpha is None:
            alpha = 0.99 * bound
            if accelerated:
                # momentum needs the quadratic majorization at every point,
                # i.e. alpha <= 1/L; the plain-descent bound is ~2x that
                norm = spectral_norm(data, tol=1e-12)
                if norm > 0:
                    alpha = min(alpha, 0.99 * 4.0 / (norm * norm))
        else:
            alpha = float(config.alpha)
        if not (0.0 < alpha < bound):
            raise ValueError(
                f"constant stepsize {alpha} is not admissible; it must lie in "
                f"(0, {bound}) for this problem"
            )
        return alpha
    alpha = _default_alpha0(beta, spec) if config.alpha0 is None else float(config.alpha0)
    if alpha <= 0 or not np.isfinite(alpha):
        raise ValueError(f"alpha0 must be a finite positive real, got {alpha}")
    if beta * spec.zeta * alpha >= 0.5:
        raise ValueError(
            f"alpha0 = {alpha} violates beta*zeta*alpha0 < 1/2 "
            f"(beta*zeta = {beta * spec.zeta:.6g})"
        )
    return alpha


def _prepare_theta0(theta0, data: Dataset) -> np.ndarray:
    if theta0 is None:
        return np.zeros(data.n_features)
    theta0 = np.array(theta0, dtype=float)
    if theta0.shape != (data.n_features,):
        raise ValueError(
            f"theta0 has shape {theta0.shape} but the dataset has {data.n_features} features"
        )
    return theta0


def fit(data: Dataset, beta: float, spec: PenaltySpec, config: SolverConfig,
        theta0=None) -> FitResult:
    """Run the proximal gradient iteration until the objective stalls.

    ``beta`` may be None to use ``spec.beta``.  ``config.accelerate`` adds
    the momentum schedule; the objective, the trace and the returned point
    are then those of the prox outputs, not of the extrapolated base points.
    """
    beta = _check_beta(beta, spec)
    theta = _prepare_theta0(theta0, data)
    momentum = config.accelerate
    alpha = _initial_alpha(config, beta, spec, data, accelerated=momentum)
    backtracking = config.stepsize_rule == BACKTRACKING
    record = config.record_trace
    evaluate, gradient = _kernels(data)

    margins, loss_val = evaluate(theta)
    grad = gradient(margins)
    obj = loss_val + beta * _penalty_sum(theta, spec)
    _require_finite(math.isfinite(obj))
    trace = [TraceRow(obj, 0.0, _residual(theta, grad, beta, spec), 0.0)] if record else []

    # the point the next step starts from, with its loss and gradient
    base, base_loss, base_grad = theta, loss_val, grad
    t = 1.0
    iterations = 0
    converged = False
    for _ in range(config.max_iters):
        if backtracking:
            alpha, new, margins, loss_new = _backtrack(base, base_grad, base_loss, alpha,
                                                       config.eta, beta, spec, evaluate)
        else:
            new = _prox_step(base, base_grad, alpha, beta, spec)
            margins, loss_new = evaluate(new)
        obj_new = loss_new + beta * _penalty_sum(new, spec)
        _require_finite(math.isfinite(obj_new))
        iterations += 1
        grad = gradient(margins) if record or not momentum else None
        if record:
            trace.append(TraceRow(obj_new, _norm(new - theta),
                                  _residual(new, grad, beta, spec), alpha))
        stalled = abs(obj_new - obj) <= config.eps_tol
        prev, theta, obj = theta, new, obj_new
        if stalled:
            converged = True
            break
        if momentum:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            base = theta + ((t - 1.0) / t_next) * (theta - prev)
            t = t_next
            if backtracking:
                margins, base_loss = evaluate(base)
            else:  # the constant rule never needs the loss at the base point
                margins = _margins(data.features, base)
            base_grad = gradient(margins)
        else:
            base, base_loss, base_grad = theta, loss_new, grad

    return FitResult(theta, iterations, converged, obj, trace)


def accelerated_fit(data: Dataset, beta: float, spec: PenaltySpec, config: SolverConfig,
                    theta0=None) -> FitResult:
    """:func:`fit` with the momentum schedule switched on."""
    return fit(data, beta, spec, replace(config, accelerate=True), theta0)


def fit_cells(data: Dataset, cells, alphas, eps_tol: float = 1e-8,
              max_iters: int = 10000) -> FitResult:
    """Fit every (beta, zeta) cell of ``cells`` on ``data`` in one loop.

    Cell c runs what :func:`fit` runs from zeros with the constant stepsize
    ``alphas[c]`` (None for the default), no momentum and no trace, and
    stops where ``fit`` would.  Each cell's stepsize and prox weight are
    checked before the first iteration, and a non-finite objective of any
    running cell raises :class:`NumericalError`.
    """
    if not cells or len(alphas) != len(cells):
        raise ValueError(f"need one stepsize per cell and at least one cell, got "
                         f"{len(alphas)} for {len(cells)}")
    config = SolverConfig(eps_tol=eps_tol, max_iters=max_iters, record_trace=False)
    specs = [PenaltySpec(zeta=zeta, beta=beta) for beta, zeta in cells]
    steps = [_initial_alpha(replace(config, alpha=a), s.beta, s, data)
             for a, s in zip(alphas, specs)]
    weights = [_check_weight(a * s.beta, s) for a, s in zip(steps, specs)]
    evaluate, gradient = _kernels(data)

    # the running cells: their indices, parameters and iterates, one per row
    d = data.n_features
    rows = np.arange(len(specs))
    beta = np.array([s.beta for s in specs])
    alpha, weight = _repeat_rows(steps, d), _repeat_rows(weights, d)
    stacked = _StackedSpec.of(specs, d)
    theta = np.zeros((len(specs), d))
    margins, losses = evaluate(theta)
    obj = losses + beta * _penalty_sum(theta, stacked)
    _require_finite(np.isfinite(obj).all())

    thetas, objectives = np.empty_like(theta), np.empty_like(obj)
    iterations = np.full(len(specs), config.max_iters)
    converged = np.zeros(len(specs), dtype=bool)
    for k in range(1, config.max_iters + 1):
        new = _prox(theta - alpha * gradient(margins), weight, stacked)
        margins, losses = evaluate(new)
        obj_new = losses + beta * _penalty_sum(new, stacked)
        change = np.abs(obj_new - obj)
        theta, obj = new, obj_new
        # objectives are >= 0 and were finite, so a change is finite exactly
        # when the new objective is (NaN fails both comparisons)
        if not all(config.eps_tol < c < math.inf for c in change.tolist()):
            _require_finite(np.isfinite(obj).all())
            stalled = change <= config.eps_tol
            done = rows[stalled]
            thetas[done], objectives[done] = theta[stalled], obj[stalled]
            iterations[done], converged[done] = k, True
            run = ~stalled
            rows, beta, alpha, weight = rows[run], beta[run], alpha[run], weight[run]
            stacked, theta, obj = stacked.take(run), theta[run], obj[run]
            margins = tuple(part[run] for part in margins)
            if not rows.size:
                break
    thetas[rows], objectives[rows] = theta, obj
    return FitResult(thetas, iterations, converged, objectives)


def _require_finite(finite: bool) -> None:
    if not finite:
        raise NumericalError(
            "objective became non-finite; the data or stepsize is pathological"
        )
