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

One loop per stepsize rule.  Each checks its inputs once at entry and
then calls the unchecked kernels of ``model`` and ``penalty``: each point
it evaluates (iterate, base point, backtracking candidate) costs one pass
z = X @ point and one exp(-|z|), which give both the loss and the gradient
X^T (sigmoid(z) - y), and the accepted point's gradient carries over to
the next step and to its trace row.  ||X|| comes from the per-dataset
cache of ``spectral_norm``.

The constant rule runs a stack of C cells (beta, zeta, alpha) on one
dataset: the iterates are the rows of a (C, d) matrix, so each iteration
costs one product Theta @ X^T and one (sigmoid(Z) - y) @ X for all rows,
and the penalty kernels take per-row weights and zetas.  :func:`fit` runs
it with one row, :func:`fit_cells` with the cells of a grid.  The
momentum coefficient depends only on k, so the rows share it.  A cell
whose objective stalls leaves the stack with its iterate, objective and
iteration count, and every per-row array loses its row; the others go
on.  The operands of the two products are left as they are: the bits of
a product's row depend on the stack height and the operand layout (at
one row they are the 1-D product's), and so would the iteration counts.
The backtracking rule keeps ``fit``'s own loop, one point at a time.

Iterations stop once the objective change falls to ``eps_tol`` or
``max_iters`` is reached.  Every iteration of a ``fit`` can be recorded as
a trace row (objective, step norm, criticality residual, stepsize) and
exported as CSV.  The loop only stores each iterate with the gradient,
objective and stepsize it already has; the rows are computed after the
iterations, per block of 64 iterates, so a traced iteration costs about
what an untraced one does and the trace holds at most 64 iterates at a
time.  Each row has the bits a per-iteration computation gives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .model import Dataset, NumericalError, _kernels, _margins, loss, loss_gradient, spectral_norm
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

# iterates whose trace rows fit computes together: a few numpy calls per
# block instead of ~20 per iteration, and O(_TRACE_BLOCK * d) memory
_TRACE_BLOCK = 64


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
        # "no" would switch a flag on, True would run as 1.0, and "0.5" would be
        # parsed late or fail a comparison with a TypeError
        for name in ("accelerate", "record_trace"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("alpha", "alpha0", "eta", "eps_tol"):
            value = getattr(self, name)
            if value is None and name in ("alpha", "alpha0"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not (np.isfinite(self.eps_tol) and self.eps_tol > 0):
            raise ValueError(f"eps_tol must be a positive real, got {self.eps_tol}")
        # a bool is an int, and int() would truncate 2.5 or parse '7'
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        self.max_iters = int(self.max_iters)


class TraceRow(NamedTuple):
    objective: float
    step_norm: float
    residual: float
    stepsize: float


@dataclass
class FitResult:
    """Outcome of :func:`fit`, with Python ``int``, ``bool`` and ``float``
    fields; for :func:`fit_cells`, ``theta`` holds one row and
    ``iterations``, ``converged`` and ``final_objective`` one array entry
    per cell, and the trace is empty."""

    theta: np.ndarray
    iterations: int
    converged: bool
    final_objective: float
    trace: list[TraceRow] = field(default_factory=list)


def write_trace_csv(result: FitResult, path) -> None:
    """Export the iteration trace with columns iter,objective,step_norm,residual,stepsize."""
    # the lines csv.writer writes: no field of an int and four float reprs
    # needs quoting, and its line ending is \r\n
    with open(path, "w", newline="") as fh:
        fh.write("iter,objective,step_norm,residual,stepsize\r\n")
        fh.writelines(f"{k},{row.objective!r},{row.step_norm!r},{row.residual!r},"
                      f"{row.stepsize!r}\r\n" for k, row in enumerate(result.trace))


def max_constant_stepsize(beta: float, spec: PenaltySpec, data: Dataset) -> float:
    """Supremum of admissible constant stepsizes, 1 / max(2*beta*zeta, ||X||^2/8 + beta*zeta).

    Raises :class:`NumericalError` when ||X||^2/8 + beta*zeta overflows:
    the bound would then read 0 and admit no stepsize at all.
    """
    beta = _check_beta(beta, spec)
    norm = spectral_norm(data)
    curvature = norm * norm / 8.0 + beta * spec.zeta
    if not math.isfinite(curvature):
        raise NumericalError(
            f"||X||^2/8 + beta*zeta is not finite for features of spectral norm "
            f"||X|| = {norm:.6g}; rescale the features"
        )
    denom = max(2.0 * beta * spec.zeta, curvature)
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
    return beta * _norm(_violation(_as_float_array(theta), g, beta, spec))


def _violation(theta, grad, beta, spec):
    """Per coordinate, how far the target 2*zeta*theta - grad/beta lies outside
    [H'_-(theta), H'_+(theta)]; elementwise, so theta and grad may be (K, d)
    stacks of points and their gradients."""
    lo, hi = _convexified_derivatives(theta, spec)
    target = 2.0 * spec.zeta * theta - grad / beta
    # per coordinate the minimizing subgradient clamps the target into [lo, hi]
    return np.maximum(0.0, np.maximum(lo - target, target - hi))


def _norm(v) -> float:
    """Euclidean norm as np.linalg.norm computes it for a real vector;
    ``v @ v`` gives the same bits at twice the call cost of ``v.dot(v)``."""
    return math.sqrt(v.dot(v))


def _check_beta(beta, spec: PenaltySpec) -> float:
    beta = spec.beta if beta is None else float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be a finite positive real, got {beta}")
    return beta


def _default_alpha0(beta: float, spec: PenaltySpec) -> float:
    if spec.zeta > 0:
        return 0.49 / (beta * spec.zeta)
    return 1.0


def _extrapolate(theta, prev, t: float):
    """The momentum schedule's next base point and t: from t = t_k it
    returns theta + ((t_k - 1)/t_{k+1}) * (theta - prev) and t_{k+1}.  The
    coefficient depends only on k, so one serves every row of a stack."""
    t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    return theta + ((t - 1.0) / t_next) * (theta - prev), t_next


def _backtrack(point, grad, point_loss, alpha, eta, beta, spec, evaluate):
    """Shrink alpha until the quadratic upper bound accepts the prox step.

    Returns (alpha, candidate, candidate margins pair, candidate loss).  The
    acceptance test gets a small additive slack so that cancellation noise
    near a fixed point cannot force spurious reductions.
    """
    slack = 1e-12 * (1.0 + abs(point_loss))
    for _ in range(_MAX_BACKTRACK_REDUCTIONS + 1):
        cand = _prox(point - alpha * grad, _check_weight(alpha * beta, spec), spec)
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


def _initial_alpha(config: SolverConfig, beta: float, spec: PenaltySpec,
                   data: Dataset) -> float:
    if config.stepsize_rule == CONSTANT:
        bound = max_constant_stepsize(beta, spec, data)
        if config.alpha is None:
            alpha = 0.99 * bound
            if config.accelerate:
                # momentum needs the quadratic majorization at every point,
                # i.e. alpha <= 1/L; the plain-descent bound is ~2x that
                norm = spectral_norm(data)
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


class _TraceBuffer:
    """The trace rows of one :func:`fit`, computed per block of iterates.

    The loop hands over each iterate with the gradient, objective and
    stepsize it already holds; when ``_TRACE_BLOCK`` of them are stored, and
    once more for the rest in :meth:`rows`, one elementwise pass gives the
    criticality violations of the whole (K, d) block and one subtraction its
    steps.  One ``np.vecdot`` per block gives every row's squared step norm
    and squared residual; it computes each row's sum as ``v.dot(v)`` does,
    so every column has the bits a per-iteration ``_norm`` gives.
    """

    def __init__(self, theta, grad, objective, beta: float, spec: PenaltySpec):
        self.beta, self.spec = beta, spec
        # row 0 holds the iterate before the block: row j+1 - row j is step j
        self.points = np.empty((_TRACE_BLOCK + 1, theta.size))
        self.points[0] = theta
        self.grads = np.empty((_TRACE_BLOCK, theta.size))
        self.pending = []  # (objective, stepsize) of each stored iterate
        self.done = []
        # the starting point's step is theta - theta = 0 and its stepsize 0
        self.add(theta, grad, objective, 0.0)

    def add(self, theta, grad, objective, stepsize) -> None:
        k = len(self.pending)
        self.points[k + 1] = theta
        self.grads[k] = grad
        self.pending.append((objective, stepsize))
        if k + 1 == _TRACE_BLOCK:
            self._flush()

    def _flush(self) -> None:
        k = len(self.pending)
        points = self.points[1:k + 1]
        steps = points - self.points[:k]
        violations = _violation(points, self.grads[:k], self.beta, self.spec)
        step_norms = np.sqrt(np.vecdot(steps, steps)).tolist()
        residuals = (self.beta * np.sqrt(np.vecdot(violations, violations))).tolist()
        self.done.extend(TraceRow(objective, step_norm, residual, stepsize)
                         for (objective, stepsize), step_norm, residual
                         in zip(self.pending, step_norms, residuals))
        self.points[0] = self.points[k]
        self.pending.clear()

    def rows(self) -> list[TraceRow]:
        if self.pending:
            self._flush()
        return self.done


def fit(data: Dataset, beta: float, spec: PenaltySpec, config: SolverConfig,
        theta0=None) -> FitResult:
    """Run the proximal gradient iteration until the objective stalls.

    ``beta`` may be None to use ``spec.beta``.  ``config.accelerate`` adds
    the momentum schedule; the objective, the trace and the returned point
    are then those of the prox outputs, not of the extrapolated base points.
    The constant rule runs as a one-row stack of the loop that
    :func:`fit_cells` runs.
    """
    beta = _check_beta(beta, spec)
    theta = _prepare_theta0(theta0, data)
    alpha = _initial_alpha(config, beta, spec, data)
    if config.stepsize_rule == CONSTANT:
        stack = _fit_stack(data, [replace(spec, beta=beta)], [alpha], config, theta[None])
        return FitResult(stack.theta[0], int(stack.iterations[0]), bool(stack.converged[0]),
                         stack.final_objective.item(0), stack.trace)

    momentum = config.accelerate
    record = config.record_trace
    evaluate, gradient = _kernels(data)
    margins, loss_val = evaluate(theta)
    grad = gradient(margins)
    obj = loss_val + beta * _penalty_sum(theta, spec)
    _require_finite(math.isfinite(obj))
    trace = _TraceBuffer(theta, grad, obj, beta, spec) if record else None

    # the point the next step starts from, with its loss and gradient
    base, base_loss, base_grad = theta, loss_val, grad
    t = 1.0
    iterations, converged = config.max_iters, False
    for k in range(1, config.max_iters + 1):
        alpha, new, margins, loss_new = _backtrack(base, base_grad, base_loss, alpha,
                                                   config.eta, beta, spec, evaluate)
        obj_new = loss_new + beta * _penalty_sum(new, spec)
        _require_finite(math.isfinite(obj_new))
        grad = gradient(margins) if record or not momentum else None
        if record:
            trace.add(new, grad, obj_new, alpha)
        stalled = abs(obj_new - obj) <= config.eps_tol
        prev, theta, obj = theta, new, obj_new
        if stalled:
            iterations, converged = k, True
            break
        if momentum:
            base, t = _extrapolate(theta, prev, t)
            margins, base_loss = evaluate(base)
            base_grad = gradient(margins)
        else:
            base, base_loss, base_grad = theta, loss_new, grad

    return FitResult(theta, iterations, converged, obj, trace.rows() if record else [])


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
    return _fit_stack(data, specs, steps, config, np.zeros((len(specs), data.n_features)))


def _fit_stack(data: Dataset, specs, steps, config: SolverConfig,
               theta: np.ndarray) -> FitResult:
    """The constant-stepsize iteration of C cells from the rows of ``theta``,
    cell c with ``specs[c]`` (its beta included) and the stepsize
    ``steps[c]``.  ``config`` gives ``accelerate``, ``eps_tol``,
    ``max_iters`` and ``record_trace``; the trace is row 0's, for a one-row
    stack.  The result holds one entry per cell in each field."""
    evaluate, gradient = _kernels(data)
    weights = [_check_weight(a * s.beta, s) for a, s in zip(steps, specs)]

    # the running cells: their indices, parameters and iterates, one per row
    d = data.n_features
    rows = np.arange(len(specs))
    beta = np.array([s.beta for s in specs])
    alpha, weight = _repeat_rows(steps, d), _repeat_rows(weights, d)
    stacked = _StackedSpec.of(specs, d)
    denominator = 1.0 - 2.0 * weight * stacked.zeta
    margins, losses = evaluate(theta)
    obj = losses + beta * _penalty_sum(theta, stacked)
    _require_finite(np.isfinite(obj).all())
    grad = gradient(margins)
    trace = None
    if config.record_trace:
        trace = _TraceBuffer(theta[0], grad[0], obj.item(0), specs[0].beta, specs[0])

    thetas, objectives = np.empty_like(theta), np.empty_like(obj)
    iterations = np.full(len(specs), config.max_iters)
    converged = np.zeros(len(specs), dtype=bool)
    eps_tol, accelerate = config.eps_tol, config.accelerate
    # the points the next step starts from; grad holds their gradients
    base, t = theta, 1.0
    for k in range(1, config.max_iters + 1):
        grad *= alpha
        np.subtract(base, grad, out=grad)
        new = _prox(grad, weight, stacked, denominator)
        margins, losses = evaluate(new)
        obj_new = losses + beta * _penalty_sum(new, stacked)
        change = (obj_new - obj).tolist()
        prev, theta, obj = theta, new, obj_new
        # objectives are >= 0 and were finite, so a change is finite exactly
        # when the new objective is (NaN fails both comparisons)
        running = all(eps_tol < abs(c) < math.inf for c in change)
        if not running:
            _require_finite(np.isfinite(obj).all())
        grad = None
        if trace is not None:
            grad = gradient(margins)
            trace.add(theta[0], grad[0], obj.item(0), steps[0])
        if not running:
            stalled = np.abs(change) <= eps_tol
            done = rows[stalled]
            thetas[done], objectives[done] = theta[stalled], obj[stalled]
            iterations[done], converged[done] = k, True
            run = ~stalled
            rows, beta, alpha = rows[run], beta[run], alpha[run]
            weight, denominator = weight[run], denominator[run]
            stacked, theta, obj, prev = stacked.take(run), theta[run], obj[run], prev[run]
            margins = tuple(part[run] for part in margins)
            if grad is not None:
                grad = grad[run]
            if not rows.size:
                break
        if accelerate:
            base, t = _extrapolate(theta, prev, t)
            grad = gradient(_margins(data.features, base))
        else:
            base = theta
            if grad is None:
                grad = gradient(margins)
    thetas[rows], objectives[rows] = theta, obj
    return FitResult(thetas, iterations, converged, objectives,
                     trace.rows() if trace is not None else [])


def _require_finite(finite: bool) -> None:
    if not finite:
        raise NumericalError(
            "objective became non-finite; the data or stepsize is pathological"
        )
