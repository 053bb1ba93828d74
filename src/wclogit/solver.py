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

Inputs are checked once, where they enter: :class:`SolverConfig` its
fields, :class:`~wclogit.penalty.PenaltySpec` beta and zeta (``fit``
builds the run's spec once), and each entry point, before the first
iteration, the run's first stepsize against its rule's bound and the
first prox weight alpha*beta (``fit_cells`` each cell's).  No input check
runs inside the iteration.  The backtracking search only shrinks alpha,
so every trial weight stays admissible; a trial stepsize that underflows
to 0 gives a bound that is not finite, which the acceptance test rejects,
so a search that finds no stepsize raises :class:`NumericalError`
whatever eta is.  The objective's finiteness guard detects numerical
faults; it checks no input.

One loop serves both stepsize rules.  It calls the unchecked kernels of
``model`` and ``penalty``: each point it evaluates (iterate, base point,
backtracking candidate) costs one pass z = X @ point and one exp(-|z|),
which give both the loss and the gradient X^T (sigmoid(z) - y), and the
accepted point's gradient carries over to the next step and to its trace
row.  With momentum the next step starts from the extrapolated point
instead, so no step reads the iterate's margins or gradient: a fit leaves
them to its block of objectives (see "Objectives per block" below), and
the step path makes two passes over X per iteration, both at the base
point.  The constant rule's bound takes ||X|| from the per-dataset cache
of ``spectral_norm``.

One loop serves both jobs, and it does not know which one it runs: each
entry point builds its own job object and hands it to the loop, which
branches only on the stepsize rule and on momentum.  It reads the
kernels and the step's beta, first stepsize, prox weight, prox
denominator and penalty from the job, hands the job each new iterate,
and stops when the job says it is done; the job builds the result, of
its own type.  :func:`fit`'s job, :class:`_Block`, steps
one 1-D point, under either rule, with or without momentum and the trace,
with its penalty's own parameters and a float stepsize, prox weight and
denominator.  Under backtracking the step is the search above; the
accepted candidate's loss, which the search computes anyway, is the
iterate's loss and the next plain step's loss at its base point.
:func:`fit_cells`' job, :class:`_Descent`, steps a stack of C >= 1 cells
(beta, zeta, alpha) on one dataset, under the constant rule, plain and
untraced: the iterates are the rows of a (C, d) matrix, so each
iteration costs one product Theta @ X^T and one (sigmoid(Z) - y) @ X for
all rows, and the penalty kernels take per-row weights and zetas.  A
cell whose objective stalls leaves the stack with its iterate, objective
and iteration count, which go into the stack's :class:`CellsResult`, and
every per-row array of the job loses its row in one method; the others
go on.  The operands of the two products are left
as they are: the bits of a product's row depend on the stack height and
the operand layout (a (1, d) stack has the 1-D product's), and so would
the iteration counts.

Iterations stop once the objective change falls to ``eps_tol`` or
``max_iters`` is reached.  The iterates never depend on the objective: it
only feeds that stall test and the trace.  So a fit computes it per block
of iterates, off the step path; see "Objectives per block" below.  A
stack skips it on every iteration where a sufficient-decrease certificate
proves that no running row can stall; see "Skipping the objective" below.

Every iteration of a ``fit`` can be recorded as a trace row (objective,
step norm, criticality residual, stepsize) and exported as CSV.  The loop
only stores each iterate with its stepsize and, without momentum, its
gradient in the block of objectives; the rows are computed with the
block's objectives, and the trace holds one block of iterates at a time.
A traced iteration costs about what an untraced one does without
momentum; with it, the block also computes the iterates' gradients.  Each
row has the bits a per-iteration computation gives.

Objectives per block
--------------------
For one point the objective and its stall test cost about a dozen numpy
calls, about 17 us of a 90 us iteration at N = 1000, d = 50.  So each
iterate goes, with its margins pair, stepsize and (traced) its gradient,
into a small preallocated block, and one stacked loss pass and one
stacked penalty pass give the whole block's objectives.  A stacked row
sum is the sum of that row alone, so each objective has the bits of a
per-iteration one.  Under backtracking the block keeps instead the loss
that the search computed from the same margins: a second loss pass would
add about 4 us to a backtracking iteration of about 45 us at that size.
The stall tests then run in
order on Python floats; the first stalled iterate ends the fit with its
point, objective, count and trace rows, and the steps taken past it are
dropped.  A block that starts at iteration s holds
min(s, cap, the iterations left) iterates, the cap being 16 or fewer for
N > 2048 (its margins take at most 0.5 MB): the blocks grow 1, 2, 4, 8,
16, 16, ..., so a fit that stalls at k takes at most min(k, cap) - 1 extra
steps.  A backtracking step past the stall may find no stepsize and raise
:class:`NumericalError`; the block pending then is evaluated first, and
if it stalled, the fit ends there as it would have without that step.

With momentum the block stores only the iterates' points (and, under
backtracking, their losses) and computes the rest when it evaluates: under
the constant rule the margins, as one ``np.matmul`` of the (m, 1, d) stack
of points with X^T and one stacked exp(-|z|), and for a traced fit the
gradients, as one stacked sigmoid and one ``np.matmul`` of the (m, 1, N)
residuals with X; a traced backtracking fit keeps the search's margins for
them.  For such a batch of one-row products numpy makes one gemv call per
row, the call that a 1-D product makes, so every margin, gradient and
trace row keeps its bits (an (m, N) product would not: see the stack
above).  Both write into the block's preallocated rows, the
margins under the objective's overflow guard.  The passes over X are as
many as before, but one call per block replaces about ten numpy calls per
iteration: at that size a traced momentum iteration takes about 58 us
instead of 66, an untraced one 45 instead of 49.

A non-finite objective must still raise :class:`NumericalError` at the
iteration that made it.  The objective is bounded by the iterate's norm:
each loss term is at most |z_i| + log 2,
sum_i |z_i| <= sqrt(N)*||X||*||theta|| <= sqrt(N)*||X||_F*||theta|| and
J(theta) <= ||theta||_1 <= sqrt(d)*||theta||, so

    F(theta) <= (sqrt(N)*||X||_F + beta*sqrt(d))*||theta|| + N*log(2).

The Frobenius norm takes one pass over X, so a backtracking fit needs no
SVD.  Each iteration compares ||theta||^2 (one ``np.vdot``, which does not
warn when it overflows) with the square of 1e300 over that factor, which
leaves the rounding of every step of F a margin of 1e8; an iterate that
fails it, NaN included, has its block evaluated at once, and the fit goes
on if the objective is finite after all.  Every objective is computed with
numpy's overflow warning off, because an overflow there gives an infinite
objective, which raises :class:`NumericalError` with the library's own
message.

A stack does not use blocks: a row that stalls inside a block would have
to be taken back out of the later products, whose bits depend on the
stack height (see above), so it keeps the exact path and the certificate
below.

Skipping the objective
----------------------
Take one row with F = loss + beta*J, stepsize alpha and the step
Delta = theta_k - theta_{k-1}.  The prox subproblem
beta*J(u) + ||u - v||^2/(2*alpha) is (1/alpha - 2*beta*zeta)-strongly
convex (the weight check gives w*zeta < 1/2), so comparing it at theta_k
and theta_{k-1} gives

    beta*J(theta_k) + g @ Delta + (1/alpha - beta*zeta)*||Delta||^2
        <= beta*J(theta_{k-1}),              g = grad loss(theta_{k-1}),

and each loss term has curvature <= 1/4 in its margin, so
loss(theta_k) <= loss(theta_{k-1}) + g @ Delta + ||X Delta||^2 / 8.
Adding the two,

    F(theta_k) <= F(theta_{k-1}) - D,
    D = (1/alpha - beta*zeta)*||Delta||^2 - ||X Delta||^2 / 8
      >= (1/alpha - beta*zeta - ||X||^2/8)*||Delta||^2,

the paper's sufficient decrease, positive exactly when alpha is
admissible.  The loop first tries that loose bound, one subtraction and
one ``np.vecdot`` on the (C, d) stack; only when it fails for some row does
it try the tight D, whose X Delta is the difference of the margins of
theta_k, which the step's gradient needs anyway, and theta_{k-1}.

Those are statements about exact arithmetic at the computed iterates.  The
stall test compares two computed objectives, and theta_k is a rounded
prox step, so a row's certificate holds only when D exceeds a floor that
covers, to first order in eps = 2^-52 (twice the unit roundoff, which
leaves each bound room for its second-order terms), with A = max_j sum_i
|x_ij| and G = ||X||*sqrt(N) + sqrt(d)*(N+2)*eps*A >= ||computed grad||:

- ``eps_tol``, and the rounding of the test's own subtraction;
- the rounding of both computed objectives.  The product X @ theta is off
  by at most (d+2)*eps*(|X| |theta|) per margin and each loss term is
  1-Lipschitz in its margin, so the loss by at most (d+2)*eps*A*||theta||_1;
  the exp, log1p, penalty terms and sums add at most
  (N+d+16)*eps*(1 + F_r), F_r the row's last computed objective, which the
  certified decrease keeps above every later F;
- the rounding of the step.  The computed gradient is off by at most
  ||X||*((d+2)*eps*A*||theta||_1/4 + 11*eps*sqrt(N)) + sqrt(d)*(N+2)*eps*A,
  the product and the subtraction alpha*g, theta - alpha*g by
  3*eps*(G + ||theta||_1/alpha), the prox weight alpha*beta by eps*beta,
  and the prox output by kappa*eps*|theta_k| per coordinate with
  kappa = 4 + 6/(1 - 2*w*zeta) (its rounded denominator and plateau
  start).  Through the two inequalities above they cost at most
  ||Delta|| * (the gradient's error + 3*eps*G + eps*beta*sqrt(d)
  + (3 + 2*kappa)*eps*||theta||_1/alpha) + kappa*eps*||theta||_1*(beta + G)
  + 2*kappa*(kappa+2)*eps^2*||theta||_1^2/alpha.

``_Descent`` adds these up with ||theta||_1 the sum over theta_{k-1} and
theta_k, takes a lower bound of D (the coefficients rounded down, ||X||
taken 1e-8 above the SVD's value, ||X Delta|| above its computed value by
the margins' rounding), and proves the iteration only when every running
row has floor < D < inf: NaN or inf anywhere takes the exact path, so a
non-finite iterate raises :class:`NumericalError` where it would
otherwise.  A proven iteration computes the new margins for the gradient
and nothing else.  On any other iteration the objective is computed from
those margins and tested as always; when the previous one was skipped it
is first computed from the margins of theta_{k-1}, which came from the
same product on the same stack, so it has the bits it would have had.
Every iteration is checked but the capped last one, k = max_iters, which
is never skipped.  So the iterates, objectives, iteration counts and
stall flags keep their bits, and a larger floor would only cost skips.

The check is a fixed run of about 25 small numpy calls on (C, d) arrays.
On a grid's stack (28 rows, N = 200, d = 50) it costs about 25 us against
the 40 us of the objective it skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import _write_csv
from .model import (
    Dataset,
    NumericalError,
    _check_bool,
    _check_integer,
    _check_real,
    _check_theta,
    _kernels,
    _margins,
    _probabilities,
    _RepeatedRows,
    loss,
    loss_gradient,
    spectral_norm,
)
from .penalty import (
    _MAX,
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
    "CellsResult",
    "NumericalError",
    "max_constant_stepsize",
    "prox_grad_step",
    "backtrack_stepsize",
    "fit",
    "fit_cells",
    "criticality_residual",
    "write_trace_csv",
]

# one extra reduction per entry would mean alpha shrank by 2^-100: a bug,
# not a hard problem instance
_MAX_BACKTRACK_REDUCTIONS = 100

# most iterates whose objectives a fit computes together: at
# fig1's size (N = 1000, d = 50) the objective costs about 17 us per iterate
# one at a time and 5-6 us stacked 8-32 high, and whole fits ran as fast
# with blocks of 8, 16 or 32; the margins pairs of a block take at most
# _OBJECTIVE_BLOCK_BYTES
_OBJECTIVE_BLOCK = 16
_OBJECTIVE_BLOCK_BYTES = 2 ** 19

# twice the unit roundoff: every first-order rounding bound of the decrease
# certificate uses it, which leaves each room for its second-order terms
_EPS = float(np.finfo(float).eps)
# relative slack on the SVD's ||X|| in the loose certificate; LAPACK bounds
# the error of a computed singular value by a modest multiple of eps*||X||
_NORM_SLACK = 1e-8


@dataclass
class SolverConfig:
    """Stepsize rule, stopping parameters, and trace switches.

    ``alpha`` is the run's first stepsize under either rule.  Under the
    constant rule it is the stepsize, and defaults to 0.99x the largest
    admissible stepsize for the problem at hand (with momentum, at most
    0.99 * 4/||X||^2), or 1.0 when every stepsize is admissible (all-zero
    features and zeta = 0).  Under backtracking it is the first stepsize the
    search tries, and defaults to 0.49/(beta*zeta), or 1.0 where that is not
    finite (zeta = 0, or beta*zeta below about 2.7e-309).
    ``eta``, the factor by which the search shrinks a stepsize, is read
    only by backtracking, so the constant rule refuses any value but its
    default.
    """

    stepsize_rule: str = CONSTANT
    alpha: float | None = None
    eta: float = 0.5
    accelerate: bool = False
    eps_tol: float = 1e-8
    max_iters: int = 10000
    record_trace: bool = True

    def __post_init__(self):
        if self.stepsize_rule not in (CONSTANT, BACKTRACKING):
            raise ValueError(f"unknown stepsize rule {self.stepsize_rule!r}")
        for name in ("accelerate", "record_trace"):
            _check_bool(name, getattr(self, name))
        for name in ("alpha", "eta", "eps_tol"):
            # None is alpha's default
            if getattr(self, name) is not None or name != "alpha":
                setattr(self, name, _check_real(name, getattr(self, name)))
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.stepsize_rule == CONSTANT and self.eta != 0.5:
            raise ValueError(f"eta = {self.eta} has no effect under the constant "
                             "stepsize rule; only backtracking reads it")
        if not (np.isfinite(self.eps_tol) and self.eps_tol > 0):
            raise ValueError(f"eps_tol must be a positive real, got {self.eps_tol}")
        self.max_iters = _check_integer("max_iters", self.max_iters, 1)


class TraceRow(NamedTuple):
    objective: float
    step_norm: float
    residual: float
    stepsize: float


@dataclass
class FitResult:
    """Outcome of one :func:`fit`: a 1-D ``theta``, Python ``int``, ``bool``
    and ``float`` fields, and the trace rows (empty when not recorded)."""

    theta: np.ndarray
    iterations: int
    converged: bool
    final_objective: float
    trace: list[TraceRow]


class CellsResult(NamedTuple):
    """Outcome of :func:`fit_cells`: ``theta`` holds one row, and
    ``iterations``, ``converged`` and ``final_objective`` one array entry,
    per cell."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    final_objective: np.ndarray


def write_trace_csv(result: FitResult, path) -> None:
    """Export the iteration trace with columns iter,objective,step_norm,residual,stepsize."""
    _write_csv(path, ("iter",) + TraceRow._fields,
               ((k, *row) for k, row in enumerate(result.trace)))


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
    # beta*zeta first: 2*beta may overflow where beta*zeta does not
    denom = max(2.0 * (beta * spec.zeta), curvature)
    return 1.0 / denom if denom > 0 else np.inf


def prox_grad_step(theta, alpha: float, beta: float, spec: PenaltySpec, data: Dataset):
    """One update theta -> prox_{alpha*beta*J}(theta - alpha*grad(theta))."""
    beta = _check_beta(beta, spec)
    alpha = _check_real("alpha", alpha)
    g = loss_gradient(theta, data)
    return prox_vector(np.asarray(theta, dtype=float) - alpha * g, alpha * beta, spec)


def criticality_residual(theta, beta: float, spec: PenaltySpec, data: Dataset) -> float:
    """Distance to criticality: min over subgradients g of H of
    ||beta*g - 2*beta*zeta*theta + grad(theta)||_2, computed coordinatewise."""
    beta = _check_beta(beta, spec)
    g = loss_gradient(theta, data)
    return float(_residuals(_as_float_array(theta), g, beta, spec))


def _conditions(theta, grad, beta, spec):
    """What every criticality check compares: the target 2*zeta*theta - grad/beta
    and the one-sided derivatives (lo, hi) of H at theta.  Elementwise, so
    theta and grad may be (K, d) stacks of points and their gradients.

    At a tiny beta grad/beta may leave the float range; the target then
    reads +-inf, which every comparison with lo, hi or a tolerance ranks as
    it ranks the true value, so no warning is shown."""
    lo, hi = _convexified_derivatives(theta, spec)
    with np.errstate(over="ignore"):
        return 2.0 * spec.zeta * theta - grad / beta, lo, hi


def _violation(target, lo, hi):
    """Per coordinate, how far the target lies outside [lo, hi]: theta is
    critical within ``tol`` exactly where this is at most ``tol``."""
    # per coordinate the minimizing subgradient clamps the target into [lo, hi]
    return np.maximum(0.0, np.maximum(lo - target, target - hi))


def _residuals(theta, grad, beta, spec):
    """The criticality residual beta * ||v|| of each point, v its violation
    (the norm over the last axis), with the bits of ``v.dot(v)``'s square
    root.  Where that overflows, as at a tiny beta, where v ~ |grad|/beta,
    the norm is taken of beta*v, formed without the division, by hypot; so
    a residual reads inf only where it lies beyond the float range itself."""
    v = _violation(*_conditions(theta, grad, beta, spec))
    with np.errstate(over="ignore"):
        residuals = beta * np.sqrt(np.vecdot(v, v))
    far = np.isinf(residuals)
    if far.any():
        lo, hi = _convexified_derivatives(theta, spec)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.hypot.reduce(_violation(2.0 * beta * spec.zeta * theta - grad,
                                                beta * lo, beta * hi), axis=-1)
        residuals = np.where(far, scaled, residuals)
    return residuals


def _check_beta(beta, spec: PenaltySpec) -> float:
    """``beta``, or ``spec.beta`` for None, checked as :class:`PenaltySpec` checks it."""
    return spec.beta if beta is None else replace(spec, beta=beta).beta


def _extrapolate(theta, prev, t: float):
    """The momentum schedule's next base point and t: from t = t_k it
    returns theta + ((t_k - 1)/t_{k+1}) * (theta - prev) and t_{k+1}."""
    t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    return theta + ((t - 1.0) / t_next) * (theta - prev), t_next


def _backtrack(point, grad, point_loss, alpha, eta, beta, spec, evaluate):
    """Shrink alpha until the quadratic upper bound accepts the prox step.

    Returns (alpha, candidate, candidate margins pair, candidate loss).  The
    acceptance test gets a small additive slack so that cancellation noise
    near a fixed point cannot force spurious reductions.  The caller has
    checked the first prox weight alpha*beta; the search only shrinks
    alpha, so every trial weight is admissible too.
    """
    slack = 1e-12 * (1.0 + abs(point_loss))
    for _ in range(_MAX_BACKTRACK_REDUCTIONS + 1):
        # a huge trial stepsize may take the step or the loss beyond the float
        # range, and a trial stepsize that underflowed to 0 makes the bound's
        # last term inf or NaN; the test below rejects both, without numpy's
        # warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cand = _prox(point - alpha * grad, alpha * beta, spec)
            margins, cand_loss = evaluate(cand)
            diff = cand - point
            # vdot gives dot's bits and, unlike it, does not warn when it overflows
            bound = (point_loss + float(np.vdot(diff, grad))
                     + np.vdot(diff, diff) / (2.0 * alpha))
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
    alpha_prev = _check_real("alpha_prev", alpha_prev)
    theta_prev = _as_float_array(theta_prev)
    _check_weight(alpha_prev * beta, spec)
    grad = loss_gradient(theta_prev, data)
    evaluate, _, _ = _kernels(data)
    alpha, cand, _, _ = _backtrack(theta_prev, grad, loss(theta_prev, data), alpha_prev,
                                   config.eta, beta, spec, evaluate)
    return alpha, cand


def _initial_alpha(alpha, config: SolverConfig, spec: PenaltySpec, data: Dataset) -> float:
    """The run's first stepsize, ``alpha`` or the default of ``config``'s
    rule, checked against that rule's bound for ``spec`` (and its beta);
    ``alpha`` is None or a float, as ``_check_real`` returns it."""
    if config.stepsize_rule == CONSTANT:
        bound = max_constant_stepsize(None, spec, data)
        if alpha is None:
            # ||X|| = 0 and zeta = 0 bound nothing (the loss is constant):
            # take backtracking's default start there
            alpha = 0.99 * bound if math.isfinite(bound) else 1.0
            if config.accelerate:
                # momentum needs the quadratic majorization at every point,
                # i.e. alpha <= 1/L; the plain-descent bound is ~2x that
                norm = spectral_norm(data)
                if norm > 0:
                    alpha = min(alpha, 0.99 * 4.0 / (norm * norm))
        if not (0.0 < alpha < bound):
            raise ValueError(
                f"constant stepsize alpha = {alpha} is not admissible; it must lie "
                f"in (0, {bound}) for this problem"
            )
        return alpha
    if alpha is None:
        # 1.0 also where beta*zeta is so small that 0.49/(beta*zeta) overflows
        alpha = 0.49 / (spec.beta * spec.zeta) if spec.beta * spec.zeta > 0.49 / _MAX else 1.0
    if alpha <= 0 or not np.isfinite(alpha):
        raise ValueError(f"alpha must be a finite positive real, got {alpha}")
    if spec.beta * spec.zeta * alpha >= 0.5:
        raise ValueError(
            f"alpha = {alpha} violates beta*zeta*alpha < 1/2 "
            f"(beta*zeta = {spec.beta * spec.zeta:.6g})"
        )
    return alpha


def _trace_rows(before, points, grads, objectives, stepsizes, beta: float,
                spec: PenaltySpec) -> list[TraceRow]:
    """The trace rows of the (K, d) iterates ``points`` with their gradients,
    objectives and stepsizes, ``before`` holding each one's predecessor.

    One elementwise pass gives the criticality violations of the block and
    one subtraction its steps; one ``np.vecdot`` gives every row's squared
    step norm and squared residual.  It computes each row's sum as
    ``v.dot(v)`` does, so every column has the bits a per-iteration
    ``np.linalg.norm`` gives.  A step norm whose square overflows reads inf,
    as there, but without numpy's warning: a finite objective lets the fit
    go on.  The residuals are ``_residuals``', as ``criticality_residual``
    gives them.
    """
    steps = points - before
    with np.errstate(over="ignore"):
        step_norms = np.sqrt(np.vecdot(steps, steps)).tolist()
    residuals = _residuals(points, grads, beta, spec).tolist()
    return list(map(TraceRow, objectives, step_norms, residuals, stepsizes))


class _Job:
    """What the loop of :func:`_iterate` steps: :func:`fit` builds a
    :class:`_Block`, :func:`fit_cells` a :class:`_Descent`.

    A job holds what its step reads: the features ``X`` and their kernels
    from ``model._kernels`` (the first as ``margins_loss``), and ``beta``,
    the stepsize ``alpha`` (a fit's first one under backtracking), the prox
    ``weight``, the prox ``denominator`` 1 - 2*weight*zeta and the
    ``spec``, as floats and a :class:`PenaltySpec` for a fit and as per-row
    arrays and a :class:`_StackedSpec` for a stack.  It holds too the
    iterate ``theta`` that the next plain step starts from and its gradient
    ``grad`` (None where momentum moves the base point), and the starting
    point's ``loss`` and ``margins`` (a stack keeps its iterate's margins
    current).  :meth:`add` takes each new iterate and says whether
    the job is done; ``result`` gives a fit's :class:`FitResult` or a
    stack's :class:`CellsResult`.
    """

    def __init__(self, data: Dataset, config: SolverConfig, theta, beta, alpha, weight, spec):
        self.beta, self.alpha, self.weight, self.spec = beta, alpha, weight, spec
        # weight*zeta < 1/2 is checked, while 2*weight may overflow
        self.denominator = 1.0 - 2.0 * (weight * spec.zeta)
        self.margins_loss, self.gradient, self.loss_of = _kernels(data)
        # an overflow gives an infinite objective, which raises below
        with np.errstate(over="ignore"):
            self.margins = _margins(data.features, theta)
        self.loss, self.obj = _objectives(self.loss_of, self.margins, theta, beta, spec)
        _require_finite(np.isfinite(self.obj).all())
        self.theta, self.grad = theta, self.gradient(self.margins)
        self.X, self.eps_tol, self.max_iters = data.features, config.eps_tol, config.max_iters


class _Block(_Job):
    """The iterates of a fit whose objectives are still pending
    (see "Objectives per block" in the module docs).

    The fit's spec and first stepsize give the step's floats.  Each
    iterate's point, margins pair (under backtracking, its loss),
    stepsize and, for a traced fit, gradient go into preallocated rows.
    With momentum no step needs the iterate's margins or gradient, so the
    block computes them itself when it evaluates, as batches of one-point
    products into those rows: the margins from the points (constant rule),
    and the gradients of a traced fit from the margins, which under
    backtracking it keeps from the search.  A block that starts at
    iteration s holds min(s, cap, the iterations left) iterates; it is
    evaluated when full, at once when an iterate fails the finiteness
    guard, and when the backtracking search of the next step fails.  One
    stacked loss pass (none under backtracking) and one stacked penalty
    pass give the block's objectives, and the stall tests run on them in
    order.  The first stalled iterate, or a non-finite objective, ends the
    fit there.  Row 0 of ``points`` holds the last evaluated iterate, and
    ``obj`` its objective.
    """

    def __init__(self, data: Dataset, spec: PenaltySpec, alpha, config: SolverConfig, theta):
        super().__init__(data, config, theta, spec.beta, alpha,
                         _check_weight(alpha * spec.beta, spec), spec)
        X = self.X
        n, d = X.shape
        self.cap = max(1, min(_OBJECTIVE_BLOCK, _OBJECTIVE_BLOCK_BYTES // (16 * n)))
        self.points = np.empty((self.cap + 1, d))
        self.points[0] = theta
        self.z, self.e = np.empty((self.cap, n)), np.empty((self.cap, n))
        self.grads = np.empty((self.cap, d)) if config.record_trace else None
        self.stepsizes = [0.0] * self.cap
        backtrack, self.momentum = config.stepsize_rule == BACKTRACKING, config.accelerate
        # a backtracking search has computed each iterate's loss, from the
        # margins the constant rule's block stores or computes instead
        self.losses = [0.0] * self.cap if backtrack else None
        # with momentum no step reads the iterate's margins or gradient: the
        # block computes the margins from its points (constant rule) and the
        # gradients from the margins (traced), and keeps the search's margins
        # for those gradients (backtracking)
        self.keeps_margins = (not backtrack and not self.momentum
                              or backtrack and self.momentum and config.record_trace)
        self.labels = _RepeatedRows(data.labels.astype(float))
        # ||theta||^2 below this keeps the objective below 1e300 (see the
        # module docs); ||theta|| < 1e154 keeps its square finite.  ||X||_F
        # overflows to inf only when every limit would be 0 anyway.
        frobenius = math.sqrt(np.vdot(X, X))
        root = min(1e300 / (math.sqrt(n) * frobenius + spec.beta * math.sqrt(d)), 1e154)
        self.limit = root * root
        self.iterations, self.converged = config.max_iters, False
        # the first iteration of the block, its stored iterates and its length
        self.first, self.count, self.size = 1, 0, 1
        self.trace = []
        if self.grads is not None:
            # the starting point's step is theta - theta = 0 and its stepsize 0
            self.trace = _trace_rows(self.points[:1], self.points[:1], self.grad[None],
                                     [self.obj], [0.0], spec.beta, spec)

    def add(self, theta, margins, loss, stepsize: float) -> bool:
        """Store the next iterate with its stepsize and what the block does
        not compute itself, its margins pair and, under backtracking, its
        loss; without momentum, take its gradient from the margins for the
        next step (and the trace).  Whether an evaluated block ended the
        fit."""
        # with momentum the next step starts from the extrapolated point
        self.theta, self.grad = theta, None if self.momentum else self.gradient(margins)
        j = self.count
        self.points[j + 1] = theta
        if self.keeps_margins:
            self.z[j], self.e[j] = margins
        if self.losses is not None:
            self.losses[j] = loss
        if self.grad is not None and self.grads is not None:
            self.grads[j] = self.grad
        self.stepsizes[j] = stepsize
        self.count = j + 1
        # unlike dot, vdot does not warn when the square overflows to inf
        if self.count < self.size and np.vdot(theta, theta) < self.limit:
            return False
        return self.evaluate()

    def evaluate(self) -> bool:
        """Compute the stored iterates' objectives; whether one stalled."""
        m = self.count
        points, z, e = self.points[1:m + 1], self.z[:m], self.e[:m]
        # an overflow gives an infinite objective, which raises below
        with np.errstate(over="ignore"):
            if self.losses is not None:
                losses = np.array(self.losses[:m])
            else:
                if self.momentum:
                    # one gemv per row, the call of one point's product, and
                    # the pair of model._exp_pair in the block's own rows
                    np.matmul(points[:, None, :], self.X.T, out=z[:, None, :])
                    np.abs(z, out=e)
                    np.negative(e, out=e)
                    np.exp(e, out=e)
                losses = self.loss_of((z, e))
            objectives = (losses + self.spec.beta * _penalty_sum(points, self.spec)).tolist()
        last, eps_tol = self.obj, self.eps_tol
        for j, obj in enumerate(objectives):
            # objectives are >= 0 and the last one was finite, so a change is
            # finite exactly when obj is (NaN fails both comparisons)
            if not eps_tol < abs(obj - last) < math.inf:
                _require_finite(math.isfinite(obj))
                m, self.converged = j + 1, True
                break
            last = obj
        if self.grads is not None:
            if self.momentum:
                # (sigmoid(z) - y) @ X as the gradient kernel computes it, one
                # gemv per row
                residual = _probabilities(z[:m], e[:m])
                residual -= self.labels.like(residual)
                np.matmul(residual[:, None, :], self.X, out=self.grads[:m, None, :])
            self.trace += _trace_rows(self.points[:m], self.points[1:m + 1], self.grads[:m],
                                      objectives[:m], self.stepsizes[:m], self.spec.beta,
                                      self.spec)
        self.points[0], self.obj = self.points[m], objectives[m - 1]
        self.first += m
        self.count = 0
        if self.converged:
            self.iterations = self.first - 1
            return True
        self.size = min(self.first, self.cap, self.max_iters + 1 - self.first)
        return False

    def result(self) -> FitResult:
        return FitResult(self.points[0].copy(), self.iterations, self.converged, self.obj,
                         self.trace)


class _Descent(_Job):
    """A plain constant-step stack and its sufficient-decrease certificate
    (see "Skipping the objective" in the module docs).

    Per running row it holds the cell's index, its step parameters, its
    iterate with its margins and last computed objective, and whether that
    objective is stale (of an earlier iterate); per cell, the entries of
    its :class:`CellsResult` ``cells``, filled as the cell stalls.  For
    the certificate it holds per running row lower bounds of D's two
    coefficients, the coefficients of the floor, and ||theta||_1 of the
    last iterate.  With n the sum of ||theta||_1 over the step's two
    iterates, s the step's norm and F_r the row's last computed objective,
    the floor is

        base_r + n*(e1_r + e2_r*n) + s*(e3_r + e4_r*n),
        base_r = eps_tol*(1 + 4*eps) + 2*(N+d+16)*eps*(1 + F_r).

    Its terms in s are paid from a share h_r of D's coefficient instead,
    s*x <= h_r*s^2 + x^2/(4*h_r), so that a check costs no square root: D
    loses h_r*s^2 and the floor becomes a quadratic in n alone.
    """

    def __init__(self, data: Dataset, specs, steps, config: SolverConfig, theta):
        X = data.features
        n, d = X.shape
        weights = [_check_weight(a * s.beta, s) for a, s in zip(steps, specs)]
        super().__init__(data, config, theta, np.array([s.beta for s in specs]),
                         _repeat_rows(steps, d), _repeat_rows(weights, d),
                         _StackedSpec.of(specs, d))
        self.rows, self.iteration, self.stale = np.arange(len(specs)), 0, False
        self.cells = CellsResult(np.empty_like(theta), np.full(len(specs), config.max_iters),
                                 np.zeros(len(specs), dtype=bool), np.empty_like(self.obj))
        # a stepsize or a weight at the edge of the float range may take a
        # coefficient to inf or NaN: its row's floor is then inf or NaN, or
        # its D NaN, which fails every comparison in proves
        with np.errstate(over="ignore", invalid="ignore"):
            eps, beta = _EPS, self.beta
            norm = spectral_norm(data)
            col = float(np.abs(X).sum(axis=0).max())
            grad_bound = norm * math.sqrt(n) + math.sqrt(d) * (n + 2) * eps * col
            inv_alpha = 1.0 / self.alpha[:, 0]
            kappa = 4.0 + 6.0 / self.denominator[:, 0]
            # D's coefficients rounded down, also for the rounding of ||Delta||^2
            shrink = 1.0 - (d + 6) * eps
            tight = (inv_alpha - beta * self.spec.zeta[:, 0] - 10.0 * eps * inv_alpha) * shrink
            loose = tight - norm * norm * (1.0 + _NORM_SLACK) / 8.0 * shrink
            # a loose coefficient <= 0 certifies nothing; tight is > 0 for every
            # admissible stepsize
            share = np.maximum(loose / 16.0, tight / 1024.0)
            self.tight, self.loose = tight - share, loose - share
            self.margin = (d + 2) * eps * col
            e1 = self.margin + kappa * eps * (beta + grad_bound) * (1.0 + 3.0 * eps)
            e2 = 2.0 * kappa * (kappa + 2.0) * eps * eps * inv_alpha
            e3 = (math.sqrt(d) * (n + 2) * eps * col + 11.0 * eps * math.sqrt(n) * norm
                  + 3.0 * eps * grad_bound + eps * math.sqrt(d) * beta)
            e4 = self.margin * norm / 4.0 + (3.0 + 2.0 * kappa) * eps * inv_alpha
            # (e3 + e4*n)^2 / (4*share), expanded in n
            self.tol = self.eps_tol * (1.0 + 4.0 * eps) + e3 * e3 / (4.0 * share)
            self.e1 = e1 + e3 * e4 / (2.0 * share)
            self.e2 = e2 + e4 * e4 / (4.0 * share)
            self.sums = 2.0 * (n + d + 16) * eps
            self.norm_root = 1.0 + (n + 4) * eps
            self.ones = np.ones(d)
            # ||theta||_1 of the last iterate
            self.norm1 = np.vecdot(np.abs(theta), self.ones)
            self.rebase()

    def rebase(self) -> None:
        """Base the floor on ``obj``, the rows' last computed objectives."""
        self.base = self.tol + self.sums * (1.0 + self.obj)

    def take(self, rows) -> None:
        """Keep the rows at ``rows`` (a mask) only, in every per-row array."""
        for name in ("rows", "beta", "alpha", "weight", "denominator", "theta", "obj",
                     "tight", "loose", "tol", "e1", "e2", "norm1"):
            setattr(self, name, getattr(self, name)[rows])
        self.spec = self.spec.take(rows)
        self.margins = tuple(part[rows] for part in self.margins)

    # an infinite coefficient times a zero ||theta||_1 is NaN, and a huge
    # beta or 1/alpha may overflow a term: NaN and inf fail every comparison
    # below, so they prove nothing, without numpy's warning
    @np.errstate(over="ignore", invalid="ignore")
    def proves(self, theta, new, z, z_new) -> bool:
        """Whether no row can stall at the step ``theta`` -> ``new``, whose
        margins are ``z`` and ``z_new``."""
        # a vecdot with ones costs less than a sum here; a row of NaN or inf
        # fails every comparison below
        norm1 = np.vecdot(np.abs(new), self.ones)
        both, self.norm1 = self.norm1 + norm1, norm1
        step = new - theta
        sq = np.vecdot(step, step)
        floor = self.base + both * (self.e1 + self.e2 * both)
        if np.count_nonzero(floor < self.loose * sq) == len(sq):
            return True
        diff = z_new - z
        # ||X Delta|| from above: the margins' rounding at both iterates
        image = np.sqrt(np.vecdot(diff, diff)) * self.norm_root + self.margin * both
        image *= image
        return np.count_nonzero(
            floor < self.tight * sq - image * (1.0 + 4.0 * _EPS) / 8.0) == len(sq)

    def add(self, new, margins, loss, stepsize) -> bool:
        """Take the step to ``new``, whose margins are ``margins``: the
        certificate or the objectives' stall tests; whether every cell has
        stalled.  A stalled cell leaves with its iterate, objective and
        iteration count.  ``loss`` and ``stepsize`` are a fit's: a stack
        under the constant rule reads neither."""
        self.iteration = k = self.iteration + 1
        if k < self.max_iters and self.proves(self.theta, new, self.margins[0], margins[0]):
            self.theta, self.margins, self.stale = new, margins, True
            self.grad = self.gradient(margins)
            return False
        if self.stale:
            # from theta's margins, the product on this same stack
            self.obj = _objectives(self.loss_of, self.margins, self.theta, self.beta,
                                   self.spec)[1]
        obj = _objectives(self.loss_of, margins, new, self.beta, self.spec)[1]
        change = (obj - self.obj).tolist()
        self.theta, self.margins, self.obj, self.stale = new, margins, obj, False
        # objectives are >= 0 and were finite, so a change is finite exactly
        # when the new objective is (NaN fails both comparisons)
        if not all(self.eps_tol < abs(c) < math.inf for c in change):
            _require_finite(np.isfinite(obj).all())
            stalled = np.abs(change) <= self.eps_tol
            done, cells = self.rows[stalled], self.cells
            cells.theta[done], cells.final_objective[done] = new[stalled], obj[stalled]
            cells.iterations[done], cells.converged[done] = k, True
            self.take(~stalled)
            if not self.rows.size:
                return True
        self.rebase()
        self.grad = self.gradient(self.margins)
        return False

    def result(self) -> CellsResult:
        self.cells.theta[self.rows], self.cells.final_objective[self.rows] = self.theta, self.obj
        return self.cells


def fit(data: Dataset, beta: float, spec: PenaltySpec, config: SolverConfig,
        theta0=None) -> FitResult:
    """Run the proximal gradient iteration until the objective stalls.

    ``beta`` may be None to use ``spec.beta``.  ``config.accelerate`` adds
    the momentum schedule; the objective, the trace and the returned point
    are then those of the prox outputs, not of the extrapolated base points.
    Either stepsize rule steps the 1-D point in the loop that
    :func:`fit_cells` runs, and computes the objectives per block of
    iterates (see "Objectives per block" in the module docs), with
    momentum also the iterates' margins and trace gradients, which no step
    reads: a fit that stalls at k has taken at most min(k, 16) - 1 steps
    past it, which it drops, together with a backtracking failure among
    them, and a cheap bound on ||theta|| makes a non-finite objective raise
    at the iteration that made it.  Results keep the bits of a
    per-iteration objective, margins and gradient.
    """
    # the run's spec, its beta checked once
    spec = spec if beta is None else replace(spec, beta=beta)
    # the loop writes into no point it was given
    theta = np.zeros(data.n_features) if theta0 is None else _check_theta(theta0, data)
    alpha = _initial_alpha(config.alpha, config, spec, data)
    return _iterate(_Block(data, spec, alpha, config, theta), config)


def fit_cells(data: Dataset, cells, alphas, eps_tol: float = 1e-8,
              max_iters: int = 10000) -> CellsResult:
    """Fit every (beta, zeta) cell of ``cells`` on ``data`` in one loop;
    the :class:`CellsResult` holds one row or entry per cell.

    Cell c runs what :func:`fit` runs from zeros with the constant stepsize
    ``alphas[c]`` (None for the default), no momentum and no trace, and
    stops where ``fit`` would.  Each cell's stepsize and prox weight are
    checked before the first iteration, and a non-finite objective of any
    running cell raises :class:`NumericalError`.

    The cells run as the rows of one (C, d) stack, one cell included.  The
    objective only feeds the stall test, so an iteration skips it when, for
    every running cell, the sufficient decrease
    F(theta_k) <= F(theta_{k-1}) - D of the module docs (the loose bound
    D >= (1/alpha - beta*zeta - ||X||^2/8)*||Delta||^2 first, the tight D
    with ||X Delta|| when that fails) exceeds a floor covering ``eps_tol``
    and the rounding of the objectives and of the step.  On fig3's grid
    that skips 90-98% of them.  Every iteration but a capped last one is
    checked; one the check does not prove, and the last, computes the
    objective as always, so iterates, objectives, iteration counts and
    stall flags keep their bits.
    """
    if not cells or len(alphas) != len(cells):
        raise ValueError(f"need one stepsize per cell and at least one cell, got "
                         f"{len(alphas)} for {len(cells)}")
    config = SolverConfig(eps_tol=eps_tol, max_iters=max_iters, record_trace=False)
    specs = [PenaltySpec(zeta=zeta, beta=beta) for beta, zeta in cells]
    steps = [_initial_alpha(a if a is None else _check_real("alpha", a), config, s, data)
             for a, s in zip(alphas, specs)]
    return _iterate(_Descent(data, specs, steps, config,
                             np.zeros((len(specs), data.n_features))), config)


def _iterate(job: _Job, config: SolverConfig) -> FitResult | CellsResult:
    """Step ``job`` from its starting point until it says it is done, and
    return its result.  ``config`` gives the stepsize rule, ``eta`` and
    ``accelerate``; the job gives the kernels, the step's parameters (its
    ``alpha`` is a backtracking search's first stepsize) and the stop.  The
    loop branches only on the stepsize rule and on momentum."""
    X, accelerate, evaluate = job.X, config.accelerate, job.margins_loss
    backtrack = config.stepsize_rule == BACKTRACKING
    # the points the next step starts from, their gradients and (backtracking)
    # their loss
    base, grad, base_loss, step, t = job.theta, job.grad, job.loss, job.alpha, 1.0
    for _ in range(config.max_iters):
        if backtrack:
            try:
                step, new, margins, base_loss = _backtrack(
                    base, grad, base_loss, step, config.eta, job.beta, job.spec, evaluate)
            except NumericalError:
                # only a fit backtracks: a step past a stall is dropped, and
                # its failure with it
                if job.count and job.evaluate():
                    break
                raise
        else:
            grad *= job.alpha
            np.subtract(base, grad, out=grad)
            new = _prox(grad, job.weight, job.spec, job.denominator)
            # with momentum the block computes the iterate's margins
            margins = None if accelerate else _margins(X, new)
        prev = job.theta
        # base_loss is the iterate's loss under backtracking
        if job.add(new, margins, base_loss, step):
            break
        if accelerate:
            base, t = _extrapolate(new, prev, t)
            margins_base = _margins(X, base)
            grad = job.gradient(margins_base)
            if backtrack:
                base_loss = job.loss_of(margins_base)
        else:
            base, grad = job.theta, job.grad
    return job.result()


def _objectives(loss_of, margins, points, beta, spec):
    """The losses and the objectives loss + beta*J of ``points`` from their
    margins.  An overflow makes an objective inf, which the caller raises as
    :class:`NumericalError`, so numpy does not warn of it."""
    with np.errstate(over="ignore"):
        losses = loss_of(margins)
        return losses, losses + beta * _penalty_sum(points, spec)


def _require_finite(finite: bool) -> None:
    if not finite:
        raise NumericalError(
            "objective became non-finite; the data or stepsize is pathological"
        )
