"""Optimality certification for the regularized logistic objective.

A point theta is critical when, coordinatewise,

    H'_-(theta_i) <= 2*zeta*theta_i - grad(theta)_i / beta <= H'_+(theta_i)

with H the convexified penalty.  Strict interior membership at kinks, or
equality plus enough one-sided curvature (H'' >= 2*zeta) at smooth
coordinates, is sufficient for a local minimum; the necessary version
relaxes the inequalities and lowers the curvature requirement by
||X||^2 / (4*beta).

For the MCP penalty with beta*zeta > ||X||^2 / 8 the two collapse to an
exact characterization: theta is a local minimizer iff every coordinate
has either  theta_j = 0 and |grad_j| < beta,  or  |theta_j| > 1/(2*zeta)
and grad_j = 0.  ``check_mcp_local_opt`` classifies each coordinate
against that characterization and assembles the full report.

The four ``check_*`` functions take ``beta = None`` to mean ``spec.beta``,
and refuse a beta that :class:`PenaltySpec` refuses with ``ValueError``,
and so a tolerance (``tol``, ``grad_tol``, ``margin``) that is not a
finite real >= 0: NaN would pass or fail a comparison by its side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, _check_real, loss_gradient, spectral_norm
from .penalty import PenaltySpec, _as_float_array, convexified_second_derivatives
from .solver import _check_beta, _conditions, _violation

CASE_ZERO_STRICT = "zero_strict"
CASE_ZERO_BOUNDARY = "zero_boundary"
CASE_ACTIVE_ABOVE_KINK = "active_above_kink"
CASE_INNER_REGION = "inner_region"
CASE_GRADIENT_NONZERO = "gradient_nonzero"

# final iterates beyond this norm suggest the solver escaped along a
# separating direction rather than settling at a finite minimizer
SEPARABLE_ESCAPE_NORM = 1e3

__all__ = [
    "CASE_ZERO_STRICT",
    "CASE_ZERO_BOUNDARY",
    "CASE_ACTIVE_ABOVE_KINK",
    "CASE_INNER_REGION",
    "CASE_GRADIENT_NONZERO",
    "SEPARABLE_ESCAPE_NORM",
    "CoordinateVerdict",
    "CertificateReport",
    "is_problem_nonconvex",
    "beta_threshold",
    "check_critical_point",
    "check_sufficient_local_opt",
    "check_necessary_local_opt",
    "check_mcp_local_opt",
]


@dataclass
class CoordinateVerdict:
    index: int
    case: str
    theta_abs: float
    grad_abs: float
    passes: bool


@dataclass
class CertificateReport:
    """Bundle of every optimality check on one (theta, problem) pair."""

    per_coordinate: list[CoordinateVerdict]
    is_critical_point: bool
    satisfies_sufficient: bool
    satisfies_necessary: bool
    mcp_iff_applicable: bool
    mcp_iff_verdict: bool | None
    beta_threshold: float | None
    problem_nonconvex: bool
    possible_separable_escape: bool

    def to_text(self) -> str:
        lines = [f"problem nonconvex (rank-deficient features): {_yn(self.problem_nonconvex)}"]
        if self.beta_threshold is None:
            lines.append("zero-solution beta threshold: unavailable (data not centered)")
        else:
            lines.append(f"zero-solution beta threshold: {self.beta_threshold!r}")
        lines.append(f"critical point: {_yn(self.is_critical_point)}")
        lines.append(f"sufficient local-optimality condition: {_yn(self.satisfies_sufficient)}")
        lines.append(f"necessary local-optimality condition: {_yn(self.satisfies_necessary)}")
        if self.mcp_iff_applicable:
            lines.append(f"exact MCP characterization applies: yes; local minimum: "
                         f"{_yn(bool(self.mcp_iff_verdict))}")
        else:
            lines.append("exact MCP characterization applies: no (requires beta*zeta > ||X||^2/8)")
        if self.possible_separable_escape:
            lines.append("warning: ||theta|| > 1e3, possible separable-escape run")
        lines.append("per-coordinate cases:")
        for row in self.per_coordinate:
            status = "ok" if row.passes else "FAIL"
            lines.append(
                f"  [{row.index}] {row.case}: |theta| = {row.theta_abs:.6g}, "
                f"|grad| = {row.grad_abs:.6g} ({status})"
            )
        return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def is_problem_nonconvex(data: Dataset) -> bool:
    """True when the feature matrix has numerical rank below the dimension,
    which makes the regularized objective nonconvex for every zeta > 0."""
    s = data._singular_values  # the rank as matrix_rank counts it, above s_max*max(N, d)*eps
    rank = np.count_nonzero(s > s[0] * (max(data.features.shape) * np.finfo(float).eps))
    return bool(rank < data.n_features)


def beta_threshold(data: Dataset, spec: PenaltySpec) -> float:
    """Smallest beta at which theta = 0 becomes a local minimizer.

    Equals ||sum of positive-class samples||_inf / F'_+(0), and MCP's slope
    F'_+(0) is 1 for every zeta.  Only meaningful when every feature column
    sums to zero, i.e. on centered data without an intercept column.
    """
    if not data.centered:
        raise ValueError("beta_threshold requires centered data")
    if data.has_intercept:
        raise ValueError(
            "beta_threshold is undefined with an intercept column: the constant "
            "feature cannot sum to zero"
        )
    pos_sum = data.features[data.labels == 1].sum(axis=0)
    return float(np.max(np.abs(pos_sum)))


_ZERO_LOCAL_MINIMUM = "local minimum (beta above the threshold)"


def _zero_vector_status(beta: float, threshold: float) -> str:
    """Whether theta = 0 is a local minimizer at ``beta``, given the
    zero-solution threshold: a beta within 1e-12 (relative) of it is a tie,
    which rounding in the threshold cannot decide."""
    if abs(beta - threshold) <= 1e-12 * max(abs(beta), abs(threshold)):
        return "indeterminate (beta equals the threshold within rounding)"
    if beta > threshold:
        return _ZERO_LOCAL_MINIMUM
    return "not a critical point (beta below the threshold)"


def _check_tolerance(name: str, value) -> float:
    value = _check_real(name, value)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be a finite nonnegative real, got {value!r}")
    return value


def check_critical_point(theta, beta: float, spec: PenaltySpec, data: Dataset,
                         tol: float = 0.0) -> bool:
    """Coordinatewise subgradient inclusion test with additive slack ``tol``."""
    beta, tol = _check_beta(beta, spec), _check_tolerance("tol", tol)
    theta, grad = _point_and_gradient(theta, data)
    return _is_critical(_violation(*_conditions(theta, grad, beta, spec)), tol)


def check_sufficient_local_opt(theta, beta: float, spec: PenaltySpec, data: Dataset,
                               tol: float = 0.0) -> bool:
    """Sufficient condition: strict interior membership at kinks, or gradient
    match plus one-sided curvature H'' >= 2*zeta at smooth coordinates."""
    beta, tol = _check_beta(beta, spec), _check_tolerance("tol", tol)
    theta, grad = _point_and_gradient(theta, data)
    return _is_local_opt(theta, *_conditions(theta, grad, beta, spec), spec, tol,
                         curvature_floor=2.0 * spec.zeta, strict_kinks=True)


def check_necessary_local_opt(theta, beta: float, spec: PenaltySpec, data: Dataset,
                              tol: float = 0.0) -> bool:
    """Necessary condition: non-strict inclusion at kinks, and curvature floor
    lowered by ||X||^2 / (4*beta) at smooth coordinates."""
    beta, tol = _check_beta(beta, spec), _check_tolerance("tol", tol)
    norm = spectral_norm(data)
    theta, grad = _point_and_gradient(theta, data)
    return _is_local_opt(theta, *_conditions(theta, grad, beta, spec), spec, tol,
                         curvature_floor=_necessary_floor(beta, spec, norm), strict_kinks=False)


def _point_and_gradient(theta, data: Dataset):
    """theta as a finite float array, and its loss gradient (which checks its width)."""
    theta = _as_float_array(theta)
    return theta, loss_gradient(theta, data)


def _necessary_floor(beta, spec, norm) -> float:
    return 2.0 * spec.zeta - 0.25 * norm * norm / beta


def _is_critical(violation, tol) -> bool:
    return bool(np.all(violation <= tol))


def _is_local_opt(theta, target, lo, hi, spec, tol, curvature_floor, strict_kinks) -> bool:
    cl, cr = convexified_second_derivatives(theta, spec)
    violation = _violation(target, lo, hi)
    if strict_kinks:
        kink_ok = (lo < target) & (target < hi)
    else:
        kink_ok = violation <= tol
    # written as failures, so that a NaN comparison passes as it does
    # coordinatewise; at a smooth coordinate lo = hi, so the violation is |target - lo|
    smooth_fails = (violation > tol) | (cl < curvature_floor) | (cr < curvature_floor)
    # the penalty's one kink is at 0
    return not np.any(np.where(theta == 0.0, ~kink_ok, smooth_fails))


def check_mcp_local_opt(theta, beta: float, spec: PenaltySpec, data: Dataset,
                        grad_tol: float | None = None,
                        margin: float | None = None) -> CertificateReport:
    """Classify every coordinate against the exact MCP characterization and
    build the full certificate report.

    Defaults: ``grad_tol = 1e-6 * (1 + ||X||)`` for treating an active
    coordinate's gradient as zero, ``margin = 1e-9 * beta`` for calling a
    zero coordinate's gradient magnitude a tie with beta.
    """
    beta = _check_beta(beta, spec)
    norm = spectral_norm(data)
    grad_tol = 1e-6 * (1.0 + norm) if grad_tol is None else _check_tolerance("grad_tol", grad_tol)
    margin = 1e-9 * beta if margin is None else _check_tolerance("margin", margin)
    theta, grad = _point_and_gradient(theta, data)
    kink_radius = spec.plateau_start

    rows = []
    for j, (ta, ga) in enumerate(zip(np.abs(theta).tolist(), np.abs(grad).tolist())):
        if ta == 0.0:
            if ga < beta - margin:
                case, ok = CASE_ZERO_STRICT, True
            elif ga <= beta + margin:
                case, ok = CASE_ZERO_BOUNDARY, False
            else:
                case, ok = CASE_GRADIENT_NONZERO, False
        elif ta > kink_radius:
            if ga <= grad_tol:
                case, ok = CASE_ACTIVE_ABOVE_KINK, True
            else:
                case, ok = CASE_GRADIENT_NONZERO, False
        else:
            case, ok = CASE_INNER_REGION, False
        rows.append(CoordinateVerdict(j, case, ta, ga, ok))

    applicable = beta * spec.zeta > 0.125 * norm * norm
    verdict = all(r.passes for r in rows) if applicable else None
    slack = grad_tol / beta

    try:
        threshold = beta_threshold(data, spec)
    except ValueError:
        threshold = None

    conditions = _conditions(theta, grad, beta, spec)
    with np.errstate(over="ignore"):  # a norm beyond the float range reads inf
        escape = bool(np.linalg.norm(theta) > SEPARABLE_ESCAPE_NORM)
    return CertificateReport(
        per_coordinate=rows,
        is_critical_point=_is_critical(_violation(*conditions), slack),
        satisfies_sufficient=_is_local_opt(theta, *conditions, spec, slack,
                                           curvature_floor=2.0 * spec.zeta, strict_kinks=True),
        satisfies_necessary=_is_local_opt(theta, *conditions, spec, slack,
                                          curvature_floor=_necessary_floor(beta, spec, norm),
                                          strict_kinks=False),
        mcp_iff_applicable=applicable,
        mcp_iff_verdict=verdict,
        beta_threshold=threshold,
        problem_nonconvex=is_problem_nonconvex(data),
        possible_separable_escape=escape,
    )
