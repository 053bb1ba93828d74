"""Weakly convex sparsity penalty (minimax concave / MCP family) and its prox.

The scalar penalty with nonconvexity parameter ``zeta >= 0`` is

    F(t) = |t| - zeta*t^2      for |t| <= 1/(2*zeta)
    F(t) = 1/(4*zeta)          for |t| >  1/(2*zeta)

``zeta = 0`` pushes the plateau to infinity and degenerates to the l1
penalty F(t) = |t|, so the convex baseline shares this code path.  The
convexified companion

    H(t) = F(t) + zeta*t^2

is convex; its one-sided derivatives drive the optimality checks.  The
proximal operator of ``w*F`` (firm shrinkage) is closed form whenever the
strong-convexity condition ``w*zeta < 1/2`` holds:

    prox(v) = 0                              for |v| <  w
    prox(v) = (v - w*sign(v)) / (1 - 2*w*zeta)  for w <= |v| <= 1/(2*zeta)
    prox(v) = v                              for |v| >  1/(2*zeta)

The public functions check their inputs (finite values, a well-posed prox
weight) and then call the private kernels, which the solver calls directly.
The kernels also apply C specs at once to the rows of a (C, d) array: the
spec is then a :class:`_StackedSpec` and the prox weight a (C, d) array
whose row c repeats cell c's weight.  They work in place where they can:
the prox computes the shrunk value and then overwrites the identity and
zero branches through two masks, and takes its denominator 1 - 2*w*zeta
from a caller that computed it once.  Each keeps the bits of the nested
``where`` formulas that the tests hold as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MCP = "mcp"

_MAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float

__all__ = [
    "MCP",
    "PenaltySpec",
    "penalty_value",
    "penalty_total",
    "prox_scalar",
    "prox_vector",
    "penalty_derivatives",
    "convexified_derivatives",
    "convexified_second_derivatives",
]


@dataclass(frozen=True)
class PenaltySpec:
    """Parameters of the separable penalty ``J(x) = sum_i F(x_i)``.

    ``beta`` is the weight the objective puts on ``J``; solver and
    certification entry points accept it explicitly and this field acts as
    the bundled default.  ``zeta`` may be at most 1/4 of the largest float
    and ``beta`` no smaller than the smallest normal float.
    """

    zeta: float
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "zeta", float(self.zeta))
        object.__setattr__(self, "beta", float(self.beta))
        if not np.isfinite(self.zeta) or self.zeta < 0:
            raise ValueError(f"zeta must be a finite nonnegative real, got {self.zeta}")
        if not np.isfinite(4.0 * self.zeta):
            # F's plateau value 1/(4*zeta) would read 0
            raise ValueError(f"zeta must be at most {_MAX / 4.0!r}, got {self.zeta}")
        if not np.isfinite(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be a finite positive real, got {self.beta}")
        if self.beta < _TINY:
            # grad/beta, which every criticality check computes, would overflow
            raise ValueError(f"beta must be at least the smallest normal float "
                             f"{_TINY!r}, got {self.beta}")

    @property
    def plateau_start(self) -> float:
        """|t| beyond which F is constant and the prox is the identity."""
        return 1.0 / (2.0 * self.zeta) if self.zeta > 0 else np.inf

    @property
    def plateau_value(self) -> float:
        """Constant value of F on the plateau (infinite for zeta = 0)."""
        return 1.0 / (4.0 * self.zeta) if self.zeta > 0 else np.inf


def _repeat_rows(values, width: int) -> np.ndarray:
    """(C, width) array whose row c repeats values[c]; elementwise operations
    on it are cheaper than broadcasting a (C, 1) column."""
    return np.repeat(np.asarray(values, dtype=float)[:, None], width, axis=1)


class _StackedSpec(NamedTuple):
    """The parameters of C specs as (C, d) arrays, row c repeating spec c's:
    with it the kernels treat row c of a (C, d) array exactly as they treat
    a vector under spec c."""

    zeta: np.ndarray
    plateau_start: np.ndarray
    plateau_value: np.ndarray

    @classmethod
    def of(cls, specs, width: int) -> "_StackedSpec":
        return cls(*(_repeat_rows([getattr(s, name) for s in specs], width)
                     for name in cls._fields))

    def take(self, rows) -> "_StackedSpec":
        """The stack of the specs at ``rows`` (an index array or a mask)."""
        return _StackedSpec(*(array[rows] for array in self))


def _as_float_array(t):
    a = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("penalty input must be finite")
    return a


def _penalty_values(theta, spec: PenaltySpec):
    """F elementwise; ``theta`` has at least one dimension."""
    a = np.abs(theta)
    inner = spec.zeta * a
    inner *= a
    np.subtract(a, inner, out=inner)
    # at zeta = 0 the plateau starts at infinity, so every finite a is inner
    return np.where(a <= spec.plateau_start, inner, spec.plateau_value)


def _penalty_sum(theta, spec: PenaltySpec):
    """J(theta) as a float, or one sum per row of stacked points."""
    sums = _penalty_values(theta, spec).sum(axis=-1)
    return sums if sums.ndim else float(sums)


def _prox(v, w, spec: PenaltySpec, denominator=None):
    """Firm shrinkage of ``v`` (at least one dimension) with weight ``w``.

    ``denominator`` is 1 - 2*w*zeta, computed here when not given: a caller
    that applies one weight on every iteration computes it once.
    """
    if denominator is None:
        denominator = 1.0 - 2.0 * w * spec.zeta
    a = np.abs(v)
    # v - w*sign(v) wherever the result is kept: there |v| >= w > 0, or v is
    # NaN and so is the result
    out = np.copysign(w, v)
    np.subtract(v, out, out=out)
    out /= denominator
    np.putmask(out, a > spec.plateau_start, v)
    np.putmask(out, a < w, 0.0)
    return out


def _one_sided(a, smooth):
    """(left, right) derivatives: ``smooth`` away from 0, -1 and +1 at the kink."""
    kink = a == 0.0
    return np.where(kink, -1.0, smooth), np.where(kink, 1.0, smooth)


def _slope(a, spec: PenaltySpec):
    return np.where(np.abs(a) <= spec.plateau_start, np.sign(a) - 2.0 * spec.zeta * a, 0.0)


def _convexified_derivatives(a, spec: PenaltySpec):
    # at the kink 2*zeta*a is zero, so -1 and +1 need no correction
    return _one_sided(a, _slope(a, spec) + 2.0 * spec.zeta * a)


def _maybe_scalar(out, like):
    return out.item() if np.ndim(like) == 0 else out


def _checked_values(t, spec: PenaltySpec):
    """F elementwise at the checked ``t``.  Beyond |t| ~ 1e154 the square
    overflows, but F there is its finite plateau value, so numpy's overflow
    warning is not shown (at zeta = 0 the product is 0 and cannot overflow)."""
    a = np.atleast_1d(_as_float_array(t))
    with np.errstate(over="ignore"):
        return _penalty_values(a, spec)


def penalty_value(t, spec: PenaltySpec):
    """Evaluate F elementwise."""
    return _maybe_scalar(_checked_values(t, spec), t)


def penalty_total(theta, spec: PenaltySpec) -> float:
    """Separable penalty J(theta) = sum_i F(theta_i)."""
    return float(_checked_values(theta, spec).sum(axis=-1))


def _check_weight(weight: float, spec: PenaltySpec) -> float:
    weight = float(weight)
    if not math.isfinite(weight) or weight <= 0:
        raise ValueError(f"prox weight must be a finite positive real, got {weight}")
    if weight * spec.zeta >= 0.5:
        raise ValueError(
            "prox is not well posed: weight*zeta = "
            f"{weight * spec.zeta:.6g} but the strong-convexity condition "
            "requires weight*zeta < 1/2"
        )
    return weight


def prox_vector(v, weight: float, spec: PenaltySpec):
    """Elementwise minimizer of  w*F(u) + (u - v)^2 / 2  (firm shrinkage)."""
    w = _check_weight(weight, spec)
    v = _as_float_array(v)
    return _maybe_scalar(_prox(np.atleast_1d(v), w, spec), v)


def prox_scalar(v: float, weight: float, spec: PenaltySpec) -> float:
    return float(prox_vector(float(v), weight, spec))


def penalty_derivatives(t, spec: PenaltySpec):
    """One-sided derivatives (left, right) of F; they differ only at 0."""
    a = _as_float_array(t)
    left, right = _one_sided(a, _slope(a, spec))
    return _maybe_scalar(left, t), _maybe_scalar(right, t)


def convexified_derivatives(t, spec: PenaltySpec):
    """One-sided derivatives (left, right) of H(t) = F(t) + zeta*t^2."""
    left, right = _convexified_derivatives(_as_float_array(t), spec)
    return _maybe_scalar(left, t), _maybe_scalar(right, t)


def convexified_second_derivatives(t, spec: PenaltySpec):
    """One-sided second derivatives (left, right) of H.

    For MCP these are 0 inside the kink radius and 2*zeta beyond it; at
    |t| = 1/(2*zeta) the inner side is 0 and the outer side 2*zeta.
    """
    a = np.asarray(_as_float_array(t))
    p = spec.plateau_start
    outer = 2.0 * spec.zeta
    beyond = np.abs(a) > p
    left = np.where(beyond | (a == -p), outer, 0.0)
    right = np.where(beyond | (a == p), outer, 0.0)
    return _maybe_scalar(left, t), _maybe_scalar(right, t)
