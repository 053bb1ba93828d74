"""Penalty values, one-sided derivatives, and the firm-shrinkage prox.

The prox is validated against an independent brute-force oracle: dense
grid minimization of  w*F(u) + (u - v)^2 / 2  over a wide interval, which
never touches the closed-form region logic.
"""

import warnings

import numpy as np
import pytest
from helpers import mcp_value_reference, prox_grid_oracle, random_prox_case

from wclogit.penalty import (
    PenaltySpec,
    convexified_derivatives,
    convexified_second_derivatives,
    penalty_derivatives,
    penalty_total,
    penalty_value,
    prox_scalar,
    prox_vector,
)


# --- penalty values -------------------------------------------------------


def test_penalty_value_frozen_cases():
    spec = PenaltySpec(zeta=0.1)
    assert penalty_value(0.0, spec) == 0.0
    assert penalty_value(1.0, spec) == pytest.approx(0.9, abs=1e-15)
    assert penalty_value(10.0, spec) == pytest.approx(2.5, abs=1e-15)
    assert penalty_value(-10.0, spec) == penalty_value(10.0, spec)
    # zeta = 0 degenerates to the absolute value
    l1 = PenaltySpec(zeta=0.0)
    for t in (-7.5, -1.0, 0.0, 0.3, 12.0):
        assert penalty_value(t, l1) == abs(t)


def test_penalty_value_matches_reference_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(500):
        zeta = rng.uniform(0.0, 2.0)
        t = rng.uniform(-20.0, 20.0)
        spec = PenaltySpec(zeta=zeta)
        assert penalty_value(t, spec) == pytest.approx(
            mcp_value_reference(t, zeta), rel=1e-12, abs=1e-12
        )


def test_penalty_total_sums_coordinates():
    spec = PenaltySpec(zeta=0.1)
    assert penalty_total(np.array([1.0, -1.0]), spec) == pytest.approx(1.8, abs=1e-15)
    assert penalty_total(np.array([10.0, 10.0, 10.0]), spec) == pytest.approx(7.5, abs=1e-15)
    assert penalty_total(np.zeros(4), spec) == 0.0


def test_penalty_past_the_square_overflow_is_its_cap_without_a_warning():
    # |t| = 1e200 squares to inf on its way to MCP's finite plateau value
    spec = PenaltySpec(zeta=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert penalty_total([1e200, 1.0], spec) == 2.5 + 0.9
        assert penalty_value(-1e200, spec) == 2.5
        assert penalty_value([1e200, 1e-200], spec).tolist() == [2.5, 1e-200]


def test_penalty_properties():
    rng = np.random.default_rng(12)
    for _ in range(200):
        spec = PenaltySpec(zeta=rng.uniform(0.0, 2.0))
        t = rng.uniform(0.0, 10.0, size=16)
        vals = penalty_value(t, spec)
        # even, zero at zero, nondecreasing on [0, inf)
        assert np.all(penalty_value(-t, spec) == vals)
        order = np.argsort(t)
        assert np.all(np.diff(vals[order]) >= -1e-12)
        # F(t)/t nonincreasing in t > 0
        pos = t[t > 1e-9]
        ratio = penalty_value(pos, spec) / pos
        assert np.all(np.diff(ratio[np.argsort(pos)]) <= 1e-12)


def test_convexified_penalty_midpoint_convexity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        spec = PenaltySpec(zeta=rng.uniform(0.0, 2.0))

        def h(t):
            return penalty_value(t, spec) + spec.zeta * t * t

        a, b = rng.uniform(-10.0, 10.0, size=2)
        assert h((a + b) / 2.0) <= 0.5 * h(a) + 0.5 * h(b) + 1e-12


# --- prox ------------------------------------------------------------------


def test_prox_frozen_cases():
    spec = PenaltySpec(zeta=0.1)
    assert prox_scalar(0.5, 1.0, spec) == 0.0
    assert prox_scalar(3.0, 1.0, spec) == pytest.approx(2.5, abs=1e-12)
    assert prox_scalar(6.0, 1.0, spec) == 6.0
    assert prox_scalar(1.0, 1.0, spec) == 0.0  # boundary |v| = w
    l1 = PenaltySpec(zeta=0.0)
    assert prox_scalar(-3.0, 1.0, l1) == pytest.approx(-2.0, abs=1e-15)
    assert prox_scalar(0.25, 1.0, l1) == 0.0


def test_prox_vector_elementwise():
    spec = PenaltySpec(zeta=0.1)
    v = np.array([0.5, 3.0, 6.0, -3.0, 0.0])
    out = prox_vector(v, 1.0, spec)
    expected = np.array([prox_scalar(x, 1.0, spec) for x in v])
    assert np.array_equal(out, expected)


def test_prox_agrees_with_grid_oracle():
    rng = np.random.default_rng(14)
    for _ in range(120):
        v, w, zeta = random_prox_case(rng)
        spec = PenaltySpec(zeta=zeta)
        assert prox_scalar(v, w, spec) == pytest.approx(
            prox_grid_oracle(v, w, zeta), abs=2e-4
        )


def test_prox_shrinkage_oddness_and_zero_behavior():
    rng = np.random.default_rng(15)
    for _ in range(300):
        v, w, zeta = random_prox_case(rng)
        spec = PenaltySpec(zeta=zeta)
        out = prox_scalar(v, w, spec)
        # odd map, output between 0 and v, exact zero below the threshold
        assert prox_scalar(-v, w, spec) == -out
        assert abs(out) <= abs(v) + 1e-15
        assert out * v >= 0.0
        if abs(v) < w:
            assert out == 0.0


def test_prox_soft_threshold_at_zeta_zero():
    spec = PenaltySpec(zeta=0.0)
    rng = np.random.default_rng(16)
    v = rng.uniform(-5.0, 5.0, size=200)
    w = 0.7
    soft = np.sign(v) * np.maximum(np.abs(v) - w, 0.0)
    assert np.allclose(prox_vector(v, w, spec), soft, atol=0.0, rtol=0.0)


def test_prox_lipschitz_constant():
    # |prox(v1) - prox(v2)| <= C |v1 - v2| with C = max(1, 1/(1 - 2*w*zeta))
    rng = np.random.default_rng(17)
    for _ in range(300):
        _, w, zeta = random_prox_case(rng)
        spec = PenaltySpec(zeta=zeta)
        c = max(1.0, 1.0 / (1.0 - 2.0 * w * zeta))
        v1, v2 = rng.uniform(-8.0, 8.0, size=2)
        lhs = abs(prox_scalar(v1, w, spec) - prox_scalar(v2, w, spec))
        assert lhs <= c * abs(v1 - v2) + 1e-12


def test_prox_rejects_ill_posed_weight():
    spec = PenaltySpec(zeta=0.5)
    with pytest.raises(ValueError):
        prox_scalar(1.0, 1.0, spec)  # w*zeta = 0.5 exactly
    with pytest.raises(ValueError):
        prox_vector(np.ones(3), 2.0, spec)
    with pytest.raises(ValueError):
        prox_scalar(1.0, -1.0, spec)


# --- derivatives -----------------------------------------------------------


def test_penalty_derivative_frozen_cases():
    spec = PenaltySpec(zeta=0.1)
    assert penalty_derivatives(0.0, spec) == (-1.0, 1.0)
    assert penalty_derivatives(1.0, spec) == (pytest.approx(0.8), pytest.approx(0.8))
    assert penalty_derivatives(10.0, spec) == (0.0, 0.0)
    assert penalty_derivatives(5.0, spec) == (0.0, 0.0)  # plateau boundary, smooth
    l1 = PenaltySpec(zeta=0.0)
    assert penalty_derivatives(0.0, l1) == (-1.0, 1.0)
    assert penalty_derivatives(2.0, l1) == (1.0, 1.0)
    assert penalty_derivatives(-2.0, l1) == (-1.0, -1.0)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(18)
    h = 1e-7
    for _ in range(200):
        spec = PenaltySpec(zeta=rng.uniform(0.0, 2.0))
        t = rng.uniform(-8.0, 8.0)
        if abs(abs(t) - spec.plateau_start) < 1e-3 or abs(t) < 1e-3:
            continue  # keep clear of kinks for the two-sided difference
        fd = (penalty_value(t + h, spec) - penalty_value(t - h, spec)) / (2.0 * h)
        left, right = penalty_derivatives(t, spec)
        assert left == pytest.approx(right, abs=1e-12)
        assert fd == pytest.approx(left, abs=1e-5)


def test_convexified_derivatives_piecewise():
    spec = PenaltySpec(zeta=0.1)  # kink radius 5
    assert convexified_derivatives(0.0, spec) == (-1.0, 1.0)
    assert convexified_derivatives(1.0, spec) == (1.0, 1.0)
    assert convexified_derivatives(-1.0, spec) == (-1.0, -1.0)
    assert convexified_derivatives(5.0, spec) == (pytest.approx(1.0), pytest.approx(1.0))
    left, right = convexified_derivatives(10.0, spec)
    assert left == pytest.approx(2.0) and right == pytest.approx(2.0)


def test_convexified_second_derivatives_piecewise():
    spec = PenaltySpec(zeta=0.1)
    assert convexified_second_derivatives(1.0, spec) == (0.0, 0.0)
    assert convexified_second_derivatives(10.0, spec) == (pytest.approx(0.2), pytest.approx(0.2))
    assert convexified_second_derivatives(5.0, spec) == (0.0, pytest.approx(0.2))
    assert convexified_second_derivatives(-5.0, spec) == (pytest.approx(0.2), 0.0)
    l1 = PenaltySpec(zeta=0.0)
    assert convexified_second_derivatives(3.0, l1) == (0.0, 0.0)


def test_convexified_derivatives_monotone():
    # H is convex, so its one-sided derivatives are nondecreasing
    rng = np.random.default_rng(19)
    for _ in range(100):
        spec = PenaltySpec(zeta=rng.uniform(0.0, 2.0))
        t = np.sort(rng.uniform(-10.0, 10.0, size=32))
        left, right = convexified_derivatives(t, spec)
        merged = np.ravel(np.column_stack([left, right]))
        assert np.all(np.diff(merged) >= -1e-12)


@pytest.mark.parametrize("call", [
    penalty_value, penalty_total, lambda t, spec: prox_vector(t, 0.5, spec),
    penalty_derivatives, convexified_derivatives, convexified_second_derivatives],
    ids=["penalty_value", "penalty_total", "prox_vector", "penalty_derivatives",
         "convexified_derivatives", "convexified_second_derivatives"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_penalty_refuses_a_non_finite_input(call, bad):
    with pytest.raises(ValueError, match="^penalty input must be finite$"):
        call(np.array([0.5, bad, 0.0]), PenaltySpec(zeta=0.1))


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(zeta=-0.1)
    with pytest.raises(ValueError):
        PenaltySpec(zeta=0.1, beta=0.0)
    assert PenaltySpec(zeta=0.0).plateau_start == np.inf
    assert PenaltySpec(zeta=0.1).plateau_start == pytest.approx(5.0)
