"""Property tests: the stacked penalty kernels against the one-spec calls,
the prox against its closed form, and the CSV round trip.

Examples are derandomized, so every run checks the same cases.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wclogit.data import load_csv, save_csv
from wclogit.model import Dataset
from wclogit.penalty import (
    PenaltySpec,
    _penalty_sum,
    _penalty_values,
    _prox,
    _repeat_rows,
    _StackedSpec,
    penalty_total,
    penalty_value,
    prox_scalar,
    prox_vector,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

zetas = st.one_of(st.just(0.0), st.floats(1e-6, 100.0))
# the share of the largest admissible weight 1/(2*zeta) a prox weight takes;
# below 1 - 1e-9 so that rounding keeps weight*zeta under 1/2
weight_shares = st.floats(1e-6, 1.0 - 1e-9)


def weight_for(zeta: float, share: float) -> float:
    """A prox weight with weight*zeta < 1/2 (any scale when zeta = 0)."""
    return share / (2.0 * zeta) if zeta > 0 else 10.0 * share


@st.composite
def stacks(draw):
    """C specs, their prox weights, and a (C, d) array to apply them to."""
    cells = draw(st.integers(1, 6))
    specs = [PenaltySpec(zeta=draw(zetas)) for _ in range(cells)]
    weights = [weight_for(s.zeta, draw(weight_shares)) for s in specs]
    d = draw(st.integers(1, 8))
    values = draw(arrays(float, (cells, d), elements=st.floats(-1e4, 1e4)))
    return specs, weights, values


@PROPERTY
@given(stacks())
def test_stacked_kernels_equal_one_spec_calls_bitwise(stack):
    specs, weights, values = stack
    width = values.shape[1]
    stacked = _StackedSpec.of(specs, width)
    prox = _prox(values, _repeat_rows(weights, width), stacked)
    penalties = _penalty_values(values, stacked)
    sums = _penalty_sum(values, stacked)
    for c, (spec, w) in enumerate(zip(specs, weights)):
        assert prox[c].tobytes() == np.asarray(prox_vector(values[c], w, spec)).tobytes()
        assert penalties[c].tobytes() == np.asarray(penalty_value(values[c], spec)).tobytes()
        assert sums[c] == penalty_total(values[c], spec)
    kept = np.arange(len(specs)) % 2 == 0
    taken = _StackedSpec.of([s for s, k in zip(specs, kept) if k], width)
    assert all(map(np.array_equal, taken, stacked.take(kept)))


def firm_shrinkage(v: float, w: float, zeta: float) -> float:
    """The closed form of the module docstring, one scalar at a time."""
    if abs(v) < w:
        return 0.0
    if zeta == 0 or abs(v) <= 1.0 / (2.0 * zeta):
        return (v - math.copysign(w, v)) / (1.0 - 2.0 * w * zeta)
    return v


def prox_objective(u: float, v: float, w: float, spec: PenaltySpec) -> float:
    return w * penalty_value(u, spec) + 0.5 * (u - v) ** 2


@PROPERTY
@given(st.floats(-1e3, 1e3), zetas, weight_shares, st.floats(-1e3, 1e3))
@example(0.0, 0.0, 0.5, 1.0)
@example(0.5, 0.0, 0.05, 0.0)  # v = w exactly at zeta = 0
@example(2.5, 0.2, 0.5, 0.0)   # v on the plateau start 1/(2*zeta)
@example(-2.5, 0.2, 0.5, 0.0)
def test_prox_is_the_closed_form_minimizer(v, zeta, share, other):
    spec = PenaltySpec(zeta=zeta)
    w = weight_for(zeta, share)
    u = prox_scalar(v, w, spec)
    assert u == firm_shrinkage(v, w, zeta)
    # and no other point does better, up to rounding of the objective
    slack = 1e-12 * (1.0 + v * v + other * other)
    assert prox_objective(u, v, w, spec) <= prox_objective(other, v, w, spec) + slack


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    features = draw(arrays(float, (n, d),
                           elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Dataset(features, draw(arrays(int, n, elements=st.integers(0, 1))))


@PROPERTY
@given(datasets())
def test_save_load_csv_round_trip_is_lossless(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        save_csv(data, path)
        back = load_csv(path)
    assert back.features.tobytes() == data.features.tobytes()
    assert np.array_equal(back.labels, data.labels)
