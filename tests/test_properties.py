"""Property tests: the stacked penalty and model kernels against the
one-point calls, the loss kernel against ``np.logaddexp``, the prox against
its closed form, the loaders' error positions, ``load_csv`` against its
Python row loop, and the CSV, sparse-format and model-file round trips.

Examples are derandomized, so every run checks the same cases.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import csv_outcomes

from wclogit.data import DataError, load_csv, load_sparse_classification_format, save_csv
from wclogit.model import Dataset, _kernels, loss
from wclogit.modelfile import ModelFile, load_model, save_model
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
    """C specs, their prox weights, a (C, d) array to apply them to, and a
    dataset with d samples and d features to take it as points on.

    Each sample and each feature of the dataset has one nonzero entry, a
    signed power of two, so every margin and every gradient entry is one
    exact product: the order in which a matrix product sums its terms
    cannot change a bit, and the kernels' own arithmetic is what is checked.
    """
    cells = draw(st.integers(1, 6))
    specs = [PenaltySpec(zeta=draw(zetas)) for _ in range(cells)]
    weights = [weight_for(s.zeta, draw(weight_shares)) for s in specs]
    d = draw(st.integers(1, 8))
    values = draw(arrays(float, (cells, d), elements=st.floats(-1e4, 1e4)))
    features = np.zeros((d, d))
    features[np.arange(d), draw(st.permutations(range(d)))] = [
        draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-3, 3)) for _ in range(d)]
    labels = draw(arrays(int, d, elements=st.integers(0, 1)))
    return specs, weights, values, Dataset(features, labels)


def bits(a) -> bytes:
    """The bytes of a float array up to the sign of zero, which BLAS kernels
    may give an exact zero sum either way."""
    return (np.asarray(a, dtype=float) + 0.0).tobytes()


@PROPERTY
@given(stacks())
def test_stacked_kernels_equal_one_spec_calls_bitwise(stack):
    specs, weights, values, data = stack
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

    evaluate, gradient = _kernels(data)
    (z, e), losses = evaluate(values)
    grads = gradient((z, e))
    for c, point in enumerate(values):
        (z_c, e_c), loss_c = evaluate(point)
        assert bits(z[c]) == bits(z_c) and e[c].tobytes() == e_c.tobytes()
        assert losses[c] == loss_c
        assert bits(grads[c]) == bits(gradient((z_c, e_c)))


# margins of every size from 1e-300 to 1e4, both signs, and both zeros
margin_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, power: sign * 10.0 ** power,
              st.sampled_from([1.0, -1.0]), st.floats(-300.0, 4.0)),
)


@PROPERTY
@given(st.lists(st.tuples(margin_values, st.integers(0, 1)), min_size=1, max_size=40))
@example([(718.769175, 1)])  # exp(-|z|) is subnormal here
@example([(sign * m, y) for m in (0.0, 1e-300, 1e-20, 1e-8, 0.5, 1.0, 36.7, 700.0, 1e4)
          for sign in (1.0, -1.0) for y in (0, 1)])  # -0.0 included
def test_loss_kernel_matches_logaddexp(terms):
    z = np.array([m for m, _ in terms])
    labels = np.array([y for _, y in terms])
    # one feature and theta = [1], so the margins are exactly z
    value = loss(np.array([1.0]), Dataset(z[:, None], labels))
    expected = np.logaddexp(0.0, (1.0 - 2.0 * labels) * z).sum()
    # np.exp and the exp inside logaddexp may round a result one ulp apart;
    # below the normal range an ulp is the absolute smallest_subnormal
    slack = z.size * np.finfo(float).smallest_subnormal
    assert value == pytest.approx(expected, rel=1e-15, abs=slack)


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


def unparsable(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return True
    return False


# a non-empty cell that is no number, possibly space-padded
bad_tokens = st.text(alphabet="abx19.-+e ", min_size=1, max_size=6).filter(
    lambda t: t.strip() != "" and unparsable(t.strip()))
# a feature cell: a number, possibly padded, or an empty or blank cell (0.0)
feature_cells = st.one_of(
    st.builds(lambda v, left, right: left + repr(v) + right,
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["", " ", "\t", "  "]), st.sampled_from(["", " ", "\t"])),
    st.sampled_from(["", " ", "\t "]),
)


@st.composite
def csv_tables(draw):
    """Rows of cells with the label column at a random index."""
    n, width = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    label_column = draw(st.integers(0, width - 1))
    rows = [[draw(st.sampled_from(["0", "1", " 1 "])) if j == label_column
             else draw(feature_cells) for j in range(width)] for _ in range(n)]
    return rows, label_column


def write_rows(directory, rows) -> Path:
    path = Path(directory) / "table.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


@PROPERTY
@given(csv_tables(), st.data())
def test_load_csv_reports_the_exact_position_of_a_bad_token(table, data):
    rows, label_column = table
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1).filter(lambda j: j != label_column))
    token = data.draw(bad_tokens)
    rows[i][j] = token
    with tempfile.TemporaryDirectory() as tmp:
        path = write_rows(tmp, rows)
        with pytest.raises(DataError) as err:
            load_csv(path, label_column=label_column, header="no")
    assert str(err.value) == (f"{path}: row {i + 1}, column {j + 1}: "
                              f"cannot parse feature value {token.strip()!r}")


@PROPERTY
@given(csv_tables())
def test_load_csv_rows_with_blank_cells_load_like_the_per_cell_parse(table):
    rows, label_column = table
    # the per-cell rule: strip, then an empty cell is 0.0
    expected = [[float(c.strip()) if c.strip() else 0.0
                 for j, c in enumerate(row) if j != label_column] for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        back = load_csv(write_rows(tmp, rows), label_column=label_column, header="no")
    assert back.features.tobytes() == np.array(expected).tobytes()
    assert back.labels.tolist() == [int(row[label_column]) for row in rows]


# cells where numpy's C reader and the row loop could part ways
odd_cells = st.sampled_from([
    "0", "1", "-0", "1.0", " 1 ", '"1"', '"2.5"', "\t3\t", "\xa04", "+2", "1e400",
    "-1e-320", "nan", "inf", "-Infinity", "1_0", "", " ", "abc", '"4,5"', "\uff11", ".",
    "0x1", "label"])
csv_cells = st.one_of(st.floats().map(repr), st.sampled_from(["0", "1"]), odd_cells)
csv_names = st.sampled_from(["label", " label ", "y", "a", "b", " ", ""])


@st.composite
def csv_files(draw):
    """Small CSV texts: an optional header, rows of mostly one width, blank
    and whitespace-only lines, and one line ending per file."""
    width = draw(st.integers(1, 4))
    lines = [",".join(draw(csv_names) for _ in range(width))] if draw(st.booleans()) else []
    row_widths = st.sampled_from([width, width, width, width + 1, max(width - 1, 1)])
    rows = st.builds(lambda cells: ",".join(cells),
                     row_widths.flatmap(lambda w: st.lists(csv_cells, min_size=w, max_size=w)))
    blank = st.sampled_from(["", "", " ", "\t"])
    if draw(st.booleans()):  # a file the C reader takes: labels first, numbers after
        rows = st.builds(lambda label, cells: ",".join([label] + cells),
                         st.sampled_from(["0", "1"]),
                         st.lists(st.floats().map(repr), min_size=width - 1,
                                  max_size=width - 1))
        blank = st.just("")
    lines += draw(st.lists(st.one_of(rows, rows, rows, blank), max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@PROPERTY
@given(csv_files())
@example("label,a\n")  # header only: the row loop's message, no loadtxt warning
@example("1,2.0,abc\n0,1.5,2.5\n")
@example("label,a\r\n1,2\r\n \r\n0,3\r\n")
def test_load_csv_equals_its_row_loop(text):
    modes = [{"labeled": False}] + [{"label_column": c} for c in (None, 0, 1, 3, "label")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for header in ("auto", "yes", "no"):
                for mode in modes:
                    loaded, row_loop = csv_outcomes(path, header=header, **mode)
                    assert loaded == row_loop, (header, mode)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def model_files(draw):
    d = draw(st.integers(1, 6))
    vector = arrays(float, d, elements=finite_floats)
    return ModelFile(
        theta=draw(vector), beta=draw(finite_floats), zeta=draw(finite_floats), kind="mcp",
        centered=draw(st.booleans()), center=draw(vector), has_intercept=draw(st.booleans()),
        stepsize_rule=draw(st.sampled_from(["constant", "backtracking"])),
        accelerate=draw(st.booleans()), iterations=draw(st.integers(0, 10**9)),
        converged=draw(st.booleans()), final_objective=draw(finite_floats),
    )


@PROPERTY
@given(model_files())
def test_save_load_model_round_trip_is_lossless(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(path, model)
        back = load_model(path)
    for name, value in vars(model).items():
        loaded = getattr(back, name)
        if isinstance(value, np.ndarray):
            assert loaded.tobytes() == value.tobytes(), name
        else:
            assert repr(loaded) == repr(value), name  # repr tells -0.0 from 0.0


@PROPERTY
@given(datasets(), st.integers(0, 3))
def test_sparse_format_round_trip_is_lossless(data, extra_columns):
    # trailing all-zero columns, which only num_features can restore
    features = np.hstack([data.features, np.zeros((data.n_samples, extra_columns))])
    lines = [" ".join([str(y)] + [f"{j + 1}:{float(v)!r}" for j, v in enumerate(x) if v != 0])
             for y, x in zip(data.labels, features)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_text("\n".join(lines) + "\n")
        back = load_sparse_classification_format(path, num_features=features.shape[1])
    # an absent entry reads +0.0, so the format cannot keep a -0.0
    assert back.features.tobytes() == (features + 0.0).tobytes()
    assert np.array_equal(back.labels, data.labels)
