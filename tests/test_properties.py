"""Property tests: the stacked penalty and model kernels against the
one-point calls and, bit for bit, against the oracle formulas of
``helpers``, batched one-row products against one-point products, the
loss kernel against ``np.logaddexp``, the prox against
its closed form, the loaders' error positions, ``load_csv`` against its
Python row loop, the CSV, sparse-format and model-file round trips, the
certificate's verdicts against their widened-bound comparisons, and the
CLI's exit codes on damaged input files and on hostile float flags.

Examples are derandomized, so every run checks the same cases.
"""

import contextlib
import functools
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    certificate_oracle,
    csv_outcomes,
    exp_oracle,
    gradient_oracle,
    loss_oracle,
    penalty_values_oracle,
    prox_oracle,
    sigmoid_oracle,
)

from wclogit.certify import (
    check_critical_point,
    check_mcp_local_opt,
    check_necessary_local_opt,
    check_sufficient_local_opt,
)
from wclogit.cli import main
from wclogit.data import DataError, load_csv, load_sparse_classification_format, save_csv
from wclogit.model import (Dataset, _exp_pair, _kernels, _probabilities, loss, sigmoid,
                           spectral_norm)
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
from wclogit.solver import _OBJECTIVE_BLOCK

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

    evaluate, gradient, _ = _kernels(data)
    (z, e), losses = evaluate(values)
    grads = gradient((z, e))
    for c, point in enumerate(values):
        (z_c, e_c), loss_c = evaluate(point)
        assert bits(z[c]) == bits(z_c) and e[c].tobytes() == e_c.tobytes()
        assert losses[c] == loss_c
        assert bits(grads[c]) == bits(gradient((z_c, e_c)))


LAYOUTS = ("contiguous", "unaligned", "sliced")


def laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    """A copy of ``values`` in a C-contiguous array, in an array one byte off
    8-byte alignment (numpy flags it unaligned), or in every other column of
    a wider array, from column 1."""
    if layout == "contiguous":
        return values.copy()
    if layout == "unaligned":
        buffer = np.zeros(values.size * 8 + 1, dtype=np.uint8)
        out = np.ndarray(values.shape, dtype=float, buffer=buffer, offset=1)
        assert not out.flags.aligned
    else:
        out = np.zeros(values.shape[:-1] + (2 * values.shape[-1] + 1,))[..., 1::2]
    out[...] = values
    return out


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def special_stacks(draw):
    """C specs (C up to 40), their prox weights, and a (C, d) stack, laid out
    in one of LAYOUTS, whose entries are random or, with either sign, 0,
    the row's weight, the float just below it, its plateau start 1/(2*zeta)
    (inf when zeta = 0), inf or NaN."""
    cells = draw(st.integers(1, 40))
    specs = [PenaltySpec(zeta=draw(zetas)) for _ in range(cells)]
    weights = np.array([weight_for(s.zeta, draw(weight_shares)) for s in specs])
    d = draw(st.integers(1, 8))
    kinds = draw(arrays(np.int8, (cells, d), elements=st.integers(0, 6)))
    signs = draw(arrays(float, (cells, d), elements=st.sampled_from([1.0, -1.0])))
    randoms = draw(arrays(float, (cells, d), elements=st.floats(-1e4, 1e4)))
    w = weights[:, None]
    plateau = np.array([s.plateau_start for s in specs])[:, None]
    choices = np.broadcast_arrays(randoms, 0.0, w, np.nextafter(w, 0.0), plateau, np.inf, np.nan)
    values = signs * np.choose(kinds, choices)
    return specs, weights, laid_out(values, draw(st.sampled_from(LAYOUTS)))


@PROPERTY
@given(special_stacks())
def test_prox_and_penalty_kernels_equal_the_oracle_formulas_bitwise(stack):
    specs, weights, values = stack
    width = values.shape[1]
    stacked = _StackedSpec.of(specs, width)
    block = _repeat_rows(weights, width)
    with np.errstate(all="ignore"):  # inf and NaN entries are meant
        expected = prox_oracle(values, block, stacked)
        assert same_bits(_prox(values, block, stacked), expected)
        assert same_bits(_prox(values, block, stacked, 1.0 - 2.0 * block * stacked.zeta),
                         expected)
        penalties = penalty_values_oracle(values, stacked)
        assert same_bits(_penalty_values(values, stacked), penalties)
        assert same_bits(_penalty_sum(values, stacked), penalties.sum(axis=-1))
        for c, (spec, w) in enumerate(zip(specs, weights.tolist())):
            assert same_bits(_prox(values[c], w, spec), prox_oracle(values[c], w, spec))
            assert same_bits(_penalty_values(values[c], spec),
                             penalty_values_oracle(values[c], spec))


special_margins = st.one_of(st.floats(-1e4, 1e4), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 718.769175, -718.769175, np.inf, -np.inf, np.nan, -np.nan]))


@st.composite
def margin_stacks(draw):
    """A dataset of one feature, each sample a signed power of two, so that
    every margin theta * x_i is one exact product even when theta is inf or
    NaN, and stacks of points of heights up to 40, laid out in one of
    LAYOUTS, to evaluate one after the other on the same kernels."""
    n = draw(st.integers(1, 12))
    features = np.array([[draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-3, 3))]
                         for _ in range(n)])
    labels = draw(arrays(int, n, elements=st.integers(0, 1)))
    heights = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    layout = draw(st.sampled_from(LAYOUTS))
    thetas = [laid_out(draw(arrays(float, (h, 1), elements=special_margins)), layout)
              for h in heights]
    return Dataset(features, labels), thetas


@PROPERTY
@given(margin_stacks())
def test_model_kernels_equal_the_oracle_formulas_bitwise(case):
    data, thetas = case
    X, labels = data.features, data.labels.astype(float)
    evaluate, gradient, loss_of = _kernels(data)
    with np.errstate(all="ignore"):
        # every height evaluated after a higher one reads the first rows of
        # the label blocks; a point is a stack of height one without its axis
        for theta in thetas + [thetas[0][0]]:
            z = theta @ X.T
            e = exp_oracle(z)
            (z_new, e_new), losses = evaluate(theta)
            assert same_bits(z_new, z) and same_bits(e_new, e)
            assert same_bits(losses, loss_oracle(labels, z, e))
            assert same_bits(loss_of((z, e)), losses)
            assert same_bits(gradient((z_new, e_new)), gradient_oracle(X, labels, z, e))
            # the pair is left as it is, and a laid-out one gives the same bits
            assert same_bits(e_new, e)
            margins = laid_out(z, "unaligned"), laid_out(e, "sliced")
            assert same_bits(_exp_pair(margins[0])[1], e)
            assert same_bits(_probabilities(*margins), sigmoid_oracle(z, e))
            assert same_bits(sigmoid(margins[0]), sigmoid_oracle(z, e))


@PROPERTY
@given(st.one_of(st.integers(1, 2048), st.integers(2049, 9000)), st.integers(1, 60),
       st.integers(1, _OBJECTIVE_BLOCK), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(4097, 50, 7, False, 0)  # the block cap at this N: 7 iterates
def test_batched_one_row_products_are_one_point_products_bitwise(n, d, height, fortran, seed):
    # a momentum fit's block computes its iterates' margins and gradients as
    # batches of (1, d) @ (d, N) and (1, N) @ (N, d) products into its own
    # rows: each row must have the bits of the 1-D product of that point
    # alone, and of its one-row stack, whatever the height and the layout of X
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if fortran:
        X = np.asfortranarray(X)
    points, residuals = rng.standard_normal((height, d)), rng.standard_normal((height, n))
    margins, grads = np.empty((_OBJECTIVE_BLOCK, n)), np.empty((_OBJECTIVE_BLOCK, d))
    np.matmul(points[:, None, :], X.T, out=margins[:height, None, :])
    np.matmul(residuals[:, None, :], X, out=grads[:height, None, :])
    for k in range(height):
        assert margins[k].tobytes() == (points[k] @ X.T).tobytes()
        assert margins[k].tobytes() == (points[k:k + 1] @ X.T).tobytes()
        assert grads[k].tobytes() == (residuals[k] @ X).tobytes()
        assert grads[k].tobytes() == (residuals[k:k + 1] @ X).tobytes()


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 0.3, -0.3, 0.5, 2.5, -2.5, 3.0,
                                   36.7, -718.769175, 1e4])
def test_public_kernels_take_zero_dimensional_inputs(value):
    spec, w = PenaltySpec(zeta=0.2), 0.3
    point = np.array([value])
    for t in (value, np.float64(value), np.array(value)):
        assert type(sigmoid(t)) is float
        assert same_bits(sigmoid(t), sigmoid_oracle(point, exp_oracle(point)))
        for u in (prox_scalar(t, w, spec), prox_vector(t, w, spec)):
            assert type(u) is float and same_bits(u, prox_oracle(point, w, spec))
        for value_of_t in (penalty_value(t, spec), penalty_total(t, spec)):
            assert type(value_of_t) is float
            assert same_bits(value_of_t, penalty_values_oracle(point, spec))


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
        theta=draw(vector), beta=draw(finite_floats), zeta=draw(finite_floats),
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



# --- the certificate's verdicts ----------------------------------------------------


@st.composite
def certificate_cases(draw):
    """A small centred dataset, (beta, zeta), a point whose coordinates are
    zero, inside the kink radius or on the plateau, and a tolerance."""
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 5))
    features = draw(arrays(float, (n, d), elements=st.floats(-3.0, 3.0)))
    labels = draw(arrays(int, n, elements=st.integers(0, 1)))
    data = Dataset(features - features.mean(axis=0), labels, centered=True)
    spec = PenaltySpec(zeta=draw(st.sampled_from([0.0, 0.05, 0.5, 3.0])))
    radius = spec.plateau_start if spec.zeta > 0 else 10.0
    coordinate = st.one_of(
        st.just(0.0),
        st.floats(-radius, radius).filter(lambda t: t != 0.0),
        st.builds(lambda sign, t: sign * (radius + t), st.sampled_from([-1.0, 1.0]),
                  st.floats(1e-6, 10.0)))
    theta = np.array([draw(coordinate) for _ in range(d)])
    beta = draw(st.floats(1e-2, 30.0))
    tol = draw(st.one_of(st.just(0.0), st.floats(1e-9, 2.0)))
    return theta, beta, spec, data, tol


@PROPERTY
@given(certificate_cases())
def test_certificate_verdicts_are_the_widened_bound_comparisons(case):
    theta, beta, spec, data, tol = case
    assert (check_critical_point(theta, beta, spec, data, tol),
            check_sufficient_local_opt(theta, beta, spec, data, tol),
            check_necessary_local_opt(theta, beta, spec, data, tol)) == \
        certificate_oracle(theta, beta, spec, data, tol)
    report = check_mcp_local_opt(theta, beta, spec, data)
    slack = 1e-6 * (1.0 + spectral_norm(data)) / beta
    assert (report.is_critical_point, report.satisfies_sufficient,
            report.satisfies_necessary) == certificate_oracle(theta, beta, spec, data, slack)


# --- the CLI's exit-code contract on damaged input files ---------------------------

_CSV = ("label,f1,f2,f3\n1,0.5,1.0,-0.3\n0,-0.2,0.4,1.1\n1,1.5,-0.7,0.2\n"
        "0,0.3,0.9,-1.0\n1,-0.8,0.1,0.6\n0,1.2,-1.1,0.4\n1,0.1,-0.5,-0.9\n0,-1.0,0.3,0.8\n")
# the same rows in the sparse text format
_SPARSE = "".join(" ".join([label] + [f"{j}:{v}" for j, v in enumerate(values, 1)]) + "\n"
                  for label, *values in (line.split(",") for line in _CSV.splitlines()[1:]))
_TRAIN = ["--beta", "0.1", "--zeta", "0.1", "--center", "--max-iters", "30"]
_BAD_CELLS = ["nan", "inf", "1e400", "1e300", "", "x"]
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@functools.cache
def _valid_model_text() -> str:
    """A model trained on ``_CSV``, centered."""
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "d.csv", Path(tmp) / "m.txt"
        data.write_text(_CSV)
        assert main(["train", str(data), *_TRAIN, "--quiet", "--out", str(model)]) == 0
        return model.read_text()


def _cells(line: str, kind: str):
    """(start, end) of each cell a mutation may overwrite: a CSV cell, a
    sparse label or value (never an index), or a model file's value."""
    if kind == "csv":
        return [(m.start(), m.end()) for m in re.finditer(r"(?:^|(?<=,))[^,]*", line)]
    spans = [(m.start(), m.end()) for m in re.finditer(r"\S+", line)]
    if kind == "model":
        return spans[1:]
    return spans[:1] + [(a + line[a:b].index(":") + 1, b) for a, b in spans[1:]
                        if ":" in line[a:b]]


@st.composite
def damaged(draw, text: str, kind: str) -> str:
    """``text`` after one or two of: a line dropped, duplicated or swapped,
    a cell overwritten, a stray column added, or a cut at a random byte."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "duplicate", "swap", "cell", "column",
                                    "truncate"]))
        if how == "truncate" or not lines:
            text = "\n".join(lines) + "\n"
            return text[:draw(st.integers(0, len(text)))]
        i = draw(st.integers(0, len(lines) - 1))
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif how == "column":
            lines[i] += {"csv": ",1.0", "sparse": " 4:1.0", "model": " 1.0"}[kind]
        elif spans := _cells(lines[i], kind):
            a, b = draw(st.sampled_from(spans))
            lines[i] = lines[i][:a] + draw(st.sampled_from(_BAD_CELLS)) + lines[i][b:]
    return "\n".join(lines) + "\n"


def _assert_finite_numbers(text: str):
    assert not re.search(r"(?i)nan|inf", text), text
    assert all(math.isfinite(float(tok)) for tok in _NUMBER.findall(text)), text


@st.composite
def damaged_runs(draw):
    """A command and its input files, exactly one of them damaged."""
    command = draw(st.sampled_from(["train", "predict", "certify"]))
    sparse = draw(st.booleans())
    data = _SPARSE if sparse else _CSV
    model = _valid_model_text()
    if command != "train" and draw(st.booleans()):
        model = draw(damaged(model, "model"))
    else:
        data = draw(damaged(data, "sparse" if sparse else "csv"))
    return command, sparse, data, model


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(damaged_runs())
def test_damaged_files_exit_with_a_data_or_numerical_code(run):
    command, sparse, data_text, model_text = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, model, out, trace = (tmp / name for name in ("d", "m.txt", "o.csv", "t.csv"))
        data.write_text(data_text)
        argv = [command] + ([] if command == "train" else [str(model)]) + [str(data)]
        argv += ["--sparse-format"] if sparse else []
        if command == "train":
            argv += [*_TRAIN, "--out", str(model), "--trace-out", str(trace)]
        else:
            model.write_text(model_text)
            argv += ["--out", str(out)] if command == "predict" else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Warning" not in stderr.getvalue()
        if code == 0:
            _assert_finite_numbers(stdout.getvalue().replace(str(tmp), ""))
            if command == "train":
                _assert_finite_numbers(trace.read_text())
                load_model(model)
            elif command == "predict":
                _assert_finite_numbers(out.read_text())


# --- the CLI's exit-code contract on float flags -------------------------------------

_FLOAT_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "", "x"]
# each command's float flags, and a tiny run to draw them into (cv on synthetic data)
_FLOAT_FLAGS = {
    "train": ["--beta", "--zeta", "--alpha", "--eta", "--eps-tol"],
    "cv": ["--betas", "--zetas", "--alpha", "--eps-tol", "--noise-sigma"],
    "generate": ["--amp-low", "--amp-high", "--noise-sigma"],
}
_FLOAT_RUNS = {
    "train": ["{tmp}/d.csv", "--beta", "0.1", "--zeta", "0.1", "--center", "--max-iters",
              "20", "--out", "{tmp}/m.txt", "--trace-out", "{tmp}/t.csv"],
    "cv": ["--d", "5", "--n-train", "40", "--k", "2", "--n-test", "20", "--betas", "0.1",
           "--zetas", "0,0.1", "--repeats", "1", "--max-iters", "20", "--out", "{tmp}/o.csv"],
    "generate": ["--d", "5", "--n-train", "40", "--k", "2", "--n-test", "20",
                 "--out-prefix", "{tmp}/g"],
}


@st.composite
def float_flag_runs(draw):
    """A command with one or two of its float flags set to a hostile value
    (``--flag=value``, so that argparse hands every value to its type)."""
    command = draw(st.sampled_from(sorted(_FLOAT_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_FLOAT_FLAGS[command]), min_size=1, max_size=2,
                          unique=True))
    argv = [f"{flag}={draw(st.sampled_from(_FLOAT_VALUES))}" for flag in flags]
    if command == "train" and draw(st.booleans()):
        argv.append("--backtracking")
    return command, argv


@PROPERTY
@given(float_flag_runs())
def test_hostile_float_flags_exit_with_a_contract_code(run):
    command, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "d.csv").write_text(_CSV)
        argv = [command] + [arg.format(tmp=tmp) for arg in _FLOAT_RUNS[command]] + flags
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert "RuntimeWarning" not in stderr.getvalue()
        if code == 0:
            _assert_finite_numbers(stdout.getvalue().replace(str(tmp), ""))
            for path in tmp.iterdir():
                if path.name != "d.csv":
                    _assert_finite_numbers(path.read_text())
