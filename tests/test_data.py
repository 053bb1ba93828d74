"""Loading, centering, splitting, and synthetic generation."""

import numpy as np
import pytest
from helpers import csv_outcomes

from wclogit.data import (
    DataError,
    SynthSpec,
    apply_center,
    center,
    gen_noisy,
    gen_separable,
    load_csv,
    load_sparse_classification_format,
    save_csv,
    train_test_split,
    _streams,
)
from wclogit.model import Dataset, NumericalError


# --- centering --------------------------------------------------------------


def test_center_hand_case():
    data = Dataset(np.array([[1.0, 3.0], [3.0, 1.0]]), np.array([0, 1]))
    out = center(data)
    assert np.array_equal(out.features, np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert np.array_equal(out.center, np.array([2.0, 2.0]))
    assert out.centered
    assert np.array_equal(data.features, np.array([[1.0, 3.0], [3.0, 1.0]]))  # input untouched


def test_center_zeroes_column_sums():
    rng = np.random.default_rng(60)
    data = Dataset(rng.standard_normal((40, 7)) + 3.0, rng.integers(0, 2, 40))
    out = center(data)
    assert np.max(np.abs(out.features.sum(axis=0))) < 1e-10


def test_center_idempotent_and_accumulates_shift():
    rng = np.random.default_rng(61)
    data = Dataset(rng.standard_normal((20, 3)) + 5.0, rng.integers(0, 2, 20))
    once = center(data)
    twice = center(once)
    assert np.allclose(once.features, twice.features, atol=1e-12)
    assert np.allclose(twice.center, once.center, atol=1e-12)


def test_center_exempts_intercept_column():
    X = np.array([[1.0, 1.0], [3.0, 1.0]])
    data = Dataset(X, np.array([0, 1]), has_intercept=True)
    out = center(data)
    assert np.array_equal(out.features[:, 1], np.ones(2))  # intercept preserved
    assert out.center[1] == 0.0
    assert np.array_equal(out.features[:, 0], np.array([-1.0, 1.0]))


def test_center_annihilates_constant_columns():
    X = np.column_stack([np.full(5, 4.0), np.arange(5.0)])
    out = center(Dataset(X, np.zeros(5, dtype=int)))
    assert np.array_equal(out.features[:, 0], np.zeros(5))


def test_apply_center_uses_training_shift():
    train = Dataset(np.array([[1.0, 3.0], [3.0, 1.0]]), np.array([0, 1]))
    test = Dataset(np.array([[4.0, 4.0]]), np.array([1]))
    ctrain = center(train)
    ctest = apply_center(test, ctrain.center)
    assert np.array_equal(ctest.features, np.array([[2.0, 2.0]]))
    assert np.array_equal(ctest.center, ctrain.center)
    with pytest.raises(ValueError):
        apply_center(test, np.zeros(3))


def test_apply_center_composes_with_prior_shift():
    # centering then re-targeting to another shift lands on the same features
    # as applying that shift directly
    rng = np.random.default_rng(62)
    data = Dataset(rng.standard_normal((10, 3)), rng.integers(0, 2, 10))
    target = np.array([1.0, -2.0, 0.5])
    direct = apply_center(data, target)
    via = apply_center(center(data), target)
    assert np.allclose(via.features, direct.features, atol=1e-12)


def test_centering_beyond_the_float_range_names_the_column():
    # a column whose sum overflows, and a finite column mean (-1.7e307) that
    # 1.7e308 cannot be shifted by without overflowing
    labels = np.array([1, 0, 1])
    for X, column in ((np.array([[0.5, 1.7e308], [1.5, 1.7e308], [2.0, 1.0]]), 2),
                      (np.array([[1.7e308, 1.0], [-1.7e308, 2.0], [-0.5e308, 3.0]]), 1)):
        with pytest.raises(NumericalError) as err:
            center(Dataset(X, labels))
        assert str(err.value) == (f"centering leaves the float range in feature "
                                  f"column {column}; rescale the features")
    test = Dataset(np.array([[1.0, 1.7e308]]), np.array([1]))
    with pytest.raises(NumericalError, match="feature column 2;"):
        apply_center(test, np.array([0.0, -1.7e308]))
    # a shift beyond the float range: target minus the data's own center
    shifted = apply_center(test, np.array([0.0, 1.7e308]))
    with pytest.raises(NumericalError, match="feature column 2;"):
        apply_center(shifted, np.array([0.0, -1.7e308]))


# --- splitting --------------------------------------------------------------


def test_split_sizes_floor_rule():
    rng = np.random.default_rng(63)
    data = Dataset(rng.standard_normal((10, 2)), rng.integers(0, 2, 10))
    train, test = train_test_split(data, 0.2, seed=0)
    assert (train.n_samples, test.n_samples) == (8, 2)

    big = Dataset(rng.standard_normal((4601, 3)), rng.integers(0, 2, 4601))
    train, test = train_test_split(big, 0.8, seed=0)
    assert (train.n_samples, test.n_samples) == (921, 3680)


def test_split_partitions_and_keeps_rows_paired():
    rng = np.random.default_rng(64)
    X = rng.standard_normal((30, 2))
    y = rng.integers(0, 2, 30)
    lookup = {tuple(row): int(lbl) for row, lbl in zip(X, y)}
    train, test = train_test_split(Dataset(X, y), 0.3, seed=5, center_split=False)
    seen = [tuple(r) for r in np.vstack([train.features, test.features])]
    assert sorted(seen) == sorted(lookup)
    for part in (train, test):
        for row, lbl in zip(part.features, part.labels):
            assert lookup[tuple(row)] == int(lbl)


def test_split_centers_test_with_training_center():
    rng = np.random.default_rng(65)
    data = Dataset(rng.standard_normal((50, 4)) + 2.0, rng.integers(0, 2, 50))
    train, test = train_test_split(data, 0.4, seed=1)
    assert train.centered and test.centered
    assert np.max(np.abs(train.features.sum(axis=0))) < 1e-10
    assert np.array_equal(train.center, test.center)
    # test columns are shifted by the training mean, not their own
    assert np.max(np.abs(test.features.sum(axis=0))) > 1e-6


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(66)
    data = Dataset(rng.standard_normal((40, 3)), rng.integers(0, 2, 40))
    a1, b1 = train_test_split(data, 0.25, seed=7)
    a2, b2 = train_test_split(data, 0.25, seed=7)
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(b1.features, b2.features)
    a3, _ = train_test_split(data, 0.25, seed=8)
    assert not np.array_equal(a1.features, a3.features)


def test_split_rejects_empty_sides():
    data = Dataset(np.ones((3, 1)), np.array([0, 1, 0]))
    with pytest.raises(DataError):
        train_test_split(data, 0.05, seed=0)  # floor(0.15) = 0 test rows
    with pytest.raises(ValueError):
        train_test_split(data, 1.5, seed=0)


# --- CSV loading ---------------------------------------------------------------


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_with_header(tmp_path):
    p = write(tmp_path / "d.csv", "label,f1,f2\n1,0.5,-2\n0,3,4\n")
    data = load_csv(p)
    assert np.array_equal(data.labels, np.array([1, 0]))
    assert np.array_equal(data.features, np.array([[0.5, -2.0], [3.0, 4.0]]))
    assert not data.has_intercept


def test_load_csv_headerless_defaults_to_first_column(tmp_path):
    p = write(tmp_path / "d.csv", "1,0.5,-2\n0,3,4\n")
    data = load_csv(p)
    assert np.array_equal(data.labels, np.array([1, 0]))
    assert data.features.shape == (2, 2)


def test_load_csv_label_column_by_name_and_index(tmp_path):
    p = write(tmp_path / "d.csv", "a,y,b\n0.5,1,-2\n3,0,4\n")
    by_name = load_csv(p, label_column="y")
    by_index = load_csv(p, label_column=1)
    assert np.array_equal(by_name.labels, np.array([1, 0]))
    assert np.array_equal(by_name.features, by_index.features)
    assert np.array_equal(by_name.features, np.array([[0.5, -2.0], [3.0, 4.0]]))


def test_load_csv_header_modes(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,3\n0,5,6\n")
    auto = load_csv(p)  # all-numeric first row is data
    assert auto.n_samples == 2
    forced = load_csv(p, header="yes")
    assert forced.n_samples == 1
    with pytest.raises(ValueError):
        load_csv(p, header="maybe")


def test_load_csv_empty_cells_become_zero(tmp_path):
    p = write(tmp_path / "d.csv", "label,f1,f2\n1,,3\n0,2,\n")
    data = load_csv(p)
    assert np.array_equal(data.features, np.array([[0.0, 3.0], [2.0, 0.0]]))


def test_load_csv_label_map(tmp_path):
    p = write(tmp_path / "d.csv", "label,f1\nspam,1\nham,2\n")
    data = load_csv(p, label_map={"spam": 1, "ham": 0})
    assert np.array_equal(data.labels, np.array([1, 0]))
    with pytest.raises(DataError, match="not covered"):
        load_csv(p, label_map={"spam": 1})


def test_load_csv_pm1_label_map(tmp_path):
    p = write(tmp_path / "d.csv", "label,f1\n-1,1\n1,2\n")
    data = load_csv(p, label_map={"-1": 0, "1": 1})
    assert np.array_equal(data.labels, np.array([0, 1]))


def test_load_csv_add_intercept(tmp_path):
    p = write(tmp_path / "d.csv", "label,f1\n1,5\n0,7\n")
    data = load_csv(p, add_intercept=True)
    assert data.has_intercept
    assert np.array_equal(data.features, np.array([[5.0, 1.0], [7.0, 1.0]]))


def test_load_csv_diagnostics_carry_row_and_column(tmp_path):
    ragged = write(tmp_path / "r.csv", "label,f1,f2\n1,2,3\n0,4\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(ragged)
    bad_feat = write(tmp_path / "b.csv", "label,f1,f2\n1,2,oops\n")
    with pytest.raises(DataError, match="column 3"):
        load_csv(bad_feat)
    bad_label = write(tmp_path / "l.csv", "label,f1\n7,2\n")
    with pytest.raises(DataError, match="not binary"):
        load_csv(bad_label)
    missing = write(tmp_path / "m.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named"):
        load_csv(missing, label_column="y")
    empty = write(tmp_path / "e.csv", "")
    with pytest.raises(DataError, match="no rows"):
        load_csv(empty)


@pytest.mark.parametrize("kwargs", [{}, {"label_map": {"0": 0, "1": 1}}])
def test_load_csv_non_finite_feature_is_a_data_error_at_its_cell(tmp_path, kwargs):
    # both readers (a label map goes to the row loop directly) name the cell
    for cell in ("nan", "-inf", "1e400", " Infinity "):
        p = write(tmp_path / "d.csv", f"label,f1,f2\n1,0.5,2\n0,{cell},3\n")
        with pytest.raises(DataError) as err:
            load_csv(p, **kwargs)
        assert str(err.value) == (f"{p}: row 2, column 2: "
                                  f"feature value {cell.strip()!r} is not finite")
    unlabeled = write(tmp_path / "u.csv", "1,2\n3,nan\n")
    with pytest.raises(DataError, match="row 2, column 2: feature value 'nan' is not finite"):
        load_csv(unlabeled, labeled=False)


def test_load_csv_without_labels(tmp_path):
    p = write(tmp_path / "u.csv", "f1,f2\n0.5,-2\n3,\n")
    data = load_csv(p, add_intercept=True, labeled=False)
    assert np.array_equal(data.features, [[0.5, -2.0, 1.0], [3.0, 0.0, 1.0]])
    assert np.array_equal(data.labels, [0, 0]) and data.has_intercept
    assert load_csv(write(tmp_path / "n.csv", "1,2\n3,4\n"), labeled=False).n_samples == 2
    with pytest.raises(ValueError):
        load_csv(p, label_column=0, labeled=False)
    # every column is a feature, so positions count all of them
    cases = {"f1,f2\n1,2\n3\n": "row 2 has 1 cells, expected 2",
             "f1,f2\n1,oops\n": "row 1, column 2: cannot parse feature value 'oops'",
             "f1,f2\n": "file contains a header but no data rows",
             "": "file contains no rows"}
    for text, message in cases.items():
        bad = write(tmp_path / "bad.csv", text)
        with pytest.raises(DataError) as err:
            load_csv(bad, labeled=False)
        assert str(err.value) == f"{bad}: {message}"


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(67)
    data = Dataset(rng.standard_normal((25, 6)) * 1e3, rng.integers(0, 2, 25))
    p = tmp_path / "round.csv"
    save_csv(data, p)
    back = load_csv(str(p))
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    save_csv(back, tmp_path / "round2.csv")
    assert (tmp_path / "round.csv").read_bytes() == (tmp_path / "round2.csv").read_bytes()


def test_load_csv_first_row_with_a_number_is_data(tmp_path):
    # one typo in a headerless file's first row fails there; it does not
    # turn the row into a header and drop the sample
    typo = write(tmp_path / "t.csv", "1,2.0,abc\n0,1.5,2.5\n1,0.5,1.0\n")
    with pytest.raises(DataError) as err:
        load_csv(typo)
    assert str(err.value) == f"{typo}: row 1, column 3: cannot parse feature value 'abc'"
    named = load_csv(write(tmp_path / "n.csv", "label, ,f2\n1,0.5,2\n"))
    assert named.n_samples == 1  # a header may leave names blank
    blank = load_csv(write(tmp_path / "b.csv", " ,1\n0,2\n"), labeled=False)
    assert blank.n_samples == 2  # a row of blanks and numbers is data


# files at the edges of what numpy's C reader and the row loop accept
EDGE_FILES = {
    "blank lines": b"\nlabel,a,b\n\n1,2,3\n\n0,4,5\n\n",
    "whitespace-only line": b"label,a,b\n1,2,3\n \n0,4,5\n",
    "tab-only line": b"1,2,3\n\t\n0,4,5\n",
    "crlf": b"label,a,b\r\n1,2,3\r\n\r\n0,4,5\r\n",
    "cr": b"1,2,3\r0,4,5\r",
    "no final newline": b"1,2,3\n0,4,5",
    "quoted cells": b'"label","a","b"\n"1","2.5",3\n0,"4",5\n',
    "quoted comma": b'label,a,b\n1,"2,5",3\n',
    "quoted newline": b'label,a,b\n1,"2\n5",3\n',
    "padded cells": b"label,a,b\n 1 , 2.5 ,\t3\t\n0,\xc2\xa04,5\n",
    "underscore": b"1,1_0,3\n",
    "nan and inf": b"1,nan,3\n0,Infinity,-inf\n",
    "overflow": b"1,1e400,3\n",
    "inf after a finite row": b"label,a,b\n1,2,3\n0,4,-Infinity\n",
    "padded nan": b"label,a,b\n1, nan ,3\n",
    "nan with an empty cell": b"label,a,b\n1,,NaN\n",
    "nan label and inf feature": b"nan,inf,3\n",
    "subnormal and signed zero": b"1,-1e-320,-0\n-0,0,-0.0\n",
    "empty cell": b"label,a,b\n1,,3\n0,4,\n",
    "blank cell": b"label,a,b\n1, ,3\n",
    "trailing comma": b"1,2,3,\n0,4,5,\n",
    "short row": b"1,2,3\n0,4\n",
    "long row": b"1,2,3\n0,4,5,6\n",
    "non-binary label": b"2,2,3\n0,4,5\n",
    "float labels": b"1.0,2,3\n0e0,4,5\n+1,6,7\n",
    "nan label": b"nan,2,3\n",
    "header only": b"label,a,b\n",
    "header and blank lines": b"label,a,b\n\n\n",
    "empty file": b"",
    "fullwidth digit": b"1,\xef\xbc\x91,3\n",
    "nul": b"1,2\x00,3\n",
    "hex": b"1,0x10,3\n",
    "one column": b"1\n0\n",
    "label named y": b"a,y,b\n0.5,1,-2\n3,0,4\n",
    "padded names": b"a , label ,y\n0.5,1,-2\n3,0,4\n",
}


@pytest.mark.parametrize("name", EDGE_FILES)
def test_load_csv_equals_the_row_loop_on_edge_cases(tmp_path, name):
    path = tmp_path / "edge.csv"
    path.write_bytes(EDGE_FILES[name])
    modes = [{}, {"labeled": False}, {"label_column": 2}, {"label_column": "y"},
             {"header": "no"}, {"header": "yes"}]
    for mode in modes:
        loaded, row_loop = csv_outcomes(path, **mode)
        assert loaded == row_loop, mode


# --- sparse format -----------------------------------------------------------


def test_load_sparse_hand_case(tmp_path):
    p = write(tmp_path / "s.txt", "1 3:0.5\n0 1:2 2:-1\n\n")
    data = load_sparse_classification_format(p)
    assert np.array_equal(data.labels, np.array([1, 0]))
    assert np.array_equal(data.features,
                          np.array([[0.0, 0.0, 0.5], [2.0, -1.0, 0.0]]))


def test_load_sparse_num_features_override(tmp_path):
    p = write(tmp_path / "s.txt", "1 2:1.5\n")
    data = load_sparse_classification_format(p, num_features=5)
    assert data.features.shape == (1, 5)
    with pytest.raises(DataError, match="exceeds"):
        load_sparse_classification_format(p, num_features=1)


def test_load_sparse_rejects_malformed_lines(tmp_path):
    dup = write(tmp_path / "dup.txt", "1 2:1 2:3\n")
    with pytest.raises(DataError, match="duplicate"):
        load_sparse_classification_format(dup)
    zero_idx = write(tmp_path / "z.txt", "1 0:1\n")
    with pytest.raises(DataError, match="1-based"):
        load_sparse_classification_format(zero_idx)
    bad = write(tmp_path / "b.txt", "1 2;1\n")
    with pytest.raises(DataError, match="idx:val"):
        load_sparse_classification_format(bad)


def test_load_sparse_rejects_an_empty_value(tmp_path):
    # a truncated entry is an error, not a zero (blank means 0.0 in CSVs only)
    p = write(tmp_path / "e.txt", "1 3:\n0 1:2.5\n")
    with pytest.raises(DataError) as err:
        load_sparse_classification_format(p)
    assert str(err.value) == f"{p}: line 1: feature index 3 has no value"


def test_load_sparse_rejects_a_non_finite_value(tmp_path):
    for value in ("nan", "inf", "-1e400"):
        p = write(tmp_path / "n.txt", f"1 1:0.5\n0 1:2 3:{value}\n")
        with pytest.raises(DataError) as err:
            load_sparse_classification_format(p)
        assert str(err.value) == (f"{p}: line 2, feature index 3: "
                                  f"feature value {value!r} is not finite")


def test_load_sparse_limits_the_dense_size_before_allocating(tmp_path, monkeypatch):
    p = write(tmp_path / "s.txt", "1 7:0.5\n0 1:2\n")
    monkeypatch.setattr("wclogit.data.MAX_DENSE_ENTRIES", 14)
    assert load_sparse_classification_format(p).features.shape == (2, 7)
    monkeypatch.setattr("wclogit.data.MAX_DENSE_ENTRIES", 13)
    monkeypatch.setattr(np, "zeros", None)  # nothing may be allocated
    with pytest.raises(DataError) as err:
        load_sparse_classification_format(p)
    assert str(err.value) == (f"{p}: feature index 7 needs a dense 2 x 7 matrix, "
                              "above the limit of 13 entries")
    with pytest.raises(DataError) as err:
        load_sparse_classification_format(p, num_features=9)
    assert str(err.value) == (f"{p}: num_features = 9 needs a dense 2 x 9 matrix, "
                              "above the limit of 13 entries")


def test_load_sparse_intercept_and_label_map(tmp_path):
    p = write(tmp_path / "s.txt", "+1 1:2\n-1 2:3\n")
    data = load_sparse_classification_format(
        p, add_intercept=True, label_map={"+1": 1, "-1": 0})
    assert data.has_intercept
    assert np.array_equal(data.features, np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0]]))
    assert np.array_equal(data.labels, np.array([1, 0]))


# --- synthetic generation -------------------------------------------------------


def test_gen_separable_low_rank_replica():
    spec = SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=11)
    train, test, theta0 = gen_separable(spec)
    assert test is None
    assert train.features.shape == (1000, 50)
    assert np.linalg.matrix_rank(train.features) == 45
    assert np.linalg.norm(train.features, 2) == pytest.approx(1.0, rel=1e-12)
    assert np.count_nonzero(theta0) == 8
    amps = np.abs(theta0[theta0 != 0])
    assert np.all((amps >= 5.0) & (amps <= 15.0))
    assert np.array_equal(train.labels, (train.features @ theta0 >= 0).astype(int))
    assert 0 < train.labels.sum() < 1000


def test_gen_separable_full_rank_path():
    spec = SynthSpec(d=10, n_train=200, k=3, n_test=50, seed=12)
    train, test, theta0 = gen_separable(spec)
    assert train.features.shape == (200, 10)
    assert test.features.shape == (50, 10)
    assert np.linalg.matrix_rank(train.features) == 10
    assert np.array_equal(test.labels, (test.features @ theta0 >= 0).astype(int))


def test_gen_separable_deterministic_and_seed_sensitive():
    spec_a = SynthSpec(d=6, n_train=30, k=2, seed=13)
    ta, _, tha = gen_separable(spec_a)
    tb, _, thb = gen_separable(SynthSpec(d=6, n_train=30, k=2, seed=13))
    assert np.array_equal(ta.features, tb.features)
    assert np.array_equal(ta.labels, tb.labels)
    assert np.array_equal(tha, thb)
    tc, _, _ = gen_separable(SynthSpec(d=6, n_train=30, k=2, seed=14))
    assert not np.array_equal(ta.features, tc.features)


def test_gen_train_block_stable_under_test_size():
    # independent draw streams: adding test rows must not move the training
    # rows on the iid feature path
    base, _, th0 = gen_separable(SynthSpec(d=5, n_train=40, k=2, seed=15))
    grown, test, th1 = gen_separable(SynthSpec(d=5, n_train=40, k=2, n_test=25, seed=15))
    assert np.array_equal(base.features, grown.features)
    assert np.array_equal(base.labels, grown.labels)
    assert np.array_equal(th0, th1)
    assert test.n_samples == 25


def test_gen_noisy_at_zero_sigma_matches_separable():
    spec = SynthSpec(d=8, n_train=60, k=3, n_test=20, noise_sigma=0.0, seed=16)
    clean_train, clean_test, th_c = gen_separable(spec)
    noisy_train, noisy_test, th_n = gen_noisy(spec)
    assert np.array_equal(clean_train.features, noisy_train.features)
    assert np.array_equal(clean_train.labels, noisy_train.labels)
    assert np.array_equal(clean_test.labels, noisy_test.labels)
    assert np.array_equal(th_c, th_n)


def test_gen_noisy_flip_rate_increases_with_sigma():
    def flip_rate(sigma):
        spec = SynthSpec(d=10, n_train=2000, k=4, noise_sigma=sigma, seed=17)
        train, _, theta0 = gen_noisy(spec)
        clean = (train.features @ theta0 >= 0).astype(int)
        return float(np.mean(train.labels != clean))

    rates = [flip_rate(s) for s in (0.0, 0.5, 2.0, 8.0)]
    assert rates[0] == 0.0
    assert rates[0] < rates[1] < rates[2] < rates[3]


def test_gen_noisy_clean_test_labels_option():
    spec = SynthSpec(d=10, n_train=100, k=4, n_test=400, noise_sigma=5.0,
                     noisy_test_labels=False, seed=18)
    _, test, theta0 = gen_noisy(spec)
    assert np.array_equal(test.labels, (test.features @ theta0 >= 0).astype(int))
    spec_noisy = SynthSpec(d=10, n_train=100, k=4, n_test=400, noise_sigma=5.0,
                           noisy_test_labels=True, seed=18)
    _, test_noisy, _ = gen_noisy(spec_noisy)
    assert not np.array_equal(test_noisy.labels, test.labels)


def test_gen_normal_amplitude_law():
    spec = SynthSpec(d=30, n_train=50, k=30, amplitude="normal", seed=19)
    _, _, theta0 = gen_separable(spec)
    assert np.any(np.abs(theta0) < 5.0)  # not confined to the uniform band


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(d=0, n_train=10, k=0)
    with pytest.raises(ValueError):
        SynthSpec(d=5, n_train=10, k=6)
    with pytest.raises(ValueError):
        SynthSpec(d=5, n_train=10, k=2, latent_dim=6)
    with pytest.raises(ValueError):
        SynthSpec(d=5, n_train=10, k=2, amplitude="loguniform")
    with pytest.raises(ValueError):
        SynthSpec(d=5, n_train=10, k=2, noise_sigma=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(d=5, n_train=0, k=2)


@pytest.mark.parametrize("field, value", [("noise_sigma", float("nan")),
                                          ("amp_low", float("nan")),
                                          ("amp_high", float("inf"))])
def test_synth_spec_rejects_non_finite_numbers(field, value):
    # NaN passes every comparison check, and inf reached numpy's uniform
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SynthSpec(d=5, n_train=10, k=2, **{field: value})


def test_synth_spec_rejects_an_amplitude_range_beyond_the_float_range():
    with pytest.raises(ValueError, match="amp_high - amp_low"):
        SynthSpec(d=5, n_train=10, k=2, amp_low=-1e308, amp_high=1e308)


def test_margins_beyond_the_float_range_are_a_numerical_error():
    # amplitudes near 1e308 overflow x @ theta0, and a label taken from an
    # overflowed sum could have the wrong sign
    with pytest.raises(NumericalError, match="margins"):
        gen_noisy(SynthSpec(d=5, n_train=10, k=5, amp_low=1e308, amp_high=1e308))


def test_a_label_whose_noisy_margin_overflows_keeps_its_sign():
    # margins and noise both near 1e308: 12 of these 200 sums overflow, each
    # to an infinity of its own sign
    spec = SynthSpec(d=1, n_train=200, k=1, amp_low=5e307, amp_high=5e307,
                     noise_sigma=1e308, seed=3)
    train, _, theta0 = gen_noisy(spec)
    noise = _streams(3)["train_noise"].normal(0.0, 1e308, 200)
    halves = train.features @ theta0 / 2.0 + noise / 2.0
    assert np.array_equal(train.labels, (halves >= 0).astype(int))
