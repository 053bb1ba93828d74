"""Dataset loading, preprocessing, and synthetic problem generation.

Synthetic problems draw a feature matrix (optionally through a low-rank
factor pair so the features live in a proper subspace and the problem is
certifiably nonconvex), a k-sparse ground-truth weight vector, and labels
y = 1(x @ theta0 + noise >= 0).  Every random quantity comes from its own
named child stream of one seed, so adding or removing a draw in one place
never shifts the others and the clean generator matches the noisy one at
noise_sigma = 0.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, NumericalError, _check_bool, _check_integer, _check_real, _is_integer

__all__ = [
    "DataError",
    "SynthSpec",
    "load_csv",
    "load_sparse_classification_format",
    "save_csv",
    "center",
    "apply_center",
    "train_test_split",
    "gen_separable",
    "gen_noisy",
]

# child-stream order of the generator seed; fixed so that draws stay put
_STREAMS = ("latent_left", "latent_right", "features", "support",
            "amplitudes", "signs", "train_noise", "test_noise")

# the most entries N*d a sparse file may expand to (512 MiB of float64)
MAX_DENSE_ENTRIES = 2 ** 26

AMPLITUDE_UNIFORM = "uniform"
AMPLITUDE_NORMAL = "normal"


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass
class SynthSpec:
    """Parameters of one synthetic classification problem.

    ``latent_dim`` routes the features through a d x latent_dim times
    latent_dim x N factor product (scaled to unit spectral norm on the
    training block); None draws iid standard normal features.  Amplitudes
    of the k nonzeros of theta0 are either uniform on [amp_low, amp_high]
    with random signs, or standard normal.  ``noisy_test_labels`` controls
    whether test labels get their own noise draw or stay clean.
    """

    d: int
    n_train: int
    k: int
    n_test: int = 0
    latent_dim: int | None = None
    amplitude: str = AMPLITUDE_UNIFORM
    amp_low: float = 5.0
    amp_high: float = 15.0
    noise_sigma: float = 0.0
    noisy_test_labels: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d", 1), ("n_train", 1), ("k", 0), ("n_test", 0), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        if self.latent_dim is not None:
            _check_integer("latent_dim", self.latent_dim, 1)
        _check_bool("noisy_test_labels", self.noisy_test_labels)
        if self.k > self.d:
            raise ValueError(f"k must lie in [0, d] = [0, {self.d}], got {self.k}")
        if self.latent_dim is not None and self.latent_dim > self.d:
            raise ValueError(
                f"latent_dim must lie in [1, d] = [1, {self.d}], got {self.latent_dim}"
            )
        if self.amplitude not in (AMPLITUDE_UNIFORM, AMPLITUDE_NORMAL):
            raise ValueError(f"unknown amplitude law {self.amplitude!r}")
        for name in ("amp_low", "amp_high", "noise_sigma"):
            if not math.isfinite(_check_real(name, getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.amp_low > self.amp_high:
            raise ValueError("amp_low must not exceed amp_high")
        if not math.isfinite(self.amp_high - self.amp_low):
            raise ValueError("amp_high - amp_low must lie in the float range")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def _streams(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(_STREAMS, children)}


def _generate(spec: SynthSpec, with_noise: bool):
    rng = _streams(spec.seed)
    n_total = spec.n_train + spec.n_test

    if spec.latent_dim is not None:
        A = rng["latent_left"].standard_normal((spec.d, spec.latent_dim))
        B = rng["latent_right"].standard_normal((spec.latent_dim, n_total))
        M = A @ B
        scale = np.linalg.norm(M[:, : spec.n_train], 2)
        X_all = (M / scale).T
    else:
        X_all = rng["features"].standard_normal((n_total, spec.d))

    support = rng["support"].choice(spec.d, size=spec.k, replace=False)
    if spec.amplitude == AMPLITUDE_UNIFORM:
        values = rng["amplitudes"].uniform(spec.amp_low, spec.amp_high, spec.k)
        values *= rng["signs"].choice([-1.0, 1.0], size=spec.k)
    else:
        values = rng["amplitudes"].standard_normal(spec.k)
    theta0 = np.zeros(spec.d)
    theta0[support] = values

    with np.errstate(over="ignore", invalid="ignore"):
        margins = X_all @ theta0
    if not np.isfinite(margins).all():
        raise NumericalError("the margins x @ theta0 leave the float range; "
                             "lower the amplitudes")
    train_noise = np.zeros(spec.n_train)
    test_noise = np.zeros(spec.n_test)
    if with_noise and spec.noise_sigma > 0:
        train_noise = rng["train_noise"].normal(0.0, spec.noise_sigma, spec.n_train)
        if spec.noisy_test_labels:
            test_noise = rng["test_noise"].normal(0.0, spec.noise_sigma, spec.n_test)
    # a sum beyond the float range rounds to an infinity of its own sign
    with np.errstate(over="ignore"):
        labels_train = (margins[: spec.n_train] + train_noise >= 0).astype(int)
        labels_test = (margins[spec.n_train:] + test_noise >= 0).astype(int)
    train = Dataset(X_all[: spec.n_train], labels_train)
    test = Dataset(X_all[spec.n_train:], labels_test) if spec.n_test > 0 else None
    return train, test, theta0


def gen_separable(spec: SynthSpec):
    """Noise-free labels 1(x @ theta0 >= 0); the data is linearly separable."""
    return _generate(spec, with_noise=False)


def gen_noisy(spec: SynthSpec):
    """Labels 1(x @ theta0 + noise >= 0) with Gaussian pre-threshold noise."""
    return _generate(spec, with_noise=True)


def center(data: Dataset) -> Dataset:
    """Subtract column means (the intercept column, if any, is exempt).

    The returned dataset accumulates the total shift in ``center`` so that
    held-out data can be mapped the same way.  Centering twice is a no-op
    up to rounding.
    """
    def column_means(X):
        shift = X.mean(axis=0)
        if data.has_intercept:
            shift[-1] = 0.0
        return shift

    X, shift = _shifted(data.features, column_means)
    return Dataset(X, data.labels, centered=True, center=data.center + shift,
                   has_intercept=data.has_intercept)


def apply_center(data: Dataset, shift: np.ndarray) -> Dataset:
    """Shift features by an externally computed center (training center)."""
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (data.n_features,):
        raise ValueError(
            f"center has shape {shift.shape} but the dataset has {data.n_features} features"
        )
    X, _ = _shifted(data.features, lambda X: shift - data.center)
    return Dataset(X, data.labels, centered=True, center=shift,
                   has_intercept=data.has_intercept)


def _shifted(features: np.ndarray, shift_of):
    """``(features - shift, shift)`` with ``shift = shift_of(features)``; a value
    beyond the float range raises :class:`NumericalError` naming its column."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            shift = shift_of(features)
            return features - shift, shift
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            shift = shift_of(features)
            finite = np.isfinite(shift) & np.isfinite(features - shift).all(axis=0)
    raise NumericalError(f"centering leaves the float range in feature column "
                         f"{int(np.argmin(finite)) + 1}; rescale the features")


def train_test_split(data: Dataset, test_fraction: float, seed: int,
                     center_split: bool = True):
    """Seeded shuffle and split; the test side is centered with the training
    center when ``center_split`` is set.  ``seed`` is an integer >= 0."""
    # None would draw from OS entropy, and a float or a negative seed would
    # fail inside numpy
    _check_integer("seed", seed, 0)
    _check_bool("center_split", center_split)
    if not (0.0 < _check_real("test_fraction", test_fraction) < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = data.n_samples
    n_test = int(np.floor(n * test_fraction))
    n_train = n - n_test
    if n_test < 1 or n_train < 1:
        raise DataError(
            f"split of {n} samples at test_fraction {test_fraction} leaves an empty side"
        )
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    train = Dataset(data.features[tr], data.labels[tr], centered=data.centered,
                    center=data.center, has_intercept=data.has_intercept)
    test = Dataset(data.features[te], data.labels[te], centered=data.centered,
                   center=data.center, has_intercept=data.has_intercept)
    if center_split:
        train = center(train)
        test = apply_center(test, train.center)
    return train, test


def _number(token: str, kind=float):
    """``kind(token)``, ``kind`` float or int, for a number token of a file.

    After ``strip()`` the token must be ASCII with no ``_``: the spelling
    that numpy's C reader and the ``repr`` writers share.  Python's
    ``float()`` and ``int()`` also read digit-group underscores and
    non-ASCII digits (``1_0`` as 10, a full-width ``２`` as 2); such a token
    raises the ``ValueError`` that ``float()`` raises for one it cannot read.
    """
    text = token.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to {kind.__name__}: {token!r}")
    return kind(text)


@contextlib.contextmanager
def _open_text(path, newline=None):
    """``path`` opened for reading as UTF-8, past a leading byte-order mark,
    for the ``with`` block of every file reader: a byte that is not UTF-8,
    wherever in the block it is read, raises :class:`DataError` naming the
    file.  The decoder's byte offset is left out: it counts from the start
    of the chunk it decoded, not of the file."""
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: the file is not UTF-8 text ({exc.reason})") from None


def _parse_label(token: str, label_map: dict | None, where: str) -> int:
    if label_map is not None:
        if token in label_map:
            return int(label_map[token])
        raise DataError(f"{where}: label {token!r} is not covered by the label map")
    try:
        value = _number(token)
    except ValueError:
        raise DataError(
            f"{where}: cannot parse label {token!r}; pass a label map for string labels"
        ) from None
    if value in (0.0, 1.0):
        return int(value)
    raise DataError(
        f"{where}: label {token!r} is not binary; labels must be 0 or 1 "
        "(use a label map for other encodings)"
    )


def _parse_feature(token: str, where: str) -> float:
    if token == "":
        return 0.0  # missing values are filled with zeros
    try:
        value = _number(token)
    except ValueError:
        raise DataError(f"{where}: cannot parse feature value {token!r}") from None
    # nan, inf, and numbers beyond the float range such as 1e400
    if not math.isfinite(value):
        raise DataError(f"{where}: feature value {token!r} is not finite")
    return value


def _looks_like_header(row: list[str]) -> bool:
    """A header row has a non-blank cell and no cell that parses as a number,
    so a data row with one bad token stays data and fails at that token.
    Plain ``float()`` decides, not ``_number``: a first row of ``1_0`` or
    ``２`` cells is then data, refused at its first such cell, not dropped
    as a header."""
    named = False
    for cell in row:
        if cell.strip() == "":
            continue
        try:
            float(cell)
        except ValueError:
            named = True
        else:
            return False
    return named


def _has_header(first_row: list[str], header: str) -> bool:
    """Whether the first row is a header under the checked ``header`` setting."""
    return _looks_like_header(first_row) if header == "auto" else header == "yes"


def _label_index(path, names, label_column, labeled: bool, width: int):
    """Resolve the label column against the header names and the row width."""
    if not labeled:
        return None
    if label_column is None:
        if names is not None and "label" in names:
            label_idx = names.index("label")
        else:
            label_idx = 0
    elif isinstance(label_column, str):
        if names is None:
            raise DataError(
                f"{path}: label column {label_column!r} was given by name but the "
                "file has no header"
            )
        if label_column not in names:
            raise DataError(f"{path}: no column named {label_column!r} in header")
        label_idx = names.index(label_column)
    else:
        label_idx = int(label_column)
    if not (0 <= label_idx < width):
        raise DataError(f"{path}: label column index {label_idx} out of range for "
                        f"{width} columns")
    if width == 1:
        raise DataError(f"{path}: the file has a label column but no feature column")
    return label_idx


def load_csv(path, label_column=None, add_intercept: bool = False,
             label_map: dict | None = None, header: str = "auto",
             labeled: bool = True) -> Dataset:
    """Load a dense CSV with one label column; empty cells become 0.0.

    The first non-empty row decides whether the file has a header; the
    rest goes to numpy's C reader in one pass, and the labels must then be
    0 or 1.  A file the C reader declines (an empty or unparsable cell, a
    ragged row, a label other than 0 or 1, no data rows) is read again by
    the Python row loop, and so is a file with a non-finite feature (nan,
    inf, or a number beyond the float range); a file read with a label map
    (whose labels are matched as text) goes to it directly.  The row loop
    fills empty (or whitespace-only) cells with 0.0 and reports the exact
    row and column of what does not parse or is not finite.  Both readers
    read one number language: the C reader converts numbers as Python's
    ``float`` does, and both refuse the spellings that only ``float``
    accepts, digit-group underscores (``1_0``) and non-ASCII digits (``２``),
    so they give the same bits or the same refusal.  Every reader of a file
    (this one, the sparse reader and ``load_model``) reads it through
    ``_open_text``: UTF-8, past a leading byte-order mark, and a byte that
    is not UTF-8 is a :class:`DataError` naming the file.

    ``label_column`` may be a header name or a 0-based index; None means
    the column named "label" when a header exists, else column 0.  A
    negative index, or any other type (a bool, a float), is a setting no
    file can meet: ``ValueError`` before the file is opened, as for any
    other ``header`` or a switch that is not a bool.
    ``header`` is "auto", "yes", or "no"; "auto" takes the first row as a
    header only when none of its non-blank cells parses as a number.  With
    ``labeled=False`` the file holds features only (data to predict on):
    every column is a feature, the returned labels are all-zero
    placeholders, and ``label_column`` and ``label_map`` must stay unset.
    A labeled file needs a feature column besides the label, with or
    without ``add_intercept``.
    """
    # settings, not the file's fault: no file has a bool, fractional or
    # negative column, or meets another header setting
    _check_bool("add_intercept", add_intercept)
    _check_bool("labeled", labeled)
    if header not in ("auto", "yes", "no"):
        raise ValueError(f"header must be 'auto', 'yes', or 'no', got {header!r}")
    if not labeled and (label_column is not None or label_map is not None):
        raise ValueError("a file without labels takes no label column or label map")
    if not (label_column is None or isinstance(label_column, str) or _is_integer(label_column)):
        raise ValueError(f"label column must be a name or an integer index, got {label_column!r}")
    if _is_integer(label_column) and label_column < 0:
        raise ValueError(f"label column index must be at least 0, got {label_column}")
    parsed = _read_table(path, label_column, header, labeled) if label_map is None else None
    if parsed is None:
        parsed = _read_rows(path, label_column, label_map, header, labeled)
    return _loaded(*parsed, add_intercept)


def _read_table(path, label_column, header: str, labeled: bool):
    """``(X, y)`` from numpy's C reader, or None for a file it declines."""
    with _open_text(path, newline="") as fh:
        first = next((row for row in csv.reader(fh) if row), None)
        if first is None:
            return None
        has_header = _has_header(first, header)
        if not has_header:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                # a file without data rows is declined below, with no warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                table = np.loadtxt(fh, dtype=float, delimiter=",", quotechar='"',
                                   comments=None, ndmin=2)
        except ValueError:
            return None
    if table.shape[0] == 0:
        return None
    names = [c.strip() for c in first] if has_header else None
    label_idx = _label_index(path, names, label_column, labeled, table.shape[1])
    # the row loop names the row and column of a non-finite feature
    if not np.isfinite(table).all():
        return None
    if label_idx is None:
        return table, np.zeros(table.shape[0], dtype=int)
    labels = table[:, label_idx]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        return None
    return np.delete(table, label_idx, axis=1), labels.astype(int)


def _read_rows(path, label_column, label_map, header: str, labeled: bool):
    """``(X, y)`` parsed row by row: blank cells, label maps and messages."""
    with _open_text(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"{path}: file contains no rows")

    names = None
    if _has_header(rows[0], header):
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: file contains a header but no data rows")

    width = len(rows[0])
    label_idx = _label_index(path, names, label_column, labeled, width)
    features = []
    labels = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        where = f"{path}: row {i + 1}"
        cells = row
        if labeled:
            labels.append(_parse_label(row[label_idx].strip(), label_map, where))
            cells = row[:label_idx] + row[label_idx + 1:]
        try:
            # a cell the reader rejects, or a non-finite value, sends the row
            # to the per-cell parse
            values = list(map(_number, cells))
        except ValueError:  # an empty cell, or a bad one to point at
            values = None
        if values is None or not all(map(math.isfinite, values)):
            values = [_parse_feature(cell.strip(), f"{where}, column {j + 1}")
                      for j, cell in enumerate(row) if j != label_idx]
        features.append(values)
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels) if labeled else np.zeros(X.shape[0], dtype=int)
    return X, y


def load_sparse_classification_format(path, add_intercept: bool = False,
                                      num_features: int | None = None,
                                      label_map: dict | None = None) -> Dataset:
    """Load the plain-text sparse format ``label idx:val idx:val ...``.

    Indices are 1-based; absent features are zero.  The dimension is the
    largest index seen unless ``num_features`` pins it (needed to keep
    train and test files aligned), up to ``MAX_DENSE_ENTRIES`` entries in all.
    A ``num_features`` that is not an integer >= 1, or an ``add_intercept``
    that is not a bool, is a setting no file can meet: ``ValueError``
    before the file is opened.
    """
    # settings, not the file's fault; a bool would run as d = 1
    _check_bool("add_intercept", add_intercept)
    if num_features is not None:
        _check_integer("num_features", num_features, 1)
    entries = []
    labels = []
    max_idx = 0
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            where = f"{path}: line {lineno}"
            labels.append(_parse_label(tokens[0], label_map, where))
            row = {}
            for tok in tokens[1:]:
                if ":" not in tok:
                    raise DataError(f"{where}: malformed entry {tok!r}, expected idx:val")
                idx_str, val_str = tok.split(":", 1)
                try:
                    idx = _number(idx_str, int)
                except ValueError:
                    raise DataError(f"{where}: feature index {idx_str!r} is not an integer") from None
                if idx < 1:
                    raise DataError(f"{where}: feature indices are 1-based, got {idx}")
                if idx in row:
                    raise DataError(f"{where}: duplicate feature index {idx}")
                if val_str == "":  # an absent feature is left out, never written empty
                    raise DataError(f"{where}: feature index {idx} has no value")
                row[idx] = _parse_feature(val_str, f"{where}, feature index {idx}")
                max_idx = max(max_idx, idx)
            entries.append(row)
    if not entries:
        raise DataError(f"{path}: file contains no rows")
    d = num_features if num_features is not None else max_idx
    if d < 1:
        raise DataError(f"{path}: cannot infer the feature dimension from an all-empty file")
    if max_idx > d:
        raise DataError(f"{path}: feature index {max_idx} exceeds num_features = {d}")
    if len(entries) * d > MAX_DENSE_ENTRIES:
        what = f"num_features = {d}" if num_features is not None else f"feature index {d}"
        raise DataError(f"{path}: {what} needs a dense {len(entries)} x {d} matrix, above "
                        f"the limit of {MAX_DENSE_ENTRIES} entries")
    X = np.zeros((len(entries), d))
    for i, row in enumerate(entries):
        for idx, val in row.items():
            X[i, idx - 1] = val
    return _loaded(X, np.asarray(labels), add_intercept)


def _loaded(X, y, add_intercept: bool) -> Dataset:
    """The dataset a loader read, with a column of ones appended to the
    features where ``add_intercept`` asks for one."""
    if add_intercept:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    return Dataset(X, y, has_intercept=add_intercept)


def save_csv(data: Dataset, path) -> None:
    """Write ``label,f1,...,fd`` rows as :func:`_write_csv` does: every line
    ends in ``\\r\\n``, no field is quoted and every feature is its shortest
    round-trip ``repr``, so a load/save/load round trip reproduces the
    features bit for bit.  Rows become Python floats one at a time, so the
    writer never holds more than one row of them."""
    _write_csv(path, ["label"] + [f"f{j + 1}" for j in range(data.n_features)],
               ([y] + x.tolist() for y, x in zip(data.labels.tolist(), data.features)))


def _write_csv(path, header, rows) -> None:
    """Write the column names, then one line per row of ``rows``, whose values
    are Python ints and floats, as the standard library's CSV writer writes
    them: each value's ``repr``, no field quoted, ``\\r\\n`` at the end."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
