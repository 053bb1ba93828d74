"""Logistic model: dataset container, loss, gradient, and curvature bounds.

Samples are rows of ``features``; labels live in {0, 1}.  For a weight
vector ``theta`` the model is  p(y=1 | x) = sigmoid(theta @ x)  and the
negative log-likelihood over the dataset is

    loss(theta) = sum_i log(1 + exp(-s_i * (theta @ x_i))),   s_i = 2*y_i - 1

evaluated term by term as  max(-s_i*z_i, 0) + log1p(exp(-|z_i|))  with
z_i = theta @ x_i, so that margins up to +-1e4 stay finite.  The gradient
Lipschitz constant is bounded by ||X||^2 / 4 with ||X|| the spectral norm
of the feature matrix.  ||X|| is the largest of the singular values that
one SVD per dataset computes and caches; the certificate takes the
matrix rank from the same vector.

The public functions check their inputs and then call the private kernels
below, which the solver calls directly.  A point ``theta`` must be a finite
vector of the data's width: ``_check_theta`` refuses any other with
``ValueError``, for ``loss``, ``loss_gradient``, ``predict``,
``predict_many`` and every solver and certificate function that takes a
point.  ``_margins`` makes the one pass ``z = X @ theta`` of a point and
computes its one ``e = exp(-|z|)`` in place; that pair serves both the
loss (``_loss_from_margins``) and the gradient
(``_gradient_from_margins``, through the sigmoid
``max(e, [z >= 0]) / (1 + e)``).  The kernels also take points stacked as
the rows of a matrix, one pass for all of them, or a batch of one-row
stacks, (m, 1, d) points with (m, 1, N) margins, one gemv per point;
their label operands are then the first rows of a block of repeated label
rows in the margins' shape, so that every elementwise step has operands
of one shape.  ``_exp_pair``, ``_margins`` and ``_gradient_from_margins``
write into the arrays their ``out`` gives, as numpy's ``out=`` does, so
that a caller with preallocated rows (a fit's block of iterates) computes
them with the same calls.  Each step keeps the bits of the plain formulas:
the tests hold those as oracles.

Every real, integer and switch setting the library takes is read by one
of the three readers here, where it enters: ``_check_real``,
``_check_integer`` (with its lower bound) and ``_check_bool``.  A bool or
a string is refused with ``ValueError``, never coerced: True is not the
real 1.0 or the integer 1, "0.5" is not a number, and "no" is not False.
Each reader returns the value as a Python float, int or bool; any other
bound (a real's range, an integer's upper bound) is the caller's to check.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

__all__ = [
    "Dataset",
    "NumericalError",
    "sigmoid",
    "loss",
    "loss_gradient",
    "spectral_norm",
    "lipschitz_bound",
    "predict",
    "predict_many",
]


class NumericalError(RuntimeError):
    """A computation produced a non-finite quantity."""


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_real(name: str, value) -> float:
    """``value`` as a float, refused with ``ValueError`` unless it is a real
    number that a float holds: True would run as 1.0, "0.5" would be parsed
    late or fail a comparison with a TypeError, and 10**400 would raise
    ``OverflowError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number in the float range") from None


def _check_integer(name: str, value, low: int) -> int:
    """``value`` as an int, refused with ``ValueError`` unless it is an integer
    >= ``low``: a bool would run as 0 or 1, and 2.5 or "3" would be
    truncated, parsed or fail late."""
    if not _is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_bool(name: str, value) -> bool:
    """``value`` as a bool, refused with ``ValueError`` unless it is a Python
    or numpy bool: "no" is truthy, and 1 or None would pass for one."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (N x d), binary labels, and centering bookkeeping.

    ``center`` is the vector already subtracted from the raw features
    (zeros when ``centered`` is false).  When ``has_intercept`` is true the
    last column is a constant-1 column that centering must leave alone.
    Instances are immutable: the fields cannot be reassigned and the
    feature and label arrays are read-only views, because the singular
    values of the features are computed once and cached on the instance.
    Derived datasets (``center``, splits, ...) are new instances with an
    empty cache.
    """

    features: np.ndarray
    labels: np.ndarray
    centered: bool = False
    center: np.ndarray | None = None
    has_intercept: bool = False

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"features must be a 2-d array with N,d >= 1, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(
                f"labels must be 1-d with one entry per sample, got shape {y.shape} "
                f"for {X.shape[0]} samples"
            )
        # check the raw values: casting first would turn 0.5 into 0
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must take values in {0, 1}")
        y = y.astype(int)
        c = self.center
        c = np.zeros(X.shape[1]) if c is None else np.asarray(c, dtype=float)
        if c.shape != (X.shape[1],) or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite length-d vector")
        X, y, c = X.view(), y.view(), c.view()
        for array in (X, y, c):
            array.flags.writeable = False
        for name, value in (("features", X), ("labels", y), ("center", c),
                            ("centered", _check_bool("centered", self.centered)),
                            ("has_intercept", _check_bool("has_intercept", self.has_intercept))):
            object.__setattr__(self, name, value)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _singular_values(self) -> np.ndarray:
        """Singular values of the features in descending order, read-only."""
        s = np.linalg.svd(self.features, compute_uv=False)
        s.flags.writeable = False
        return s


def _exp_pair(z: np.ndarray, out=None):
    """The margins z with e = exp(-|z|), the one exponential per margin,
    computed in one buffer, ``out`` or a new one.  ``z`` has at least one
    dimension: ``out=`` needs an array, and ``np.abs`` of a 0-d array
    returns a scalar."""
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return z, e


def _probabilities(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(z) from the pair (z, exp(-|z|)), one division: 1/(1+e) where
    z >= 0, e/(1+e) elsewhere.

    The numerator is max(e, [z >= 0]): the mask casts to 1.0 where z >= 0,
    which e <= 1 never exceeds, and to 0.0 elsewhere, which e >= 0 never
    falls below, so it is exactly 1 or e, and NaN where z is.
    """
    p = np.greater_equal(z, 0.0)
    p = np.maximum(e, p)
    p /= 1.0 + e
    return p


class _RepeatedRows:
    """A length-N vector shaped as the operand of an elementwise step on
    margins, a view in the margins' shape of the first c rows of a block
    of copies of it: c = 1 for the (N,) margins of one point, and c rows
    for a (c, N) stack or a batch (c, 1, N) of one-row stacks, because a
    same-shape operand costs about half of a broadcast row.

    Every row of the block holds the same values, so its first c rows are
    exact for any stack of c points.  The block is built at the largest
    stack height seen and grown on demand, and the view of its first c
    rows is kept per shape: a loop asks for the same shape on every
    iteration, and a dict lookup costs less than a new view.
    """

    def __init__(self, vector: np.ndarray):
        self.vector = vector
        self.block = vector[None]
        self.rows = {}

    def like(self, z: np.ndarray) -> np.ndarray:
        rows = self.rows.get(z.shape)
        if rows is None:
            height = z.size // self.vector.size
            if height > len(self.block):
                self.block = np.tile(self.vector, (height, 1))
                self.rows.clear()
            rows = self.rows[z.shape] = self.block[:height].reshape(z.shape)
        return rows


def _margins(X, theta, out=(None, None)):
    """The one pass over X for a point: the pair (z, exp(-|z|)) of its
    margins z = theta @ X^T, written into the pair ``out`` or new arrays;
    (C, N) arrays for a (C, d) stack of points, and (m, 1, N) for a batch
    of m one-point stacks, one gemv per point."""
    return _exp_pair(np.matmul(theta, X.T, out=out[0]), out=out[1])


def _loss_from_margins(neg_signs: _RepeatedRows, margins):
    """The loss of a point from its margins pair (z, exp(-|z|)), or an array
    of C losses from stacked margins, each summed over its contiguous row
    exactly as the loss of that point alone.  The pair is left as it is.

    ``neg_signs`` repeats 1 - 2*y, so each term log(1 + exp(-s_i * z_i)) is
    max(neg_signs_i * z_i, 0) + log1p(exp(-|z_i|)).
    """
    z, e = margins
    terms = neg_signs.like(z) * z
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e)
    losses = terms.sum(axis=-1)
    return losses if losses.ndim else float(losses)


def _margins_loss(X, neg_signs: _RepeatedRows, theta):
    """The margins pair of a point, or of a (C, d) stack of points, and its
    loss, from one exp per margin."""
    margins = _margins(X, theta)
    return margins, _loss_from_margins(neg_signs, margins)


def _gradient_from_margins(X, labels: _RepeatedRows, margins, out=None) -> np.ndarray:
    """Loss gradient (sigmoid(z) - y) @ X from the margins pair of a point,
    or of each row of stacked margins, written into ``out`` or a new array.
    The pair is left as it is."""
    residual = _probabilities(*margins)
    residual -= labels.like(residual)
    return np.matmul(residual, X, out=out)


def _kernels(data: Dataset):
    """Unchecked ``(evaluate, gradient, loss_of)`` for data:
    ``evaluate(theta)`` returns ``((z, exp(-|z|)), loss)``, and ``gradient``
    and ``loss_of`` turn such a margins pair into the loss gradient and the
    loss at the same point; ``evaluate`` is ``_margins`` then ``loss_of``, so
    a loss from margins computed apart has its bits.  All accept a (C, d)
    stack of points as well as a single one; each label operand keeps its
    own blocks of repeated rows."""
    labels = data.labels.astype(float)
    neg_signs = _RepeatedRows(1.0 - 2.0 * labels)
    return (partial(_margins_loss, data.features, neg_signs),
            partial(_gradient_from_margins, data.features, _RepeatedRows(labels)),
            partial(_loss_from_margins, neg_signs))


def sigmoid(t):
    """Numerically stable logistic function, elementwise."""
    t = np.asarray(t, dtype=float)
    out = _probabilities(*_exp_pair(np.atleast_1d(t)))
    return float(out[0]) if t.ndim == 0 else out


def _check_theta(theta, width: int) -> np.ndarray:
    """``theta`` as a float array, refused with ``ValueError`` unless it is a
    finite vector of the features' width: an infinite or NaN coordinate would
    give a NaN loss or probability, or an iteration that stalls at once."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (width,):
        raise ValueError(f"theta has shape {theta.shape} but the dataset has {width} features")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"theta must be finite, got {theta[bad[0]]} at coordinate {bad[0]}")
    return theta


def loss(theta, data: Dataset) -> float:
    """Negative log-likelihood of the dataset under theta; inf where it lies
    beyond the float range, without numpy's overflow warning."""
    evaluate, _, _ = _kernels(data)
    theta = _check_theta(theta, data.n_features)
    with np.errstate(over="ignore"):
        return evaluate(theta)[1]


def loss_gradient(theta, data: Dataset) -> np.ndarray:
    """Gradient of the loss: X^T (sigmoid(X theta) - y).  A margin beyond the
    float range reads +-inf, whose sigmoid is exact, without numpy's
    overflow warning."""
    _, gradient, _ = _kernels(data)
    theta = _check_theta(theta, data.n_features)
    with np.errstate(over="ignore"):
        return gradient(_margins(data.features, theta))


def spectral_norm(data: Dataset) -> float:
    """Spectral norm ||X|| of the feature matrix: its largest singular value,
    exact up to the rounding of the SVD that the dataset caches."""
    return float(data._singular_values[0])


def lipschitz_bound(data: Dataset) -> float:
    """Upper bound ||X||^2 / 4 on the loss gradient's Lipschitz constant."""
    s = spectral_norm(data)
    return 0.25 * s * s


def predict(theta, x):
    """Predicted label and probability for one sample; ties go to label 1.

    If the model was trained on centered features the caller must subtract
    the stored center from ``x`` first.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != theta.shape:
        raise ValueError(f"sample has shape {x.shape} but theta has shape {theta.shape}")
    z = float(x @ _check_theta(theta, x.size))
    return (1 if z >= 0 else 0), sigmoid(z)


def predict_many(theta, features):
    """Vectorized predict over the rows of a feature matrix."""
    X = np.asarray(features, dtype=float)
    z = X @ _check_theta(theta, X.shape[-1] if X.ndim else 0)
    return (z >= 0).astype(int), sigmoid(z)
