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
below, which the solver calls directly.  ``_margins`` makes the one pass
``z = X @ theta`` of a point and computes its one ``e = exp(-|z|)`` in
place; that pair serves both the loss (``_loss_from_margins``) and the
gradient (``_gradient_from_margins``, through the sigmoid
``max(e, [z >= 0]) / (1 + e)``).  The kernels also take points stacked as the rows of a
matrix, one pass for all of them; their label operands are then the first
rows of a block of repeated label rows, so that every elementwise step
has operands of one shape.  Each step keeps the bits of the plain
formulas: the tests hold those as oracles.
"""

from __future__ import annotations

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
                            ("centered", bool(self.centered)),
                            ("has_intercept", bool(self.has_intercept))):
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


def _exp_pair(z: np.ndarray):
    """The margins z with e = exp(-|z|), the one exponential per margin,
    computed in one buffer.  ``z`` has at least one dimension: ``out=``
    needs an array, and ``np.abs`` of a 0-d array returns a scalar."""
    e = np.abs(z)
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
    margins: the vector itself for the (N,) margins of one point, and for a
    (c, N) stack the first c rows of a block of copies of it, because a
    same-shape operand costs about half of a broadcast row.

    Every row of the block holds the same values, so its first c rows are
    exact for any stack of c points.  The block is built at the largest
    stack height seen and grown on demand, and the view of its first c
    rows is kept per height: a loop asks for the same height on every
    iteration, and a dict lookup costs less than a new view.
    """

    def __init__(self, vector: np.ndarray):
        self.vector = vector
        self.block = vector[None]
        self.rows = {}

    def like(self, z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            return self.vector
        height = z.shape[0]
        rows = self.rows.get(height)
        if rows is None:
            if height > self.block.shape[0]:
                self.block = np.tile(self.vector, (height, 1))
                self.rows.clear()
            rows = self.rows[height] = self.block[:height]
        return rows


def _margins(X, theta):
    """The one pass over X for a point: the pair (z, exp(-|z|)) of its
    margins z = theta @ X^T; (C, N) arrays for a (C, d) stack of points."""
    return _exp_pair(theta @ X.T)


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


def _gradient_from_margins(X, labels: _RepeatedRows, margins) -> np.ndarray:
    """Loss gradient (sigmoid(z) - y) @ X from the margins pair of a point,
    or of each row of stacked margins.  The pair is left as it is."""
    residual = _probabilities(*margins)
    residual -= labels.like(residual)
    return residual @ X


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


def _check_theta(theta, data: Dataset) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (data.n_features,):
        raise ValueError(
            f"theta has shape {theta.shape} but the dataset has {data.n_features} features"
        )
    return theta


def loss(theta, data: Dataset) -> float:
    """Negative log-likelihood of the dataset under theta."""
    evaluate, _, _ = _kernels(data)
    return evaluate(_check_theta(theta, data))[1]


def loss_gradient(theta, data: Dataset) -> np.ndarray:
    """Gradient of the loss: X^T (sigmoid(X theta) - y)."""
    _, gradient, _ = _kernels(data)
    return gradient(_margins(data.features, _check_theta(theta, data)))


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
    z = float(x @ theta)
    return (1 if z >= 0 else 0), sigmoid(z)


def predict_many(theta, features):
    """Vectorized predict over the rows of a feature matrix."""
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(features, dtype=float)
    z = X @ theta
    return (z >= 0).astype(int), sigmoid(z)
