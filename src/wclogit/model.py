"""Logistic model: dataset container, loss, gradient, and curvature bounds.

Samples are rows of ``features``; labels live in {0, 1}.  For a weight
vector ``theta`` the model is  p(y=1 | x) = sigmoid(theta @ x)  and the
negative log-likelihood over the dataset is

    loss(theta) = sum_i log(1 + exp(-s_i * (theta @ x_i))),   s_i = 2*y_i - 1

which is evaluated through ``logaddexp`` so that margins up to +-1e4 stay
finite.  The gradient Lipschitz constant is bounded by ||X||^2 / 4 with
||X|| the spectral norm of the feature matrix.

The public functions check their inputs and then call the private kernels
below, which the solver calls directly: ``_margins_loss`` makes the one
pass ``z = X @ theta`` of a point and takes the loss from it, and
``_gradient_from_margins`` turns the same ``z`` into the gradient.  Both
also take points stacked as the rows of a matrix, one pass for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "Dataset",
    "sigmoid",
    "loss",
    "loss_gradient",
    "spectral_norm",
    "lipschitz_bound",
    "predict",
    "predict_many",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (N x d), binary labels, and centering bookkeeping.

    ``center`` is the vector already subtracted from the raw features
    (zeros when ``centered`` is false).  When ``has_intercept`` is true the
    last column is a constant-1 column that centering must leave alone.
    Instances are immutable: the fields cannot be reassigned and the
    feature and label arrays are read-only views, because ``spectral_norm``
    caches its result on the instance.  Derived datasets (``center``,
    splits, ...) are new instances with an empty cache.
    """

    features: np.ndarray
    labels: np.ndarray
    centered: bool = False
    center: np.ndarray | None = None
    has_intercept: bool = False
    # spectral_norm results keyed by tolerance
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(a))
    # one division: 1/d where a >= 0, e/d elsewhere
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def _margins_loss(X, neg_signs, theta):
    """The one pass over X for a point: margins z = theta @ X^T and the loss.

    ``neg_signs`` is 1 - 2*y, so each term is log(1 + exp(-s_i * z_i)).
    ``theta`` may also stack C points as the rows of a (C, d) array; z is
    then (C, N) and the loss an array of C values, each summed over its
    contiguous row exactly as the loss of that point alone.
    """
    z = theta @ X.T
    losses = np.logaddexp(0.0, neg_signs * z).sum(axis=-1)
    return z, losses if losses.ndim else float(losses)


def _gradient_from_margins(X, labels, z) -> np.ndarray:
    """Loss gradient (sigmoid(z) - y) @ X from the margins of a point, or of
    each row of stacked margins."""
    return (_sigmoid(z) - labels) @ X


def _kernels(data: Dataset):
    """Unchecked ``(evaluate, gradient)`` for data: ``evaluate(theta)`` returns
    ``(z, loss)`` and ``gradient(z)`` the loss gradient at the same point.
    Both accept a (C, d) stack of points as well as a single one."""
    labels = data.labels.astype(float)
    return (partial(_margins_loss, data.features, 1.0 - 2.0 * labels),
            partial(_gradient_from_margins, data.features, labels))


def sigmoid(t):
    """Numerically stable logistic function, elementwise."""
    out = _sigmoid(np.asarray(t, dtype=float))
    return float(out) if np.ndim(t) == 0 else out


def _check_theta(theta, data: Dataset) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (data.n_features,):
        raise ValueError(
            f"theta has shape {theta.shape} but the dataset has {data.n_features} features"
        )
    return theta


def loss(theta, data: Dataset) -> float:
    """Negative log-likelihood of the dataset under theta."""
    evaluate, _ = _kernels(data)
    return evaluate(_check_theta(theta, data))[1]


def loss_gradient(theta, data: Dataset) -> np.ndarray:
    """Gradient of the loss: X^T (sigmoid(X theta) - y)."""
    _, gradient = _kernels(data)
    return gradient(data.features @ _check_theta(theta, data))


def spectral_norm(data: Dataset, tol: float = 1e-10) -> float:
    """Largest singular value of the feature matrix by power iteration.

    The start vector comes from a fixed seed, so repeated calls agree
    bitwise.  Iteration stops once successive estimates agree to relative
    tolerance ``tol`` (capped at 10000 sweeps).  The result is cached on
    the dataset per ``tol``, so the iteration runs once per dataset.
    """
    norms = data._norms
    if tol not in norms:
        norms[tol] = _power_iteration(data.features, tol)
    return norms[tol]


def _power_iteration(X: np.ndarray, tol: float) -> float:
    if not X.any():
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(X.shape[1])
    nv = np.linalg.norm(v)
    v = v / nv
    estimate = 0.0
    for _ in range(10000):
        u = X @ v
        w = X.T @ u
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # start vector sits in the null space; perturb and continue
            v = rng.standard_normal(X.shape[1])
            v /= np.linalg.norm(v)
            continue
        new = float(np.sqrt(np.dot(u, u)))  # ||X v|| with ||v|| = 1
        v = w / nw
        if abs(new - estimate) <= tol * max(new, np.finfo(float).tiny):
            return new
        estimate = new
    return estimate


def lipschitz_bound(data: Dataset) -> float:
    """Upper bound ||X||^2 / 4 on the loss gradient's Lipschitz constant."""
    s = spectral_norm(data, tol=1e-12)
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
