"""Shared independent oracles for the test suite.

These deliberately avoid the library's closed-form code paths: the prox
oracle minimizes over a dense grid, the l1 oracle enumerates sign
patterns and solves smooth bound-constrained problems with L-BFGS-B, and
the CSV oracle is the loader's Python row loop on its own.
"""

from itertools import product

import numpy as np
from scipy.optimize import minimize

from wclogit.data import _read_rows, load_csv
from wclogit.model import Dataset, loss, loss_gradient


def _outcome(read):
    """A load's result as bytes, or its error's type and message."""
    try:
        data = read()
    except ValueError as exc:  # DataError included
        return type(exc).__name__, str(exc)
    return data.features.shape, data.features.tobytes(), data.labels.tobytes()


def csv_outcomes(path, label_column=None, header="auto", labeled=True):
    """``load_csv`` and the Python row loop alone, on the same file."""
    loaded = _outcome(lambda: load_csv(path, label_column=label_column, header=header,
                                       labeled=labeled))
    row_loop = _outcome(lambda: Dataset(*_read_rows(path, label_column, None, header,
                                                    labeled)))
    return loaded, row_loop


def random_instance(rng, n, d):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    return Dataset(X, y)


def mcp_value_reference(t, zeta):
    """Straight transcription of the piecewise penalty, scalars only."""
    a = abs(t)
    if zeta == 0:
        return a
    if a <= 1.0 / (2.0 * zeta):
        return a - zeta * a * a
    return 1.0 / (4.0 * zeta)


def prox_grid_oracle(v, w, zeta, spacing=1e-4):
    """Minimize w*F(u) + (u - v)^2/2 on a dense grid around v."""
    lo, hi = -10.0 * abs(v) - 1.0, 10.0 * abs(v) + 1.0
    grid = np.arange(lo, hi + spacing, spacing)
    a = np.abs(grid)
    if zeta == 0:
        pen = a
    else:
        pen = np.where(a <= 1.0 / (2.0 * zeta), a - zeta * grid * grid, 1.0 / (4.0 * zeta))
    objective = w * pen + 0.5 * (grid - v) ** 2
    return float(grid[np.argmin(objective)])


def random_prox_case(rng):
    """(v, w, zeta) with w*zeta < 1/2 and |v| small enough for the oracle grid."""
    v = rng.uniform(-3.0, 3.0)
    w = rng.uniform(0.05, 2.0)
    zeta = rng.uniform(0.0, 0.475) / w
    return v, w, zeta


def l1_objective(theta, data, beta):
    return loss(theta, data) + beta * float(np.sum(np.abs(theta)))


def l1_global_oracle(data, beta):
    """Global minimum of loss + beta*||theta||_1 by sign-pattern enumeration.

    For each pattern s in {-1,0,+1}^d the objective restricted to the
    matching orthant is the smooth function loss(theta) + beta * s@theta,
    minimized under bound constraints; the best value over all patterns is
    the global optimum of the convex problem.  Only usable for small d.
    """
    d = data.n_features
    best = np.inf
    for pattern in product((-1.0, 0.0, 1.0), repeat=d):
        s = np.array(pattern)
        bounds = []
        for si in s:
            if si > 0:
                bounds.append((0.0, None))
            elif si < 0:
                bounds.append((None, 0.0))
            else:
                bounds.append((0.0, 0.0))

        def fun(theta, s=s):
            return loss(theta, data) + beta * float(s @ theta)

        def jac(theta, s=s):
            return loss_gradient(theta, data) + beta * s

        res = minimize(fun, x0=0.01 * s, jac=jac, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 3000})
        value = l1_objective(res.x, data, beta)
        best = min(best, value)
    return best
