"""The paper's experiments: the (beta, zeta) grid search and the presets.

``run_cv_grid`` scores every cell of a :class:`CvGrid` on every repeat's
(train, test) pair; ``synthetic_pairs`` draws a repeat's synthetic pair.
The presets write the plot-ready CSVs of fig1/fig2 (convergence traces),
fig3 (the error grid) and table3 (the noise sweep) into a directory and,
unless ``quiet``, print a summary to stdout and notices to stderr.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SynthSpec, apply_center, center, gen_noisy, gen_separable
from .model import predict_many
from .penalty import PenaltySpec
from .solver import SolverConfig, fit, fit_cells, max_constant_stepsize, write_trace_csv

__all__ = ["CvGrid", "ErrorRow", "ErrorGrid", "run_cv_grid", "synthetic_pairs",
           "reproduce_convergence", "reproduce_error_grid", "reproduce_noise_table"]


def _stderr(msg: str) -> None:
    print(msg, file=sys.stderr)


@dataclass
class CvGrid:
    """Hyperparameter grid: positive betas, nonnegative zetas (zeta = 0 rows
    give the plain l1 baseline), repeated over fresh data per repeat."""

    betas: tuple
    zetas: tuple
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        self.betas = tuple(sorted(float(b) for b in self.betas))
        self.zetas = tuple(sorted(float(z) for z in self.zetas))
        if not self.betas or not self.zetas:
            raise ValueError("grid needs at least one beta and one zeta")
        # NaN would sort anywhere and pass both sign checks
        if not all(math.isfinite(v) for v in self.betas + self.zetas):
            raise ValueError(f"betas and zetas must be finite, got {self.betas} and {self.zetas}")
        if self.betas[0] <= 0:
            raise ValueError(f"betas must be positive, got {self.betas[0]}")
        if self.zetas[0] < 0:
            raise ValueError(f"zetas must be nonnegative, got {self.zetas[0]}")
        # a bool is an int, and range() would reject 2.5 only later
        for name in ("repeats", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True)
class ErrorRow:
    """One grid cell; the fields, in order, are the grid CSV's columns."""

    beta: float
    zeta: float
    mean_test_error: float
    std_error: float
    mean_iterations: float
    # share of repeats in which the cell's objective stalled within max_iters
    converged_fraction: float


@dataclass
class ErrorGrid:
    """One row per (beta, zeta) cell, errors averaged over repeats."""

    rows: list

    def __post_init__(self):
        for row in self.rows:
            if not (0.0 <= row.mean_test_error <= 1.0):
                raise ValueError(f"error rate {row.mean_test_error} outside [0, 1]")

    def best_row(self, l1: bool):
        """Lowest-error row among zeta = 0 cells (l1) or zeta > 0 cells."""
        pool = [r for r in self.rows if (r.zeta == 0.0) == l1]
        return min(pool, key=lambda r: (r.mean_test_error, r.beta, r.zeta), default=None)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in dataclasses.fields(ErrorRow)])
            writer.writerows([repr(v) for v in dataclasses.astuple(r)] for r in self.rows)

    def report(self, path, max_iters: int, quiet: bool, kind: str = "test") -> None:
        """Write the grid CSV to ``path``; unless ``quiet``, give the unconverged
        notice and print the best zeta = 0 and zeta > 0 rows by mean ``kind`` error."""
        self.write_csv(path)
        if quiet:
            return
        _notify_unconverged([self], max_iters)
        print(f"grid written to {path}")
        for l1, name in ((True, "zeta=0 baseline"), (False, "zeta>0")):
            row = self.best_row(l1=l1)
            if row is not None:
                print(f"best {name}: beta={row.beta:g}, zeta={row.zeta:g}, "
                      f"mean {kind} error {row.mean_test_error:.4f}")


def run_cv_grid(grid: CvGrid, dataset_for_repeat, alpha=None, eps_tol=1e-9,
                max_iters=1000, notify=None) -> ErrorGrid:
    """Fit and score every grid cell on every repeat's (train, test) pair.

    ``dataset_for_repeat(r)`` supplies the r-th pair; pairs are drawn once and
    shared by all cells, and all cells of a repeat are solved together by
    :func:`fit_cells`.  An explicit ``alpha`` outside a cell's admissible
    range falls back to the default with a ``notify`` notice (once per cell).
    Rows come back ordered by (beta, zeta).
    """
    pairs = [dataset_for_repeat(r) for r in range(grid.repeats)]
    cells = [(b, z) for b in grid.betas for z in grid.zetas]
    # alphas[r][c] is cell c's stepsize on repeat r, None for the default
    alphas = [[alpha] * len(cells) for _ in pairs]
    if alpha is not None:
        for c, (b, z) in enumerate(cells):
            spec = PenaltySpec(zeta=z, beta=b)
            noticed = False
            for r, (train, _) in enumerate(pairs):
                bound = max_constant_stepsize(b, spec, train)
                if not (0.0 < alpha < bound):
                    if notify is not None and not noticed:
                        noticed = True
                        notify(f"notice: stepsize {alpha:g} is outside (0, {bound:.6g}) "
                               f"for beta={b:g}, zeta={z:g}; using the default")
                    alphas[r][c] = None

    errors = np.empty((len(cells), grid.repeats))
    iterations = np.empty_like(errors)
    converged = np.empty_like(errors)
    for r, (train, test) in enumerate(pairs):
        result = fit_cells(train, cells, alphas[r], eps_tol=eps_tol, max_iters=max_iters)
        for c, theta in enumerate(result.theta):
            labels, _ = predict_many(theta, test.features)
            errors[c, r] = np.mean(labels != test.labels)
        iterations[:, r] = result.iterations
        converged[:, r] = result.converged
    return ErrorGrid(rows=[
        ErrorRow(b, z, float(errors[c].mean()), float(errors[c].std()),
                 float(iterations[c].mean()), float(converged[c].mean()))
        for c, (b, z) in enumerate(cells)])


def _notify_unconverged(grids, max_iters: int) -> None:
    """One notice when some cell of the grids hit max_iters on every repeat."""
    rows = [row for grid in grids for row in grid.rows]
    never = sum(row.converged_fraction == 0.0 for row in rows)
    if never:
        _stderr(f"notice: {never} of {len(rows)} grid cells never converged within "
                f"max_iters={max_iters} on any repeat; their errors are those of "
                "truncated iterates")


def synthetic_pairs(base: SynthSpec, seed: int):
    """``dataset_for_repeat`` for :func:`run_cv_grid`: repeat r draws ``base``
    at seed ``seed + r`` (``base.n_test`` must be >= 1) and centers the pair."""
    def pair_for_repeat(r):
        train, test, _ = gen_noisy(dataclasses.replace(base, seed=seed + r))
        train = center(train)
        return train, apply_center(test, train.center)
    return pair_for_repeat


# the convergence-demonstration problem: latent 45-dimensional subspace,
# unit-spectral-norm features, 8-sparse weights with amplitudes in [5, 15]
_CONVERGENCE_SPEC = SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=0)
_CONVERGENCE_BETA = 1.2
_CONVERGENCE_ZETA = 0.1
_CONVERGENCE_ALPHAS = (1.0, 2.0, 4.0)

# fig3's and table3's problem: Gaussian features, 5 normal nonzeros, 1000 test points
_ERROR_GRID_SPEC = SynthSpec(d=50, n_train=200, k=5, n_test=1000, amplitude="normal")


def _normalized(theta: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(theta)
    return theta / norm if norm > 0 else theta


def reproduce_convergence(out_dir: Path, accelerate: bool, max_iters: int,
                          quiet: bool) -> None:
    """fig1 (plain) or fig2 (momentum): a trace CSV per constant stepsize and
    the normalized estimates beside the ground truth and the l1 fit."""
    tag = "fig2" if accelerate else "fig1"
    train, _, theta0 = gen_separable(_CONVERGENCE_SPEC)
    spec = PenaltySpec(zeta=_CONVERGENCE_ZETA, beta=_CONVERGENCE_BETA)
    bound = max_constant_stepsize(_CONVERGENCE_BETA, spec, train)
    if not quiet:
        print(f"admissible constant stepsizes: (0, {bound:.6g})")

    estimates = {}
    for alpha in _CONVERGENCE_ALPHAS:
        config = SolverConfig(alpha=alpha, accelerate=accelerate,
                              eps_tol=1e-15, max_iters=max_iters)
        result = fit(train, _CONVERGENCE_BETA, spec, config)
        trace_path = out_dir / f"{tag}_alpha{alpha:g}.csv"
        write_trace_csv(result, trace_path)
        estimates[f"alpha{alpha:g}"] = _normalized(result.theta)
        if not quiet:
            print(f"alpha = {alpha:g}: final objective {result.final_objective:.6f}, "
                  f"trace in {trace_path}")

    l1_config = SolverConfig(eps_tol=1e-15, max_iters=max_iters, record_trace=False)
    l1_result = fit(train, _CONVERGENCE_BETA, PenaltySpec(zeta=0.0), l1_config)
    estimates["l1"] = _normalized(l1_result.theta)

    theta_path = out_dir / f"{tag}_theta.csv"
    columns = ["ground_truth"] + list(estimates)
    with open(theta_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + columns)
        reference = {"ground_truth": _normalized(theta0), **estimates}
        for j in range(theta0.size):
            writer.writerow([j] + [repr(float(reference[c][j])) for c in columns])
    if not quiet:
        print(f"normalized estimates in {theta_path}")


def reproduce_error_grid(out_dir: Path, repeats: int, max_iters: int,
                         quiet: bool) -> None:
    """fig3: test errors of the 7 x 4 (beta, zeta) grid, in fig3_grid.csv."""
    grid = CvGrid(betas=tuple(10.0 ** np.linspace(-2.8, 0.6, 7)),
                  zetas=(0.0, 0.01, 0.1, 1.0), repeats=repeats)
    # the published stepsize 0.1 predates the admissibility bound of the raw
    # Gaussian features; inadmissible cells fall back to the default
    error_grid = run_cv_grid(grid, synthetic_pairs(_ERROR_GRID_SPEC, 1000), alpha=0.1,
                             max_iters=max_iters, notify=None if quiet else _stderr)
    error_grid.report(out_dir / "fig3_grid.csv", max_iters, quiet)


def reproduce_noise_table(out_dir: Path, repeats: int, max_iters: int,
                          quiet: bool) -> None:
    """table3: per label-noise level, the best l1 and weakly convex test errors."""
    grid = CvGrid(betas=tuple(10.0 ** np.linspace(-3.0, 1.0, 7)),
                  zetas=(0.0, 0.001, 0.01, 0.1, 1.0, 10.0), repeats=repeats)
    path = out_dir / "table3.csv"
    grids = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["noise_level", "l1_error", "weakly_convex_error"])
        for level, sigma in enumerate((0.01, 0.03, 0.05, 0.1, 0.3, 0.5)):
            base = dataclasses.replace(_ERROR_GRID_SPEC, noise_sigma=sigma)
            error_grid = run_cv_grid(grid, synthetic_pairs(base, 3000 + 100 * level),
                                     max_iters=max_iters)
            grids.append(error_grid)
            l1 = error_grid.best_row(l1=True)
            wc = error_grid.best_row(l1=False)
            writer.writerow([repr(sigma), repr(l1.mean_test_error),
                             repr(wc.mean_test_error)])
            if not quiet:
                print(f"noise {sigma:g}: l1 error {l1.mean_test_error:.4f}, "
                      f"weakly convex error {wc.mean_test_error:.4f}")
    if not quiet:
        print(f"table written to {path}")
        _notify_unconverged(grids, max_iters)
