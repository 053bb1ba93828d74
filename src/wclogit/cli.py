"""Command-line front end.

Subcommands

    train      fit a model on a CSV or sparse-text dataset, save a model file
    predict    apply a saved model; writes ``index,label,prob`` rows
    certify    optimality report for a saved model on its training data
    cv         (beta, zeta) grid search over repeated draws or splits
    generate   write synthetic train/test CSVs plus the ground-truth weights
    reproduce  canned experiment presets emitting plot-ready CSVs

Exit codes: 0 success, 1 usage or configuration error, 2 data or file
error, 3 numerical failure.  Identical command lines (including seeds)
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certify import beta_threshold, check_mcp_local_opt
from .data import (
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
)
from .model import Dataset, predict_many
from .modelfile import ModelFile, load_model, save_model
from .penalty import PenaltySpec
from .solver import (
    BACKTRACKING,
    CONSTANT,
    NumericalError,
    SolverConfig,
    fit,
    fit_cells,
    max_constant_stepsize,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

__all__ = ["CvGrid", "ErrorRow", "ErrorGrid", "run_cv_grid", "main"]


# --- cross-validation grid types ---------------------------------------------


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
        if not pool:
            return None
        return min(pool, key=lambda r: (r.mean_test_error, r.beta, r.zeta))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta", "zeta", "mean_test_error", "std_error",
                             "mean_iterations", "converged_fraction"])
            for r in self.rows:
                writer.writerow([repr(r.beta), repr(r.zeta), repr(r.mean_test_error),
                                 repr(r.std_error), repr(r.mean_iterations),
                                 repr(r.converged_fraction)])


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


def _notify_unconverged(grids, max_iters: int, notify) -> None:
    """One notice when some cell of the grids hit max_iters on every repeat."""
    rows = [row for grid in grids for row in grid.rows]
    never = sum(row.converged_fraction == 0.0 for row in rows)
    if never and notify is not None:
        total = len(rows)
        notify(f"notice: {never} of {total} grid cells never converged within "
               f"max_iters={max_iters} on any repeat; their errors are those of "
               "truncated iterates")


# --- dataset plumbing ---------------------------------------------------------


def _add_dataset_flags(parser, required_path=True):
    if required_path:
        parser.add_argument("data", help="dataset path")
    else:
        parser.add_argument("--data", help="dataset path (omit to use synthetic data)")
    parser.add_argument("--sparse-format", action="store_true",
                        help="read 'label idx:val ...' text instead of CSV")
    parser.add_argument("--num-features", type=int, default=None,
                        help="pin the sparse feature dimension")
    parser.add_argument("--label-col", default=None,
                        help="label column name or 0-based index (CSV only)")
    parser.add_argument("--pm1-labels", action="store_true",
                        help="map labels -1/+1 to 0/1")
    parser.add_argument("--header", choices=("auto", "yes", "no"), default="auto",
                        help="whether the CSV starts with a header row")


def _load_dataset(args, path, add_intercept: bool) -> Dataset:
    label_map = {"-1": 0, "1": 1, "+1": 1} if args.pm1_labels else None
    if args.sparse_format:
        return load_sparse_classification_format(
            path, add_intercept=add_intercept, num_features=args.num_features,
            label_map=label_map)
    label_col = args.label_col
    if label_col is not None:
        try:
            label_col = int(label_col)
        except ValueError:
            pass
    return load_csv(path, label_column=label_col, add_intercept=add_intercept,
                    label_map=label_map, header=args.header)


# --- train ---------------------------------------------------------------------


def cmd_train(args) -> int:
    data = _load_dataset(args, args.data, args.add_intercept)
    if args.center:
        data = center(data)

    spec = PenaltySpec(zeta=args.zeta, beta=args.beta)
    rule = BACKTRACKING if args.backtracking else CONSTANT
    config = SolverConfig(stepsize_rule=rule, alpha=args.alpha, alpha0=args.alpha0,
                          eta=args.eta, accelerate=args.accelerate,
                          eps_tol=args.eps_tol, max_iters=args.max_iters,
                          record_trace=args.trace_out is not None)

    theta0 = None
    if args.init == "small-random":
        rng = np.random.default_rng(args.seed)
        theta0 = rng.uniform(-0.01, 0.01, data.n_features)
    elif data.centered and not data.has_intercept:
        try:
            threshold = beta_threshold(data, spec)
        except ValueError:
            threshold = None
        if threshold is not None and args.beta > threshold:
            print(f"warning: beta = {args.beta:g} exceeds the zero-solution "
                  f"threshold {threshold:.6g}; training from zeros stays at the "
                  "zero vector", file=sys.stderr)

    result = fit(data, args.beta, spec, config, theta0=theta0)

    save_model(args.out, ModelFile(
        theta=result.theta, beta=args.beta, zeta=args.zeta, kind=spec.kind,
        centered=data.centered, center=data.center,
        has_intercept=data.has_intercept, stepsize_rule=rule,
        accelerate=args.accelerate, iterations=result.iterations,
        converged=result.converged, final_objective=result.final_objective))
    if args.trace_out:
        write_trace_csv(result, args.trace_out)

    if not args.quiet:
        print(f"iterations: {result.iterations}")
        print(f"converged: {str(result.converged).lower()}")
        print(f"final objective: {result.final_objective!r}")
        print(f"nonzero coordinates: {int(np.count_nonzero(result.theta))}"
              f" of {result.theta.size}")
        print(f"model written to {args.out}")
    return EXIT_OK


# --- predict ---------------------------------------------------------------------


def _check_feature_count(model: ModelFile, data: Dataset) -> None:
    """A data file with another feature count than the model is a data error."""
    if data.n_features != model.theta.size:
        raise DataError(
            f"model has {model.theta.size} features but the data has "
            f"{data.n_features}")


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.no_labels:
        if args.sparse_format:
            raise ValueError("--no-labels applies to dense CSV input only")
        data = load_csv(args.data, add_intercept=model.has_intercept,
                        header=args.header, labeled=False)
        labels = None
    else:
        data = _load_dataset(args, args.data, model.has_intercept)
        labels = data.labels
    _check_feature_count(model, data)
    if model.centered:
        data = apply_center(data, model.center)

    predicted, probs = predict_many(model.theta, data.features)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label", "prob"])
        for i, (lbl, p) in enumerate(zip(predicted, probs)):
            writer.writerow([i, int(lbl), repr(float(p))])

    if not args.quiet:
        print(f"predictions written to {args.out}")
    if labels is not None:
        wrong = int(np.sum(predicted != labels))
        print(f"error rate: {wrong / labels.size:.6f} "
              f"({wrong}/{labels.size} misclassified)")
    return EXIT_OK


# --- certify ---------------------------------------------------------------------


def cmd_certify(args) -> int:
    model = load_model(args.model)
    data = _load_dataset(args, args.data, model.has_intercept)
    _check_feature_count(model, data)
    if model.centered:
        data = apply_center(data, model.center)
    spec = PenaltySpec(zeta=model.zeta, beta=model.beta)

    if args.threshold_only:
        print(f"zero-solution beta threshold: {beta_threshold(data, spec)!r}")
        return EXIT_OK

    report = check_mcp_local_opt(model.theta, model.beta, spec, data)
    print(report.to_text())
    if report.beta_threshold is not None:
        threshold = report.beta_threshold
        if abs(model.beta - threshold) <= 1e-12 * max(abs(model.beta), abs(threshold)):
            print("zero-vector status: indeterminate (beta equals the threshold "
                  "within rounding)")
        elif model.beta > threshold:
            print("zero-vector status: local minimum (beta above the threshold)")
        else:
            print("zero-vector status: not a critical point (beta below the threshold)")
    return EXIT_OK


# --- cv ----------------------------------------------------------------------------


def _parse_float_list(text: str, what: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}") from None
    if not values:
        raise ValueError(f"{what} list is empty")
    return values


def _synth_spec_from_args(args, repeat_seed: int) -> SynthSpec:
    if args.d is None or args.n_train is None or args.k is None:
        raise ValueError("synthetic data needs --d, --n-train, and --k "
                         "(or pass --data)")
    return SynthSpec(d=args.d, n_train=args.n_train, k=args.k, n_test=args.n_test,
                     latent_dim=args.latent_dim, amplitude=args.amplitude,
                     noise_sigma=args.noise_sigma, seed=repeat_seed)


def _centered_pair(train: Dataset, test: Dataset):
    train = center(train)
    return train, apply_center(test, train.center)


def cmd_cv(args) -> int:
    grid = CvGrid(betas=_parse_float_list(args.betas, "beta"),
                  zetas=_parse_float_list(args.zetas, "zeta"),
                  repeats=args.repeats, seed=args.seed)
    notify = None if args.quiet else lambda msg: print(msg, file=sys.stderr)

    if args.data is not None:
        full = _load_dataset(args, args.data, add_intercept=False)

        def pair_for_repeat(r):
            train, test = train_test_split(full, args.test_fraction,
                                           seed=grid.seed + r, center_split=False)
            if args.validation_fraction is not None:
                # the held-out test split goes unused: the flag only selects
                train, test = train_test_split(train, args.validation_fraction,
                                               seed=grid.seed + r, center_split=False)
            return _centered_pair(train, test)
    else:
        if args.validation_fraction is not None:
            raise ValueError("--validation-fraction needs --data; synthetic runs "
                             "already draw fresh test points per repeat")

        def pair_for_repeat(r):
            train, test, _ = gen_noisy(_synth_spec_from_args(args, grid.seed + r))
            if test is None:
                raise ValueError("cv needs test data; pass --n-test >= 1")
            return _centered_pair(train, test)

    error_grid = run_cv_grid(grid, pair_for_repeat, alpha=args.alpha,
                             eps_tol=args.eps_tol, max_iters=args.max_iters,
                             notify=notify)
    error_grid.write_csv(args.out)
    _notify_unconverged([error_grid], args.max_iters, notify)

    if not args.quiet:
        print(f"grid written to {args.out}")
        for l1, name in ((True, "zeta=0 baseline"), (False, "zeta>0")):
            row = error_grid.best_row(l1=l1)
            if row is None:
                continue
            kind = "validation" if args.validation_fraction is not None else "test"
            print(f"best {name}: beta={row.beta:g}, zeta={row.zeta:g}, "
                  f"mean {kind} error {row.mean_test_error:.4f}")
    return EXIT_OK


# --- generate -----------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = SynthSpec(d=args.d, n_train=args.n_train, k=args.k, n_test=args.n_test,
                     latent_dim=args.latent_dim, amplitude=args.amplitude,
                     amp_low=args.amp_low, amp_high=args.amp_high,
                     noise_sigma=args.noise_sigma,
                     noisy_test_labels=not args.clean_test_labels, seed=args.seed)
    train, test, theta0 = gen_noisy(spec)

    prefix = args.out_prefix
    save_csv(train, f"{prefix}_train.csv")
    written = [f"{prefix}_train.csv"]
    if test is not None:
        save_csv(test, f"{prefix}_test.csv")
        written.append(f"{prefix}_test.csv")
    with open(f"{prefix}_theta0.txt", "w") as fh:
        for value in theta0:
            fh.write(repr(float(value)) + "\n")
    written.append(f"{prefix}_theta0.txt")

    if not args.quiet:
        print("wrote " + ", ".join(written))
    return EXIT_OK


# --- reproduce ------------------------------------------------------------------------

# the convergence-demonstration problem: latent 45-dimensional subspace,
# unit-spectral-norm features, 8-sparse weights with amplitudes in [5, 15]
_CONVERGENCE_SPEC = SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=0)
_CONVERGENCE_BETA = 1.2
_CONVERGENCE_ZETA = 0.1
_CONVERGENCE_ALPHAS = (1.0, 2.0, 4.0)


def _normalized(theta: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(theta)
    return theta / norm if norm > 0 else theta


def _reproduce_convergence(out_dir: Path, accelerate: bool, max_iters: int,
                           quiet: bool) -> int:
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
    return EXIT_OK


def _error_grid_synth_pairs(base_spec: SynthSpec, seed: int):
    def pair_for_repeat(r):
        spec = SynthSpec(d=base_spec.d, n_train=base_spec.n_train, k=base_spec.k,
                         n_test=base_spec.n_test, latent_dim=base_spec.latent_dim,
                         amplitude=base_spec.amplitude,
                         noise_sigma=base_spec.noise_sigma, seed=seed + r)
        train, test, _ = gen_noisy(spec)
        return _centered_pair(train, test)
    return pair_for_repeat


def _reproduce_error_grid(out_dir: Path, repeats: int, max_iters: int,
                          quiet: bool) -> int:
    base = SynthSpec(d=50, n_train=200, k=5, n_test=1000, amplitude="normal", seed=0)
    grid = CvGrid(betas=tuple(10.0 ** np.linspace(-2.8, 0.6, 7)),
                  zetas=(0.0, 0.01, 0.1, 1.0), repeats=repeats, seed=0)
    notify = None if quiet else lambda msg: print(msg, file=sys.stderr)
    # the published stepsize 0.1 predates the admissibility bound of the raw
    # Gaussian features; inadmissible cells fall back to the default
    error_grid = run_cv_grid(grid, _error_grid_synth_pairs(base, seed=1000),
                             alpha=0.1, max_iters=max_iters, notify=notify)
    path = out_dir / "fig3_grid.csv"
    error_grid.write_csv(path)
    _notify_unconverged([error_grid], max_iters, notify)
    if not quiet:
        print(f"grid written to {path}")
        for l1, name in ((True, "zeta=0 baseline"), (False, "zeta>0")):
            row = error_grid.best_row(l1=l1)
            print(f"best {name}: beta={row.beta:g}, zeta={row.zeta:g}, "
                  f"mean test error {row.mean_test_error:.4f}")
    return EXIT_OK


def _reproduce_noise_table(out_dir: Path, repeats: int, max_iters: int,
                           quiet: bool) -> int:
    noise_levels = (0.01, 0.03, 0.05, 0.1, 0.3, 0.5)
    betas = tuple(10.0 ** np.linspace(-3.0, 1.0, 7))
    zetas = (0.0, 0.001, 0.01, 0.1, 1.0, 10.0)
    path = out_dir / "table3.csv"
    grids = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["noise_level", "l1_error", "weakly_convex_error"])
        for level, sigma in enumerate(noise_levels):
            base = SynthSpec(d=50, n_train=200, k=5, n_test=1000,
                             amplitude="normal", noise_sigma=sigma, seed=0)
            grid = CvGrid(betas=betas, zetas=zetas, repeats=repeats,
                          seed=2000 + 100 * level)
            error_grid = run_cv_grid(
                grid, _error_grid_synth_pairs(base, seed=3000 + 100 * level),
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
        _notify_unconverged(grids, max_iters, lambda msg: print(msg, file=sys.stderr))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.preset in ("fig1", "fig2"):
        max_iters = args.max_iters if args.max_iters is not None else 1000
        return _reproduce_convergence(out_dir, accelerate=args.preset == "fig2",
                                      max_iters=max_iters, quiet=args.quiet)
    repeats = args.repeats if args.repeats is not None else 10
    max_iters = args.max_iters if args.max_iters is not None else 1000
    if args.preset == "fig3":
        return _reproduce_error_grid(out_dir, repeats, max_iters, args.quiet)
    return _reproduce_noise_table(out_dir, repeats, max_iters, args.quiet)


# --- parser -------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser unchanged, so one tree serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wclogit",
        description="Sparse logistic regression with a weakly convex penalty.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model and save it")
    _add_dataset_flags(train)
    train.add_argument("--beta", type=float, required=True,
                       help="regularization weight (> 0)")
    train.add_argument("--zeta", type=float, default=0.0,
                       help="nonconvexity parameter (0 gives the l1 penalty)")
    step = train.add_mutually_exclusive_group()
    step.add_argument("--alpha", type=float, default=None,
                      help="constant stepsize (default: just under the bound)")
    step.add_argument("--backtracking", action="store_true",
                      help="use the backtracking stepsize rule")
    train.add_argument("--eta", type=float, default=0.5,
                       help="backtracking reduction factor in (0, 1)")
    train.add_argument("--alpha0", type=float, default=None,
                       help="initial backtracking stepsize")
    train.add_argument("--accelerate", action="store_true",
                       help="use the momentum schedule")
    train.add_argument("--eps-tol", type=float, default=1e-8,
                       help="stop when the objective change drops below this")
    train.add_argument("--max-iters", type=int, default=10000)
    train.add_argument("--init", choices=("zeros", "small-random"), default="zeros",
                       help="starting point (small-random is uniform in [-0.01, 0.01])")
    train.add_argument("--add-intercept", action="store_true",
                       help="append an all-ones feature column")
    train.add_argument("--center", action="store_true",
                       help="subtract feature column means before training")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="model.txt", help="model file path")
    train.add_argument("--trace-out", default=None, help="iteration trace CSV path")
    train.add_argument("--quiet", action="store_true")
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="apply a saved model to a dataset")
    predict.add_argument("model", help="model file path")
    _add_dataset_flags(predict)
    predict.add_argument("--no-labels", action="store_true",
                         help="the CSV holds features only, no label column")
    predict.add_argument("--out", default="predictions.csv")
    predict.add_argument("--quiet", action="store_true")
    predict.set_defaults(func=cmd_predict)

    certify = sub.add_parser("certify",
                             help="optimality report for a model on its training data")
    certify.add_argument("model", help="model file path")
    _add_dataset_flags(certify)
    certify.add_argument("--threshold-only", action="store_true",
                         help="print just the zero-solution beta threshold")
    certify.set_defaults(func=cmd_certify)

    cv = sub.add_parser("cv", help="grid search over (beta, zeta)")
    _add_dataset_flags(cv, required_path=False)
    cv.add_argument("--betas", default="0.001,0.00464,0.0215,0.1,0.464,2.15,10",
                    help="comma-separated beta grid")
    cv.add_argument("--zetas", default="0,0.001,0.01,0.1,1,10",
                    help="comma-separated zeta grid (include 0 for the l1 baseline)")
    cv.add_argument("--repeats", type=int, default=10)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--alpha", type=float, default=None,
                    help="constant stepsize; inadmissible cells fall back with a notice")
    cv.add_argument("--eps-tol", type=float, default=1e-9)
    cv.add_argument("--max-iters", type=int, default=1000)
    cv.add_argument("--test-fraction", type=float, default=0.2,
                    help="held-out fraction per repeat (with --data)")
    cv.add_argument("--validation-fraction", type=float, default=None,
                    help="carve a validation split out of the training side and "
                         "select on it instead of the test split (with --data); "
                         "the grid then reports validation errors only, and the "
                         "held-out test split is not scored")
    cv.add_argument("--d", type=int, default=None, help="synthetic feature count")
    cv.add_argument("--n-train", type=int, default=None)
    cv.add_argument("--k", type=int, default=None, help="nonzeros in the ground truth")
    cv.add_argument("--n-test", type=int, default=1000)
    cv.add_argument("--latent-dim", type=int, default=None)
    cv.add_argument("--noise-sigma", type=float, default=0.0)
    cv.add_argument("--amplitude", choices=("uniform", "normal"), default="normal")
    cv.add_argument("--out", default="cv_grid.csv")
    cv.add_argument("--quiet", action="store_true")
    cv.set_defaults(func=cmd_cv)

    generate = sub.add_parser("generate", help="write synthetic dataset files")
    generate.add_argument("--d", type=int, required=True)
    generate.add_argument("--n-train", type=int, required=True)
    generate.add_argument("--k", type=int, required=True)
    generate.add_argument("--n-test", type=int, default=0)
    generate.add_argument("--latent-dim", type=int, default=None)
    generate.add_argument("--amplitude", choices=("uniform", "normal"),
                          default="uniform")
    generate.add_argument("--amp-low", type=float, default=5.0)
    generate.add_argument("--amp-high", type=float, default=15.0)
    generate.add_argument("--noise-sigma", type=float, default=0.0)
    generate.add_argument("--clean-test-labels", action="store_true",
                          help="generate test labels without label noise")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out-prefix", default="synth")
    generate.add_argument("--quiet", action="store_true")
    generate.set_defaults(func=cmd_generate)

    reproduce = sub.add_parser("reproduce",
                               help="experiment presets emitting plot-ready CSVs")
    reproduce.add_argument("preset", choices=("fig1", "fig2", "fig3", "table3"))
    reproduce.add_argument("--out-dir", default=".")
    reproduce.add_argument("--max-iters", type=int, default=None)
    reproduce.add_argument("--repeats", type=int, default=None)
    reproduce.add_argument("--quiet", action="store_true")
    reproduce.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
