"""Command-line front end: argparse, the commands, output paths and exit
codes.  The grid search and the presets live in :mod:`wclogit.experiments`.

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
import functools
import sys
from pathlib import Path

import numpy as np

from .certify import (_ZERO_LOCAL_MINIMUM, _zero_vector_status, beta_threshold,
                      check_mcp_local_opt)
from .data import (AMPLITUDE_NORMAL, DataError, SynthSpec, _number, _write_csv, apply_center,
                   center, gen_noisy, load_csv, load_sparse_classification_format, save_csv,
                   train_test_split)
from .experiments import (CvGrid, ErrorGrid, ErrorRow, reproduce_convergence,
                          reproduce_error_grid, reproduce_noise_table, run_cv_grid,
                          synthetic_pairs)
from .model import Dataset, predict_many
from .modelfile import ModelFile, load_model, save_model
from .penalty import PenaltySpec
from .solver import BACKTRACKING, CONSTANT, NumericalError, SolverConfig, fit, write_trace_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

__all__ = ["CvGrid", "ErrorRow", "ErrorGrid", "run_cv_grid", "main"]


# --- number flags ---------------------------------------------------------------


def _flag_number(kind):
    """An argparse ``type=`` that reads a flag's value as ``kind`` (float or
    int) with ``data._number``, the grammar of every number in a file; its
    name is ``kind``'s, so a refusal reads "invalid float value"."""
    def read(text: str):
        return _number(text, kind)
    read.__name__ = kind.__name__
    return read


_real, _integer = _flag_number(float), _flag_number(int)


# --- dataset plumbing ---------------------------------------------------------


def _add_dataset_flags(parser, required_path=True):
    if required_path:
        parser.add_argument("data", help="dataset path")
    else:
        parser.add_argument("--data", help="dataset path (omit to use synthetic data)")
    parser.add_argument("--sparse-format", action="store_true",
                        help="read 'label idx:val ...' text instead of CSV")
    parser.add_argument("--num-features", type=_integer, default=None,
                        help="pin the sparse feature dimension")
    parser.add_argument("--label-col", default=None,
                        help="label column name or 0-based index (CSV only)")
    parser.add_argument("--pm1-labels", action="store_true",
                        help="map labels -1/+1 to 0/1")
    parser.add_argument("--header", choices=("auto", "yes", "no"), default="auto",
                        help="whether the CSV starts with a header row")


def _refuse_unread(args, flags, why: str) -> None:
    """Refuse the first of ``flags`` that the command line gives, meaning its
    value differs from its own command's default (so an explicit default is
    harmless): the run would not read it."""
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) != args.parser.get_default(dest):
            raise ValueError(f"{flag} does not apply {why}")


def _check_dataset_flags(args, labeled: bool = True) -> None:
    """Refuse a dataset flag that the chosen reader would not read."""
    if args.data is None:
        read, why = (), "without --data: synthetic data reads no file"
    elif not labeled:
        read, why = ("--header",), "with --no-labels, which reads dense CSV features only"
    elif args.sparse_format:
        read, why = ("--sparse-format", "--num-features", "--pm1-labels"), "to sparse input"
    else:
        read, why = ("--label-col", "--pm1-labels", "--header"), "without --sparse-format"
    flags = ("--sparse-format", "--num-features", "--label-col", "--pm1-labels", "--header")
    _refuse_unread(args, [flag for flag in flags if flag not in read], why)


def _load_dataset(args, path, add_intercept: bool, labeled: bool = True) -> Dataset:
    if not labeled:
        return load_csv(path, add_intercept=add_intercept, header=args.header,
                        labeled=False)
    label_map = {"-1": 0, "1": 1, "+1": 1} if args.pm1_labels else None
    if args.sparse_format:
        return load_sparse_classification_format(
            path, add_intercept=add_intercept, num_features=args.num_features,
            label_map=label_map)
    label_col = args.label_col
    if label_col is not None:
        try:
            label_col = _number(label_col, int)
        except ValueError:  # not a number: a column name
            pass
    return load_csv(path, label_column=label_col, add_intercept=add_intercept,
                    label_map=label_map, header=args.header)


# --- train ---------------------------------------------------------------------


def cmd_train(args) -> int:
    _check_dataset_flags(args)
    if args.init != "small-random":
        _refuse_unread(args, ("--seed",), "without --init small-random, the one seeded start")
    rule = BACKTRACKING if args.backtracking else CONSTANT
    config = SolverConfig(stepsize_rule=rule, alpha=args.alpha, eta=args.eta,
                          accelerate=args.accelerate, eps_tol=args.eps_tol,
                          max_iters=args.max_iters,
                          record_trace=args.trace_out is not None)
    data = _load_dataset(args, args.data, args.add_intercept)
    if args.center:
        data = center(data)

    spec = PenaltySpec(zeta=args.zeta, beta=args.beta)

    theta0 = None
    if args.init == "small-random":
        rng = np.random.default_rng(args.seed)
        theta0 = rng.uniform(-0.01, 0.01, data.n_features)
    elif data.centered and not data.has_intercept:
        threshold = beta_threshold(data, spec)
        if _zero_vector_status(args.beta, threshold) == _ZERO_LOCAL_MINIMUM:
            print(f"warning: beta = {args.beta:g} exceeds the zero-solution "
                  f"threshold {threshold:.6g}; training from zeros stays at the "
                  "zero vector", file=sys.stderr)

    result = fit(data, args.beta, spec, config, theta0=theta0)

    # the model file last: one on disk means the whole run succeeded
    if args.trace_out:
        write_trace_csv(result, args.trace_out)
    save_model(args.out, ModelFile(
        theta=result.theta, beta=args.beta, zeta=args.zeta, centered=data.centered,
        center=data.center, has_intercept=data.has_intercept, stepsize_rule=rule,
        accelerate=args.accelerate, iterations=result.iterations,
        converged=result.converged, final_objective=result.final_objective))

    if not args.quiet:
        print(f"iterations: {result.iterations}")
        print(f"converged: {str(result.converged).lower()}")
        print(f"final objective: {result.final_objective!r}")
        print(f"nonzero coordinates: {int(np.count_nonzero(result.theta))}"
              f" of {result.theta.size}")
        print(f"model written to {args.out}")
    return EXIT_OK


# --- predict ---------------------------------------------------------------------


def _load_for_model(args, labeled: bool = True) -> tuple[ModelFile, PenaltySpec, Dataset]:
    """The model file, its penalty and the data file.  The dataset flags are
    checked before either file is read; a beta or zeta that the penalty
    refuses is a fault in the model file (a data error), as is a data
    file with another feature count; the data are centered with the
    model's center."""
    _check_dataset_flags(args, labeled)
    model = load_model(args.model)
    try:
        spec = PenaltySpec(zeta=model.zeta, beta=model.beta)
    except ValueError as exc:
        raise DataError(f"{args.model}: model file {exc}") from None
    data = _load_dataset(args, args.data, model.has_intercept, labeled)
    if data.n_features != model.theta.size:
        raise DataError(f"model has {model.theta.size} features but the data has "
                        f"{data.n_features}")
    return model, spec, apply_center(data, model.center) if model.centered else data


def cmd_predict(args) -> int:
    model, _, data = _load_for_model(args, labeled=not args.no_labels)

    predicted, probs = predict_many(model.theta, data.features)
    _write_csv(args.out, ("index", "label", "prob"),
               zip(range(predicted.size), predicted.tolist(), probs.tolist()))

    if not args.quiet:
        print(f"predictions written to {args.out}")
    if not args.no_labels:
        wrong = int(np.sum(predicted != data.labels))
        print(f"error rate: {wrong / data.labels.size:.6f} "
              f"({wrong}/{data.labels.size} misclassified)")
    return EXIT_OK


# --- certify ---------------------------------------------------------------------


def cmd_certify(args) -> int:
    model, spec, data = _load_for_model(args)

    if args.threshold_only:
        print(f"zero-solution beta threshold: {beta_threshold(data, spec)!r}")
        return EXIT_OK

    print(check_mcp_local_opt(model.theta, model.beta, spec, data).to_text())
    return EXIT_OK


# --- cv ----------------------------------------------------------------------------


def _parse_float_list(text: str, what: str) -> tuple:
    try:
        values = tuple(_real(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}") from None
    if not values:
        raise ValueError(f"{what} list is empty")
    return values


def cmd_cv(args) -> int:
    _check_dataset_flags(args)
    grid = CvGrid(betas=_parse_float_list(args.betas, "beta"),
                  zetas=_parse_float_list(args.zetas, "zeta"),
                  repeats=args.repeats, seed=args.seed)

    if args.data is not None:
        _refuse_unread(args, ("--d", "--n-train", "--k", "--n-test", "--latent-dim",
                              "--noise-sigma", "--amplitude"), "with --data: no data is drawn")
        fraction = args.validation_fraction
        # otherwise it reaches train_test_split as its test_fraction, by that name
        if fraction is not None and not 0.0 < fraction < 1.0:
            raise ValueError(f"validation_fraction must lie in (0, 1), got {fraction}")
        full = _load_dataset(args, args.data, add_intercept=False)

        def pair_for_repeat(r):
            if args.validation_fraction is None:
                return train_test_split(full, args.test_fraction, seed=grid.seed + r)
            # the held-out test split goes unused: the flag only selects
            train, _ = train_test_split(full, args.test_fraction, seed=grid.seed + r,
                                        center_split=False)
            return train_test_split(train, args.validation_fraction, seed=grid.seed + r)
    else:
        _refuse_unread(args, ("--test-fraction", "--validation-fraction"), "without --data: "
                       "synthetic runs already draw fresh test points per repeat")
        if args.d is None or args.n_train is None or args.k is None:
            raise ValueError("synthetic data needs --d, --n-train, and --k "
                             "(or pass --data)")
        base = SynthSpec(d=args.d, n_train=args.n_train, k=args.k, n_test=args.n_test,
                         latent_dim=args.latent_dim, amplitude=args.amplitude,
                         noise_sigma=args.noise_sigma)
        pair_for_repeat = synthetic_pairs(base, grid.seed)

    error_grid = run_cv_grid(grid, pair_for_repeat, alpha=args.alpha,
                             eps_tol=args.eps_tol, max_iters=args.max_iters,
                             notify=None if args.quiet else
                             lambda msg: print(msg, file=sys.stderr))
    kind = "validation" if args.validation_fraction is not None else "test"
    error_grid.report(args.out, args.max_iters, args.quiet, kind)
    return EXIT_OK


# --- generate -----------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.amplitude == AMPLITUDE_NORMAL:
        _refuse_unread(args, ("--amp-low", "--amp-high"), "with --amplitude normal, "
                       "whose amplitudes are standard normal")
    if args.n_test == 0:
        _refuse_unread(args, ("--clean-test-labels",), "without --n-test: the run "
                       "writes no test labels")
    if args.noise_sigma == 0:
        _refuse_unread(args, ("--clean-test-labels",), "without --noise-sigma: no label is noisy")
    spec = SynthSpec(d=args.d, n_train=args.n_train, k=args.k, n_test=args.n_test,
                     latent_dim=args.latent_dim, amplitude=args.amplitude,
                     amp_low=args.amp_low, amp_high=args.amp_high,
                     noise_sigma=args.noise_sigma,
                     noisy_test_labels=not args.clean_test_labels, seed=args.seed)
    train, test, theta0 = gen_noisy(spec)

    written = []
    for part, data in (("train", train), ("test", test)):
        if data is not None:
            written.append(f"{args.out_prefix}_{part}.csv")
            save_csv(data, written[-1])
    written.append(f"{args.out_prefix}_theta0.txt")
    with open(written[-1], "w") as fh:
        fh.writelines(f"{value!r}\n" for value in theta0.tolist())

    if not args.quiet:
        print("wrote " + ", ".join(written))
    return EXIT_OK


# --- reproduce ------------------------------------------------------------------------


def cmd_reproduce(args) -> int:
    convergence = args.preset in ("fig1", "fig2")
    if convergence:
        _refuse_unread(args, ("--repeats",), f"to {args.preset}: each run is one traced fit")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if convergence:
        reproduce_convergence(out_dir, args.preset == "fig2", args.max_iters, args.quiet)
    elif args.preset == "fig3":
        reproduce_error_grid(out_dir, args.repeats, args.max_iters, args.quiet)
    else:
        reproduce_noise_table(out_dir, args.repeats, args.max_iters, args.quiet)
    return EXIT_OK


# --- parser -------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser unchanged, so one tree serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wclogit",
        description="Sparse logistic regression with a weakly convex penalty.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model and save it")
    _add_dataset_flags(train)
    train.add_argument("--beta", type=_real, required=True,
                       help="regularization weight (> 0)")
    train.add_argument("--zeta", type=_real, default=0.0,
                       help="nonconvexity parameter (0 gives the l1 penalty)")
    train.add_argument("--alpha", type=_real, default=None,
                       help="first stepsize: the constant stepsize (default: just "
                            "under the bound), or with --backtracking the first one "
                            "the search tries (default: 0.49/(beta*zeta), or 1 where "
                            "that is not finite, as at zeta = 0)")
    train.add_argument("--backtracking", action="store_true",
                       help="use the backtracking stepsize rule")
    train.add_argument("--eta", type=_real, default=0.5,
                       help="backtracking reduction factor in (0, 1); "
                            "needs --backtracking")
    train.add_argument("--accelerate", action="store_true",
                       help="use the momentum schedule")
    train.add_argument("--eps-tol", type=_real, default=1e-8,
                       help="stop when the objective change drops below this")
    train.add_argument("--max-iters", type=_integer, default=10000)
    train.add_argument("--init", choices=("zeros", "small-random"), default="zeros",
                       help="starting point (small-random is uniform in [-0.01, 0.01])")
    train.add_argument("--add-intercept", action="store_true",
                       help="append an all-ones feature column")
    train.add_argument("--center", action="store_true",
                       help="subtract feature column means before training")
    train.add_argument("--seed", type=_integer, default=0)
    train.add_argument("--out", default="model.txt", help="model file path")
    train.add_argument("--trace-out", default=None, help="iteration trace CSV path")
    train.add_argument("--quiet", action="store_true")
    train.set_defaults(func=cmd_train, parser=train)

    predict = sub.add_parser("predict", help="apply a saved model to a dataset")
    predict.add_argument("model", help="model file path")
    _add_dataset_flags(predict)
    predict.add_argument("--no-labels", action="store_true",
                         help="the CSV holds features only, no label column")
    predict.add_argument("--out", default="predictions.csv")
    predict.add_argument("--quiet", action="store_true")
    predict.set_defaults(func=cmd_predict, parser=predict)

    certify = sub.add_parser("certify",
                             help="optimality report for a model on its training data")
    certify.add_argument("model", help="model file path")
    _add_dataset_flags(certify)
    certify.add_argument("--threshold-only", action="store_true",
                         help="print just the zero-solution beta threshold")
    certify.set_defaults(func=cmd_certify, parser=certify)

    cv = sub.add_parser("cv", help="grid search over (beta, zeta)")
    _add_dataset_flags(cv, required_path=False)
    cv.add_argument("--betas", default="0.001,0.00464,0.0215,0.1,0.464,2.15,10",
                    help="comma-separated beta grid")
    cv.add_argument("--zetas", default="0,0.001,0.01,0.1,1,10",
                    help="comma-separated zeta grid (include 0 for the l1 baseline)")
    cv.add_argument("--repeats", type=_integer, default=10)
    cv.add_argument("--seed", type=_integer, default=0)
    cv.add_argument("--alpha", type=_real, default=None,
                    help="constant stepsize; inadmissible cells fall back with a notice")
    cv.add_argument("--eps-tol", type=_real, default=1e-9)
    cv.add_argument("--max-iters", type=_integer, default=1000)
    cv.add_argument("--test-fraction", type=_real, default=0.2,
                    help="held-out fraction per repeat (with --data)")
    cv.add_argument("--validation-fraction", type=_real, default=None,
                    help="carve a validation split out of the training side and "
                         "select on it instead of the test split (with --data); "
                         "the grid then reports validation errors only, and the "
                         "held-out test split is not scored")
    cv.add_argument("--d", type=_integer, default=None, help="synthetic feature count")
    cv.add_argument("--n-train", type=_integer, default=None)
    cv.add_argument("--k", type=_integer, default=None, help="nonzeros in the ground truth")
    cv.add_argument("--n-test", type=_integer, default=1000)
    cv.add_argument("--latent-dim", type=_integer, default=None)
    cv.add_argument("--noise-sigma", type=_real, default=0.0)
    cv.add_argument("--amplitude", choices=("uniform", "normal"), default="normal")
    cv.add_argument("--out", default="cv_grid.csv")
    cv.add_argument("--quiet", action="store_true")
    cv.set_defaults(func=cmd_cv, parser=cv)

    generate = sub.add_parser("generate", help="write synthetic dataset files")
    generate.add_argument("--d", type=_integer, required=True)
    generate.add_argument("--n-train", type=_integer, required=True)
    generate.add_argument("--k", type=_integer, required=True)
    generate.add_argument("--n-test", type=_integer, default=0)
    generate.add_argument("--latent-dim", type=_integer, default=None)
    generate.add_argument("--amplitude", choices=("uniform", "normal"),
                          default="uniform")
    generate.add_argument("--amp-low", type=_real, default=SynthSpec.amp_low,
                          help="uniform amplitudes' lower end")
    generate.add_argument("--amp-high", type=_real, default=SynthSpec.amp_high,
                          help="uniform amplitudes' upper end")
    generate.add_argument("--noise-sigma", type=_real, default=0.0)
    generate.add_argument("--clean-test-labels", action="store_true",
                          help="generate test labels without label noise")
    generate.add_argument("--seed", type=_integer, default=0)
    generate.add_argument("--out-prefix", default="synth")
    generate.add_argument("--quiet", action="store_true")
    generate.set_defaults(func=cmd_generate, parser=generate)

    reproduce = sub.add_parser("reproduce",
                               help="experiment presets emitting plot-ready CSVs")
    reproduce.add_argument("preset", choices=("fig1", "fig2", "fig3", "table3"))
    reproduce.add_argument("--out-dir", default=".")
    reproduce.add_argument("--max-iters", type=_integer, default=1000)
    reproduce.add_argument("--repeats", type=_integer, default=10)
    reproduce.add_argument("--quiet", action="store_true")
    reproduce.set_defaults(func=cmd_reproduce, parser=reproduce)

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
    except (OSError, NumericalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (DataError, OSError)):  # a DataError is a ValueError
            return EXIT_DATA
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
