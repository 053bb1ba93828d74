"""Bit-identity corpus of the wclogit command line.

Runs a fixed list of wclogit commands against one source tree and writes one
sha256 per item: each run's stdout, stderr and exit code, and every file it
leaves in its own working directory. Comparing the JSON of a parent tree
with that of a change lists every output the change moved:

    python ci/bits.py --src PARENT/src parent.json
    python ci/bits.py --src CHANGE/src change.json
    python ci/bits.py --compare parent.json change.json

``--compare`` prints the moved items (a digest that differs, or an item that
only one side has) and exits 1 if there are any, 0 otherwise.

The runs:

- ``reproduce`` fig1 and fig2, and fig3 and table3 at ``--repeats 1``
- ``generate`` of ``stall_train.csv`` (300 x 10, noisy labels: its fits
  stall) and of a 1000 x 50 file with a test split
- ``train`` on each file, traced and untraced, under each flag set of
  ``TRAIN_FLAGS``; then ``predict`` and ``certify`` on every model, and
  ``certify --threshold-only`` on each family's constant and
  ``--add-intercept`` models and on the uncentered sparse one (an exit 1)
- ``cv --data stall_train.csv --alpha 0.5`` at 10 and at 2 repeats and with
  ``--validation-fraction 0.2``, and a 3 x 3 synthetic ``cv``
- thirty-eight probes (``PROBES``), all but two of them error paths:
  inadmissible stepsizes, overflowing features, settings at the float
  range's edges, ``--num-features 0``, a negative label column, a missing
  file, a CSV, a sparse file and a model file that are not UTF-8, numbers
  that only Python's ``float()`` or ``int()`` reads (in a flag, a ``cv``
  list, a CSV and a model file), a model file whose beta the penalty
  refuses, an output path that names an input or the run's other output
  (``train``, ``cv``, ``predict``), flags the run would not read or that
  are gone (``train``, ``predict``, ``cv``, ``generate``, ``reproduce``), a
  non-finite ``generate`` setting and ``reproduce --max-iters 0``; the two
  that succeed train on all-zero features at zeta = 0 and on a CSV that
  starts with a UTF-8 byte-order mark. Each input file is hashed as the
  runs left it
- in process (``solver_items``, in a subprocess of its own): ``fit`` on
  fig1's problem and ``fit_cells`` on fig3's grid, each field of each
  result one item; and each ``fit`` theta's certificate report and the
  standalone ``check_*`` verdicts, which the command line never calls

Each run is a fresh ``python -m wclogit.cli`` process with the tree's
``src`` first on ``PYTHONPATH``, BLAS pinned to one thread, in its own
directory under a temporary root; its inputs are read through relative
paths, and the root's and the tree's paths are replaced by ``<root>`` and
``<src>`` in stdout and stderr. The JSON also records the Python, numpy and
BLAS versions. A matrix product's last bits depend on the BLAS build, so
compare two trees on one machine and never keep the digests as goldens
across machines. The command-line half uses the standard library only, and
the in-process half imports the tree's wclogit and numpy. Two processes at
a time, 23-32 s on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

STALL = ["generate", "--d", "10", "--n-train", "300", "--k", "3", "--noise-sigma", "1.0",
         "--amplitude", "normal", "--seed", "2", "--out-prefix", "stall"]
WIDE = ["generate", "--d", "50", "--n-train", "1000", "--k", "8", "--n-test", "500",
        "--latent-dim", "45", "--seed", "0", "--out-prefix", "wide"]

# each data file: its generate run, the train file, the file predict scores
# and the penalty train fits
DATA = {
    "stall": ("generate-stall", "stall_train.csv", "stall_train.csv",
              ["--beta", "0.5", "--zeta", "0.1", "--center"]),
    "wide": ("generate-wide", "wide_train.csv", "wide_test.csv",
             ["--beta", "1.2", "--zeta", "0.1", "--center"]),
}

TRAIN_FLAGS = {
    "constant": [],
    "accelerate": ["--accelerate"],
    "backtracking": ["--backtracking"],
    "backtracking-accelerate": ["--backtracking", "--accelerate"],
    "small-random": ["--init", "small-random", "--seed", "3"],
    "max-iters-7": ["--max-iters", "7"],
    "max-iters-7-accelerate": ["--max-iters", "7", "--accelerate"],
    "eta-1e-300": ["--backtracking", "--eta", "1e-300"],
    "eta-0.1": ["--backtracking", "--eta", "0.1"],
    "backtracking-alpha-0.05": ["--backtracking", "--alpha", "0.05"],
    "alpha-0.01": ["--alpha", "0.01"],
    "add-intercept": ["--add-intercept"],
}

# a model file for sparse.txt's three features, with its beta line's value
_MODEL = (b"wclogit-model 1\ndimension 3\nbeta %s\nzeta 0.1\nkind mcp\ncentered false\n"
          b"has_intercept false\nstepsize_rule constant\naccelerate false\niterations 1\n"
          b"converged true\nfinal_objective 0.5\ncenter 0.0 0.0 0.0\ntheta 0.0 0.0 0.0\n")

# files the probes read, written into the "inputs" directory; the latin1
# ones hold a byte that is not UTF-8 (0xe9, Latin-1's e acute)
INPUTS = {
    "overflow.csv": b"label,f1,f2\n1,1e200,1\n0,-1e200,2\n1,3e200,0\n",
    "sparse.txt": b"1 1:2.0 3:1.0\n0 2:1.5\n1 1:0.5\n0 3:-2.0\n",
    "latin1.csv": b"label,f1,f2\n1,caf\xe9,2\n0,0.5,3\n",
    "latin1_sparse.txt": b"1 1:2.0\n0 2:1\xe9 3:1\n",
    "latin1_model.txt": _MODEL % b"0.1\xe9",
    "beta_negative_model.txt": _MODEL % b"-1.0",
    "zeros.csv": b"label,f1,f2\n1,0,0\n0,0,0\n",
    "underscore.csv": b"label,f1,f2\n1,1_0,2\n0,0.5,3\n",
    "underscore_iterations_model.txt": (_MODEL % b"0.1").replace(b"iterations 1\n",
                                                                 b"iterations 1_297\n"),
}
# the inputs of the probes that name an input as an output: each probe has
# its own copy, which a run that writes over it would change
_ROWS = b"label,f1,f2\n" + b"".join(b"%d,%d,%d\n" % (i % 2, (7 * i) % 11 - 5, (3 * i) % 5 - 2)
                                   for i in range(40))
INPUTS.update({"clobber_train.csv": _ROWS, "clobber_cv.csv": _ROWS,
               "clobber_model.txt": _MODEL % b"0.1", "clobber_model_2.txt": _MODEL % b"0.1",
               "clobber_sparse.txt": INPUTS["sparse.txt"]})
# a CSV that starts with a UTF-8 byte-order mark
INPUTS["bom.csv"] = b"\xef\xbb\xbf" + _ROWS

_STALL_CSV = "../generate-stall/stall_train.csv"
_SPARSE = "../inputs/sparse.txt"
_SPARSE_MODEL = "../train-sparse/model.txt"
PROBES = {
    "alpha-inadmissible": ["train", _STALL_CSV, "--beta", "0.5", "--zeta", "0.1",
                           "--alpha", "100"],
    "alpha-inadmissible-backtracking": ["train", _STALL_CSV, "--beta", "0.5", "--zeta",
                                        "0.1", "--backtracking", "--alpha", "100"],
    "overflow": ["train", "../inputs/overflow.csv", "--beta", "0.1"],
    "overflow-backtracking": ["train", "../inputs/overflow.csv", "--beta", "0.1",
                              "--backtracking"],
    "zeta-1e307": ["train", _STALL_CSV, "--beta", "0.5", "--zeta", "1e307"],
    "beta-1e-300-backtracking": ["train", _STALL_CSV, "--beta", "1e-300", "--backtracking"],
    "num-features-0-train": ["train", _SPARSE, "--sparse-format", "--num-features", "0",
                             "--beta", "0.1"],
    "num-features-0-predict": ["predict", _SPARSE_MODEL, _SPARSE, "--sparse-format",
                               "--num-features", "0"],
    "num-features-0-certify": ["certify", _SPARSE_MODEL, _SPARSE, "--sparse-format",
                               "--num-features", "0"],
    "cv-alpha-negative": ["cv", "--data", _STALL_CSV, "--alpha", "-0.5", "--repeats", "1"],
    "missing-file": ["train", "../inputs/missing.csv", "--beta", "0.5"],
    "missing-file-no-header": ["train", "../inputs/missing.csv", "--beta", "0.5",
                               "--header", "no"],
    "latin1-csv": ["train", "../inputs/latin1.csv", "--beta", "0.1"],
    "latin1-sparse": ["train", "../inputs/latin1_sparse.txt", "--sparse-format", "--beta",
                      "0.1"],
    "latin1-model": ["certify", "../inputs/latin1_model.txt", _SPARSE, "--sparse-format"],
    "cv-betas-underscore": ["cv", "--data", _STALL_CSV, "--betas", "1_0"],
    "cv-zetas-empty": ["cv", "--data", _STALL_CSV, "--zetas", ","],
    "model-beta-negative": ["certify", "../inputs/beta_negative_model.txt", _SPARSE,
                            "--sparse-format"],
    "train-out-data": ["train", "../inputs/clobber_train.csv", "--beta", "0.5", "--out",
                       "../inputs/clobber_train.csv"],
    "train-trace-out-out": ["train", _SPARSE, "--sparse-format", "--beta", "0.1", "--out",
                            "same.txt", "--trace-out", "same.txt"],
    "cv-out-data": ["cv", "--data", "../inputs/clobber_cv.csv", "--repeats", "1", "--out",
                    "../inputs/clobber_cv.csv"],
    "predict-out-model": ["predict", "../inputs/clobber_model.txt", _SPARSE, "--sparse-format",
                          "--out", "../inputs/clobber_model.txt"],
    "predict-out-data": ["predict", "../inputs/clobber_model_2.txt",
                         "../inputs/clobber_sparse.txt", "--sparse-format", "--out",
                         "../inputs/clobber_sparse.txt"],
    "zeros-zeta-0": ["train", "../inputs/zeros.csv", "--beta", "0.1"],
    "label-col-negative": ["train", _STALL_CSV, "--beta", "0.5", "--label-col=-1"],
    "eta-constant": ["train", _STALL_CSV, "--beta", "0.5", "--zeta", "0.1", "--eta", "0.3"],
    "alpha0-gone": ["train", _STALL_CSV, "--beta", "0.5", "--zeta", "0.1", "--alpha0", "0.3"],
    "predict-no-labels-label-col": ["predict", "../train-stall-constant/model.txt", _STALL_CSV,
                                    "--no-labels", "--label-col", "0"],
    "cv-data-n-test": ["cv", "--data", _STALL_CSV, "--n-test", "5", "--repeats", "1"],
    "underscore-csv": ["train", "../inputs/underscore.csv", "--beta", "0.1"],
    "model-iterations-underscore": ["predict", "../inputs/underscore_iterations_model.txt",
                                    _SPARSE, "--sparse-format"],
    "beta-fullwidth": ["train", _STALL_CSV, "--beta", "\uff10.5"],
    "bom-csv": ["train", "../inputs/bom.csv", "--label-col", "label", "--beta", "0.1"],
    "generate-noise-sigma-nan": ["generate", "--d", "5", "--n-train", "20", "--k", "2",
                                 "--noise-sigma", "nan"],
    "generate-normal-amp-low": ["generate", "--d", "5", "--n-train", "20", "--k", "2",
                                "--amplitude", "normal", "--amp-low", "3"],
    "reproduce-fig1-repeats": ["reproduce", "fig1", "--repeats", "2", "--out-dir", "out"],
    "reproduce-fig1-max-iters-0": ["reproduce", "fig1", "--max-iters", "0", "--out-dir", "out"],
    "reproduce-table3-max-iters-0": ["reproduce", "table3", "--repeats", "1", "--max-iters",
                                     "0", "--out-dir", "out"],
}


# the in-process solver items: fig1's problem and penalty, and fig3's grid on
# its first four draws
FIG1 = {"d": 50, "n_train": 1000, "k": 8, "latent_dim": 45, "seed": 0}
FIG1_PENALTY = {"beta": 1.2, "zeta": 0.1}
FIG3 = {"d": 50, "n_train": 200, "k": 5, "n_test": 1000, "amplitude": "normal"}
FIG3_SEEDS = (1000, 1001, 1002, 1003)
FIG3_ZETAS = (0.0, 0.01, 0.1, 1.0)


def solver_items() -> dict[str, str]:
    """The digests of ``fit`` and ``fit_cells`` runs of the wclogit on the
    path, each field of each result its own item.

    ``fit`` runs fig1's problem under either rule, with and without
    momentum, trace and a start off zero, once stalling (eps_tol 1e-8) and
    once at its cap (eps_tol 1e-15, 500 iterations, as fig1 runs it).
    Each ``fit`` result's theta is also certified: the report's text, and
    the critical, sufficient and necessary verdicts of the standalone
    checks at tolerance 0 and at the report's own slack.
    ``fit_cells`` runs fig3's 28 cells on each of its first four draws at
    their default stepsizes (every cell refuses fig3's 0.1): the whole grid,
    each cell alone and the 6 cells of betas 2-4 and zetas 0.01 and 0.1."""
    import numpy as np

    from wclogit.certify import (check_critical_point, check_mcp_local_opt,
                                 check_necessary_local_opt, check_sufficient_local_opt)
    from wclogit.data import SynthSpec, center, gen_noisy, gen_separable
    from wclogit.model import spectral_norm
    from wclogit.penalty import PenaltySpec
    from wclogit.solver import BACKTRACKING, CONSTANT, SolverConfig, fit, fit_cells

    items = {}

    def add(name, fields):
        for field, value in fields.items():
            items[f"{name}:{field}"] = _sha256(np.asarray(value).tobytes())

    train, _, _ = gen_separable(SynthSpec(**FIG1))
    spec = PenaltySpec(**FIG1_PENALTY)
    checks = {"critical": check_critical_point, "sufficient": check_sufficient_local_opt,
              "necessary": check_necessary_local_opt}
    # the slack of the report's own verdicts, grad_tol / beta at its default grad_tol
    slack = 1e-6 * (1.0 + spectral_norm(train)) / spec.beta
    start = np.random.default_rng(3).uniform(-0.01, 0.01, train.n_features)
    for rule in (CONSTANT, BACKTRACKING):
        for accelerate in (False, True):
            for traced in (False, True):
                for theta0 in (None, start):
                    for eps_tol, max_iters in ((1e-8, 2000), (1e-15, 500)):
                        config = SolverConfig(stepsize_rule=rule, accelerate=accelerate,
                                              eps_tol=eps_tol, max_iters=max_iters,
                                              record_trace=traced)
                        result = fit(train, None, spec, config, theta0=theta0)
                        name = (f"fit-{rule}" + "-accelerate" * accelerate
                                + "-traced" * traced + "-theta0" * (theta0 is not None)
                                + f"-eps{eps_tol:g}")
                        add(name, {"theta": result.theta, "iterations": result.iterations,
                                   "converged": result.converged,
                                   "objective": result.final_objective,
                                   "trace": np.array(result.trace, dtype=float)})
                        report = check_mcp_local_opt(result.theta, None, spec, train)
                        add(name, {"certificate": report.to_text(),
                                   **{f"{what}-tol{tag}": check(result.theta, None, spec,
                                                                train, tol)
                                      for what, check in checks.items()
                                      for tag, tol in (("0", 0.0), ("-slack", slack))}})
    # cell 4*i + j is (beta i, zeta j)
    cells = [(b, z) for b in 10.0 ** np.linspace(-2.8, 0.6, 7) for z in FIG3_ZETAS]
    grids = {"all": list(range(len(cells))),
             "sub6": [4 * i + j for i in (2, 3, 4) for j in (1, 2)],
             **{f"cell{c}": [c] for c in range(len(cells))}}
    for seed in FIG3_SEEDS:
        train = center(gen_noisy(SynthSpec(**FIG3, seed=seed))[0])
        for grid, picked in grids.items():
            result = fit_cells(train, [cells[c] for c in picked], [None] * len(picked),
                               eps_tol=1e-9, max_iters=1000)
            add(f"fit_cells-{seed}-{grid}", result._asdict())
    return items


def _solver_run(src: Path, env: dict) -> dict[str, str]:
    """``solver_items`` of the tree at ``src``, in a process of its own."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--solver-items"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def stages() -> list[dict[str, list[str]]]:
    """The runs, by name, in stages: a run reads only files of earlier stages."""
    first = {"generate-stall": STALL, "generate-wide": WIDE,
             "reproduce-fig1": ["reproduce", "fig1", "--out-dir", "out"],
             "reproduce-fig2": ["reproduce", "fig2", "--out-dir", "out"],
             "reproduce-fig3": ["reproduce", "fig3", "--repeats", "1", "--out-dir", "out"],
             "reproduce-table3": ["reproduce", "table3", "--repeats", "1", "--out-dir", "out"]}
    train = {"train-sparse": ["train", _SPARSE, "--sparse-format", "--beta", "0.1"]}
    scores = {}
    for data, (generated, train_file, score_file, penalty) in DATA.items():
        for flags, extra in TRAIN_FLAGS.items():
            for traced in (False, True):
                name = f"train-{data}-{flags}" + ("-traced" if traced else "")
                train[name] = (["train", f"../{generated}/{train_file}", *penalty, *extra,
                                "--out", "model.txt"]
                               + (["--trace-out", "trace.csv"] if traced else []))
                model, run = f"../{name}/model.txt", name.removeprefix("train-")
                scores[f"predict-{run}"] = ["predict", model, f"../{generated}/{score_file}"]
                scores[f"certify-{run}"] = ["certify", model, f"../{generated}/{train_file}"]
                if flags in ("constant", "add-intercept") and not traced:
                    scores[f"threshold-{run}"] = ["certify", model,
                                                  f"../{generated}/{train_file}",
                                                  "--threshold-only"]
    # uncentered: its threshold is undefined, an exit 1
    scores["threshold-sparse"] = ["certify", _SPARSE_MODEL, _SPARSE, "--sparse-format",
                                  "--threshold-only"]
    cv = ["cv", "--data", _STALL_CSV, "--alpha", "0.5"]
    train.update({
        "cv-stall-10": cv + ["--repeats", "10"],
        "cv-stall-2": cv + ["--repeats", "2"],
        "cv-stall-validation": cv + ["--repeats", "2", "--validation-fraction", "0.2"],
        "cv-synthetic": ["cv", "--d", "20", "--n-train", "100", "--k", "3", "--n-test",
                         "200", "--betas", "0.01,0.1,1", "--zetas", "0,0.1,1", "--alpha",
                         "0.3", "--repeats", "2"],
    })
    scores.update({f"probe-{name}": argv for name, argv in PROBES.items()})
    return [first, train, scores]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment(src: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _run(name: str, argv: list[str], root: Path, src: Path, env: dict) -> dict:
    """The digests of one run, made in ``root / name``."""
    workdir = root / name
    workdir.mkdir()
    done = subprocess.run([sys.executable, "-m", "wclogit.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, check=False)

    def scrub(text: bytes) -> bytes:
        return text.replace(str(src).encode(), b"<src>").replace(str(root).encode(),
                                                                    b"<root>")

    items = {f"{name}:stdout": _sha256(scrub(done.stdout)),
             f"{name}:stderr": _sha256(scrub(done.stderr)),
             f"{name}:exit": _sha256(str(done.returncode).encode())}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            items[f"{name}:file:{path.relative_to(workdir).as_posix()}"] = \
                _sha256(path.read_bytes())
    return items


def _machine(env: dict) -> dict:
    """The Python, numpy and BLAS that the runs use."""
    probe = ("import json, platform, numpy\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'python': platform.python_version(),\n"
             "                  'numpy': numpy.__version__,\n"
             "                  'blas': f\"{blas.get('name')} {blas.get('version')}\",\n"
             "                  'machine': platform.machine()}))")
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True)
    return {**json.loads(found.stdout), "blas_threads": env["OPENBLAS_NUM_THREADS"]}


def collect(src: Path) -> dict:
    src = src.resolve()
    if not (src / "wclogit" / "cli.py").is_file():
        raise SystemExit(f"error: {src} holds no wclogit/cli.py")
    env = _environment(src)
    started = time.perf_counter()
    items = {}
    with tempfile.TemporaryDirectory(prefix="wclogit-bits-") as tmp:
        root = Path(tmp).resolve()
        (root / "inputs").mkdir()
        for filename, data in INPUTS.items():
            (root / "inputs" / filename).write_bytes(data)
        with ThreadPoolExecutor(max_workers=2) as pool:
            solver = pool.submit(_solver_run, src, env)
            for stage in stages():
                runs = [pool.submit(_run, name, argv, root, src, env)
                        for name, argv in stage.items()]
                for run in runs:
                    items.update(run.result())
            items.update(solver.result())
        # the inputs as the runs left them: a probe may have written over its own
        for path in sorted((root / "inputs").iterdir()):
            items[f"inputs:file:{path.name}"] = _sha256(path.read_bytes())
    return {"machine": _machine(env), "wall_s": round(time.perf_counter() - started, 1),
            "items": dict(sorted(items.items()))}


def compare(old_path: Path, new_path: Path) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["machine"] != new["machine"]:
        print(f"warning: the runs differ in machine: {old['machine']} against "
              f"{new['machine']}", file=sys.stderr)
    moved = []
    for key in sorted(old["items"].keys() | new["items"].keys()):
        before, after = old["items"].get(key), new["items"].get(key)
        if before != after:
            moved.append(key if before and after else
                         f"{key} (only in {old_path if before else new_path})")
    for line in moved:
        print(line)
    print(f"{len(moved)} of {len(old['items'].keys() | new['items'].keys())} items moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the tree's src directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="list the items that moved from A to B")
    parser.add_argument("--solver-items", action="store_true",
                        help="print the in-process solver items of the wclogit on the "
                             "path as JSON")
    parser.add_argument("out", nargs="?", type=Path, help="the JSON to write")
    args = parser.parse_args(argv)
    if args.solver_items:
        print(json.dumps(solver_items()))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.src is None or args.out is None:
        parser.error("give --src SRC and OUT.json, or --compare A.json B.json")
    record = collect(args.src)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record['items'])} items in {record['wall_s']} s written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
