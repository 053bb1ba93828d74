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
- ``generate`` of ``stall_train.csv`` (10 features, the console checks'
  stalling file) and of a 1000 x 50 file with a test split
- ``train`` on each file, traced and untraced, under each flag set of
  ``TRAIN_FLAGS``; then ``predict`` and ``certify`` on every model
- ``cv --data stall_train.csv --alpha 0.5`` at 10 and at 2 repeats and with
  ``--validation-fraction 0.2``, and a 3 x 3 synthetic ``cv``
- twelve error probes (``PROBES``): inadmissible stepsizes, overflowing
  features, settings at the float range's edges, ``--num-features 0`` and a
  missing file

Each run is a fresh ``python -m wclogit.cli`` process with the tree's
``src`` first on ``PYTHONPATH``, BLAS pinned to one thread, in its own
directory under a temporary root; its inputs are read through relative
paths, and the root's and the tree's paths are replaced by ``<root>`` and
``<src>`` in stdout and stderr. The JSON also records the Python, numpy and
BLAS versions. A matrix product's last bits depend on the BLAS build, so
compare two trees on one machine and never keep the digests as goldens
across machines. Standard library only; two runs at a time, 15-18 s on two
cores.
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
}

# files the probes read, written into the "inputs" directory
INPUTS = {
    "overflow.csv": "label,f1,f2\n1,1e200,1\n0,-1e200,2\n1,3e200,0\n",
    "sparse.txt": "1 1:2.0 3:1.0\n0 2:1.5\n1 1:0.5\n0 3:-2.0\n",
}

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
}


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
        for filename, text in INPUTS.items():
            (root / "inputs" / filename).write_text(text)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for stage in stages():
                runs = [pool.submit(_run, name, argv, root, src, env)
                        for name, argv in stage.items()]
                for run in runs:
                    items.update(run.result())
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
    parser.add_argument("out", nargs="?", type=Path, help="the JSON to write")
    args = parser.parse_args(argv)
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
