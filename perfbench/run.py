"""wclogit benchmark: one workload per run, timed end to end or per layer.

    python3 perfbench/run.py --workload converge|grid|pipeline \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is imported from its
``src`` directory.  Each task runs in a closed loop with one client: the
next task starts when the previous one has finished.  With ``--trace 0``
the run reports the end-to-end metrics listed in ``BENCHMARK.json``, with
times scaled to a nominal machine speed (see SpeedGauge); with
``--trace 1`` it alternates untraced and traced tasks on the same inputs
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller report, and the spans of a traced run, go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"
LAYERS = ("penalty", "model", "solver", "certify", "data", "modelfile", "cli")

# one BLAS thread: the matrices are at most 1000 x 50, and a second thread
# on a two-core machine adds more noise than speed
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is repeated and its median reported
SETUP_REPEATS = 5
# nominal time of SpeedGauge's kernel: reported times are those of a
# machine on which the kernel takes this long
REFERENCE_KERNEL_S = 0.010


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import wclogit afresh from ``src``; returns {short name: module}."""
    for name in [n for n in sys.modules if n == "wclogit" or n.startswith("wclogit.")]:
        del sys.modules[name]
    package = importlib.import_module("wclogit")
    if Path(package.__file__).resolve().parent != SRC / "wclogit":
        raise RuntimeError(f"wclogit was imported from {package.__file__}, not {SRC}")
    modules = {"wclogit": package}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"wclogit.{layer}")
        except ModuleNotFoundError:
            pass
    return modules


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wclogit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def blas_runtime_threads():
    """Thread count OpenBLAS reports for itself, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args, numpy) -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "git_sha": git_sha(),
        "source_sha256_16": source_digest(),
    }


class SpeedGauge:
    """Times a fixed reference kernel between tasks, to scale task times to
    a nominal machine speed.

    On a shared machine the speed of one core drifts, by up to a factor of
    two, over seconds to minutes.  The kernel mixes the kinds of work the
    workloads do: an interpreter loop, parsing CSV text into floats, and
    small numpy products.  It runs before and after every task, and the
    task's wall time is multiplied by ``REFERENCE_KERNEL_S`` over the mean
    of the two kernel times.  The kernel never calls wclogit, so no change
    to the library can move it.
    """

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        self._np = numpy
        self._X = rng.standard_normal((500, 50))
        self._y = (rng.random(500) < 0.5).astype(float)
        self._csv = "\n".join(",".join(repr(float(v)) for v in row)
                               for row in rng.standard_normal((60, 50)))
        self.seconds = []

    def _kernel(self) -> None:
        total = 0
        for i in range(40_000):
            total += i * i
        [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self._csv))]
        np, X, y = self._np, self._X, self._y
        theta = np.zeros(X.shape[1])
        for _ in range(80):
            z = X @ theta
            theta = theta - 1e-3 * (X.T @ (1.0 / (1.0 + np.exp(-z)) - y))

    def sample(self) -> None:
        start = perf_counter()
        self._kernel()
        self.seconds.append(perf_counter() - start)

    def scaled(self, seconds: float) -> float:
        """``seconds`` spent between the last two samples, at nominal speed."""
        return seconds * 2.0 * REFERENCE_KERNEL_S / (self.seconds[-2] + self.seconds[-1])


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Checker:
    """Checks every task's outcome, and that one input always gives one result."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.referenced = 0
        self.errors = []

    def record(self, i, outcome, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                error = self._check(i % self.workload.cycle, outcome)
            except Exception as exc:  # an outcome of the wrong shape is a failed task
                error = f"checking raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.errors.append(f"task {i}: {error}")

    def _check(self, j, outcome):
        ref = self.reference.get(self.workload.reference_key(j))
        self.referenced += ref is not None
        error = self.workload.check(j, outcome, ref)
        if error is None:
            summary = self.workload.summary(outcome)
            if self.first.setdefault(j, summary) != summary:
                error = f"input {j} gave another result than on its first run"
        return error


def attempt(workload, i, tracer=None):
    """Run task i; returns (latency in s, outcome, error message or None)."""
    if tracer is not None:
        tracer.install()
        tracer.begin_task(i)
    start = perf_counter()
    try:
        outcome = workload.run(i)
        return perf_counter() - start, outcome, None
    except Exception as exc:  # a failing task is counted, not fatal
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_task()
            tracer.uninstall()


def untraced_run(workload, checker, gauge, seconds: float) -> dict:
    raw, scaled = [], []
    start = perf_counter()
    deadline = start + seconds
    gauge.sample()
    # whole cycles, so that every run holds each input equally often
    while not raw or perf_counter() < deadline or len(raw) % workload.cycle:
        latency, outcome, error = attempt(workload, len(raw))
        gauge.sample()
        raw.append(latency)
        scaled.append(gauge.scaled(latency))
        checker.record(len(raw) - 1, outcome, error)
    elapsed = perf_counter() - start
    failed = len(checker.errors)
    return {
        "task_ms_p50": 1e3 * statistics.median(scaled),
        "task_ms_p90": 1e3 * percentile(scaled, 90),
        "tasks_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / checker.attempted,
        "failed_frac": failed / checker.attempted,
        "tasks": len(raw),
        "raw_task_ms_p50": 1e3 * statistics.median(raw),
        "raw_task_ms_p90": 1e3 * percentile(raw, 90),
        "raw_tasks_per_s": len(raw) / elapsed,
        "task_ms": [1e3 * t for t in scaled],
        "raw_task_ms": [1e3 * t for t in raw],
    }


def traced_run(workload, checker, tracer, seconds: float, counts_path: Path) -> tuple:
    """Pairs of one untraced and one traced task on the same input, in
    alternating order, until ``seconds`` have passed, the count window (the
    first ``count_tasks`` traced tasks) is complete and the inputs have come
    round an equal number of times."""
    latencies = {False: [], True: []}
    deadline = perf_counter() + seconds
    i = 0
    while i < workload.count_tasks or perf_counter() < deadline or i % workload.cycle:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            latency, outcome, error = attempt(workload, i, tracer if traced else None)
            latencies[traced].append(latency)
            checker.record(i, outcome, error)
        i += 1
    timed = list(tracer.tasks)
    window = timed[:workload.count_tasks]

    # counts must repeat exactly: rerun the first input, and compare with
    # the last run of this seed on the same source
    problems = []
    _, outcome, error = attempt(workload, 0, tracer)
    checker.record(0, outcome, error)
    if tracer.tasks[-1].counts() != window[0].counts():
        problems.append("counts of input 0 changed when it ran again")
    counts = [t.counts() for t in window]
    stored = {"source": source_digest(), "counts": counts}
    if counts_path.exists():
        previous = json.loads(counts_path.read_text())
        if previous["source"] == stored["source"] and previous["counts"] != counts:
            problems.append(f"counts differ from the previous run recorded in {counts_path.name}")
    counts_path.write_text(json.dumps(stored, indent=1))
    return layer_metrics(window, timed, latencies), problems


def layer_metrics(window, timed, latencies) -> dict:
    calls, fits, converged, iterations = Counter(), 0, 0, 0
    x_passes = x_bytes = loss_in_fit = 0
    for t in window:
        calls.update(t.calls)
        fits += t.fits
        converged += t.converged
        iterations += t.iterations
        x_passes += t.x_passes
        x_bytes += t.x_bytes
        loss_in_fit += t.loss_in_fit
    self_s, incl_s = Counter(), Counter()
    for t in timed:
        self_s.update(t.self_s)
        incl_s.update(t.incl_s)
    n_window, n_timed = len(window), len(timed)
    timed_iterations = sum(t.iterations for t in timed)
    metrics = {}
    for name in set(calls) | set(self_s):
        metrics[f"{name}.calls"] = calls[name] / n_window
        metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / n_timed
    untraced_p50 = statistics.median(latencies[False])
    metrics.update({
        "model.x_passes": x_passes / n_window,
        "model.bytes_moved_computed": x_bytes / n_window,
        "solver.iterations": iterations / n_window,
        "solver.us_per_iter": 1e6 * incl_s["solver.fit"] / timed_iterations
        if timed_iterations else 0.0,
        "solver.converged_frac": converged / fits if fits else 0.0,
        "solver.loss_evals_per_iter": loss_in_fit / iterations if iterations else 0.0,
        "trace.overhead_frac": (statistics.median(latencies[True]) - untraced_p50)
        / untraced_p50,
        "tasks": n_timed,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("converge", "grid", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wclogit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no wclogit source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy

    from tracer import Tracer
    from workloads import WORKLOADS

    record = run_record(args, numpy)
    print("run: " + json.dumps(record), flush=True)
    reference = {}
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        gauge = SpeedGauge(numpy)
        gauge.sample()
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            modules = import_library()
            lib = argparse.Namespace(**modules)
            workload = WORKLOADS[args.workload](lib, args.seed, workdir)
            workload.warm_up()
            raw_setup_times.append(perf_counter() - start)
            gauge.sample()
            setup_times.append(gauge.scaled(raw_setup_times[-1]))
        checker = Checker(workload, reference)
        problems = []
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            tracer = Tracer(modules)
            metrics, problems = traced_run(workload, checker, tracer, args.seconds,
                                           OUT / f"{tag}-counts.json")
            tracer.write_spans(OUT / f"{tag}-spans.csv")
            if tracer.skipped:
                print("not traced (missing): " + ", ".join(tracer.skipped))
        else:
            metrics = untraced_run(workload, checker, gauge, args.seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["raw_setup_s"] = statistics.median(raw_setup_times)
        metrics["reference_kernel_ms_p50"] = 1e3 * statistics.median(gauge.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.errors)
    problems = checker.errors[:5] + problems
    for name in [m["name"] for m in listed]:
        metrics.setdefault(name, 0.0)  # a traced function that no longer exists
    result = {
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    report = {"run": record, "metrics": metrics, "problems": problems,
              "tasks_checked_against_reference": checker.referenced}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"{tag} trace={args.trace}: {metrics['tasks']} timed tasks, "
          f"{checker.attempted} attempted, {failed} failed, "
          f"{checker.referenced} checked against the stored reference")
    shown = listed if args.trace else listed + [
        {"name": "failed_frac", "unit": "frac"},
        {"name": "raw_task_ms_p50", "unit": "ms"},
        {"name": "raw_task_ms_p90", "unit": "ms"},
        {"name": "raw_tasks_per_s", "unit": "1/s"},
        {"name": "raw_setup_s", "unit": "s"},
        {"name": "reference_kernel_ms_p50", "unit": "ms"},
    ]
    for m in shown:
        print(f"  {m['name']:<36} {metrics[m['name']]:.6g} {m['unit']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
