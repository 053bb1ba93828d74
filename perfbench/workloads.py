"""The benchmark's three workloads: converge, grid and pipeline.

Each workload is built from ``lib``, a namespace of the wclogit modules,
and looks library functions up on it at call time, so that the tracer's
rebinding is seen.  The workload seed decides the inputs (for ``grid``, only
their order; see GRID_DATA_SEEDS); the library only receives the generated
inputs.

Task ``i`` runs on input ``i % cycle``.  ``summary`` reduces a task's
outcome to JSON values that must repeat exactly for one input within a
run, and that ``make_reference.py`` stores as the reference under
``reference_key(input)``.  ``check`` returns None or a message naming what
went wrong: first the invariants, then, when the input has a stored
reference, the match to it within the tolerances below.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

# the fig1/fig2 problem and penalty
FIG1_BETA = 1.2
FIG1_ZETA = 0.1
CONVERGE_ALPHAS = (1.0, 2.0, 4.0)
# at eps_tol 1e-15 every fit runs to its cap, so the work per task is fixed;
# with a cap of 1000, three fits of seed 5 stall early (none of seeds 0-99
# does at 500)
CONVERGE_EPS_TOL = 1e-15
CONVERGE_MAX_ITERS = 500

# the fig3 grid
GRID_BETAS = tuple(10.0 ** np.linspace(-2.8, 0.6, 7))
GRID_ZETAS = (0.0, 0.01, 0.1, 1.0)
GRID_ALPHA = 0.1
GRID_MAX_ITERS = 1000
GRID_N_TEST = 1000
# The grid's data draws are those of the first four repeats of `reproduce
# fig3` (data seeds 1000-1003); the workload seed only rotates their order.
# What a draw costs depends mostly on its spectral gap, which varies from
# draw to draw, so draws taken from the workload seed would make the grid's
# figures depend on the seed.
GRID_DATA_SEEDS = (1000, 1001, 1002, 1003)

# the pipeline trains with a fixed iteration budget: at noise_sigma 0.1 the
# backtracking run needs 500 to 5000 iterations to stall, depending on the
# seed, and that spread would swamp every other cost of the task; every run
# of seeds 0-99 reaches the budget
PIPELINE_MAX_ITERS = 300

# Tolerances against the stored reference.  Objectives and thresholds may
# move by rounding only.  An error rate may differ by one test point, so a
# change that is exact up to the last bits of a truncated iterate passes.
REL_TOL = 1e-9
# slack for the constant rule's descent property near machine precision
MONOTONE_SLACK = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Converge:
    """fig1/fig2 convergence: one fit with its trace, written as CSV."""

    name = "converge"
    # one traced pass over every solver configuration
    count_tasks = 7

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        spec = lib.data.SynthSpec(d=50, n_train=1000, k=8, latent_dim=45, seed=seed)
        self.train, _, _ = lib.data.gen_separable(spec)
        self.penalty = lib.penalty.PenaltySpec(zeta=FIG1_ZETA, beta=FIG1_BETA)
        config = lib.solver.SolverConfig
        self.configs = [
            config(alpha=alpha, accelerate=accelerate, eps_tol=CONVERGE_EPS_TOL,
                   max_iters=CONVERGE_MAX_ITERS)
            for accelerate in (False, True) for alpha in CONVERGE_ALPHAS
        ]
        self.configs.append(config(stepsize_rule=lib.solver.BACKTRACKING,
                                   eps_tol=CONVERGE_EPS_TOL,
                                   max_iters=CONVERGE_MAX_ITERS))
        self.cycle = len(self.configs)
        self.trace_path = workdir / "converge_trace.csv"

    def reference_key(self, j) -> str:
        return f"seed{self.seed}-config{j}"

    def warm_up(self):
        self.run(0)

    def run(self, i):
        solver = self.lib.solver
        result = solver.fit(self.train, FIG1_BETA, self.penalty, self.configs[i % self.cycle])
        solver.write_trace_csv(result, self.trace_path)
        return result

    def summary(self, result) -> dict:
        return {"final_objective": result.final_objective, "iterations": result.iterations}

    def check(self, j, result, ref):
        with open(self.trace_path) as fh:
            lines = sum(1 for _ in fh)
        if lines != result.iterations + 2:
            return f"trace CSV has {lines} lines for {result.iterations} iterations"
        config = self.configs[j]
        if config.stepsize_rule == self.lib.solver.CONSTANT and not config.accelerate:
            objective = [row.objective for row in result.trace]
            for k in range(1, len(objective)):
                if objective[k] > objective[k - 1] + MONOTONE_SLACK * abs(objective[k - 1]):
                    return f"constant-rule objective rose at iteration {k}"
        if result.iterations != CONVERGE_MAX_ITERS:
            return f"fit stopped after {result.iterations} of {CONVERGE_MAX_ITERS} iterations"
        if ref is not None and not _close(result.final_objective, ref["final_objective"]):
            return (f"final objective {result.final_objective!r} differs from the "
                    f"reference {ref['final_objective']!r}")
        return None


class Grid:
    """fig3 grid: one repeat of 7 betas x 4 zetas through run_cv_grid."""

    name = "grid"
    cycle = len(GRID_DATA_SEEDS)
    # one traced pass over every draw
    count_tasks = cycle

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.offset = seed % self.cycle
        self.grid = lib.cli.CvGrid(betas=GRID_BETAS, zetas=GRID_ZETAS, repeats=1, seed=0)

    def _data_seed(self, j) -> int:
        return GRID_DATA_SEEDS[(j + self.offset) % self.cycle]

    def reference_key(self, j) -> str:
        return f"data{self._data_seed(j)}"

    def _pairs(self, j):
        data = self.lib.data
        spec = data.SynthSpec(d=50, n_train=200, k=5, n_test=GRID_N_TEST,
                              amplitude="normal", seed=self._data_seed(j))

        def pair_for_repeat(r):
            train, test, _ = data.gen_noisy(spec)
            train = data.center(train)
            return train, data.apply_center(test, train.center)
        return pair_for_repeat

    def _run_grid(self, grid, j):
        # every cell rejects alpha = 0.1 and falls back to the default; the
        # notice is formatted as in the CLI and dropped
        return self.lib.cli.run_cv_grid(grid, self._pairs(j), alpha=GRID_ALPHA,
                                        max_iters=GRID_MAX_ITERS, notify=lambda msg: None)

    def warm_up(self):
        # one cell of the first draw of the pool, whatever the rotation
        one_cell = self.lib.cli.CvGrid(betas=GRID_BETAS[:1], zetas=GRID_ZETAS[:1],
                                       repeats=1, seed=0)
        self._run_grid(one_cell, -self.offset)

    def run(self, i):
        return self._run_grid(self.grid, i % self.cycle)

    def summary(self, error_grid) -> dict:
        return {"errors": [row.mean_test_error for row in error_grid.rows],
                "iterations": [row.mean_iterations for row in error_grid.rows]}

    def check(self, j, error_grid, ref):
        cells = [(row.beta, row.zeta) for row in error_grid.rows]
        if cells != [(b, z) for b in self.grid.betas for z in self.grid.zetas]:
            return "grid rows are missing or out of (beta, zeta) order"
        errors = [row.mean_test_error for row in error_grid.rows]
        if not all(0.0 <= e <= 1.0 for e in errors):
            return f"error rate outside [0, 1]: {errors}"
        if ref is not None:
            worst = max(abs(e - r) for e, r in zip(errors, ref["errors"]))
            if worst > 1.0 / GRID_N_TEST + 1e-12:
                return f"error rates differ from the reference by up to {worst:g}"
            iterations = [row.mean_iterations for row in error_grid.rows]
            if iterations != ref["iterations"]:
                return f"iteration counts {iterations} differ from the reference"
        return None


_ERROR_RATE = re.compile(r"error rate: [0-9.]+ \((\d+)/(\d+) misclassified\)$")
_COORDINATE = re.compile(r"  \[(\d+)\] (\w+): .*\((ok|FAIL)\)$")
_THRESHOLD = "zero-solution beta threshold: "
_TRAIN_KEYS = ("iterations", "converged", "final objective", "nonzero coordinates")


def _certificate(text: str) -> list:
    """Certificate lines, with each coordinate reduced to its index, case and
    verdict (the printed |theta| and |grad| move with rounding)."""
    lines = []
    for line in text.splitlines():
        m = _COORDINATE.match(line)
        lines.append(" ".join(m.groups()) if m else line)
    return lines


class Pipeline:
    """CLI round trip in process: train, predict, certify on CSV files."""

    name = "pipeline"
    count_tasks = 1
    cycle = 1

    def __init__(self, lib, seed: int, workdir):
        self.lib = lib
        self.seed = seed
        data = lib.data
        spec = data.SynthSpec(d=50, n_train=1000, k=8, n_test=1000, latent_dim=45,
                              noise_sigma=0.1, seed=seed)
        train, test, _ = data.gen_noisy(spec)
        train_csv, test_csv = str(workdir / "train.csv"), str(workdir / "test.csv")
        data.save_csv(train, train_csv)
        data.save_csv(test, test_csv)
        model = str(workdir / "model.txt")
        self.commands = [
            ["train", train_csv, "--beta", repr(FIG1_BETA), "--zeta", repr(FIG1_ZETA),
             "--center", "--backtracking", "--max-iters", str(PIPELINE_MAX_ITERS),
             "--out", model],
            ["predict", model, test_csv, "--out", str(workdir / "predictions.csv"),
             "--quiet"],
            ["certify", model, train_csv],
        ]

    def reference_key(self, j) -> str:
        return f"seed{self.seed}"

    def warm_up(self):
        self.run(0)

    def run(self, i):
        outcome = []
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.lib.cli.main(argv)
            outcome.append((code, out.getvalue(), err.getvalue()))
        return outcome

    def summary(self, outcome) -> dict:
        (_, train, _), (_, predict, _), (_, certify, _) = outcome
        fields = dict(line.split(": ", 1) for line in train.splitlines() if ": " in line)
        return {
            "exit_codes": [code for code, _, _ in outcome],
            "train": {key: fields.get(key) for key in _TRAIN_KEYS},
            "predict": predict.strip(),
            "certify": _certificate(certify),
        }

    def check(self, j, outcome, ref):
        for argv, (code, _, err) in zip(self.commands, outcome):
            if code != 0:
                return f"{argv[0]} exited {code}: {err.strip()}"
        got = self.summary(outcome)
        rate = _ERROR_RATE.match(got["predict"])
        if rate is None or int(rate.group(1)) > int(rate.group(2)):
            return f"predict printed no valid error rate: {got['predict']!r}"
        cases = [line for line in got["certify"] if line[:1].isdigit()]
        if "critical point: no" not in got["certify"] and \
                "critical point: yes" not in got["certify"]:
            return "certificate has no critical-point line"
        if len(cases) != 50:
            return f"certificate lists {len(cases)} coordinates, expected 50"
        if got["train"]["iterations"] != str(PIPELINE_MAX_ITERS):
            return (f"train stopped after {got['train']['iterations']} of "
                    f"{PIPELINE_MAX_ITERS} iterations")
        if ref is None:
            return None
        train, ref_train = got["train"], ref["train"]
        for key in ("iterations", "converged", "nonzero coordinates"):
            if train[key] != ref_train[key]:
                return f"train {key}: {train[key]!r}, reference {ref_train[key]!r}"
        if not _close(float(train["final objective"]), float(ref_train["final objective"])):
            return (f"train final objective {train['final objective']} differs from "
                    f"the reference {ref_train['final objective']}")
        ref_rate = _ERROR_RATE.match(ref["predict"])
        if abs(int(rate.group(1)) - int(ref_rate.group(1))) > 1:
            return f"predict: {got['predict']!r}, reference {ref['predict']!r}"
        if len(got["certify"]) != len(ref["certify"]):
            return "certificate line count differs from the reference"
        for line, ref_line in zip(got["certify"], ref["certify"]):
            if line.startswith(_THRESHOLD) and ref_line.startswith(_THRESHOLD):
                if _close(float(line[len(_THRESHOLD):]), float(ref_line[len(_THRESHOLD):])):
                    continue
            if line != ref_line:
                return f"certificate line {line!r}, reference {ref_line!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Converge, Grid, Pipeline)}
