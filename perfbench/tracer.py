"""Timing wrappers around the public functions of the wclogit modules.

A :class:`Tracer` rebinds every module attribute that refers to a traced
function (for example ``wclogit.solver.loss``, the name that ``solver``
imports from ``model``) to a wrapper that records a span, and puts the
originals back on :meth:`Tracer.uninstall`.  Names that no longer exist are
skipped, so a refactor that moves or removes a function does not break the
benchmark; the skipped names are listed in ``Tracer.skipped``.

Spans (id, name, start, end, parent, task, self time) stay in memory until
:meth:`Tracer.write_spans`.  Self time is a span's duration minus the time
covered by its child spans; spans nest strictly because the library is
single-threaded, so it is accumulated as spans close.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter
from time import perf_counter

# (layer, function) pairs that get a span; the layer is the wclogit module
# that defines the function
TARGETS = (
    ("penalty", "prox_vector"),
    ("penalty", "penalty_total"),
    ("model", "loss"),
    ("model", "loss_gradient"),
    ("model", "predict_many"),
    ("model", "spectral_norm"),
    ("solver", "fit"),
    ("solver", "max_constant_stepsize"),
    ("certify", "check_mcp_local_opt"),
    ("certify", "is_problem_nonconvex"),
    ("data", "gen_noisy"),
    ("data", "center"),
    ("data", "apply_center"),
    ("data", "load_csv"),
    ("modelfile", "save_model"),
    ("modelfile", "load_model"),
    ("cli", "run_cv_grid"),
    ("cli", "main"),
)

FIT = "solver.fit"
LOSS = "model.loss"
TASK = "task"
# passes over the feature matrix per call: X @ theta for the loss, and
# X @ theta plus X.T @ r for the gradient
X_PASSES = {LOSS: 1, "model.loss_gradient": 2}

_ID, _NAME, _START, _END, _PARENT, _TASK, _SELF = range(7)


class TaskStats:
    """Counts and times of one traced task."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()
        self.fits = 0
        self.converged = 0
        self.iterations = 0
        self.x_passes = 0
        self.x_bytes = 0
        self.loss_in_fit = 0

    def counts(self) -> dict:
        """Every count of this task; two runs of one input must agree exactly."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "fits": self.fits,
            "converged": self.converged,
            "iterations": self.iterations,
            "x_passes": self.x_passes,
            "x_bytes": self.x_bytes,
            "loss_in_fit": self.loss_in_fit,
        }


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short names ("solver", ...) to every loaded
        wclogit module, the package itself included."""
        self.spans = []
        self.tasks = []
        self.skipped = []
        self.bindings = []
        self._stack = []
        self._child_s = []
        self._next_id = 0
        self._task = None
        self._task_start = 0.0
        self._task_first_span = 0
        self._stats = None
        for layer, fname in TARGETS:
            original = getattr(modules.get(layer), fname, None)
            if not callable(original):
                self.skipped.append(f"{layer}.{fname}")
                continue
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.bindings.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def begin_task(self, task) -> None:
        """Open the root span of one task; spans until :meth:`end_task` belong to it."""
        self._task = task
        self._stats = TaskStats()
        self._task_first_span = len(self.spans)
        self._stack.append(self._next_id)
        self._next_id += 1
        self._child_s.append(0.0)
        self._task_start = perf_counter()

    def end_task(self) -> TaskStats:
        end = perf_counter()
        children = self._child_s.pop()
        self.spans.append((self._stack.pop(), TASK, self._task_start, end, -1, self._task,
                           end - self._task_start - children))
        stats, self._stats = self._stats, None
        spans = self.spans[self._task_first_span:]
        names = {span[_ID]: (span[_NAME], span[_PARENT]) for span in spans}
        for span in spans:
            name = span[_NAME]
            stats.calls[name] += 1
            stats.self_s[name] += span[_SELF]
            stats.incl_s[name] += span[_END] - span[_START]
            if name == LOSS:
                parent = span[_PARENT]
                while parent in names and names[parent][0] != FIT:
                    parent = names[parent][1]
                stats.loss_in_fit += parent in names
        self.tasks.append(stats)
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "task", "self"])
            writer.writerows(self.spans)

    def _wrap(self, name: str, fn):
        tracer = self
        stack, child_s, spans = self._stack, self._child_s, self.spans
        passes = X_PASSES.get(name, 0)
        is_fit = name == FIT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = tracer._stats
            if stats is None:  # called outside a traced task
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                own = duration - child_s.pop()
                child_s[-1] += duration
                spans.append((span_id, name, start, end, parent, tracer._task, own))
            if passes:
                data = args[1] if len(args) > 1 else kwargs["data"]
                stats.x_passes += passes
                stats.x_bytes += passes * data.features.nbytes
            elif is_fit:
                stats.fits += 1
                stats.converged += bool(result.converged)
                stats.iterations += result.iterations
            return result

        return traced
