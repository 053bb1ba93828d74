"""Every real, integer and switch setting of the library is read by a checker.

The library's counterpart of ``test_cli_flags.py``.  Each row of ``ROWS``
gives one setting of an entry point (a ``wclogit`` export, ``fit_cells``,
``CvGrid``, ``run_cv_grid`` or ``synthetic_pairs``), its kind, a valid
value, and a call that passes the setting a value.  The valid value must
be accepted.  Each bad value of the row's kind, and each of the row's own,
must be refused with a ``ValueError`` that names the setting, before any
file is read or any pair is drawn: a bool or a string is not a real or an
integer, 2.5 is not an integer, and "no" or 1 is not a switch.  Every
parameter or dataclass field of those entry points annotated ``float``,
``int`` or ``bool`` (with or without ``| None``) must have a row, or sit
on the exempt list with its reason.
"""

import inspect
import math
import re
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

import wclogit
from wclogit import (
    BACKTRACKING,
    Dataset,
    PenaltySpec,
    SolverConfig,
    SynthSpec,
    backtrack_stepsize,
    check_critical_point,
    check_mcp_local_opt,
    check_necessary_local_opt,
    check_sufficient_local_opt,
    criticality_residual,
    fit,
    load_csv,
    load_sparse_classification_format,
    max_constant_stepsize,
    prox_grad_step,
    prox_scalar,
    prox_vector,
    train_test_split,
)
from wclogit.experiments import CvGrid, run_cv_grid, synthetic_pairs
from wclogit.solver import fit_cells

BAD = {
    "real": (True, "0.5"),
    "integer": (True, "0.5", 2.5),
    "switch": ("0.5", "no", 1),
}

ANNOTATED = {"float": "real", "int": "integer", "bool": "switch"}

ENTRY_POINTS = {
    **{name: value for name, value in vars(wclogit).items()
       if not name.startswith("_") and callable(value)},
    "fit_cells": fit_cells,
    "CvGrid": CvGrid,
    "run_cv_grid": run_cv_grid,
    "synthetic_pairs": synthetic_pairs,
}

# the records a run returns or a model file holds: outputs, not settings
RECORDS = ("FitResult", "TraceRow", "CertificateReport", "CoordinateVerdict", "ModelFile")
EXEMPT = {
    ("prox_scalar", "v"): "a point to shrink, not a setting, as prox_vector's v",
}

X = np.array([[1.0, 0.5], [0.5, -1.0], [-1.0, 0.25], [0.2, 0.1]])
Y = np.array([1, 0, 1, 0])
DATA = Dataset(X, Y)
SPEC = PenaltySpec(zeta=0.1)
SHORT = SolverConfig(max_iters=5, record_trace=False)
BACKTRACK = SolverConfig(stepsize_rule=BACKTRACKING)
BASE = SynthSpec(d=3, n_train=10, k=1, n_test=5)
ZERO = np.zeros(2)


class Row(NamedTuple):
    entry: str
    setting: str
    kind: str
    valid: object
    # call(value, sources) passes the setting ``value``
    call: Callable
    # bad values of this setting beyond its kind's
    bad: tuple = ()
    # the name the message gives, where it is not the setting's
    says: str | None = None


def synth(field, low):
    """The row of a ``SynthSpec`` count or seed whose lower bound is ``low``."""
    return Row("SynthSpec", field, "integer", 2 if field in ("latent_dim", "k") else 4,
               lambda v, src: SynthSpec(**{"d": 5, "n_train": 10, "k": 2, field: v}), (low - 1,))


def grid(field, wrap=lambda v: v):
    """A row's call: a one-cell grid whose ``field`` is ``wrap(v)``, run."""
    return lambda v, src: run_cv_grid(
        CvGrid(**{"betas": (0.5,), "zetas": (0.1,), field: wrap(v)}), src.pairs, max_iters=5)


TOLERANCES = (math.nan, -1.0, math.inf)

ROWS = [
    Row("Dataset", "centered", "switch", True, lambda v, src: Dataset(X, Y, centered=v)),
    Row("Dataset", "has_intercept", "switch", False,
        lambda v, src: Dataset(X, Y, has_intercept=v)),
    Row("PenaltySpec", "zeta", "real", 0.1, lambda v, src: PenaltySpec(zeta=v)),
    Row("PenaltySpec", "beta", "real", 0.5, lambda v, src: PenaltySpec(zeta=0.1, beta=v)),
    Row("prox_vector", "weight", "real", 0.5, lambda v, src: prox_vector(np.ones(2), v, SPEC)),
    Row("prox_scalar", "weight", "real", 0.5, lambda v, src: prox_scalar(1.0, v, SPEC)),
    Row("SolverConfig", "alpha", "real", 0.1, lambda v, src: SolverConfig(alpha=v)),
    Row("SolverConfig", "eta", "real", 0.9,
        lambda v, src: SolverConfig(stepsize_rule=BACKTRACKING, eta=v)),
    Row("SolverConfig", "accelerate", "switch", True, lambda v, src: SolverConfig(accelerate=v)),
    Row("SolverConfig", "eps_tol", "real", 1e-6, lambda v, src: SolverConfig(eps_tol=v)),
    Row("SolverConfig", "max_iters", "integer", 5, lambda v, src: SolverConfig(max_iters=v),
        (0,)),
    Row("SolverConfig", "record_trace", "switch", False,
        lambda v, src: SolverConfig(record_trace=v)),
    Row("max_constant_stepsize", "beta", "real", 0.5,
        lambda v, src: max_constant_stepsize(v, SPEC, DATA)),
    Row("prox_grad_step", "alpha", "real", 0.1,
        lambda v, src: prox_grad_step(ZERO, v, 0.5, SPEC, DATA)),
    Row("prox_grad_step", "beta", "real", 0.5,
        lambda v, src: prox_grad_step(ZERO, 0.1, v, SPEC, DATA)),
    Row("backtrack_stepsize", "alpha_prev", "real", 1.0,
        lambda v, src: backtrack_stepsize(ZERO, v, BACKTRACK, 0.5, SPEC, DATA)),
    Row("backtrack_stepsize", "beta", "real", 0.5,
        lambda v, src: backtrack_stepsize(ZERO, 1.0, BACKTRACK, v, SPEC, DATA)),
    Row("fit", "beta", "real", 0.5, lambda v, src: fit(DATA, v, SPEC, SHORT)),
    Row("criticality_residual", "beta", "real", 0.5,
        lambda v, src: criticality_residual(ZERO, v, SPEC, DATA)),
    Row("fit_cells", "cells", "real", 0.5,
        lambda v, src: fit_cells(DATA, [(v, 0.1)], [None], max_iters=5), says="beta"),
    Row("fit_cells", "alphas", "real", 0.1,
        lambda v, src: fit_cells(DATA, [(0.5, 0.1)], [v], max_iters=5), says="alpha"),
    Row("fit_cells", "eps_tol", "real", 1e-6,
        lambda v, src: fit_cells(DATA, [(0.5, 0.1)], [None], eps_tol=v, max_iters=5)),
    Row("fit_cells", "max_iters", "integer", 5,
        lambda v, src: fit_cells(DATA, [(0.5, 0.1)], [None], max_iters=v), (0,)),
    *[Row(check.__name__, "beta", "real", 0.5, lambda v, src, check=check: check(
          ZERO, v, SPEC, DATA))
      for check in (check_critical_point, check_sufficient_local_opt,
                    check_necessary_local_opt, check_mcp_local_opt)],
    *[Row(check.__name__, "tol", "real", 1e-8, lambda v, src, check=check: check(
          ZERO, 0.5, SPEC, DATA, tol=v), TOLERANCES)
      for check in (check_critical_point, check_sufficient_local_opt,
                    check_necessary_local_opt)],
    Row("check_mcp_local_opt", "grad_tol", "real", 1e-6,
        lambda v, src: check_mcp_local_opt(ZERO, 0.5, SPEC, DATA, grad_tol=v), TOLERANCES),
    Row("check_mcp_local_opt", "margin", "real", 0.0,
        lambda v, src: check_mcp_local_opt(ZERO, 0.5, SPEC, DATA, margin=v), TOLERANCES),
    synth("d", 1), synth("n_train", 1), synth("k", 0), synth("n_test", 0),
    synth("latent_dim", 1), synth("seed", 0),
    *[Row("SynthSpec", field, "real", 10.0,
          lambda v, src, field=field: SynthSpec(d=5, n_train=10, k=2, **{field: v}))
      for field in ("amp_low", "amp_high", "noise_sigma")],
    Row("SynthSpec", "noisy_test_labels", "switch", False,
        lambda v, src: SynthSpec(d=5, n_train=10, k=2, noisy_test_labels=v)),
    Row("load_csv", "add_intercept", "switch", True,
        lambda v, src: load_csv(src.csv, add_intercept=v)),
    Row("load_csv", "labeled", "switch", False, lambda v, src: load_csv(src.csv, labeled=v)),
    Row("load_sparse_classification_format", "add_intercept", "switch", True,
        lambda v, src: load_sparse_classification_format(src.sparse, add_intercept=v)),
    Row("load_sparse_classification_format", "num_features", "integer", 3,
        lambda v, src: load_sparse_classification_format(src.sparse, num_features=v), (0,)),
    Row("train_test_split", "test_fraction", "real", 0.5,
        lambda v, src: train_test_split(DATA, v, 0)),
    Row("train_test_split", "seed", "integer", 3,
        lambda v, src: train_test_split(DATA, 0.5, v), (-1,)),
    Row("train_test_split", "center_split", "switch", False,
        lambda v, src: train_test_split(DATA, 0.5, 0, center_split=v)),
    # a grid too small for any cell to fail, and beta and zeta as PenaltySpec reads them
    Row("CvGrid", "betas", "real", 0.5, grid("betas", lambda v: (v,)), (1e-320,), says="beta"),
    Row("CvGrid", "zetas", "real", 0.1, grid("zetas", lambda v: (v,)), (1e308,), says="zeta"),
    Row("CvGrid", "repeats", "integer", 2, grid("repeats"), (0,)),
    Row("CvGrid", "seed", "integer", 3, grid("seed"), (-1,)),
    Row("run_cv_grid", "alpha", "real", 0.1,
        lambda v, src: run_cv_grid(CvGrid((0.5,), (0.1,)), src.pairs, alpha=v, max_iters=5)),
    Row("run_cv_grid", "eps_tol", "real", 1e-6,
        lambda v, src: run_cv_grid(CvGrid((0.5,), (0.1,)), src.pairs, eps_tol=v, max_iters=5)),
    Row("run_cv_grid", "max_iters", "integer", 5,
        lambda v, src: run_cv_grid(CvGrid((0.5,), (0.1,)), src.pairs, max_iters=v), (0,)),
    Row("synthetic_pairs", "seed", "integer", 3,
        lambda v, src: src.draw(synthetic_pairs(BASE, v)), (-1,)),
]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """What a valid call reads: the files, and a repeat's (train, test) pair."""
    folder = tmp_path_factory.mktemp("settings")
    (folder / "d.csv").write_text("label,a,b\n1,0.5,2\n0,1.5,-1\n")
    (folder / "s.txt").write_text("1 1:2.0 3:1.0\n0 2:1.5\n")
    return SimpleNamespace(csv=folder / "d.csv", sparse=folder / "s.txt",
                           pairs=lambda r: (DATA, DATA), draw=lambda pair_for_repeat:
                           pair_for_repeat(0))


@pytest.fixture(scope="module")
def refusing(tmp_path_factory):
    """What a refused call must not reach: absent files, and no pair to draw."""
    folder = tmp_path_factory.mktemp("absent")

    def no_pairs(r):
        raise AssertionError("a pair was drawn")

    return SimpleNamespace(csv=folder / "absent.csv", sparse=folder / "absent.txt",
                           pairs=no_pairs, draw=lambda pair_for_repeat: None)


@pytest.mark.parametrize("row", ROWS, ids=[f"{row.entry}-{row.setting}" for row in ROWS])
def test_a_setting_takes_its_kind_and_refuses_any_other(row, sources, refusing):
    row.call(row.valid, sources)
    for bad in BAD[row.kind] + row.bad:
        with pytest.raises(ValueError, match=re.escape(row.says or row.setting)):
            row.call(bad, refusing)


def test_every_real_integer_and_switch_setting_has_a_row():
    rows = {(row.entry, row.setting): row.kind for row in ROWS}
    missing = []
    for entry, value in ENTRY_POINTS.items():
        if entry in RECORDS:
            continue
        for name, annotation in inspect.get_annotations(value).items():
            # a NamedTuple's fields are forward references
            annotation = getattr(annotation, "__forward_arg__", annotation)
            kind = ANNOTATED.get(annotation.removesuffix(" | None"))
            if name == "return" or kind is None or (entry, name) in EXEMPT:
                continue
            if rows.get((entry, name)) != kind:
                missing.append((entry, name, kind))
    assert missing == []
    # and every row names a parameter or field of its entry point
    for entry, name in rows:
        assert name in inspect.signature(ENTRY_POINTS[entry]).parameters, (entry, name)
