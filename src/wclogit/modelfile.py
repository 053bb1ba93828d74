"""Human-readable model files.

Line-oriented ``key value`` text with a leading format-version line, e.g.

    wclogit-model 1
    dimension 3
    beta 1.2
    zeta 0.1
    ...
    center 0.0 0.5 0.0
    theta 1.25 0.0 -0.75

Floats are written with ``repr`` so loading reproduces them exactly.
Loading rejects a malformed file with :class:`~wclogit.data.DataError`:
a bad header, a missing, repeated or unknown field, an unparsable or
non-finite number, or a ``kind``/``stepsize_rule`` outside the values the
library writes.  ``kind`` names the penalty, always ``mcp``: loading checks
it, and :class:`ModelFile` does not keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError
from .penalty import MCP
from .solver import BACKTRACKING, CONSTANT

MAGIC = "wclogit-model"
FORMAT_VERSION = 1

__all__ = ["MAGIC", "FORMAT_VERSION", "ModelFile", "save_model", "load_model"]

# the fields after the header line, each written once by save_model
_FIELDS = ("dimension", "beta", "zeta", "kind", "centered", "has_intercept",
           "stepsize_rule", "accelerate", "iterations", "converged",
           "final_objective", "center", "theta")


@dataclass
class ModelFile:
    theta: np.ndarray
    beta: float
    zeta: float
    centered: bool
    center: np.ndarray
    has_intercept: bool
    stepsize_rule: str
    accelerate: bool
    iterations: int
    converged: bool
    final_objective: float


def save_model(path, model: ModelFile) -> None:
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"dimension {model.theta.size}",
        f"beta {model.beta!r}",
        f"zeta {model.zeta!r}",
        f"kind {MCP}",
        f"centered {str(model.centered).lower()}",
        f"has_intercept {str(model.has_intercept).lower()}",
        f"stepsize_rule {model.stepsize_rule}",
        f"accelerate {str(model.accelerate).lower()}",
        f"iterations {model.iterations}",
        f"converged {str(model.converged).lower()}",
        f"final_objective {model.final_objective!r}",
        "center " + " ".join(repr(float(v)) for v in model.center),
        "theta " + " ".join(repr(float(v)) for v in model.theta),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_bool(token: str, key: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise DataError(f"model file field {key!r} must be true or false, got {token!r}")


def _parse_number(token: str, key: str, kind=float):
    try:
        value = kind(token)
    except ValueError:
        raise DataError(f"model file field {key!r} is not a valid {kind.__name__}: "
                        f"{token!r}") from None
    if not math.isfinite(value):
        raise DataError(f"model file field {key!r} must be finite, got {token!r}")
    return value


def _parse_choice(token: str, key: str, allowed: tuple) -> str:
    if token not in allowed:
        raise DataError(f"model file field {key!r} must be one of {list(allowed)}, "
                        f"got {token!r}")
    return token


def load_model(path) -> ModelFile:
    """Read a model file; a malformed file raises :class:`DataError`."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        raise DataError(f"{path}: not a {MAGIC} file")
    if head[1] != str(FORMAT_VERSION):
        raise DataError(
            f"{path}: unsupported model format version {head[1]} (expected {FORMAT_VERSION})"
        )
    fields = {}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        # a second value would silently win, and an unknown key would be
        # silently dropped
        if key in fields:
            raise DataError(f"{path}: model file repeats field {key!r}")
        if key not in _FIELDS:
            raise DataError(f"{path}: model file has unknown field {key!r}")
        fields[key] = rest
    missing = [k for k in _FIELDS if k not in fields]
    if missing:
        raise DataError(f"{path}: model file is missing fields {missing}")
    try:
        dim = _parse_number(fields["dimension"], "dimension", int)
        theta = np.array([_parse_number(t, "theta") for t in fields["theta"].split()])
        centervec = np.array([_parse_number(t, "center") for t in fields["center"].split()])
        if theta.size != dim or centervec.size != dim:
            raise DataError(f"vector lengths disagree with dimension {dim}")
        _parse_choice(fields["kind"], "kind", (MCP,))
        return ModelFile(
            theta=theta,
            beta=_parse_number(fields["beta"], "beta"),
            zeta=_parse_number(fields["zeta"], "zeta"),
            centered=_parse_bool(fields["centered"], "centered"),
            center=centervec,
            has_intercept=_parse_bool(fields["has_intercept"], "has_intercept"),
            stepsize_rule=_parse_choice(fields["stepsize_rule"], "stepsize_rule",
                                        (CONSTANT, BACKTRACKING)),
            accelerate=_parse_bool(fields["accelerate"], "accelerate"),
            iterations=_parse_number(fields["iterations"], "iterations", int),
            converged=_parse_bool(fields["converged"], "converged"),
            final_objective=_parse_number(fields["final_objective"], "final_objective"),
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
