"""Human-readable model files.

Line-oriented ``key value`` text with a leading format-version line, e.g.

    wclogit-model 1
    dimension 3
    beta 1.2
    zeta 0.1
    ...
    center 0.0 0.5 0.0
    theta 1.25 0.0 -0.75

``_FIELDS`` is the one statement of the format: each field's key, in file
order, and its kind, through which ``save_model`` writes it and
``load_model`` reads it.  Floats are written with ``repr`` so loading
reproduces them exactly; a numpy scalar is written as the Python scalar of
its field's kind (``repr(float(x))`` for a float, never ``np.float64(...)``).
Loading rejects a malformed file with :class:`~wclogit.data.DataError`:
a bad header, a missing, repeated or unknown field, an unparsable or
non-finite number, or a ``kind``/``stepsize_rule`` outside the values the
library writes.  Numbers are read by ``data._number``, as in the data
files: a ``1_0`` or a non-ASCII digit, which no writer writes, does not
parse.  ``kind`` names the penalty, always ``mcp``: loading checks it,
and :class:`ModelFile` does not keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, _number
from .penalty import MCP
from .solver import BACKTRACKING, CONSTANT

MAGIC = "wclogit-model"
FORMAT_VERSION = 1

__all__ = ["MAGIC", "FORMAT_VERSION", "ModelFile", "save_model", "load_model"]

# every line after the header, in file order, with its kind: int, float,
# bool, a vector (np.ndarray), or the tuple of the words the library
# writes.  save_model writes and load_model reads exactly these lines;
# dimension and kind are written and checked, and ModelFile keeps neither.
_FIELDS = {
    "dimension": int, "beta": float, "zeta": float, "kind": (MCP,),
    "centered": bool, "has_intercept": bool, "stepsize_rule": (CONSTANT, BACKTRACKING),
    "accelerate": bool, "iterations": int, "converged": bool, "final_objective": float,
    "center": np.ndarray, "theta": np.ndarray,
}


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


def _format(value, kind) -> str:
    """``value`` as its field's token(s); a numpy scalar reads as the Python
    scalar of the field's kind, so ``load_model`` reads it back."""
    if kind is np.ndarray:
        return " ".join(map(repr, value.tolist()))
    if kind is bool:
        return "true" if value else "false"
    return repr(kind(value)) if kind in (int, float) else str(value)


def save_model(path, model: ModelFile) -> None:
    values = {"dimension": model.theta.size, "kind": MCP, **vars(model)}
    lines = [f"{MAGIC} {FORMAT_VERSION}"]
    lines += [f"{key} {_format(values[key], kind)}" for key, kind in _FIELDS.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse(token: str, key: str, kind):
    """The value of field ``key`` of kind ``kind`` from its ``token``."""
    if kind is np.ndarray:
        return np.array([_parse(t, key, float) for t in token.split()])
    if kind is bool:
        if token not in ("true", "false"):
            raise DataError(f"model file field {key!r} must be true or false, got {token!r}")
        return token == "true"
    if isinstance(kind, tuple):
        if token not in kind:
            raise DataError(f"model file field {key!r} must be one of {list(kind)}, "
                            f"got {token!r}")
        return token
    try:
        value = _number(token, kind)
    except ValueError:
        raise DataError(f"model file field {key!r} is not a valid {kind.__name__}: "
                        f"{token!r}") from None
    if not math.isfinite(value):
        raise DataError(f"model file field {key!r} must be finite, got {token!r}")
    return value


def load_model(path) -> ModelFile:
    """Read a model file; a malformed file raises :class:`DataError`."""
    with open(path, encoding="utf-8-sig") as fh:
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
        values = {key: _parse(fields[key], key, kind) for key, kind in _FIELDS.items()}
        dim = values.pop("dimension")
        del values["kind"]
        if values["theta"].size != dim or values["center"].size != dim:
            raise DataError(f"vector lengths disagree with dimension {dim}")
        return ModelFile(**values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
