"""JSON problem files and feasible-pair output.

Problem document::

    {
      "cone": [{"type": "orthant"|"soc"|"psd", "size": int}, ...],
      "form": "basis",
      "x0": [...], "s0": [...], "basis_L": [[...], ...]
    }

or, with ``"form": "operator"``, the fields ``A`` (list of columns, each a
coordinate array), ``B`` (d x m rows), ``b``, ``c``, ``g``.  Coordinate
arrays use the package's flat convention (PSD blocks svec'd with sqrt(2)
off-diagonals), in problem and feasible-pair files alike: each is one flat
list of numbers, never a nested list, which would otherwise read as its
flattening.  Parsing rejects NaN/Inf, inconsistent lengths,
non-integer block sizes, a basis of L or set of operator columns that
fails the rank test, and an unsolvable By = g.  ``write_csv`` is the one
CSV writer of the package (experiment drivers and the CLI trace).
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .. import jordan
from ..errors import GeoipmError, ProblemFormatError
from ..jordan import ConeDescriptor, Orthant, Psd, SecondOrder
from ..subspace import BasisForm, ConicProblem, OperatorForm

__all__ = [
    "load_problem",
    "save_problem",
    "problem_from_dict",
    "problem_to_dict",
    "write_feasible_pair",
    "read_feasible_pair",
    "write_csv",
    "require_int",
    "require_real",
]

_NUMBER_TYPES = frozenset((int, float))
_BLOCK_NAMES = {"orthant": (Orthant, "size"), "soc": (SecondOrder, "dim"), "psd": (Psd, "side")}


def require_int(value, what: str) -> int:
    """``value`` as an int; ProblemFormatError unless it is an integer (bools are not)."""
    if not jordan._is_integer(value):
        raise ProblemFormatError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_real(value, what: str) -> float:
    """``value`` as a float; ProblemFormatError unless it is a finite real number (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ProblemFormatError(f"{what} must be a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ProblemFormatError(f"{what} must be a finite number, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise ProblemFormatError(f"{what} must be a finite number, got {value!r}")
    return number


def _reject_constant(name: str, what: str):
    raise ProblemFormatError(f"non-finite literal {name!r} in {what}")


def _finite_array(data, what: str, length: int | None = None) -> np.ndarray:
    """A coordinate array: ProblemFormatError unless ``data`` is one flat
    list of finite numbers as json reads them, int or float (a bool is
    neither), of ``length`` when given."""
    if not isinstance(data, list) or not set(map(type, data)) <= _NUMBER_TYPES:
        raise ProblemFormatError(f"{what} must be one flat list of numbers")
    try:
        arr = np.asarray(data, dtype=float)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ProblemFormatError(f"{what} contains non-finite values") from exc
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{what} contains non-finite values")
    if length is not None and arr.shape[0] != length:
        raise ProblemFormatError(f"{what} has length {arr.shape[0]}, expected {length}")
    return arr


def _cone_from_list(entries) -> ConeDescriptor:
    if not isinstance(entries, list) or not entries:
        raise ProblemFormatError("cone must be a non-empty list of blocks")
    blocks = []
    for entry in entries:
        try:
            kind, _ = _BLOCK_NAMES[entry["type"]]
            size = entry["size"]
        except (KeyError, TypeError) as exc:
            raise ProblemFormatError(f"bad cone block entry {entry!r}") from exc
        size = require_int(size, "cone block size")
        try:
            blocks.append(kind(size))
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc
    return ConeDescriptor(tuple(blocks))


def _cone_to_list(cone: ConeDescriptor) -> list:
    return [{"type": name, "size": getattr(blk, attr)}
            for blk in cone.blocks for name, (kind, attr) in _BLOCK_NAMES.items() if isinstance(blk, kind)]


def problem_from_dict(doc: dict) -> ConicProblem:
    """Build a ConicProblem from a parsed problem document."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    cone = _cone_from_list(doc.get("cone"))
    form_name = doc.get("form")
    try:
        if form_name == "basis":
            x0 = jordan.element(cone, _finite_array(doc["x0"], "x0", cone.dim))
            s0 = jordan.element(cone, _finite_array(doc["s0"], "s0", cone.dim))
            basis = tuple(
                jordan.element(cone, _finite_array(row, f"basis_L[{i}]", cone.dim))
                for i, row in enumerate(doc.get("basis_L", []))
            )
            return ConicProblem(cone, BasisForm(x0=x0, s0=s0, basis=basis))
        if form_name == "operator":
            cols = tuple(
                jordan.element(cone, _finite_array(col, f"A[{i}]", cone.dim))
                for i, col in enumerate(doc.get("A", []))
            )
            m = len(cols)
            b = _finite_array(doc["b"], "b", m)
            c = jordan.element(cone, _finite_array(doc["c"], "c", cone.dim))
            g = _finite_array(doc.get("g", []), "g")
            rows = doc.get("B", [])
            if rows:
                B = np.vstack([_finite_array(row, "B row", m) for row in rows])
            else:
                B = np.zeros((0, m))
            problem = ConicProblem(cone, OperatorForm(columns=cols, B=B, b=b, c=c, g=g))
            # a file gets the rank and By = g tests at load, as a basis form
            # gets its rank test; operator forms built in memory stay lazy
            problem._representation
            return problem
    except ProblemFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed problem document: {exc}") from exc
    except GeoipmError as exc:
        raise ProblemFormatError(f"invalid problem data: {exc}") from exc
    raise ProblemFormatError(f"unknown problem form {form_name!r}")


def problem_to_dict(problem: ConicProblem) -> dict:
    doc = {"cone": _cone_to_list(problem.cone)}
    f = problem.form
    if isinstance(f, BasisForm):
        doc["form"] = "basis"
        doc["x0"] = f.x0.coords.tolist()
        doc["s0"] = f.s0.coords.tolist()
        doc["basis_L"] = [l.coords.tolist() for l in f.basis]
    else:
        doc["form"] = "operator"
        doc["A"] = [a.coords.tolist() for a in f.columns]
        doc["B"] = f.B.tolist()
        doc["b"] = f.b.tolist()
        doc["c"] = f.c.coords.tolist()
        doc["g"] = f.g.tolist()
    return doc


def _read_json(path, what: str):
    """The parsed JSON document of a file; ProblemFormatError when it cannot
    be read or parsed, or holds NaN or Infinity."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"cannot read {what}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=lambda name: _reject_constant(name, what))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc


def load_problem(path) -> ConicProblem:
    """Parse a problem file; raises ProblemFormatError on any defect."""
    return problem_from_dict(_read_json(path, "problem file"))


def save_problem(problem: ConicProblem, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(problem)) + "\n", encoding="utf-8")


def write_feasible_pair(path, x, s, mu: float, gap: float) -> None:
    doc = {"mu": mu, "gap": gap, "x": x.coords.tolist(), "s": s.coords.tolist()}
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def write_csv(path, header: str, rows) -> None:
    """A CSV file: the header line, then one line per row (floats by repr)."""
    lines = [header]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_feasible_pair(path, cone: ConeDescriptor):
    """(x, s, mu, gap) from a feasible-pair file; raises ProblemFormatError on any defect."""
    doc = _read_json(path, "feasible-pair file")
    if not isinstance(doc, dict):
        raise ProblemFormatError("feasible-pair document must be a JSON object")
    try:
        x = jordan.element(cone, _finite_array(doc["x"], "x", cone.dim))
        s = jordan.element(cone, _finite_array(doc["s"], "s", cone.dim))
        return x, s, require_real(doc["mu"], "mu"), require_real(doc["gap"], "gap")
    except KeyError as exc:
        raise ProblemFormatError(f"feasible-pair document has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed feasible-pair document: {exc}") from exc
