"""JSON workspace files: spaces, functions, densities and passports by name.

A workspace is a single JSON document.  Unbounded endpoints are written as
the string "inf".  Parsing is all-or-nothing: any invalid, unknown or
duplicate field raises a WorkspaceError whose message names its path.
"""

from __future__ import annotations

import json
import math

from ._value import Value, _read_number
from .errors import LogSpaceError, WorkspaceError
from .measure import (
    Component,
    IntervalPiece,
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
)
from .passports import ClosedForm, FiniteList, Passport
from .stepfunctions import StepFunction

_TOP_KEYS = {"space", "space2", "functions", "densities", "passports"}


class Workspace(Value, frozen=False):
    """Named spaces, functions, densities and passports; mutable, so unhashable."""

    space: MeasureSpace | None = None
    space2: MeasureSpace | None = None
    functions: dict[str, StepFunction] = None
    densities: dict[str, SpaceDensity] = None
    passports: dict[str, Passport] = None

    def __post_init__(self):
        # a fresh table per workspace for each one not given
        for name in ("functions", "densities", "passports"):
            if getattr(self, name) is None:
                setattr(self, name, {})


def _at(path: str, make, *args, prefix: str = ""):
    """make(*args), with a LogSpaceError re-raised as a WorkspaceError at path."""
    try:
        return make(*args)
    except LogSpaceError as e:
        raise WorkspaceError(path, f"{prefix}{e}") from e


_EXPECTED = ("expected {1}", "expected a finite number")  # the readers' message heads, after the path


def _number(obj, path: str, what: str = "a number") -> float:
    return _at(path, _read_number, obj, path, (int, float), float, what, True, _EXPECTED)


def _stop(obj, path: str) -> float:
    return math.inf if obj == "inf" else _number(obj, path, 'a number or "inf"')


def _int(obj, path: str) -> int:
    return _at(path, _read_number, obj, path, int, int, "an integer", False, _EXPECTED)


def _kind(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise WorkspaceError(path, "expected a closed-form kind string")
    return obj


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise WorkspaceError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _array(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise WorkspaceError(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _each(read):
    """A reader of an array that reads each item with read and returns a tuple."""
    return lambda obj, path: tuple(read(v, f"{path}[{i}]") for i, v in enumerate(_array(obj, path)))


def _fields(obj, path: str, spec: dict) -> list:
    """Object obj's field values in spec order; spec maps each name to (reader, default)."""
    for key in _object(obj, path):
        if key not in spec:
            raise WorkspaceError(f"{path}.{key}", "unknown field")
    return [read(obj.get(key, default), f"{path}.{key}") for key, (read, default) in spec.items()]


def _carrier(obj, path: str) -> tuple[float, float]:
    if len(_array(obj, path)) != 2:
        raise WorkspaceError(path, "expected [from, to]")
    return _number(obj[0], f"{path}[0]"), _stop(obj[1], f"{path}[1]")


_ENDS = {"from": (_number, None), "to": (_stop, None)}
_PIECE = {**_ENDS, "value": (_number, None)}


def _piece(obj, path: str) -> IntervalPiece:
    return _at(path, IntervalPiece, *_fields(obj, path, _PIECE))


def _parse_component(obj, path: str) -> Component:
    spec = {"weight": (_int, 0), "carrier": (_carrier, None), "density": (_each(_piece), None)}
    weight, carrier, pieces = _fields(obj, path, spec)
    at = f"{path}.density"
    comp = _at(at, Component, _at(at, PiecewiseDensity, pieces), weight)
    if comp.carrier != carrier:
        raise WorkspaceError(at, "pieces must cover the carrier exactly")
    return comp


def _function_row(obj, path: str) -> tuple[int, float, float, complex]:
    spec = {"component": (_int, 0), **_ENDS, "re": (_number, 0.0), "im": (_number, 0.0)}
    comp, a, b, re, im = _fields(obj, path, spec)
    return comp, a, b, complex(re, im)


def _parse_function(obj, path: str, space: MeasureSpace | None) -> StepFunction:
    if space is None:
        raise WorkspaceError(path, 'workspace has no "space" to define functions on')
    return _at(path, StepFunction.from_pieces, space, _each(_function_row)(obj, path))


def _parse_density(obj, path: str, space: MeasureSpace | None) -> SpaceDensity:
    if space is None:
        raise WorkspaceError(path, 'workspace has no "space" to define densities on')
    n = len(space.components)

    def index(k, at: str) -> int:
        if not 0 <= _int(k, at) < n:
            raise WorkspaceError(at, f"component index {k} out of range")
        return k

    per: list[list[IntervalPiece]] = [[] for _ in range(n)]
    for i, p in enumerate(_array(obj, path)):
        k, a, b, v = _fields(p, f"{path}[{i}]", {"component": (index, 0), **_PIECE})
        per[k].append(_at(f"{path}[{i}]", IntervalPiece, a, b, v))
    out = []
    for k, (comp, pieces) in enumerate(zip(space.components, per)):
        pieces = tuple(sorted(pieces, key=lambda q: q.start))
        dens = _at(path, PiecewiseDensity, pieces, prefix=f"component {k}: ")
        if (dens.start, dens.stop) != comp.carrier:
            raise WorkspaceError(path, f"component {k}: pieces must cover the component carrier exactly")
        out.append(dens)
    return tuple(out)


def _parse_measure_seq(obj, path: str):
    if isinstance(obj, list):
        return _at(path, FiniteList, _each(_number)(obj, path))
    spec = {"kind": (_kind, None), "params": (_each(_number), None)}
    return _at(path, ClosedForm, *_fields(obj, path, spec))


def _parse_passport(obj, path: str) -> Passport:
    # u is kept raw and read after m: a closed-form m requires omitting it
    spec = {"s": (_each(_int), []), "m": (_parse_measure_seq, []), "u": (lambda u, _: u, None)}
    row_s, row_m, u = _fields(obj, path, spec)
    closed = isinstance(row_m, ClosedForm)
    if closed and u not in (None, []):
        msg = "closed-form third row requires omitting u (implicit ascending labels)"
        raise WorkspaceError(f"{path}.u", msg)
    row_u = None if closed else _each(_int)([] if u is None else u, f"{path}.u")
    return _at(path, Passport, row_s, row_u, row_m)


def _unique(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is rejected."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise WorkspaceError(next(key for i, key in enumerate(keys) if key in keys[:i]), "duplicate key")
    return obj


def parse_workspace(text: str) -> Workspace:
    try:
        return _workspace(_object(json.loads(text, object_pairs_hook=_unique), "$"))
    except WorkspaceError:  # from a reader, _at or the duplicate-key check
        raise
    except ValueError as e:  # from the decoder: bad syntax, or an integer past the digit limit
        raise WorkspaceError("", f"invalid JSON: {e}") from e
    except RecursionError as e:  # in the decoder, or in the repr of a value in a message
        raise WorkspaceError("", f"nested too deeply: {e}") from e


def _workspace(doc: dict) -> Workspace:
    for key in doc:
        if key not in _TOP_KEYS:
            raise WorkspaceError(key, "unknown top-level key")
    ws = Workspace()
    for key in ("space", "space2"):
        if key in doc:
            setattr(ws, key, _at(key, MeasureSpace, _each(_parse_component)(doc[key], key)))
    for name, obj in _object(doc.get("functions", {}), "functions").items():
        ws.functions[name] = _parse_function(obj, f"functions.{name}", ws.space)
    for name, obj in _object(doc.get("densities", {}), "densities").items():
        ws.densities[name] = _parse_density(obj, f"densities.{name}", ws.space)
    for name, obj in _object(doc.get("passports", {}), "passports").items():
        ws.passports[name] = _parse_passport(obj, f"passports.{name}")
    return ws


def load_workspace(path) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise WorkspaceError("", f"not a UTF-8 file: {e}") from e
    return parse_workspace(text)


def _endpoint(x: float):
    return "inf" if math.isinf(x) else x


def _space_to_json(space: MeasureSpace) -> list:
    return [
        {
            "weight": c.weight,
            "carrier": [c.carrier[0], _endpoint(c.carrier[1])],
            "density": [
                {"from": p.start, "to": _endpoint(p.stop), "value": p.value}
                for p in c.density.pieces
            ],
        }
        for c in space.components
    ]


def _piece_rows(per_component, values) -> list:
    """One row per piece of each component: its index, the piece's bounds, then values(piece)."""
    return [
        {"component": i, "from": p.start, "to": _endpoint(p.stop), **values(p)}
        for i, pieces in enumerate(per_component)
        for p in pieces
    ]


def emit_workspace(ws: Workspace) -> str:
    """Deterministic JSON text; parsing it back reproduces the workspace."""
    doc: dict = {}
    if ws.space is not None:
        doc["space"] = _space_to_json(ws.space)
    if ws.space2 is not None:
        doc["space2"] = _space_to_json(ws.space2)
    if ws.functions:
        doc["functions"] = {
            name: _piece_rows(f.pieces, lambda p: {"re": p.coef.real, "im": p.coef.imag})
            for name, f in ws.functions.items()
        }
    if ws.densities:
        doc["densities"] = {
            name: _piece_rows([pd.pieces for pd in d], lambda p: {"value": p.value})
            for name, d in ws.densities.items()
        }
    if ws.passports:
        rendered = {}
        for name, p in ws.passports.items():
            entry: dict = {"s": list(p.row_s)}
            if p.row_u is not None:
                entry["u"] = list(p.row_u)
            if isinstance(p.row_m, FiniteList):
                entry["m"] = list(p.row_m.values)
            else:
                entry["m"] = {"kind": p.row_m.kind, "params": list(p.row_m.params)}
            rendered[name] = entry
        doc["passports"] = rendered
    return json.dumps(doc, indent=2) + "\n"
