"""JSON workspace files: spaces, functions, densities and passports by name.

A workspace is a single JSON document.  Unbounded endpoints are written as
the string "inf".  Parsing is all-or-nothing: any invalid field raises a
WorkspaceError whose message names the offending path.
"""

from __future__ import annotations

import json
import math

from ._value import Value
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


def _fail(path: str, msg: str):
    raise WorkspaceError(path, msg)


def _number(obj, path: str, allow_inf: bool = False) -> float:
    if allow_inf and obj == "inf":
        return math.inf
    kinds = 'a number or "inf"' if allow_inf else "a number"
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected {kinds}, got {obj!r}")
    v = float(obj)
    if math.isnan(v) or math.isinf(v):
        _fail(path, f"expected a finite number, got {obj!r}")
    return v


def _int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {obj!r}")
    return obj


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _array(obj, path: str) -> list:
    if not isinstance(obj, list):
        _fail(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _parse_component(obj, path: str) -> Component:
    obj = _object(obj, path)
    for key in obj:
        if key not in {"weight", "carrier", "density"}:
            _fail(f"{path}.{key}", "unknown field")
    weight = _int(obj.get("weight", 0), f"{path}.weight")
    carrier = _array(obj.get("carrier"), f"{path}.carrier")
    if len(carrier) != 2:
        _fail(f"{path}.carrier", "expected [from, to]")
    lo = _number(carrier[0], f"{path}.carrier[0]")
    hi = _number(carrier[1], f"{path}.carrier[1]", allow_inf=True)
    pieces = []
    for i, p in enumerate(_array(obj.get("density"), f"{path}.density")):
        p = _object(p, f"{path}.density[{i}]")
        a = _number(p.get("from"), f"{path}.density[{i}].from")
        b = _number(p.get("to"), f"{path}.density[{i}].to", allow_inf=True)
        v = _number(p.get("value"), f"{path}.density[{i}].value")
        try:
            pieces.append(IntervalPiece(a, b, v))
        except LogSpaceError as e:
            _fail(f"{path}.density[{i}]", str(e))
    try:
        dens = PiecewiseDensity(tuple(pieces))
        comp = Component(dens, weight)
    except LogSpaceError as e:
        _fail(f"{path}.density", str(e))
    if (dens.start, dens.stop) != (lo, hi):
        _fail(f"{path}.density", "pieces must cover the carrier exactly")
    return comp


def _parse_space(obj, path: str) -> MeasureSpace:
    comps = [_parse_component(c, f"{path}[{i}]") for i, c in enumerate(_array(obj, path))]
    try:
        return MeasureSpace(tuple(comps))
    except LogSpaceError as e:
        _fail(path, str(e))


def _parse_function(obj, path: str, space: MeasureSpace | None) -> StepFunction:
    if space is None:
        _fail(path, 'workspace has no "space" to define functions on')
    specs = []
    for i, p in enumerate(_array(obj, path)):
        p = _object(p, f"{path}[{i}]")
        for key in p:
            if key not in {"component", "from", "to", "re", "im"}:
                _fail(f"{path}[{i}].{key}", "unknown field")
        comp = _int(p.get("component", 0), f"{path}[{i}].component")
        a = _number(p.get("from"), f"{path}[{i}].from")
        b = _number(p.get("to"), f"{path}[{i}].to", allow_inf=True)
        re = _number(p.get("re", 0.0), f"{path}[{i}].re")
        im = _number(p.get("im", 0.0), f"{path}[{i}].im")
        specs.append((comp, a, b, complex(re, im)))
    try:
        return StepFunction.from_pieces(space, specs)
    except LogSpaceError as e:
        _fail(path, str(e))


def _parse_density(obj, path: str, space: MeasureSpace | None) -> SpaceDensity:
    if space is None:
        _fail(path, 'workspace has no "space" to define densities on')
    per: list[list[IntervalPiece]] = [[] for _ in space.components]
    for i, p in enumerate(_array(obj, path)):
        p = _object(p, f"{path}[{i}]")
        comp = _int(p.get("component", 0), f"{path}[{i}].component")
        if not 0 <= comp < len(space.components):
            _fail(f"{path}[{i}].component", f"component index {comp} out of range")
        a = _number(p.get("from"), f"{path}[{i}].from")
        b = _number(p.get("to"), f"{path}[{i}].to", allow_inf=True)
        v = _number(p.get("value"), f"{path}[{i}].value")
        try:
            per[comp].append(IntervalPiece(a, b, v))
        except LogSpaceError as e:
            _fail(f"{path}[{i}]", str(e))
    out = []
    for comp_index, (component, pieces) in enumerate(zip(space.components, per)):
        try:
            dens = PiecewiseDensity(tuple(sorted(pieces, key=lambda q: q.start)))
            if (dens.start, dens.stop) != component.carrier:
                raise LogSpaceError("pieces must cover the component carrier exactly")
            out.append(dens)
        except LogSpaceError as e:
            _fail(path, f"component {comp_index}: {e}")
    return tuple(out)


def _parse_measure_seq(obj, path: str):
    if isinstance(obj, list):
        values = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(obj))
        try:
            return FiniteList(values)
        except LogSpaceError as e:
            _fail(path, str(e))
    obj = _object(obj, path)
    kind = obj.get("kind")
    if not isinstance(kind, str):
        _fail(f"{path}.kind", "expected a closed-form kind string")
    params = tuple(
        _number(v, f"{path}.params[{i}]") for i, v in enumerate(_array(obj.get("params"), f"{path}.params"))
    )
    try:
        return ClosedForm(kind, params)
    except LogSpaceError as e:
        _fail(path, str(e))


def _parse_passport(obj, path: str) -> Passport:
    obj = _object(obj, path)
    for key in obj:
        if key not in {"s", "u", "m"}:
            _fail(f"{path}.{key}", "unknown field")
    row_s = tuple(_int(w, f"{path}.s[{i}]") for i, w in enumerate(_array(obj.get("s", []), f"{path}.s")))
    row_m = _parse_measure_seq(obj.get("m", []), f"{path}.m")
    u_raw = obj.get("u")
    if isinstance(row_m, ClosedForm):
        if u_raw not in (None, []):
            _fail(f"{path}.u", "closed-form third row requires omitting u (implicit ascending labels)")
        row_u = None
    else:
        row_u = tuple(_int(w, f"{path}.u[{i}]") for i, w in enumerate(_array(u_raw if u_raw is not None else [], f"{path}.u")))
    try:
        return Passport(row_s, row_u, row_m)
    except LogSpaceError as e:
        _fail(path, str(e))


def parse_workspace(text: str) -> Workspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceError("", f"invalid JSON: {e}") from e
    doc = _object(doc, "$")
    for key in doc:
        if key not in _TOP_KEYS:
            _fail(key, "unknown top-level key")
    ws = Workspace()
    if "space" in doc:
        ws.space = _parse_space(doc["space"], "space")
    if "space2" in doc:
        ws.space2 = _parse_space(doc["space2"], "space2")
    for name, obj in _object(doc.get("functions", {}), "functions").items():
        ws.functions[name] = _parse_function(obj, f"functions.{name}", ws.space)
    for name, obj in _object(doc.get("densities", {}), "densities").items():
        ws.densities[name] = _parse_density(obj, f"densities.{name}", ws.space)
    for name, obj in _object(doc.get("passports", {}), "passports").items():
        ws.passports[name] = _parse_passport(obj, f"passports.{name}")
    return ws


def load_workspace(path) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


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


def emit_workspace(ws: Workspace) -> str:
    """Deterministic JSON text; parsing it back reproduces the workspace."""
    doc: dict = {}
    if ws.space is not None:
        doc["space"] = _space_to_json(ws.space)
    if ws.space2 is not None:
        doc["space2"] = _space_to_json(ws.space2)
    if ws.functions:
        doc["functions"] = {
            name: [
                {
                    "component": i,
                    "from": p.start,
                    "to": _endpoint(p.stop),
                    "re": p.coef.real,
                    "im": p.coef.imag,
                }
                for i, ps in enumerate(f.pieces)
                for p in ps
            ]
            for name, f in ws.functions.items()
        }
    if ws.densities:
        doc["densities"] = {
            name: [
                {"component": i, "from": p.start, "to": _endpoint(p.stop), "value": p.value}
                for i, pd in enumerate(d)
                for p in pd.pieces
            ]
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
