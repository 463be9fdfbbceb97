"""Passports of measured Boolean algebras and the classification decisions.

A passport is the three-row matrix that classifies a measured algebra up to
measure-preserving isomorphism: ordered weights of the infinite-measure
homogeneous components, ordered weights of the finite-measure ones, and the
finite measures aligned with the second row.

Finite third rows are plain value lists.  Countably infinite component
families are modelled symbolically by a closed-form sequence (CONST, LINEAR,
RECIP or GEOM); such passports carry the implicit ascending weight labels
0, 1, 2, ... in their second row and can only be authored, never built from
an in-memory space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import LogSpaceError
from .extreal import ext_sum
from .measure import MeasureSpace, _weight_groups
from .render import format_real


@dataclass(frozen=True)
class FiniteList:
    """Explicit finite-measure row, aligned index-by-index with row_u."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not v > 0.0 or math.isinf(v):
                raise LogSpaceError(f"finite measures must be positive and finite, got {v!r}")

    def __len__(self) -> int:
        return len(self.values)

    def term(self, i: int) -> float:
        return self.values[i - 1]


_CLOSED_FORM_PARAMS = {"CONST": ("c",), "LINEAR": ("a", "b"), "RECIP": ("a",), "GEOM": ("a", "r")}


@dataclass(frozen=True)
class ClosedForm:
    """Symbolic measure sequence mu_i for i >= 1.

    CONST(c): c          LINEAR(a, b): a*i + b (a > 0)
    RECIP(a): a/i        GEOM(a, r):   a*r**i (a > 0, r > 0)
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        names = _CLOSED_FORM_PARAMS.get(self.kind)
        if names is None:
            raise LogSpaceError(f"unknown closed form kind {self.kind!r}")
        if len(self.params) != len(names):
            raise LogSpaceError(f"{self.kind} takes {len(names)} parameter(s)")
        if self.term(1) <= 0:
            raise LogSpaceError(f"{self.kind}{self.params} is not positive at i=1")
        if self.kind in ("LINEAR", "GEOM") and self.params[0] <= 0:
            raise LogSpaceError(f"{self.kind} leading parameter must be > 0")
        if self.kind in ("CONST", "RECIP") and self.params[0] <= 0:
            raise LogSpaceError(f"{self.kind} parameter must be > 0")
        if self.kind == "GEOM" and self.params[1] <= 0:
            raise LogSpaceError("GEOM ratio must be > 0")
        if self.kind == "GEOM" and self.params[1] == 1.0:
            # a*1**i is the constant a: one sequence, one canonical form
            object.__setattr__(self, "kind", "CONST")
            object.__setattr__(self, "params", self.params[:1])

    def term(self, i: int) -> float:
        a = self.params[0]
        if self.kind == "CONST":
            return a
        if self.kind == "LINEAR":
            return a * i + self.params[1]
        if self.kind == "RECIP":
            return a / i
        return a * self.params[1] ** i

    def log_term(self, i: int) -> float:
        """log(mu_i); overflow-safe for large indices."""
        a = self.params[0]
        if self.kind == "CONST":
            return math.log(a)
        if self.kind == "LINEAR":
            return math.log(a * i + self.params[1])
        if self.kind == "RECIP":
            return math.log(a) - math.log(i)
        return math.log(a) + i * math.log(self.params[1])

    def growth(self) -> tuple[int, float]:
        """(growth class, tie key): DECAY < RECIP < CONST < LINEAR < exponential."""
        if self.kind == "RECIP":
            return (1, 0.0)
        if self.kind == "CONST":
            return (2, 0.0)
        if self.kind == "LINEAR":
            return (3, 0.0)
        r = self.params[1]
        return (0, r) if r < 1.0 else (4, r)


MeasureSeq = Union[FiniteList, ClosedForm]


def ratio_bounded(a: MeasureSeq, b: MeasureSeq) -> bool:
    """Whether sup_i a_i / b_i is finite, decided exactly.

    Finite lists of equal length always give a finite sup.  Closed forms are
    compared by growth class (DECAY < RECIP < CONST < LINEAR < exponential);
    inside the geometric classes the ratio parameters break the tie.
    """
    if isinstance(a, FiniteList) and isinstance(b, FiniteList):
        if len(a) != len(b):
            raise LogSpaceError("incomparable sequences")
        return True
    if isinstance(a, ClosedForm) and isinstance(b, ClosedForm):
        (ca, ra), (cb, rb) = a.growth(), b.growth()
        if ca != cb:
            return ca < cb
        if ca in (0, 4):
            return ra <= rb
        return True
    raise LogSpaceError("incomparable sequences")


def _strictly_increasing(row: tuple[int, ...]) -> bool:
    return all(x < y for x, y in zip(row, row[1:]))


@dataclass(frozen=True)
class Passport:
    """Three-row classification matrix.

    row_u is None when row_m is a ClosedForm: the second row is then the
    implicit ascending labels 0, 1, 2, ...
    """

    row_s: tuple[int, ...] = ()
    row_u: tuple[int, ...] | None = ()
    row_m: MeasureSeq = FiniteList(())

    def __post_init__(self):
        object.__setattr__(self, "row_s", tuple(int(w) for w in self.row_s))
        if any(w < 0 for w in self.row_s) or not _strictly_increasing(self.row_s):
            raise LogSpaceError("first row must be strictly increasing non-negative labels")
        if self.row_u is None:
            if not isinstance(self.row_m, ClosedForm):
                raise LogSpaceError("implicit second row requires a closed-form third row")
            return
        object.__setattr__(self, "row_u", tuple(int(w) for w in self.row_u))
        if any(w < 0 for w in self.row_u) or not _strictly_increasing(self.row_u):
            raise LogSpaceError("second row must be strictly increasing non-negative labels")
        if isinstance(self.row_m, ClosedForm):
            raise LogSpaceError("closed-form third row requires the implicit second row (None)")
        if len(self.row_m) != len(self.row_u):
            raise LogSpaceError("third row length must match the second row")


@dataclass(frozen=True)
class Decision:
    verdict: bool
    rule: str
    witness: str

    def __post_init__(self):
        if not self.verdict and not self.witness:
            raise LogSpaceError("a negative decision needs a witness")


def build_passport(space: MeasureSpace) -> Passport:
    """Group components by weight, split groups by finite/infinite total measure.

    Same-weight components merge: their measures add, and any infinite member
    makes the whole group infinite.
    """
    row_s: list[int] = []
    row_u: list[int] = []
    values: list[float] = []
    for weight, items in _weight_groups(space).items():
        total = ext_sum(c.measure() for _, c in items)
        if total.is_finite:
            row_u.append(weight)
            values.append(total.value)
        else:
            row_s.append(weight)
    return Passport(tuple(row_s), tuple(row_u), FiniteList(tuple(values)))


def _weight_rows_diff(name: str, ra: tuple[int, ...] | None, rb: tuple[int, ...] | None) -> str | None:
    if (ra is None) != (rb is None):
        return f"{name} rows differ: explicit labels vs implicit ascending labels"
    if ra is None or rb is None:
        return None
    if len(ra) != len(rb):
        return f"{name} rows differ in length: {len(ra)} vs {len(rb)}"
    for k, (x, y) in enumerate(zip(ra, rb)):
        if x != y:
            return f"{name} rows differ at index {k}: {x} vs {y}"
    return None


def _closed_form_text(cf: ClosedForm) -> str:
    names = _CLOSED_FORM_PARAMS[cf.kind]
    return cf.kind + "".join(f" {n}={format_real(p)}" for n, p in zip(names, cf.params))


_MEASURE_RTOL = 1e-12


def _same_measure(x: float, y: float) -> bool:
    """Equal as passport measures, to 1e-12 relative; an infinite one equals only itself."""
    return math.isclose(x, y, rel_tol=_MEASURE_RTOL)


def _third_rows_diff(ma: MeasureSeq, mb: MeasureSeq) -> str | None:
    if isinstance(ma, FiniteList) and isinstance(mb, FiniteList):
        if len(ma) != len(mb):
            return f"third rows differ in length: {len(ma)} vs {len(mb)}"
        for k, (x, y) in enumerate(zip(ma.values, mb.values)):
            if not _same_measure(x, y):
                return f"third rows differ at index {k}: {format_real(x)} vs {format_real(y)}"
        return None
    if isinstance(ma, ClosedForm) and isinstance(mb, ClosedForm):
        if ma.kind != mb.kind or ma.params != mb.params:
            return f"third rows differ: {_closed_form_text(ma)} vs {_closed_form_text(mb)}"
        return None
    raise LogSpaceError("incomparable sequences")


def decide_isomorphic_pair(p: Passport, q: Passport) -> Decision:
    """Measure-preserving isomorphism of two all-infinite algebras: first rows.

    Requires every homogeneous component to carry infinite measure; a single
    homogeneous component on each side is the weight-equality special case.
    """
    for side in (p, q):
        if side.row_u is None or side.row_u:
            raise LogSpaceError("hypothesis violated: finite-measure component present")
    homogeneous = len(p.row_s) == 1 and len(q.row_s) == 1
    rule = "single-component-weights" if homogeneous else "infinite-first-rows"
    diff = _weight_rows_diff("first", p.row_s, q.row_s)
    if diff is not None:
        return Decision(False, rule, diff)
    return Decision(True, rule, "first rows coincide")


def decide_star_isomorphic(p: Passport, q: Passport) -> Decision:
    """Star-isomorphism of the function algebras: weight rows equal and the
    finite-measure rows have bounded ratios in both directions."""
    rule = "weight-rows-and-measure-ratios"
    diff = _weight_rows_diff("first", p.row_s, q.row_s)
    if diff is None:
        diff = _weight_rows_diff("second", p.row_u, q.row_u)
    if diff is not None:
        return Decision(False, rule, diff)
    if not ratio_bounded(p.row_m, q.row_m):
        return Decision(False, rule, "mu_i/nu_i unbounded")
    if not ratio_bounded(q.row_m, p.row_m):
        return Decision(False, rule, "nu_i/mu_i unbounded")
    return Decision(True, rule, "weight rows coincide and measure ratios are bounded both ways")


def _external_rule(p: Passport, q: Passport) -> str:
    def single_finite(x: Passport) -> bool:
        return not x.row_s and x.row_u is not None and len(x.row_u) == 1

    def single_infinite(x: Passport) -> bool:
        return len(x.row_s) == 1 and x.row_u is not None and not x.row_u

    def all_infinite(x: Passport) -> bool:
        return x.row_u is not None and not x.row_u

    if single_finite(p) and single_finite(q):
        return "single-finite-component"
    if single_infinite(p) and single_infinite(q):
        return "single-infinite-component"
    if all_infinite(p) and all_infinite(q):
        return "infinite-components-first-rows"
    return "full-passport-equality"


def decide_isometric_external(p: Passport, q: Passport) -> Decision:
    """Isometry of the plain log-norm spaces: all three rows must coincide."""
    rule = _external_rule(p, q)
    diff = _weight_rows_diff("first", p.row_s, q.row_s)
    if diff is None:
        diff = _weight_rows_diff("second", p.row_u, q.row_u)
    if diff is None:
        diff = _third_rows_diff(p.row_m, q.row_m)
    if diff is not None:
        return Decision(False, rule, diff)
    witnesses = {
        "single-finite-component": "weights and total measures coincide",
        "single-infinite-component": "weights coincide",
        "infinite-components-first-rows": "first rows coincide",
        "full-passport-equality": "passports coincide",
    }
    return Decision(True, rule, witnesses[rule])


def decide_isometric_generalized(p1: Passport, p3: Passport) -> Decision:
    """Isometry of two generalized log-norm spaces over one algebra: third rows.

    Weight-row equality is taken as the same-algebra check; passports whose
    weight rows differ are not comparable under this rule at all.
    """
    if _weight_rows_diff("first", p1.row_s, p3.row_s) is not None or _weight_rows_diff(
        "second", p1.row_u, p3.row_u
    ) is not None:
        raise LogSpaceError("hypothesis violated: different underlying algebra")
    diff = _third_rows_diff(p1.row_m, p3.row_m)
    if diff is not None:
        return Decision(False, "third-rows", diff)
    return Decision(
        True, "third-rows", "third rows coincide (weight-row equality taken as the same-algebra check)"
    )


def render_passport(p: Passport) -> str:
    """Three-line text form consumed and emitted by the CLI."""
    s_line = "s:" + "".join(f" {w}" for w in p.row_s)
    if p.row_u is None:
        u_line = "u: 0 1 2 ..."
    else:
        u_line = "u:" + "".join(f" {w}" for w in p.row_u)
    if isinstance(p.row_m, FiniteList):
        m_line = "m:" + "".join(f" {format_real(v)}" for v in p.row_m.values)
    else:
        m_line = "m: " + _closed_form_text(p.row_m)
    return "\n".join((s_line, u_line, m_line))
