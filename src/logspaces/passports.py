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
import operator
from math import log
from typing import Union

from ._value import Value, finite_real, integer, real, sequence
from .errors import LogSpaceError
from .extreal import ext_sum
from .measure import MeasureSpace, _weight_groups
from .render import format_real


class FiniteList(Value):
    """Explicit finite-measure row, aligned index-by-index with row_u."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = sequence(self.values, "finite measures")
        object.__setattr__(self, "values", tuple([real(v, "finite measure") for v in values]))
        for v in self.values:
            if not v > 0.0 or math.isinf(v):
                raise LogSpaceError(f"finite measures must be positive and finite, got {v!r}")

    def __len__(self) -> int:
        return len(self.values)

    def term(self, i: int) -> float:
        return self.values[i - 1]


# kind: (parameter names, mu_i, log mu_i, (growth class, tie key), (values
# compared at 1e-12 relative, values compared exactly)), each a function of i
# and the parameters, or of the parameters alone.  The compared values fix
# the terms: two linear sequences differ most, relatively, at i = 1 or as
# i -> inf, and any change in a geometric ratio r grows without bound.
_CLOSED_FORMS = {
    "CONST": (("c",), lambda i, c: c, lambda i, c: log(c), lambda c: (2, 0.0), lambda c: ((c,), ())),
    "LINEAR": (
        ("a", "b"),
        lambda i, a, b: a * i + b,
        lambda i, a, b: log(a * i + b),
        lambda a, b: (3, 0.0),
        lambda a, b: ((a, a + b), ()),
    ),
    "RECIP": (("a",), lambda i, a: a / i, lambda i, a: log(a) - log(i), lambda a: (1, 0.0), lambda a: ((a,), ())),
    "GEOM": (
        ("a", "r"),
        lambda i, a, r: a * r**i,
        lambda i, a, r: log(a) + i * log(r),
        lambda a, r: (0 if r < 1.0 else 4, r),
        lambda a, r: ((a,), (r,)),
    ),
}


class ClosedForm(Value):
    """Symbolic measure sequence mu_i for i >= 1, one row of ``_CLOSED_FORMS``.

    CONST(c): c          LINEAR(a, b): a*i + b (a > 0)
    RECIP(a): a/i        GEOM(a, r):   a*r**i (a > 0, r > 0)
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise LogSpaceError(f"closed form kind must be a string, got {self.kind!r}")
        row = _CLOSED_FORMS.get(self.kind)
        if row is None:
            raise LogSpaceError(f"unknown closed form kind {self.kind!r}")
        names = row[0]
        params = sequence(self.params, f"{self.kind} parameters")
        if len(params) != len(names):
            raise LogSpaceError(f"{self.kind} takes {len(names)} parameter(s)")
        params = tuple([finite_real(p, f"{self.kind} parameter {name}") for name, p in zip(names, params)])
        object.__setattr__(self, "params", params)
        # these two checks leave every CONST, RECIP and GEOM parameter positive
        if self.term(1) <= 0:
            raise LogSpaceError(f"{self.kind}{params} is not positive at i=1")
        if self.kind in ("LINEAR", "GEOM") and params[0] <= 0:
            raise LogSpaceError(f"{self.kind} leading parameter must be > 0")
        if self.kind == "GEOM" and params[1] == 1.0:
            # a*1**i is the constant a: one sequence, one canonical form
            object.__setattr__(self, "kind", "CONST")
            object.__setattr__(self, "params", self.params[:1])

    def term(self, i: int) -> float:
        """mu_i; a term beyond the float range is rejected, and ``log_term`` still serves."""
        try:
            t = _CLOSED_FORMS[self.kind][1](i, *self.params)
        except OverflowError:  # r**i or float(i)
            t = math.inf
        if t == math.inf:
            raise LogSpaceError(f"{self.kind}{self.params} term {i} overflows a float")
        return t

    def log_term(self, i: int) -> float:
        """log(mu_i); overflow-safe for large indices."""
        return _CLOSED_FORMS[self.kind][2](i, *self.params)

    def growth(self) -> tuple[int, float]:
        """(growth class, tie key): DECAY < RECIP < CONST < LINEAR < exponential."""
        return _CLOSED_FORMS[self.kind][3](*self.params)


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


def _label_row(row, name: str) -> tuple[int, ...]:
    """The row as a tuple of strictly increasing non-negative int labels (no bools)."""
    labels = tuple([integer(w, f"{name} row labels", "integers") for w in sequence(row, f"{name} row")])
    if any(w < 0 for w in labels) or any(x >= y for x, y in zip(labels, labels[1:])):
        raise LogSpaceError(f"{name} row must be strictly increasing non-negative labels")
    return labels


class Passport(Value):
    """Three-row classification matrix.

    row_u is None when row_m is a ClosedForm: the second row is then the
    implicit ascending labels 0, 1, 2, ...
    """

    row_s: tuple[int, ...] = ()
    row_u: tuple[int, ...] | None = ()
    row_m: MeasureSeq = FiniteList(())

    def __post_init__(self):
        object.__setattr__(self, "row_s", _label_row(self.row_s, "first"))
        if not isinstance(self.row_m, (FiniteList, ClosedForm)):
            raise LogSpaceError(f"third row must be a FiniteList or a ClosedForm, got {self.row_m!r}")
        if self.row_u is None:
            if not isinstance(self.row_m, ClosedForm):
                raise LogSpaceError("implicit second row requires a closed-form third row")
            return
        object.__setattr__(self, "row_u", _label_row(self.row_u, "second"))
        if isinstance(self.row_m, ClosedForm):
            raise LogSpaceError("closed-form third row requires the implicit second row (None)")
        if len(self.row_m) != len(self.row_u):
            raise LogSpaceError("third row length must match the second row")


class Decision(Value):
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


def _rows_diff(name: str, ra, rb, same, text) -> str | None:
    """Where two explicit rows first differ: in length, or at an index as `same` compares entries."""
    if len(ra) != len(rb):
        return f"{name} rows differ in length: {len(ra)} vs {len(rb)}"
    for k, (x, y) in enumerate(zip(ra, rb)):
        if not same(x, y):
            return f"{name} rows differ at index {k}: {text(x)} vs {text(y)}"
    return None


def _weight_rows_diff(name: str, ra: tuple[int, ...] | None, rb: tuple[int, ...] | None) -> str | None:
    if (ra is None) != (rb is None):
        return f"{name} rows differ: explicit labels vs implicit ascending labels"
    return None if ra is None else _rows_diff(name, ra, rb, operator.eq, format)


def _closed_form_text(cf: ClosedForm) -> str:
    names = _CLOSED_FORMS[cf.kind][0]
    return cf.kind + "".join(f" {n}={format_real(p)}" for n, p in zip(names, cf.params))


_MEASURE_RTOL = 1e-12


def _same_measure(x: float, y: float) -> bool:
    """Equal as passport measures, to 1e-12 relative; an infinite one equals only itself."""
    return math.isclose(x, y, rel_tol=_MEASURE_RTOL)


def _third_rows_diff(ma: MeasureSeq, mb: MeasureSeq) -> str | None:
    """The two third rows are of one type: the second rows, compared first, fix it."""
    if isinstance(ma, FiniteList):
        return _rows_diff("third", ma.values, mb.values, _same_measure, format_real)
    (close_a, exact_a), (close_b, exact_b) = [_CLOSED_FORMS[m.kind][4](*m.params) for m in (ma, mb)]
    if ma.kind != mb.kind or exact_a != exact_b or not all(map(_same_measure, close_a, close_b)):
        return f"third rows differ: {_closed_form_text(ma)} vs {_closed_form_text(mb)}"
    return None


def _passport_diff(p: Passport, q: Passport, rows: int = 3) -> tuple[str, str] | None:
    """(row, difference) for the first of p's and q's first `rows` rows that differ; None if none does."""
    for row in ("first", "second", "third")[:rows]:
        if row == "first":
            diff = _weight_rows_diff(row, p.row_s, q.row_s)
        elif row == "second":
            diff = _weight_rows_diff(row, p.row_u, q.row_u)
        else:
            diff = _third_rows_diff(p.row_m, q.row_m)
        if diff is not None:
            return row, diff
    return None


def _decision(rule: str, diff: tuple[str, str] | None, agreed: str) -> Decision:
    """True with the witness `agreed` when no row differs, else false with the difference."""
    return Decision(diff is None, rule, agreed if diff is None else diff[1])


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
    return _decision(rule, _passport_diff(p, q, 1), "first rows coincide")


def decide_star_isomorphic(p: Passport, q: Passport) -> Decision:
    """Star-isomorphism of the function algebras: weight rows equal and the
    finite-measure rows have bounded ratios in both directions."""
    diff = _passport_diff(p, q, 2)
    if diff is not None:
        witness = diff[1]
    elif not ratio_bounded(p.row_m, q.row_m):
        witness = "mu_i/nu_i unbounded"
    elif not ratio_bounded(q.row_m, p.row_m):
        witness = "nu_i/mu_i unbounded"
    else:
        witness = None
    agreed = "weight rows coincide and measure ratios are bounded both ways"
    return Decision(witness is None, "weight-rows-and-measure-ratios", witness or agreed)


# (rule, shape both passports must have, witness when they coincide); the first match names the rule
_EXTERNAL_RULES = (
    (
        "single-finite-component",
        lambda x: not x.row_s and x.row_u is not None and len(x.row_u) == 1,
        "weights and total measures coincide",
    ),
    ("single-infinite-component", lambda x: len(x.row_s) == 1 and x.row_u == (), "weights coincide"),
    ("infinite-components-first-rows", lambda x: x.row_u == (), "first rows coincide"),
    ("full-passport-equality", lambda x: True, "passports coincide"),
)


def decide_isometric_external(p: Passport, q: Passport) -> Decision:
    """Isometry of the plain log-norm spaces: all three rows must coincide."""
    rule, witness = next((r, w) for r, shape, w in _EXTERNAL_RULES if shape(p) and shape(q))
    return _decision(rule, _passport_diff(p, q), witness)


def decide_isometric_generalized(p1: Passport, p3: Passport) -> Decision:
    """Isometry of two generalized log-norm spaces over one algebra: third rows.

    Weight-row equality is taken as the same-algebra check; passports whose
    weight rows differ are not comparable under this rule at all.
    """
    diff = _passport_diff(p1, p3)
    if diff is not None and diff[0] != "third":
        raise LogSpaceError("hypothesis violated: different underlying algebra")
    agreed = "third rows coincide (weight-row equality taken as the same-algebra check)"
    return _decision("third-rows", diff, agreed)


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
