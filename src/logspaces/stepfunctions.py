"""Step functions over a measure space and the three logarithmic F-norms.

A step function holds finitely many constant complex pieces per realizable
component and is zero elsewhere.  Each component is stored as three
columns, the tuples of its pieces' starts, stops and coefficients, and
every operation reads and writes only these.  ``StepFunction.pieces`` shows
the same pieces as ``StepPiece`` records; it is built on its first read and
kept, and the repr, pickles and copies go through it.  Canonical form
(sorted, disjoint, adjacent equal pieces merged, zero pieces dropped) is
enforced by one builder, ``_from_cells``, through which the constructor,
every operation and ``from_pieces`` build their columns, so equality of
step functions, which compares the columns, is equality of their canonical
data.  The builder checks every piece as ``StepPiece`` does (finite start
before its stop, finite coefficient) and rejects overlaps, so a NaN or
reversed bound, or a product that overflows, raises a ``LogSpaceError``.
In ``add`` and ``multiply`` a gap counts as ``0j``.

Norm kinds:

* ``External``            integral of log(1 + |f|) d(mu)
* ``Internal(h)``         integral of log(1 + h |f|) d(mu)
* ``Generalized(h1, h2)`` integral of h1 log(1 + h2 |f|) d(mu)

All three are evaluated exactly in closed form on the common refinement of
the pieces involved.  The independent brute-force check, ``riemann_oracle``,
lives in ``logspaces.oracle``, the one module that uses numpy; it shares
``_kind_weights`` and the fit check, ``_norm_terms``, with the closed form.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_right
from typing import Iterable

from ._value import Value, coefficient, integer, real, records, sequence
from .errors import LogSpaceError
from .extreal import INF, ExtendedReal, ext_fsum
from .measure import (
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
    _CellTable,
    _check_density_fits,
    _density_index,
    uniform_density,
)


def _bad_piece(start: float, stop: float, coef: complex) -> LogSpaceError:
    if math.isnan(start) or math.isinf(start) or not start < stop:
        return LogSpaceError(f"step piece must satisfy start < stop, got [{start}, {stop})")
    return LogSpaceError(f"step coefficient must be finite, got {coef!r}")


# slotted: the view holds one record per piece, and a slot-less instance
# is about 40 bytes larger
class StepPiece(Value):
    __slots__ = ("start", "stop", "coef")
    start: float
    stop: float
    coef: complex

    def __post_init__(self):
        object.__setattr__(self, "start", real(self.start, "step piece start"))
        object.__setattr__(self, "stop", real(self.stop, "step piece stop"))
        object.__setattr__(self, "coef", coefficient(self.coef, "step coefficient"))
        if not (-math.inf < self.start < self.stop and cmath.isfinite(self.coef)):
            raise _bad_piece(self.start, self.stop, self.coef)


# one component of a step function: the starts, stops and coefficients of its pieces
_Columns = tuple[tuple[float, ...], tuple[float, ...], tuple[complex, ...]]
_set, _new = object.__setattr__, object.__new__


def _from_cells(cells: Iterable[tuple[float, float, complex]]) -> _Columns:
    """Canonical columns from (start, stop, coef) cells sorted by start.

    Bounds must be floats and coefficients complex.  Zero coefficients are
    dropped and touching neighbours with equal coefficients merged.  Every
    other cell gets the checks of ``StepPiece`` (-inf < start < stop, a
    finite coefficient: a finite factor times a finite coefficient can
    overflow) and must start no earlier than the kept cell before it stops,
    which rejects overlapping and unsorted cells alike.
    """
    inf, isfinite = math.inf, cmath.isfinite
    starts: list[float] = []
    stops: list[float] = []
    coefs: list[complex] = []
    end, coef = -inf, None  # the last kept cell's stop and coefficient
    for a, b, c in cells:
        if not c:
            continue
        if not (-inf < a < b and isfinite(c)):
            raise _bad_piece(a, b, c)
        if a < end:
            raise LogSpaceError("step function pieces must be disjoint")
        if a == end and c == coef:
            stops[-1] = b
        else:
            starts.append(a)
            stops.append(b)
            coefs.append(c)
            coef = c
        end = b
    return tuple(starts), tuple(stops), tuple(coefs)


_bounds = operator.itemgetter(0, 1)


def _canonical(raw: Iterable[tuple[float, float, object]]) -> _Columns:
    """``_from_cells`` of (start, stop, coef) entries with float bounds, in any order.

    Every coefficient is read as a number, and then zero-length entries are dropped.
    """
    cells = [(a, b, coefficient(c, "step coefficient")) for a, b, c in raw]
    cells = [cell for cell in cells if cell[0] != cell[1]]
    cells.sort(key=_bounds)
    return _from_cells(cells)


def _wrap(columns: tuple[_Columns, ...]) -> "StepFunction":
    """A StepFunction around a tuple of builder outputs, which need no re-tupling."""
    f = _new(StepFunction)
    _set(f, "columns", columns)
    return f


def _pieces_view(columns: tuple[_Columns, ...]) -> tuple[tuple[StepPiece, ...], ...]:
    """The ``StepPiece`` records of each component's columns."""
    return tuple([tuple(map(StepPiece, *col)) for col in columns])


class StepFunction(Value):
    """Complex simple function; three canonical columns per component.

    ``columns[k]`` holds the starts, stops and coefficients of component k's
    pieces, each a tuple; every operation reads and writes only these.
    ``pieces``, the one field, is a view of the same pieces as ``StepPiece``
    records, one tuple per component, built on its first read and kept;
    the repr, pickles and copies go through it.  ``==`` and ``hash`` run
    over the columns.  The constructor takes a sequence of ``StepPiece``
    records per component, sorted and disjoint, and builds each through
    ``_from_cells``, so a function built by hand equals the one the
    operations build.
    """

    __slots__ = ("columns", "_view")
    pieces: tuple[tuple[StepPiece, ...], ...]

    # Value.__init__ would store the field, but `pieces` is a property, not a slot
    def __init__(self, pieces):
        components = sequence(pieces, "step function components")
        given = [records(ps, StepPiece, "step function pieces") for ps in components]
        columns = [_from_cells([(p.start, p.stop, p.coef) for p in ps]) for ps in given]
        _set(self, "columns", tuple(columns))

    # a property, not a __getattr__ fallback, which would slow every read of `columns`
    @property
    def pieces(self) -> tuple[tuple[StepPiece, ...], ...]:
        try:
            return self._view
        except AttributeError:
            _set(self, "_view", _pieces_view(self.columns))
            return self._view

    def __eq__(self, other):
        if other.__class__ is not StepFunction:
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    @classmethod
    def zero(cls, space: MeasureSpace) -> "StepFunction":
        return cls(((),) * len(space.components))

    @classmethod
    def from_pieces(
        cls, space: MeasureSpace, specs: Iterable[tuple[int, float, float, complex]]
    ) -> "StepFunction":
        """Build and canonicalize from (component, start, stop, coef) entries."""
        per: list[list[tuple[float, float, complex]]] = [[] for _ in space.components]
        for spec in sequence(specs, "step function entries"):
            try:
                comp, a, b, c = spec
            except (TypeError, ValueError):
                raise LogSpaceError(
                    f"step function entry must be a (component, start, stop, coefficient) quadruple, got {spec!r}"
                ) from None
            comp = integer(comp, "component index")
            if not 0 <= comp < len(per):
                raise LogSpaceError(f"component index {comp} out of range")
            component = space.components[comp]
            if not component.realizable:
                raise LogSpaceError("symbolic component")
            lo, hi = component.carrier
            a, b = real(a, "step piece start"), real(b, "step piece stop")
            if a < lo or b > hi:
                raise LogSpaceError("out of carrier")
            per[comp].append((a, b, c))
        return _wrap(tuple([_canonical(ps) for ps in per]))

    @property
    def is_zero(self) -> bool:
        return all(not col[0] for col in self.columns)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if not isinstance(other, StepFunction):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        if not isinstance(other, StepFunction):
            return NotImplemented
        return add(self, scale(other, -1))

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return multiply(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self) -> "StepFunction":
        return scale(self, -1)


def _pointwise(f: StepFunction, g: StepFunction, fn) -> StepFunction:
    """fn of the coefficients on the merged cells of f and g; gaps count as 0j, and fn(0, 0) must be 0."""
    if len(f.columns) != len(g.columns):
        raise LogSpaceError("step functions live on different spaces")
    return _wrap(tuple([_from_cells(_pointwise_cells(a, b, fn)) for a, b in zip(f.columns, g.columns)]))


def _pointwise_cells(a: _Columns, b: _Columns, fn) -> list[tuple[float, float, complex]]:
    """(lo, hi, fn(ca, cb)) on the cells of ``merge_pieces`` over the pieces of a and b, bit for bit.

    The sweep under ``add``, ``multiply`` and ``weighting_isometry``: the
    merge written out for two components' columns, a cursor on each.  A
    component's next breakpoint is the stop of its live piece, in a gap the
    start of its next piece (coefficient 0j), or +inf once it is spent.
    Cells that neither covers are skipped.  A cell ends at the first
    component's bound among equal bounds, as ``min`` picks it, which keeps
    the sign of a zero bound.  In the weighting a gap in f divides to 0j,
    which the builder drops; a gap in h would divide by zero, so the
    weighting first checks that f lies in h's carrier, where h has none.
    """
    inf = math.inf
    sa, ta, ka = a
    sb, tb, kb = b
    na, nb = len(sa), len(sb)
    i = j = 0
    xa = sa[0] if na else inf  # next breakpoint of each component
    xb = sb[0] if nb else inf
    ca = cb = 0j  # coefficient of each component on the current cell
    live_a = live_b = False
    cells = []
    append = cells.append
    lo = xb if xb < xa else xa
    while lo != inf:
        if xa == lo:
            if live_a:  # the live piece ends here
                i += 1
            if i == na:
                live_a, ca, xa = False, 0j, inf
            elif sa[i] == lo:
                live_a, ca, xa = True, ka[i], ta[i]
            else:  # a gap until the next piece
                live_a, ca, xa = False, 0j, sa[i]
        if xb == lo:
            if live_b:
                j += 1
            if j == nb:
                live_b, cb, xb = False, 0j, inf
            elif sb[j] == lo:
                live_b, cb, xb = True, kb[j], tb[j]
            else:
                live_b, cb, xb = False, 0j, sb[j]
        hi = xb if xb < xa else xa
        if live_a or live_b:
            append((lo, hi, fn(ca, cb)))
        lo = hi
    return cells


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    return _pointwise(f, g, operator.add)


def multiply(f: StepFunction, g: StepFunction) -> StepFunction:
    return _pointwise(f, g, operator.mul)


def scale(f: StepFunction, alpha: complex) -> StepFunction:
    alpha = coefficient(alpha, "scale factor")
    if not cmath.isfinite(alpha):
        raise LogSpaceError(f"scale factor must be finite, got {alpha!r}")
    out = []
    for starts, stops, coefs in f.columns:
        out.append(_from_cells(zip(starts, stops, [alpha * c for c in coefs])))
    return _wrap(tuple(out))


class NormKind:
    """Selects which of the three log-norms to evaluate."""


class External(NormKind, Value):
    pass


EXTERNAL = External()


def _as_space_density(h, name: str) -> SpaceDensity:
    """`h`, the field `name`: one density, or a sequence of densities, one per component."""
    if isinstance(h, PiecewiseDensity):
        return (h,)
    return records(h, PiecewiseDensity, name)


class Internal(NormKind, Value):
    h: SpaceDensity

    def __post_init__(self):
        object.__setattr__(self, "h", _as_space_density(self.h, "Internal h"))


class Generalized(NormKind, Value):
    h1: SpaceDensity
    h2: SpaceDensity

    def __post_init__(self):
        object.__setattr__(self, "h1", _as_space_density(self.h1, "Generalized h1"))
        object.__setattr__(self, "h2", _as_space_density(self.h2, "Generalized h2"))


def _kind_weights(space: MeasureSpace, kind: NormKind) -> tuple[SpaceDensity, SpaceDensity]:
    """(h1, h2) per the selected kind, validated against the space.

    External and Internal are the cases with unit weights; a unit factor
    multiplies exactly, so their norms equal the plain formulas bit for bit.
    """
    if isinstance(kind, External):
        unit = uniform_density(space)
        return unit, unit
    if isinstance(kind, Internal):
        _check_density_fits(space, kind.h)
        return uniform_density(space), kind.h
    if isinstance(kind, Generalized):
        _check_density_fits(space, kind.h1)
        _check_density_fits(space, kind.h2)
        return kind.h1, kind.h2
    raise LogSpaceError(f"unknown norm kind {kind!r}")


def _cell_table(space: MeasureSpace, kind: NormKind) -> _CellTable:
    """The cells of (space, kind), kept on the space.

    Every External kind uses the space's density index, whose unit weights
    multiply exactly.  Any other kind uses the one weighted table the space
    keeps: each component's density swept against its h1 and h2 by
    ``_weighted_cells``, compiled for the last kind object the space was
    normed under.  It hits only for that very object: comparing kinds by
    value would walk every density piece, which is what the table saves.  A table is never mutated once stored
    and a recompiled one is equal, so concurrent callers at worst compile
    it twice.
    """
    if isinstance(kind, External):
        return _density_index(space)
    stored = space.__dict__  # the space is frozen; its fields are untouched
    slot = stored.get("_kind_cells")
    if slot is None or slot[0] is not kind:
        h1, h2 = _kind_weights(space, kind)
        table = []
        for comp, h1c, h2c in zip(space.components, h1, h2):
            cells = _weighted_cells(comp.density, h1c, h2c)
            table.append((comp.realizable, [c[0] for c in cells], cells))
        slot = stored["_kind_cells"] = (kind, table)
    return slot[1]


def _weighted_cells(
    dens: PiecewiseDensity, h1: PiecewiseDensity, h2: PiecewiseDensity
) -> list[tuple[float, float, float, float, float]]:
    """The (lo, hi, density, w1, w2) cells of three densities on one carrier.

    The cells and bounds of ``merge_pieces(dens.pieces, h1.pieces,
    h2.pieces)``, bit for bit, written out for three lists: each list tiles
    the carrier exactly, so the sweep keeps no gap bookkeeping and stops at
    the carrier's stop.  A cell ends at the first list's stop among equal
    stops, as ``min`` picks it, which keeps the sign of a zero bound.
    """
    nd, n1, n2 = iter(dens.pieces).__next__, iter(h1.pieces).__next__, iter(h2.pieces).__next__
    p, q, r = nd(), n1(), n2()
    lo, stop = p.start, dens.stop
    ps, d, qs, w1, rs, w2 = p.stop, p.value, q.stop, q.value, r.stop, r.value
    cells = []
    append = cells.append
    while True:
        hi = ps if ps <= qs else qs
        if rs < hi:
            hi = rs
        append((lo, hi, d, w1, w2))
        if hi == stop:
            return cells
        if ps == hi:
            p = nd()
            ps, d = p.stop, p.value
        if qs == hi:
            q = n1()
            qs, w1 = q.stop, q.value
        if rs == hi:
            r = n2()
            rs, w2 = r.stop, r.value
        lo = hi


def _norm_terms(f: StepFunction, table: _CellTable) -> list[float] | None:
    """Closed-form cell terms of f on a compiled cell table; None signals an infinite norm.

    The walk is also the one check that f fits the space: "function/space
    mismatch", then per component "symbolic component" or "out of carrier",
    read off the table's first and last cells.  Every component is checked,
    also those after an unbounded piece.

    Each cell contributes weight * log1p(scaled) where weight folds the cell
    length, the space density and h1, and scaled is h2 * |coefficient|.
    Every step piece bisects into the compiled cells of its component and
    is clipped to the cells it overlaps: O(P log D + cells) per component
    for P step pieces and D density pieces, once the table is compiled.
    """
    if len(f.columns) != len(table):
        raise LogSpaceError("function/space mismatch")
    inf, log1p = math.inf, math.log1p
    terms: list[float] = []
    infinite = False
    for (fstarts, fstops, coefs), (realizable, starts, cells) in zip(f.columns, table):
        if not fstarts:
            continue
        if not realizable:
            raise LogSpaceError("symbolic component")
        if fstarts[0] < cells[0][0] or fstops[-1] > cells[-1][1]:
            raise LogSpaceError("out of carrier")
        if infinite:  # later components are still checked
            continue
        n = len(cells)
        for a, b, c in zip(fstarts, fstops, coefs):
            if b == inf:
                infinite = True
                break
            mod = abs(c)
            k = bisect_right(starts, a) - 1  # the cell holding a, then every cell that starts before b
            while k < n:
                lo, hi, d, w1, w2 = cells[k]
                if lo >= b:
                    break
                terms.append(((hi if hi < b else b) - (lo if lo > a else a)) * d * w1 * log1p(w2 * mod))
                k += 1
    return None if infinite else terms


def log_norm(f: StepFunction, space: MeasureSpace, kind: NormKind = EXTERNAL) -> ExtendedReal:
    """The selected F-norm of f; Finite(0) iff f is zero.

    Infinite exactly when a nonzero coefficient sits on an unbounded piece;
    otherwise the closed-form piece sum.  A bounded support whose sum (or one
    cell of it) exceeds the float range is rejected, not reported infinite.
    A misfit f is reported before a misfit kind: f is walked on the density
    index, which every space has, before the kind's error is re-raised.
    """
    try:
        table = _cell_table(space, kind)
    except LogSpaceError:
        _norm_terms(f, _density_index(space))
        raise
    terms = _norm_terms(f, table)
    if terms is None:
        return INF
    return ext_fsum(terms, "norm of a bounded support")


def is_member(f: StepFunction, space: MeasureSpace, kind: NormKind = EXTERNAL) -> bool:
    return log_norm(f, space, kind).is_finite


def distance(
    f: StepFunction, g: StepFunction, space: MeasureSpace, kind: NormKind = EXTERNAL
) -> ExtendedReal:
    return log_norm(f - g, space, kind)
