"""Step functions over a measure space and the three logarithmic F-norms.

A step function holds finitely many constant complex pieces per realizable
component and is zero elsewhere.  Canonical form (sorted, disjoint, adjacent
equal pieces merged, zero pieces dropped) is enforced by one builder,
``_from_cells``, through which every operation and ``from_pieces`` build
their pieces, so equality of step functions is equality of their canonical
data.  The builder checks every piece as ``StepPiece`` does (finite start
before its stop, finite coefficient) and rejects overlaps, so a NaN or
reversed bound, or a product that overflows, raises a ``LogSpaceError``.

The algebra (``add``, ``multiply``) sweeps the two functions' pieces with
one cursor each, ``_pointwise_cells``, and hands the cells to the builder;
a gap counts as ``0j``.  It and ``_weighted_cells``, which compiles the
weighted norm tables, are ``merge_pieces`` written out for two and three
lists, and give the merge's cells bit for bit.

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

from ._value import Value, coefficient, integer, real
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


# slotted: pieces are the most numerous objects, and a slot-less instance
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


# the builder writes each field through its slot, past __init__, so that a
# piece it has checked is neither checked nor built a second time
_new = object.__new__
_set_start = StepPiece.start.__set__
_set_stop = StepPiece.stop.__set__
_set_coef = StepPiece.coef.__set__


def _from_cells(cells: Iterable[tuple[float, float, complex]]) -> tuple[StepPiece, ...]:
    """Canonical pieces from (start, stop, coef) cells sorted by start.

    Bounds must be floats and coefficients complex.  Zero coefficients are
    dropped and touching neighbours with equal coefficients merged.  Every
    other cell gets the checks of ``StepPiece`` (-inf < start < stop, a
    finite coefficient: a finite factor times a finite coefficient can
    overflow) and must start no earlier than the kept cell before it stops,
    which rejects overlapping and unsorted cells alike.
    """
    inf, isfinite = math.inf, cmath.isfinite
    out: list[StepPiece] = []
    last = None
    end = -inf  # stop of the last kept piece
    for a, b, c in cells:
        if not c:
            continue
        if not (-inf < a < b and isfinite(c)):
            raise _bad_piece(a, b, c)
        if a < end:
            raise LogSpaceError("step function pieces must be disjoint")
        if a == end and c == last.coef:
            _set_stop(last, b)
        else:
            last = _new(StepPiece)
            _set_start(last, a)
            _set_stop(last, b)
            _set_coef(last, c)
            out.append(last)
        end = b
    return tuple(out)


_bounds = operator.itemgetter(0, 1)


def _canonical(raw: Iterable[tuple[float, float, object]]) -> tuple[StepPiece, ...]:
    """``_from_cells`` of (start, stop, coef) entries with float bounds, in any order.

    Every coefficient is read as a number, and then zero-length entries are dropped.
    """
    cells = [(a, b, coefficient(c, "step coefficient")) for a, b, c in raw]
    cells = [cell for cell in cells if cell[0] != cell[1]]
    cells.sort(key=_bounds)
    return _from_cells(cells)


def _wrap(pieces: tuple[tuple[StepPiece, ...], ...]) -> "StepFunction":
    """A StepFunction around a tuple of builder outputs, which need no re-tupling."""
    f = _new(StepFunction)
    object.__setattr__(f, "pieces", pieces)
    return f


class StepFunction(Value):
    """Complex simple function; one canonical piece tuple per component.

    The constructor checks only that pieces are sorted and disjoint.
    """

    pieces: tuple[tuple[StepPiece, ...], ...]

    def __post_init__(self):
        pieces = tuple([tuple(ps) for ps in self.pieces])
        if any(q.start < p.stop for ps in pieces for p, q in zip(ps, ps[1:])):
            raise LogSpaceError("step function pieces must be disjoint")
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def zero(cls, space: MeasureSpace) -> "StepFunction":
        return cls(((),) * len(space.components))

    @classmethod
    def from_pieces(
        cls, space: MeasureSpace, specs: Iterable[tuple[int, float, float, complex]]
    ) -> "StepFunction":
        """Build and canonicalize from (component, start, stop, coef) entries."""
        per: list[list[tuple[float, float, complex]]] = [[] for _ in space.components]
        for comp, a, b, c in specs:
            if comp.__class__ is not int:
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
        return all(not ps for ps in self.pieces)

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
    """fn of the coefficients on the merged cells of f and g; gaps count as 0j.

    fn(0, 0) must be 0; cells on which neither function has a piece are skipped.
    """
    if len(f.pieces) != len(g.pieces):
        raise LogSpaceError("step functions live on different spaces")
    out = [_from_cells(_pointwise_cells(pa, pb, fn)) for pa, pb in zip(f.pieces, g.pieces)]
    return _wrap(tuple(out))


def _pointwise_cells(
    pa: tuple[StepPiece, ...], pb: tuple[StepPiece, ...], fn
) -> list[tuple[float, float, complex]]:
    """(lo, hi, fn(a, b)) on the cells of ``merge_pieces(pa, pb)``, bit for bit.

    The merge written out for two piece lists, with a cursor on each: a
    list's next breakpoint is the stop of its live piece, or in a gap the
    start of its next piece (coefficient 0j), or +inf once it is spent.
    Cells that neither list covers are skipped.  A cell ends at the first
    list's bound among equal bounds, as ``min`` picks it, which keeps the
    sign of a zero bound.
    """
    inf = math.inf
    na, nb = len(pa), len(pb)
    i = j = 0
    xa = pa[0].start if na else inf  # next breakpoint of each list
    xb = pb[0].start if nb else inf
    ca = cb = 0j  # coefficient of each list on the current cell
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
            else:
                p = pa[i]
                if p.start == lo:
                    live_a, ca, xa = True, p.coef, p.stop
                else:  # a gap until p
                    live_a, ca, xa = False, 0j, p.start
        if xb == lo:
            if live_b:
                j += 1
            if j == nb:
                live_b, cb, xb = False, 0j, inf
            else:
                q = pb[j]
                if q.start == lo:
                    live_b, cb, xb = True, q.coef, q.stop
                else:
                    live_b, cb, xb = False, 0j, q.start
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
    return _wrap(
        tuple([_from_cells([(p.start, p.stop, alpha * p.coef) for p in ps]) for ps in f.pieces])
    )


class NormKind:
    """Selects which of the three log-norms to evaluate."""


class External(NormKind, Value):
    pass


EXTERNAL = External()


def _as_space_density(h) -> SpaceDensity:
    if isinstance(h, PiecewiseDensity):
        return (h,)
    return tuple(h)


class Internal(NormKind, Value):
    h: SpaceDensity

    def __post_init__(self):
        object.__setattr__(self, "h", _as_space_density(self.h))


class Generalized(NormKind, Value):
    h1: SpaceDensity
    h2: SpaceDensity

    def __post_init__(self):
        object.__setattr__(self, "h1", _as_space_density(self.h1))
        object.__setattr__(self, "h2", _as_space_density(self.h2))


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
    if len(f.pieces) != len(table):
        raise LogSpaceError("function/space mismatch")
    inf, log1p = math.inf, math.log1p
    terms: list[float] = []
    infinite = False
    for ps, (realizable, starts, cells) in zip(f.pieces, table):
        if not ps:
            continue
        if not realizable:
            raise LogSpaceError("symbolic component")
        if ps[0].start < cells[0][0] or ps[-1].stop > cells[-1][1]:
            raise LogSpaceError("out of carrier")
        if infinite:  # later components are still checked
            continue
        n = len(cells)
        for p in ps:
            a, b, mod = p.start, p.stop, abs(p.coef)
            if b == inf:
                infinite = True
                break
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
    return log_norm(add(f, scale(g, -1)), space, kind)
