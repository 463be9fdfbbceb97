"""Interval realizations of measured Boolean algebras.

A space is a finite disjoint union of components.  Each component is an
interval carrier [a, b) (b may be +inf) equipped with a strictly positive
piecewise-constant density and an ordered integer weight label.  Weight 0 is
the countable weight and the only one on which sets and functions can live;
components with a larger weight are symbolic passport entries only.

Everything is immutable and every operation is a pure function, so values can
be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

from ._value import Value, finite_real, integer, real
from .errors import LogSpaceError
from .extreal import INF, ExtendedReal, ext_fsum, ext_sum

WeightLabel = int


# slotted: pieces are the most numerous objects, and a slot-less instance
# is about 40 bytes larger
class IntervalPiece(Value):
    """One constant piece, half-open [start, stop); stop may be math.inf."""

    __slots__ = ("start", "stop", "value")
    start: float
    stop: float
    value: float

    def __post_init__(self):
        object.__setattr__(self, "start", finite_real(self.start, "piece start"))
        object.__setattr__(self, "stop", real(self.stop, "piece stop"))
        object.__setattr__(self, "value", finite_real(self.value, "piece value"))
        if not self.start < self.stop:  # a NaN stop fails it too
            raise LogSpaceError(f"piece must satisfy start < stop, got [{self.start}, {self.stop})")

    @property
    def length(self) -> float:
        return self.stop - self.start


def _check_contiguous(pieces: Sequence[IntervalPiece], what: str) -> None:
    if not pieces:
        raise LogSpaceError(f"{what} needs at least one piece")
    for prev, cur in zip(pieces, pieces[1:]):
        if math.isinf(prev.stop):
            raise LogSpaceError(f"{what}: only the last piece may be unbounded")
        if prev.stop != cur.start:
            raise LogSpaceError(
                f"{what}: pieces must tile without gaps or overlaps "
                f"({prev.stop!r} != {cur.start!r})"
            )


class PiecewiseDensity(Value):
    """Strictly positive piecewise-constant function covering one carrier exactly."""

    pieces: tuple[IntervalPiece, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        _check_contiguous(self.pieces, "density")
        for p in self.pieces:
            if p.value <= 0.0:
                raise LogSpaceError(f"density values must be > 0, got {p.value!r}")

    @property
    def start(self) -> float:
        return self.pieces[0].start

    @property
    def stop(self) -> float:
        return self.pieces[-1].stop

    def total(self) -> ExtendedReal:
        """Mass of the carrier; Infinite exactly when the carrier is unbounded.

        A bounded carrier whose mass exceeds the float range is rejected, so
        that it is never filed as an infinite-measure component.
        """
        if math.isinf(self.stop):
            return INF
        return ext_fsum(
            [p.length * p.value for p in self.pieces],
            f"mass of the bounded carrier [{self.start}, {self.stop})",
        )


def density(spec: Iterable[tuple[float, float, float]]) -> PiecewiseDensity:
    """Build a PiecewiseDensity from (start, stop, value) triples."""
    return PiecewiseDensity(tuple(IntervalPiece(a, b, v) for a, b, v in spec))


def constant_density(start: float, stop: float, value: float = 1.0) -> PiecewiseDensity:
    return PiecewiseDensity((IntervalPiece(start, stop, value),))


class Component(Value):
    """A carrier interval with its density and weight label.

    weight 0 is realizable; any weight > 0 marks a symbolic component that
    participates in passports only.
    """

    density: PiecewiseDensity
    weight: WeightLabel = 0

    def __post_init__(self):
        if integer(self.weight, "weight", "a non-negative integer") < 0:
            raise LogSpaceError(f"weight must be a non-negative integer, got {self.weight!r}")

    @property
    def carrier(self) -> tuple[float, float]:
        return (self.density.start, self.density.stop)

    @property
    def realizable(self) -> bool:
        return self.weight == 0

    def measure(self) -> ExtendedReal:
        return self.density.total()


class MeasureSpace(Value):
    """Disjoint union of components; each component is its own coordinate axis.

    A space keeps its density index (``_density_index``) and one weighted
    norm table (``stepfunctions._cell_table``) in the instance dict; they
    are not fields, so equality, hashing and repr ignore them.
    """

    components: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise LogSpaceError("a measure space needs at least one component")

    def __len__(self) -> int:
        return len(self.components)


def _weight_groups(space: MeasureSpace) -> dict[WeightLabel, list[tuple[int, Component]]]:
    """(index, component) pairs grouped by weight label, in ascending weight order."""
    groups: dict[WeightLabel, list[tuple[int, Component]]] = {}
    for i, comp in enumerate(space.components):
        groups.setdefault(comp.weight, []).append((i, comp))
    return {w: groups[w] for w in sorted(groups)}


def space(*components: Component) -> MeasureSpace:
    return MeasureSpace(tuple(components))


def interval_space(start: float, stop: float, dens: float = 1.0) -> MeasureSpace:
    """Single weight-0 component with a constant density; the workhorse in tests."""
    return MeasureSpace((Component(constant_density(start, stop, dens)),))


class MeasurableSet(Value):
    """Finite union of half-open subintervals, tagged by component index.

    parts are (component, start, stop) triples: an int index (not a bool)
    and two real bounds.  They are sorted at construction and must be
    disjoint within each component.
    """

    parts: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        parts = []
        for c, a, b in self.parts:
            # a plain int passes on the first test: every transport_set result is built here
            if c.__class__ is not int:
                c = integer(c, "component index")
            parts.append((c, real(a, "subinterval start"), real(b, "subinterval stop")))
        parts.sort()
        norm = tuple(parts)
        object.__setattr__(self, "parts", norm)
        prev: tuple[int, float] | None = None
        for c, a, b in norm:
            if math.isnan(a) or math.isnan(b) or math.isinf(a) or not a < b:
                raise LogSpaceError(f"subinterval must satisfy start < stop, got [{a}, {b})")
            if prev is not None and prev[0] == c and a < prev[1]:
                raise LogSpaceError("subintervals within a component must be disjoint")
            prev = (c, b)

    def total_length(self) -> float:
        return math.fsum(b - a for _, a, b in self.parts)


def merge_pieces(*piece_lists: Sequence) -> Iterator[tuple[float, float, tuple]]:
    """Walk sorted, disjoint piece lists against each other on their breakpoints.

    Pieces are anything with ``start`` and ``stop``; the lists may have gaps
    and different spans.  Yields (lo, hi, pieces) for every cell between
    consecutive breakpoints, where pieces[k] is the piece of list k covering
    [lo, hi), or None if list k has none there.  Cells that no list covers
    are skipped.  O(total pieces) for a fixed number of lists.
    """
    inf = math.inf
    lists = range(len(piece_lists))
    its = [iter(pl) for pl in piece_lists]
    heads = [next(it, None) for it in its]  # the live or the next piece of each list
    live: list = [None] * len(piece_lists)
    nxt = [inf if p is None else p.start for p in heads]  # next breakpoint of each list
    covering = 0  # lists with a live piece; counted, since == on pieces is slow
    lo = min(nxt, default=inf)
    while lo != inf:
        for k in lists:
            if nxt[k] != lo:
                continue
            p = heads[k]
            if live[k] is not None:  # the live piece ends here
                covering -= 1
                p = heads[k] = next(its[k], None)
                if p is None:
                    live[k], nxt[k] = None, inf
                    continue
            if p.start == lo:
                live[k], nxt[k] = p, p.stop
                covering += 1
            else:  # a gap until p
                live[k], nxt[k] = None, p.start
        hi = min(nxt)
        if covering:
            yield lo, hi, tuple(live)
        lo = hi


def refine(*piece_lists: Sequence[IntervalPiece]) -> list[tuple[float, float, tuple[float, ...]]]:
    """Common refinement of contiguous piece lists covering the same span.

    Yields (start, stop, values) cells where every input is constant.
    """
    return [
        (lo, hi, tuple([p.value for p in cell])) for lo, hi, cell in merge_pieces(*piece_lists)
    ]


# per component: whether it is realizable, the cell starts, and the cells
# (lo, hi, density, w1, w2), which run from the carrier's start to its stop
_CellTable = list[tuple[bool, list[float], list[tuple[float, float, float, float, float]]]]


def _density_index(space: MeasureSpace) -> _CellTable:
    """Each component's density pieces as unit-weight cells, kept on the space.

    Set measures and the plain norm bisect into it.  It is never mutated
    once stored, so concurrent callers at worst build equal indexes twice.
    """
    index = space.__dict__.get("_index")  # the space is frozen; its fields are untouched
    if index is None:
        index = []
        for comp in space.components:
            cells = [(p.start, p.stop, p.value, 1.0, 1.0) for p in comp.density.pieces]
            index.append((comp.realizable, [c[0] for c in cells], cells))
        space.__dict__["_index"] = index
    return index


def measure(space: MeasureSpace, mset: MeasurableSet) -> ExtendedReal:
    """mu of a finite interval union; Infinite iff some subinterval is unbounded.

    A bounded set whose mass exceeds the float range is rejected rather than
    reported as infinite.
    """
    index = _density_index(space)
    terms = []
    infinite = False
    for c, a, b in mset.parts:
        if not 0 <= c < len(index):
            raise LogSpaceError(f"component index {c} out of range")
        realizable, starts, cells = index[c]
        if not realizable:
            raise LogSpaceError("symbolic component")
        if a < cells[0][0] or b > cells[-1][1]:
            raise LogSpaceError("out of carrier")
        if math.isinf(b):  # later parts are still checked
            infinite = True
            continue
        # the cell holding a, then every cell that starts before b
        k, n = bisect_right(starts, a) - 1, len(cells)
        while k < n:
            lo, hi, d, _, _ = cells[k]
            if lo >= b:
                break
            terms.append(((hi if hi < b else b) - (lo if lo > a else a)) * d)
            k += 1
    return INF if infinite else ext_fsum(terms, "mass of a bounded set")


def total_measure(space: MeasureSpace) -> ExtendedReal:
    return ext_sum(c.measure() for c in space.components)


SpaceDensity = tuple[PiecewiseDensity, ...]


def uniform_density(space: MeasureSpace, value: float = 1.0) -> SpaceDensity:
    """The constant density `value` on every component carrier."""
    return tuple(
        PiecewiseDensity((IntervalPiece(c.carrier[0], c.carrier[1], value),))
        for c in space.components
    )


def _check_density_fits(space: MeasureSpace, h: SpaceDensity) -> None:
    """h must supply one density per component, on exactly that carrier."""
    if len(h) != len(space.components):
        raise LogSpaceError("kind/space mismatch")
    for comp, hc in zip(space.components, h):
        if (hc.start, hc.stop) != comp.carrier:
            raise LogSpaceError("kind/space mismatch")


def _check_same_algebra(nu: MeasureSpace, mu: MeasureSpace) -> None:
    if len(nu.components) != len(mu.components):
        raise LogSpaceError("different underlying algebra")
    for cn, cm in zip(nu.components, mu.components):
        if cn.carrier != cm.carrier or cn.weight != cm.weight:
            raise LogSpaceError("different underlying algebra")


def _combined(pairs: Iterable[tuple[PiecewiseDensity, PiecewiseDensity]], op) -> list[PiecewiseDensity]:
    """op of the two values on each cell of each pair's common refinement."""
    out = []
    for p, q in pairs:
        cells = refine(p.pieces, q.pieces)
        out.append(PiecewiseDensity(tuple([IntervalPiece(a, b, op(x, y)) for a, b, (x, y) in cells])))
    return out


def rn_derivative(nu: MeasureSpace, mu: MeasureSpace) -> SpaceDensity:
    """Density of nu with respect to mu, one piecewise function per component.

    Both spaces must share carriers and weights; the result is strictly
    positive because both densities are.
    """
    _check_same_algebra(nu, mu)
    pairs = [(cn.density, cm.density) for cn, cm in zip(nu.components, mu.components)]
    return tuple(_combined(pairs, operator.truediv))


def reweight(space: MeasureSpace, h: SpaceDensity) -> MeasureSpace:
    """The space whose density is (component density) * h: d(nu) = h d(mu)."""
    _check_density_fits(space, h)
    dens = _combined([(c.density, hc) for c, hc in zip(space.components, h)], operator.mul)
    return MeasureSpace(tuple([Component(d, c.weight) for c, d in zip(space.components, dens)]))


def integrate_piecewise(
    space: MeasureSpace, integrand: Sequence[Sequence[IntervalPiece]]
) -> ExtendedReal:
    """Exact integral of a non-negative piecewise-constant integrand against mu.

    One piece list per component, covering that carrier; Infinite iff a
    nonzero integrand value sits on an unbounded piece; an integral over a
    bounded support that exceeds the float range is rejected.
    """
    if len(integrand) != len(space.components):
        raise LogSpaceError("integrand must supply one piece list per component")
    terms = []
    infinite = False
    for comp, pieces in zip(space.components, integrand):
        pieces = tuple(pieces)
        _check_contiguous(pieces, "integrand")
        if (pieces[0].start, pieces[-1].stop) != comp.carrier:
            raise LogSpaceError("integrand must cover the component carrier exactly")
        for p in pieces:
            if p.value < 0.0:
                raise LogSpaceError("signed integrand unsupported")
        for a, b, (f, d) in refine(pieces, comp.density.pieces):
            if f == 0.0:
                continue
            if math.isinf(b):  # later components are still checked
                infinite = True
                continue
            terms.append((b - a) * d * f)
    return INF if infinite else ext_fsum(terms, "integral over a bounded support")
