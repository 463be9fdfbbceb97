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
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import LogSpaceError
from .extreal import INF, ExtendedReal, ext_sum

WeightLabel = int


@dataclass(frozen=True)
class IntervalPiece:
    """One constant piece, half-open [start, stop); stop may be math.inf."""

    start: float
    stop: float
    value: float

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "value", float(self.value))
        if math.isnan(self.start) or math.isinf(self.start):
            raise LogSpaceError(f"piece start must be finite, got {self.start!r}")
        if math.isnan(self.stop) or not self.start < self.stop:
            raise LogSpaceError(f"piece must satisfy start < stop, got [{self.start}, {self.stop})")
        if math.isnan(self.value) or math.isinf(self.value):
            raise LogSpaceError(f"piece value must be finite, got {self.value!r}")

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


@dataclass(frozen=True)
class PiecewiseDensity:
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

    def value_at(self, x: float) -> float:
        """Pointwise value; x must lie in [start, stop)."""
        if not (self.start <= x < self.stop):
            raise LogSpaceError("out of carrier")
        starts = [p.start for p in self.pieces]
        return self.pieces[bisect_right(starts, x) - 1].value

    def total(self) -> ExtendedReal:
        """Mass of the carrier; Infinite exactly when the carrier is unbounded.

        A bounded carrier whose mass exceeds the float range is rejected, so
        that it is never filed as an infinite-measure component.
        """
        if math.isinf(self.stop):
            return INF
        try:
            mass = math.fsum(p.length * p.value for p in self.pieces)
        except OverflowError:  # finite terms whose sum overflows
            mass = math.inf
        if math.isinf(mass):
            raise LogSpaceError(
                f"mass of the bounded carrier [{self.start}, {self.stop}) overflows a float"
            )
        return ExtendedReal(mass)


def density(spec: Iterable[tuple[float, float, float]]) -> PiecewiseDensity:
    """Build a PiecewiseDensity from (start, stop, value) triples."""
    return PiecewiseDensity(tuple(IntervalPiece(a, b, v) for a, b, v in spec))


def constant_density(start: float, stop: float, value: float = 1.0) -> PiecewiseDensity:
    return PiecewiseDensity((IntervalPiece(start, stop, value),))


@dataclass(frozen=True)
class Component:
    """A carrier interval with its density and weight label.

    weight 0 is realizable; any weight > 0 marks a symbolic component that
    participates in passports only.
    """

    density: PiecewiseDensity
    weight: WeightLabel = 0

    def __post_init__(self):
        if not isinstance(self.weight, int) or self.weight < 0:
            raise LogSpaceError(f"weight must be a non-negative integer, got {self.weight!r}")

    @property
    def carrier(self) -> tuple[float, float]:
        return (self.density.start, self.density.stop)

    @property
    def realizable(self) -> bool:
        return self.weight == 0

    def measure(self) -> ExtendedReal:
        return self.density.total()


@dataclass(frozen=True)
class MeasureSpace:
    """Disjoint union of components; each component is its own coordinate axis."""

    components: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise LogSpaceError("a measure space needs at least one component")

    def __len__(self) -> int:
        return len(self.components)


def space(*components: Component) -> MeasureSpace:
    return MeasureSpace(tuple(components))


def interval_space(start: float, stop: float, dens: float = 1.0) -> MeasureSpace:
    """Single weight-0 component with a constant density; the workhorse in tests."""
    return MeasureSpace((Component(constant_density(start, stop, dens)),))


@dataclass(frozen=True)
class MeasurableSet:
    """Finite union of half-open subintervals, tagged by component index.

    parts are (component, start, stop) triples; they are sorted at
    construction and must be disjoint within each component.
    """

    parts: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        norm = tuple(sorted((int(c), float(a), float(b)) for c, a, b in self.parts))
        object.__setattr__(self, "parts", norm)
        prev: tuple[int, float] | None = None
        for c, a, b in norm:
            if math.isnan(a) or math.isnan(b) or math.isinf(a) or not a < b:
                raise LogSpaceError(f"subinterval must satisfy start < stop, got [{a}, {b})")
            if prev is not None and prev[0] == c and a < prev[1]:
                raise LogSpaceError("subintervals within a component must be disjoint")
            prev = (c, b)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def total_length(self) -> float:
        return math.fsum(b - a for _, a, b in self.parts)


EMPTY_SET = MeasurableSet(())


def _slice(pieces: Sequence[IntervalPiece], a: float, b: float) -> list[IntervalPiece]:
    """Restrict a contiguous piece list to [a, b); caller guarantees coverage."""
    out = []
    for p in pieces:
        lo = max(p.start, a)
        hi = min(p.stop, b)
        if lo < hi:
            out.append(IntervalPiece(lo, hi, p.value))
    return out


def refine(*piece_lists: Sequence[IntervalPiece]) -> list[tuple[float, float, tuple[float, ...]]]:
    """Common refinement of contiguous piece lists covering the same span.

    Yields (start, stop, values) cells where every input is constant.
    """
    idx = [0] * len(piece_lists)
    lo = piece_lists[0][0].start
    out = []
    while all(i < len(pl) for i, pl in zip(idx, piece_lists)):
        hi = min(pl[i].stop for i, pl in zip(idx, piece_lists))
        if hi > lo:
            out.append((lo, hi, tuple(pl[i].value for i, pl in zip(idx, piece_lists))))
        for k, pl in enumerate(piece_lists):
            if pl[idx[k]].stop == hi:
                idx[k] += 1
        lo = hi
    return out


def _component_for(space: MeasureSpace, index: int) -> Component:
    if not 0 <= index < len(space.components):
        raise LogSpaceError(f"component index {index} out of range")
    return space.components[index]


def measure(space: MeasureSpace, mset: MeasurableSet) -> ExtendedReal:
    """mu of a finite interval union; Infinite iff some subinterval is unbounded."""
    terms = []
    for c, a, b in mset.parts:
        comp = _component_for(space, c)
        if not comp.realizable:
            raise LogSpaceError("symbolic component")
        lo, hi = comp.carrier
        if a < lo or b > hi:
            raise LogSpaceError("out of carrier")
        if math.isinf(b):
            return INF
        terms.extend(p.length * p.value for p in _slice(comp.density.pieces, a, b))
    return ExtendedReal(math.fsum(terms))


def total_measure(space: MeasureSpace) -> ExtendedReal:
    return ext_sum(c.measure() for c in space.components)


SpaceDensity = tuple[PiecewiseDensity, ...]


def uniform_density(space: MeasureSpace, value: float = 1.0) -> SpaceDensity:
    """The constant density `value` on every component carrier."""
    return tuple(
        PiecewiseDensity((IntervalPiece(c.carrier[0], c.carrier[1], value),))
        for c in space.components
    )


def _check_same_algebra(nu: MeasureSpace, mu: MeasureSpace) -> None:
    if len(nu.components) != len(mu.components):
        raise LogSpaceError("different underlying algebra")
    for cn, cm in zip(nu.components, mu.components):
        if cn.carrier != cm.carrier or cn.weight != cm.weight:
            raise LogSpaceError("different underlying algebra")


def rn_derivative(nu: MeasureSpace, mu: MeasureSpace) -> SpaceDensity:
    """Density of nu with respect to mu, one piecewise function per component.

    Both spaces must share carriers and weights; the result is strictly
    positive because both densities are.
    """
    _check_same_algebra(nu, mu)
    out = []
    for cn, cm in zip(nu.components, mu.components):
        cells = refine(cn.density.pieces, cm.density.pieces)
        out.append(
            PiecewiseDensity(tuple(IntervalPiece(a, b, vn / vm) for a, b, (vn, vm) in cells))
        )
    return tuple(out)


def reweight(space: MeasureSpace, h: SpaceDensity) -> MeasureSpace:
    """The space whose density is (component density) * h: d(nu) = h d(mu)."""
    if len(h) != len(space.components):
        raise LogSpaceError("kind/space mismatch")
    comps = []
    for comp, hc in zip(space.components, h):
        if (hc.start, hc.stop) != comp.carrier:
            raise LogSpaceError("kind/space mismatch")
        cells = refine(comp.density.pieces, hc.pieces)
        comps.append(
            Component(
                PiecewiseDensity(tuple(IntervalPiece(a, b, v * w) for a, b, (v, w) in cells)),
                comp.weight,
            )
        )
    return MeasureSpace(tuple(comps))


def integrate_piecewise(
    space: MeasureSpace, integrand: Sequence[Sequence[IntervalPiece]]
) -> ExtendedReal:
    """Exact integral of a non-negative piecewise-constant integrand against mu.

    One piece list per component, covering that carrier; Infinite iff a
    nonzero integrand value sits on an unbounded piece.
    """
    if len(integrand) != len(space.components):
        raise LogSpaceError("integrand must supply one piece list per component")
    terms = []
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
            if math.isinf(b):
                return INF
            terms.append((b - a) * d * f)
    return ExtendedReal(math.fsum(terms))
