"""Seeded random generators for spaces, densities, functions and sets.

Everything takes an explicit ``random.Random`` so verification runs are
reproducible; nothing here touches global RNG state.  Step functions and
measurable sets are drawn within the first ``_WINDOW`` units of each
carrier, bounded or not, so that every generated norm is finite and
oracle-checkable; a carrier shorter than the window is drawn on whole.  The
density breakpoints of an unbounded carrier fall in that window too.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .measure import (
    Component,
    IntervalPiece,
    MeasurableSet,
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
)
from .stepfunctions import EXTERNAL, Generalized, Internal, NormKind, StepFunction, _from_cells, _wrap

# a drawn carrier starts uniform in _START_RANGE and, if bounded, has a
# length uniform in _LENGTH_RANGE
_START_RANGE = (-4.0, 4.0)
_LENGTH_RANGE = (0.5, 3.0)
# functions and sets are drawn on [start, start + _WINDOW) of every carrier,
# bounded or not; an unbounded carrier's density breakpoints fall there too
_WINDOW = 4.0
# a drawn density has 0.._MAX_CUTS interior cuts and values uniform in
# _DENSITY_RANGE; a drawn coefficient has modulus uniform in [0, _MAX_MODULUS]
_MAX_CUTS = 3
_DENSITY_RANGE = (0.25, 4.0)
_MAX_MODULUS = 10.0


def _interior_cuts(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    pts = sorted(rng.uniform(lo, hi) for _ in range(n))
    out: list[float] = []
    gap = (hi - lo) * 1e-6
    for p in pts:
        if lo + gap < p < hi - gap and (not out or p - out[-1] > gap):
            out.append(p)
    return out


def _pieces_on(rng: random.Random, lo: float, hi: float) -> tuple[IntervalPiece, ...]:
    """Positive pieces tiling [lo, hi); hi may be inf (cuts stay in a window)."""
    cut_hi = lo + _WINDOW if math.isinf(hi) else hi
    bounds = [lo] + _interior_cuts(rng, lo, cut_hi, rng.randint(0, _MAX_CUTS)) + [hi]
    return tuple(IntervalPiece(a, b, rng.uniform(*_DENSITY_RANGE)) for a, b in zip(bounds, bounds[1:]))


def _drawn_component(rng: random.Random, start: float, stop: float) -> Component:
    """Weight-0 component on [start, stop) with a drawn density."""
    return Component(PiecewiseDensity(_pieces_on(rng, start, stop)))


def random_space(
    rng: random.Random, max_components: int = 2, unbounded_prob: float = 0.3
) -> MeasureSpace:
    """Weight-0 space with 1..max_components components, at most one unbounded."""
    n = rng.randint(1, max_components)
    used_unbounded = False
    comps = []
    for _ in range(n):
        start = rng.uniform(*_START_RANGE)
        if not used_unbounded and rng.random() < unbounded_prob:
            used_unbounded = True
            stop = math.inf
        else:
            stop = start + rng.uniform(*_LENGTH_RANGE)
        comps.append(_drawn_component(rng, start, stop))
    return MeasureSpace(tuple(comps))


def random_bounded_space(rng: random.Random, max_components: int = 2) -> MeasureSpace:
    return random_space(rng, max_components, unbounded_prob=0.0)


def random_density(rng: random.Random, space: MeasureSpace) -> SpaceDensity:
    """Strictly positive piecewise density covering every component carrier."""
    return tuple(PiecewiseDensity(_pieces_on(rng, *c.carrier)) for c in space.components)


def random_kind(rng: random.Random, space: MeasureSpace) -> NormKind:
    pick = rng.randrange(3)
    if pick == 0:
        return EXTERNAL
    if pick == 1:
        return Internal(random_density(rng, space))
    return Generalized(random_density(rng, space), random_density(rng, space))


def _windows(space: MeasureSpace) -> Iterator[tuple[int, float, float]]:
    """(index, lo, hi) for each realizable component: its carrier clipped to the window."""
    for i, comp in enumerate(space.components):
        if comp.realizable:
            lo, hi = comp.carrier
            yield i, lo, min(hi, lo + _WINDOW)


def random_step_function(rng: random.Random, space: MeasureSpace, max_pieces: int = 8) -> StepFunction:
    """Bounded-support step function; coefficients have modulus in [0, _MAX_MODULUS].

    Each component's cells go straight to the builder: they are drawn
    sorted, disjoint, of positive length and inside the carrier window,
    with complex coefficients, so ``from_pieces``' reading and sort would
    change nothing.
    """
    cells: list[list[tuple[float, float, complex]]] = [[] for _ in space.components]
    for i, lo, hi in _windows(space):
        if len(space.components) > 1 and rng.random() < 0.15:
            continue
        n = rng.randint(1, max_pieces)
        bounds = sorted(rng.uniform(lo, hi) for _ in range(n + 1))
        for a, b in zip(bounds, bounds[1:]):
            if b - a <= (hi - lo) * 1e-9 or rng.random() < 0.2:
                continue
            mod = rng.uniform(0.0, _MAX_MODULUS)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            cells[i].append((a, b, complex(mod * math.cos(phase), mod * math.sin(phase))))
    return _wrap(tuple([_from_cells(cs) for cs in cells]))


def random_measurable_set(
    rng: random.Random, space: MeasureSpace, max_intervals: int = 3
) -> MeasurableSet:
    parts = []
    for i, lo, hi in _windows(space):
        k = rng.randint(0, max_intervals)
        pts = sorted(rng.uniform(lo, hi) for _ in range(2 * k))
        for a, b in zip(pts[0::2], pts[1::2]):
            if b - a > (hi - lo) * 1e-9:
                parts.append((i, a, b))
    return MeasurableSet(tuple(parts))


def _component_with_mass(rng: random.Random, mass: float) -> Component:
    """Bounded weight-0 component whose total measure is `mass` up to rounding."""
    start = rng.uniform(*_START_RANGE)
    stop = start + rng.uniform(*_LENGTH_RANGE)
    pieces = _drawn_component(rng, start, stop).density.pieces
    actual = math.fsum((p.stop - p.start) * p.value for p in pieces)
    s = mass / actual
    return Component(PiecewiseDensity(tuple(IntervalPiece(p.start, p.stop, p.value * s) for p in pieces)))


def equal_passport_partner(rng: random.Random, src: MeasureSpace) -> MeasureSpace:
    """A realizable space with the same passport as src but its own layout."""
    total = math.fsum(c.measure().value for c in src.components if c.measure().is_finite)
    has_unbounded = any(not c.measure().is_finite for c in src.components)
    comps: list[Component] = []
    if has_unbounded:
        # infinite group: any finite prefix plus one unbounded tail matches
        if rng.random() < 0.5:
            comps.append(_component_with_mass(rng, rng.uniform(0.5, 2.0)))
        comps.append(_drawn_component(rng, rng.uniform(*_START_RANGE), math.inf))
    else:
        n = rng.randint(1, 2)
        weights = [rng.uniform(0.2, 1.0) for _ in range(n)]
        wsum = math.fsum(weights)
        for w in weights:
            comps.append(_component_with_mass(rng, total * (w / wsum)))
    return MeasureSpace(tuple(comps))


def random_equal_passport_pair(rng: random.Random) -> tuple[MeasureSpace, MeasureSpace]:
    """Two realizable spaces with coinciding passports but different layouts."""
    src = random_space(rng)
    return src, equal_passport_partner(rng, src)


def random_matched_components_pair(rng: random.Random) -> tuple[MeasureSpace, MeasureSpace]:
    """Equal-passport spaces whose components pair off 1-1 with equal measures."""
    src = random_space(rng)
    comps = []
    for c in src.components:
        if c.measure().is_finite:
            comps.append(_component_with_mass(rng, c.measure().value))
        else:
            comps.append(_drawn_component(rng, rng.uniform(*_START_RANGE), math.inf))
    return src, MeasureSpace(tuple(comps))
