"""Step functions over a measure space and the three logarithmic F-norms.

A step function holds finitely many constant complex pieces per realizable
component and is zero elsewhere.  Canonical form (sorted, disjoint, adjacent
equal pieces merged, zero pieces dropped) is maintained by every operation,
so equality of step functions is equality of their canonical data.

Norm kinds:

* ``External``            integral of log(1 + |f|) d(mu)
* ``Internal(h)``         integral of log(1 + h |f|) d(mu)
* ``Generalized(h1, h2)`` integral of h1 log(1 + h2 |f|) d(mu)

All three are evaluated exactly in closed form on the common refinement of
the pieces involved; ``riemann_oracle`` is the independent brute-force check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import LogSpaceError
from .extreal import INF, ExtendedReal
from .measure import (
    Component,
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
    _slice,
    refine,
)

# numpy is imported inside the oracle and its grid helpers, its only users, so
# that importing the package (and so every CLI call) does not load it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StepPiece:
    start: float
    stop: float
    coef: complex

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "coef", complex(self.coef))
        if math.isnan(self.start) or math.isinf(self.start) or not self.start < self.stop:
            raise LogSpaceError(f"step piece must satisfy start < stop, got [{self.start}, {self.stop})")
        if not cmath.isfinite(self.coef):
            raise LogSpaceError(f"step coefficient must be finite, got {self.coef!r}")


def _canonical(raw: Iterable[tuple[float, float, complex]]) -> tuple[StepPiece, ...]:
    items = sorted(((a, b, c) for a, b, c in raw if c != 0 and a < b), key=lambda t: (t[0], t[1]))
    merged: list[list] = []
    for a, b, c in items:
        if merged and a < merged[-1][1]:
            raise LogSpaceError("step function pieces must be disjoint")
        if merged and a == merged[-1][1] and c == merged[-1][2]:
            merged[-1][1] = b
        else:
            merged.append([a, b, c])
    return tuple(StepPiece(a, b, c) for a, b, c in merged)


@dataclass(frozen=True)
class StepFunction:
    """Complex simple function; one canonical piece tuple per component."""

    pieces: tuple[tuple[StepPiece, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(tuple(ps) for ps in self.pieces))

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
            if not 0 <= comp < len(space.components):
                raise LogSpaceError(f"component index {comp} out of range")
            component = space.components[comp]
            if not component.realizable:
                raise LogSpaceError("symbolic component")
            lo, hi = component.carrier
            if a < lo or b > hi:
                raise LogSpaceError("out of carrier")
            per[comp].append((a, b, complex(c)))
        return cls(tuple(_canonical(ps) for ps in per))

    @property
    def is_zero(self) -> bool:
        return all(not ps for ps in self.pieces)

    def support_length(self) -> float:
        return math.fsum(p.stop - p.start for ps in self.pieces for p in ps)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return add(self, other)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return add(self, scale(other, -1))

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return multiply(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self) -> "StepFunction":
        return scale(self, -1)


def _combine(
    pa: Sequence[StepPiece], pb: Sequence[StepPiece], fn
) -> tuple[StepPiece, ...]:
    """Pointwise fn over the common refinement; fn(0, 0) must be 0."""
    bps = sorted(
        {p.start for p in pa} | {p.stop for p in pa} | {p.start for p in pb} | {p.stop for p in pb}
    )
    out = []
    ia = ib = 0
    for x1, x2 in zip(bps, bps[1:]):
        while ia < len(pa) and pa[ia].stop <= x1:
            ia += 1
        while ib < len(pb) and pb[ib].stop <= x1:
            ib += 1
        va = pa[ia].coef if ia < len(pa) and pa[ia].start <= x1 else 0j
        vb = pb[ib].coef if ib < len(pb) and pb[ib].start <= x1 else 0j
        out.append((x1, x2, fn(va, vb)))
    return _canonical(out)


def _check_same_shape(f: StepFunction, g: StepFunction) -> None:
    if len(f.pieces) != len(g.pieces):
        raise LogSpaceError("step functions live on different spaces")


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    _check_same_shape(f, g)
    return StepFunction(tuple(_combine(a, b, lambda x, y: x + y) for a, b in zip(f.pieces, g.pieces)))


def multiply(f: StepFunction, g: StepFunction) -> StepFunction:
    _check_same_shape(f, g)
    return StepFunction(tuple(_combine(a, b, lambda x, y: x * y) for a, b in zip(f.pieces, g.pieces)))


def scale(f: StepFunction, alpha: complex) -> StepFunction:
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise LogSpaceError(f"scale factor must be finite, got {alpha!r}")
    if alpha == 0:
        return StepFunction(((),) * len(f.pieces))
    return StepFunction(
        tuple(_canonical((p.start, p.stop, alpha * p.coef) for p in ps) for ps in f.pieces)
    )


class NormKind:
    """Selects which of the three log-norms to evaluate."""


@dataclass(frozen=True)
class External(NormKind):
    pass


EXTERNAL = External()


def _as_space_density(h) -> SpaceDensity:
    if isinstance(h, PiecewiseDensity):
        return (h,)
    return tuple(h)


@dataclass(frozen=True)
class Internal(NormKind):
    h: SpaceDensity

    def __post_init__(self):
        object.__setattr__(self, "h", _as_space_density(self.h))


@dataclass(frozen=True)
class Generalized(NormKind):
    h1: SpaceDensity
    h2: SpaceDensity

    def __post_init__(self):
        object.__setattr__(self, "h1", _as_space_density(self.h1))
        object.__setattr__(self, "h2", _as_space_density(self.h2))


def _check_density_fits(space: MeasureSpace, h: SpaceDensity) -> None:
    if len(h) != len(space.components):
        raise LogSpaceError("kind/space mismatch")
    for comp, hc in zip(space.components, h):
        if (hc.start, hc.stop) != comp.carrier:
            raise LogSpaceError("kind/space mismatch")


def _kind_weights(space: MeasureSpace, kind: NormKind) -> tuple[SpaceDensity | None, SpaceDensity | None]:
    """(h1, h2) per the selected kind, validated against the space; None means 1."""
    if isinstance(kind, External):
        return None, None
    if isinstance(kind, Internal):
        _check_density_fits(space, kind.h)
        return None, kind.h
    if isinstance(kind, Generalized):
        _check_density_fits(space, kind.h1)
        _check_density_fits(space, kind.h2)
        return kind.h1, kind.h2
    raise LogSpaceError(f"unknown norm kind {kind!r}")


def _check_function_fits(f: StepFunction, space: MeasureSpace) -> None:
    if len(f.pieces) != len(space.components):
        raise LogSpaceError("function/space mismatch")
    for comp, ps in zip(space.components, f.pieces):
        if ps and not comp.realizable:
            raise LogSpaceError("symbolic component")
        if ps:
            lo, hi = comp.carrier
            if ps[0].start < lo or ps[-1].stop > hi:
                raise LogSpaceError("out of carrier")


def _norm_terms(f: StepFunction, space: MeasureSpace, kind: NormKind):
    """Closed-form cells (weight, scaled modulus); None signals an infinite norm.

    Each cell contributes weight * log1p(scaled) where weight folds the piece
    length, the space density and h1, and scaled is h2 * |coefficient|.
    """
    _check_function_fits(f, space)
    h1, h2 = _kind_weights(space, kind)
    terms: list[tuple[float, float]] = []
    for i, (comp, ps) in enumerate(zip(space.components, f.pieces)):
        if not ps:
            continue
        lists = [comp.density.pieces]
        if h1 is not None:
            lists.append(h1[i].pieces)
        if h2 is not None:
            lists.append(h2[i].pieces)
        for p in ps:
            if math.isinf(p.stop):
                return None
            mod = abs(p.coef)
            for a, b, vals in refine(*[_slice(pl, p.start, p.stop) for pl in lists]):
                d = vals[0]
                if h1 is not None:
                    w1, w2 = vals[1], vals[2]
                elif h2 is not None:
                    w1, w2 = 1.0, vals[1]
                else:
                    w1, w2 = 1.0, 1.0
                terms.append(((b - a) * d * w1, w2 * mod))
    return terms


def log_norm(f: StepFunction, space: MeasureSpace, kind: NormKind = EXTERNAL) -> ExtendedReal:
    """The selected F-norm of f; Finite(0) iff f is zero.

    Infinite exactly when a nonzero coefficient sits on an unbounded piece;
    otherwise the closed-form piece sum.
    """
    terms = _norm_terms(f, space, kind)
    if terms is None:
        return INF
    return ExtendedReal(math.fsum(w * math.log1p(s) for w, s in terms))


def is_member(f: StepFunction, space: MeasureSpace, kind: NormKind = EXTERNAL) -> bool:
    return log_norm(f, space, kind).is_finite


def distance(
    f: StepFunction, g: StepFunction, space: MeasureSpace, kind: NormKind = EXTERNAL
) -> ExtendedReal:
    return log_norm(add(f, scale(g, -1)), space, kind)


def _values_on_grid(pieces: Sequence[StepPiece], xs: np.ndarray) -> np.ndarray:
    """|f| sampled pointwise; zero in the gaps."""
    import numpy as np

    if not pieces:
        return np.zeros_like(xs)
    starts = np.array([p.start for p in pieces])
    stops = np.array([p.stop for p in pieces])
    mods = np.array([abs(p.coef) for p in pieces])
    idx = np.clip(np.searchsorted(starts, xs, side="right") - 1, 0, len(pieces) - 1)
    inside = (xs >= starts[idx]) & (xs < stops[idx])
    return np.where(inside, mods[idx], 0.0)


def _density_on_grid(pd: PiecewiseDensity, xs: np.ndarray) -> np.ndarray:
    import numpy as np

    starts = np.array([p.start for p in pd.pieces[1:]])
    vals = np.array([p.value for p in pd.pieces])
    return vals[np.searchsorted(starts, xs, side="right")]


def riemann_oracle(
    f: StepFunction, space: MeasureSpace, kind: NormKind, subdivisions: int
) -> float:
    """Midpoint Riemann sum of the selected norm integrand.

    `subdivisions` counts cells per unit length.  The partition is refined at
    the jump points of the integrand, so the sum is an independent pointwise
    check of the closed form rather than a victim of jump aliasing.  Supports
    must be bounded.
    """
    import numpy as np

    if subdivisions < 1:
        raise LogSpaceError("subdivisions must be >= 1")
    _check_function_fits(f, space)
    h1, h2 = _kind_weights(space, kind)
    total = 0.0
    for i, (comp, ps) in enumerate(zip(space.components, f.pieces)):
        if not ps:
            continue
        if math.isinf(ps[-1].stop):
            raise LogSpaceError("oracle requires bounded support")
        lo, hi = ps[0].start, ps[-1].stop
        cuts = {lo, hi}
        cuts.update(p.start for p in ps)
        cuts.update(p.stop for p in ps)
        for pd in [comp.density] + [d[i] for d in (h1, h2) if d is not None]:
            cuts.update(p.start for p in pd.pieces if lo < p.start < hi)
            cuts.update(p.stop for p in pd.pieces if lo < p.stop < hi)
        grid = sorted(cuts)
        mids_all, widths_all = [], []
        for u, v in zip(grid, grid[1:]):
            n = max(1, math.ceil((v - u) * subdivisions))
            w = (v - u) / n
            mids_all.append(u + (np.arange(n) + 0.5) * w)
            widths_all.append(np.full(n, w))
        xs = np.concatenate(mids_all)
        ws = np.concatenate(widths_all)
        vals = _values_on_grid(ps, xs)
        integrand = _density_on_grid(comp.density, xs)
        if h1 is not None:
            integrand = integrand * _density_on_grid(h1[i], xs)
        scaled = vals if h2 is None else _density_on_grid(h2[i], xs) * vals
        total += float(np.dot(ws, integrand * np.log1p(scaled)))
    return total
