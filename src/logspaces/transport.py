"""Measure-preserving transport between interval spaces and the isometries it carries.

The transport between two components (or two spaces) is the monotone map
matching cumulative measure: T = G^-1 o F for the cumulative measure
functions F, G of source and target.  With piecewise-constant densities it is
piecewise affine, so it is stored as finitely many affine pieces; unbounded
carriers contribute one unbounded tail piece.  Spaces are matched weight
group by weight group along concatenated mass lines, which also handles a
group whose two sides split their mass over different component counts.
Two groups are matched only if their totals, the passport's compensated
sums, are equal as passport measures (1e-12 relative), so the construction
accepts exactly the groups the isometry decision does; the map itself
follows the running sums of the two mass lines.

A mass line is held flat, as parallel lists of cell masses, components,
positions and densities.  One walk over the merged mass cuts places each
cut on both lines inline and writes every affine piece once, through its
slots; a touching segment with the same slope and offset extends the piece
before it.  A slope or offset outside the float range (a density ratio
that overflows or underflows, or an offset that overflows) is rejected as
an overflow.

On step functions the transport acts by ``lift`` (coefficients ride along,
intervals move), and ``weighting_isometry`` divides by a density to move
between the plain and the density-weighted norms.  ``verify_isometry`` is the
numerical end of the story: seeded random step functions, norms on both
sides, worst deviation reported.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter
from typing import Sequence

from ._value import Value
from .errors import LogSpaceError
from .extreal import ExtendedReal, ext_sum
from .measure import (
    Component,
    MeasurableSet,
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
    _weight_groups,
    merge_pieces,
)
from .passports import _MEASURE_RTOL, _same_measure
from .render import format_real
from .stepfunctions import (
    NormKind,
    StepFunction,
    _as_space_density,
    _canonical,
    _from_cells,
    _wrap,
    log_norm,
)

_COVER_RTOL = 1e-9


class AffinePiece(Value):
    """y = offset + slope * x on [start, stop), landing on [image_start, image_stop)."""

    __slots__ = ("start", "stop", "slope", "offset", "image_start", "image_stop")
    start: float
    stop: float
    slope: float
    offset: float
    image_start: float
    image_stop: float

    def __post_init__(self):
        if not self.start < self.stop:
            raise LogSpaceError("affine piece must satisfy start < stop")
        if not self.slope > 0.0:
            raise LogSpaceError("affine piece slope must be > 0")

    def image_of(self, x: float) -> float:
        """Map a point; endpoints snap to the stored image interval ends."""
        if x == self.start:
            return self.image_start
        if x == self.stop:
            return self.image_stop
        return self.offset + self.slope * x


# the mass-line walk writes each piece through its slots, past __init__, so
# that a piece it has checked is neither checked nor built a second time
_new = object.__new__
_set_start = AffinePiece.start.__set__
_set_stop = AffinePiece.stop.__set__
_set_slope = AffinePiece.slope.__set__
_set_offset = AffinePiece.offset.__set__
_set_image_start = AffinePiece.image_start.__set__
_set_image_stop = AffinePiece.image_stop.__set__


class ComponentTransport(Value):
    src: int
    dst: int
    pieces: tuple[AffinePiece, ...]


class TransportMap(Value):
    entries: tuple[ComponentTransport, ...]
    src_components: int = 1
    dst_components: int = 1


class IsometryReport(Value):
    samples: int
    max_abs_deviation: float
    worst_case: str

    def __post_init__(self):
        if self.max_abs_deviation < 0.0:
            raise LogSpaceError("deviation must be >= 0")


# One weight group's concatenated mass line as parallel lists, one entry per
# density piece: mass interval [m0, m1), component, position interval
# [p0, p1) and density.
_MassLine = tuple[list[float], list[float], list[int], list[float], list[float], list[float]]


def _group_cells(items: Sequence[tuple[int, Component]]) -> tuple[_MassLine, float, float]:
    """The mass line of one weight group: finite components first, one unbounded tail.

    Returns the line, its end (the running sum), and the group's total as
    the passport computes it, +inf for an unbounded group.
    """
    masses = [c.measure() for _, c in items]
    finite = [item for item, mass in zip(items, masses) if mass.is_finite]
    unbounded = [item for item, mass in zip(items, masses) if not mass.is_finite]
    if len(unbounded) > 1:
        raise LogSpaceError("pairing incomplete")
    # the passport's group total, which also rejects an overflowing bounded
    # part rather than match it as an infinite mass line
    total = ext_sum(masses).value
    m0s: list[float] = []
    m1s: list[float] = []
    comps: list[int] = []
    p0s: list[float] = []
    p1s: list[float] = []
    dens: list[float] = []
    m = 0.0
    for idx, comp in finite + unbounded:
        for p in comp.density.pieces:
            start, stop, value = p.start, p.stop, p.value
            m0s.append(m)
            m = math.inf if stop == math.inf else m + (stop - start) * value
            m1s.append(m)
            comps.append(idx)
            p0s.append(start)
            p1s.append(stop)
            dens.append(value)
    return (m0s, m1s, comps, p0s, p1s, dens), m, total


def _match_groups(
    src: Sequence[tuple[int, Component]], dst: Sequence[tuple[int, Component]]
) -> list[ComponentTransport]:
    """The transport between two weight groups, if the passport calls their totals equal.

    A total that underflows to 0 is rejected as the passport rejects it.
    """
    src_line, sm, src_total = _group_cells(src)
    dst_line, dm, dst_total = _group_cells(dst)
    for total in (src_total, dst_total):
        if not total > 0.0:
            raise LogSpaceError(f"finite measures must be positive and finite, got {total!r}")
    if not _same_measure(src_total, dst_total):
        raise LogSpaceError("no measure-preserving map")
    return _match_mass_lines(src_line, sm, dst_line, dm)


def _match_mass_lines(
    src: _MassLine, src_end: float, dst: _MassLine, dst_end: float
) -> list[ComponentTransport]:
    """Affine pieces matching equal mass on the two lines, grouped by component pair.

    The mass cuts of both lines, closer than eps merged, split the lines into
    segments; each segment maps the source cell it lies in onto the target
    cell, and touching segments of one pair with one affine law are joined.
    """
    inf = math.inf
    sm0, sm1, scomp, sp0, sp1, sdens = src
    dm0, dm1, dcomp, dp0, dp1, ddens = dst
    pts = sorted(sm0 + dm0)
    if src_end == inf:
        end = inf
        eps = _MEASURE_RTOL * (1.0 + pts[-1])
    else:
        end = min(src_end, dst_end)
        eps = _MEASURE_RTOL * (1.0 + end)
        pts = [m for m in pts if m < end - eps]
    cuts = [pts[0]]
    for m in pts[1:]:
        if m - cuts[-1] > eps:
            cuts.append(m)
    cuts.append(end)

    entries: list[tuple[int, int, list[AffinePiece]]] = []  # one run per (src, dst) pair
    last = None  # the run's last piece, which a touching segment of the same law extends
    s_prev = d_prev = -1
    s_last, d_last = len(sm0) - 1, len(dm0) - 1
    si = di = 0
    for a, b in zip(cuts, cuts[1:]):
        # a cell with at most eps of mass left beyond a counts as exhausted;
        # merged cuts can sit one ulp before a genuine cell boundary
        while si < s_last and sm1[si] <= a + eps:
            si += 1
        while di < d_last and dm1[di] <= a + eps:
            di += 1
        # the positions of masses a and b in each cell, clamped and snapped to its ends
        m0, m1, x0, x1, sd = sm0[si], sm1[si], sp0[si], sp1[si], sdens[si]
        p1 = x0 if a <= m0 else x1 if a >= m1 else x0 + (a - m0) / sd
        p2 = x0 if b <= m0 else x1 if b >= m1 else x0 + (b - m0) / sd
        if not p1 < p2:
            continue
        m0, m1, x0, x1, dd = dm0[di], dm1[di], dp0[di], dp1[di], ddens[di]
        q1 = x0 if a <= m0 else x1 if a >= m1 else x0 + (a - m0) / dd
        q2 = x0 if b <= m0 else x1 if b >= m1 else x0 + (b - m0) / dd
        slope = sd / dd
        offset = q1 - slope * p1
        if not (0.0 < slope < inf and -inf < offset < inf):
            raise LogSpaceError(
                f"transport slope or offset overflows a float (slope {slope!r}, offset {offset!r})"
            )
        sc, dc = scomp[si], dcomp[di]
        if sc != s_prev or dc != d_prev:
            s_prev, d_prev = sc, dc
            run: list[AffinePiece] = []
            entries.append((sc, dc, run))
        elif last.stop == p1 and last.slope == slope and last.offset == offset:
            _set_stop(last, p2)
            _set_image_stop(last, q2)
            continue
        last = _new(AffinePiece)
        _set_start(last, p1)
        _set_stop(last, p2)
        _set_slope(last, slope)
        _set_offset(last, offset)
        _set_image_start(last, q1)
        _set_image_stop(last, q2)
        run.append(last)
    return [ComponentTransport(sc, dc, tuple(run)) for sc, dc, run in entries]


def monotone_transport(src: Component, dst: Component) -> TransportMap:
    """Cumulative-measure matching between two components of equal total measure."""
    return glue_transports([(src, dst)])


def glue_transports(pairs: Sequence[tuple[Component, Component]]) -> TransportMap:
    """Componentwise gluing of monotone transports; pair k maps component k to k."""
    pairs = list(pairs)
    if not pairs or any(len(p) != 2 for p in pairs):
        raise LogSpaceError("pairing incomplete")
    entries: list[ComponentTransport] = []
    for k, (src, dst) in enumerate(pairs):
        if not (src.realizable and dst.realizable):
            raise LogSpaceError("symbolic component")
        entries.extend(_match_groups([(k, src)], [(k, dst)]))
    return TransportMap(tuple(entries), len(pairs), len(pairs))


def transport_between_spaces(src: MeasureSpace, dst: MeasureSpace) -> TransportMap:
    """Monotone transport between whole spaces, matched weight group by weight group.

    Within a group the two sides may split their mass over different component
    counts; the concatenated mass lines take care of the pairing.
    """
    if not all(c.realizable for c in src.components + dst.components):
        raise LogSpaceError("symbolic component")
    src_groups = _weight_groups(src)
    dst_groups = _weight_groups(dst)
    if src_groups.keys() != dst_groups.keys():
        raise LogSpaceError("no measure-preserving map")
    entries: list[ComponentTransport] = []
    for weight, items in src_groups.items():
        entries.extend(_match_groups(items, dst_groups[weight]))
    return TransportMap(tuple(entries), len(src.components), len(dst.components))


def _images(tmap: TransportMap, sources: dict[int, Sequence]) -> list[tuple]:
    """(source piece, dst component, image interval) for every cell of the sources.

    `sources` maps a source component to its sorted, disjoint pieces, which
    are merged with that component's affine pieces sorted by start.  A
    bounded piece must be covered up to a 1e-9 relative sliver; an unbounded
    one must be covered out to +inf.
    """
    by_src: dict[int, list[ComponentTransport]] = {}
    for entry in tmap.entries:
        by_src.setdefault(entry.src, []).append(entry)
    images = []
    for comp, pieces in sources.items():
        entries = by_src.get(comp, [])
        dst_at = {t.start: e.dst for e in entries for t in e.pieces}
        affine = sorted([t for e in entries for t in e.pieces], key=attrgetter("start"))
        covered = {p.start: 0.0 for p in pieces}  # mapped source length per piece
        for lo, hi, (p, t) in merge_pieces(pieces, affine):
            if p is not None and t is not None:
                images.append((p, dst_at[t.start], t.image_of(lo), t.image_of(hi)))
                covered[p.start] += hi - lo
        for p in pieces:
            length, mapped = p.stop - p.start, covered[p.start]
            unmapped_tail = math.isinf(length) and not math.isinf(mapped)
            if unmapped_tail or length - mapped > _COVER_RTOL * (1.0 + length):
                raise LogSpaceError("unmapped support")
    return images


def transport_set(tmap: TransportMap, mset: MeasurableSet) -> MeasurableSet:
    """Image of an interval set under the transport."""
    # a slice is the plainest object with a start and a stop: one part [a, b)
    sources: dict[int, list[slice]] = {}
    for comp, a, b in mset.parts:
        sources.setdefault(comp, []).append(slice(a, b))
    return MeasurableSet(tuple([(dst, y0, y1) for _, dst, y0, y1 in _images(tmap, sources)]))


def lift(tmap: TransportMap, f: StepFunction) -> StepFunction:
    """Carry a step function along the transport: (lift f)(y) = f(T^-1(y)).

    Coefficients are untouched; pieces move to their image intervals.  The
    support must lie in the mapped region up to a 1e-9 relative sliver.
    """
    if len(f.pieces) != tmap.src_components:
        raise LogSpaceError("function/space mismatch")
    buckets: list[list[tuple[float, float, complex]]] = [[] for _ in range(tmap.dst_components)]
    sources = {comp: pieces for comp, pieces in enumerate(f.pieces) if pieces}
    for p, dst, lo, hi in _images(tmap, sources):
        if lo < hi:
            buckets[dst].append((lo, hi, p.coef))
    return _wrap(tuple([_canonical(b) for b in buckets]))


def weighting_isometry(f: StepFunction, h: SpaceDensity | PiecewiseDensity) -> StepFunction:
    """U(f) = f / h; turns the plain norm of f into the h-weighted norm of U(f).

    Every piece of f must lie in the carrier of its component's h.
    """
    h = _as_space_density(h)
    if len(h) != len(f.pieces):
        raise LogSpaceError("kind/space mismatch")
    out = []
    for hc, pieces in zip(h, f.pieces):
        raw = []
        for lo, hi, (p, w) in merge_pieces(pieces, hc.pieces):
            if p is None:
                continue
            if w is None:
                raise LogSpaceError("out of carrier")
            raw.append((lo, hi, p.coef / w.value))
        out.append(_from_cells(raw))
    return _wrap(tuple(out))


def _deviation(a: ExtendedReal, b: ExtendedReal) -> float:
    if a.is_finite and b.is_finite:
        return abs(a.value - b.value)
    return 0.0 if a == b else math.inf


def verify_isometry(
    transform: TransportMap | SpaceDensity | PiecewiseDensity,
    src_space: MeasureSpace,
    src_kind: NormKind,
    dst_space: MeasureSpace,
    dst_kind: NormKind,
    samples: int,
    seed: int,
) -> IsometryReport:
    """Worst norm deviation across seeded random step functions.

    `transform` is either a TransportMap (lift) or a density (weighting).
    Sample k draws from its own stream derived from (seed, k), so the report
    does not depend on evaluation order.
    """
    from .sampling import random_step_function

    if samples < 1:
        raise LogSpaceError("sample count must be >= 1")
    worst = -1.0
    worst_case = ""
    for k in range(samples):
        rng = random.Random(seed * 1_000_003 + k)
        f = random_step_function(rng, src_space)
        if isinstance(transform, TransportMap):
            g = lift(transform, f)
        else:
            g = weighting_isometry(f, transform)
        n_src = log_norm(f, src_space, src_kind)
        n_dst = log_norm(g, dst_space, dst_kind)
        dev = _deviation(n_src, n_dst)
        if dev > worst:
            worst = dev
            worst_case = f"sample {k}: source norm {n_src.value!r}, image norm {n_dst.value!r}"
    return IsometryReport(samples, worst, worst_case)


def render_transport(tmap: TransportMap) -> str:
    """One header line per component pair, one line per affine piece."""
    lines = []
    for entry in tmap.entries:
        lines.append(f"component {entry.src} -> {entry.dst}")
        for p in entry.pieces:
            lines.append(
                f"src=[{format_real(p.start)},{format_real(p.stop)})"
                f" slope={format_real(p.slope)} offset={format_real(p.offset)}"
            )
    return "\n".join(lines)
