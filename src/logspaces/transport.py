"""Measure-preserving transport between interval spaces and the isometries it carries.

The transport between two components (or two spaces) is the monotone map
matching cumulative measure: T = G^-1 o F for the cumulative measure
functions F, G of source and target.  With piecewise-constant densities it is
piecewise affine, so it is stored as finitely many affine pieces; unbounded
carriers contribute one unbounded tail piece.

A transport defers to the isometry decision: it is built only where
``decide_isometric_external`` calls the passports of the two spaces
isometric, and raises "no measure-preserving map" elsewhere.  It then
matches the concatenated mass lines of the two spaces, which also handles
two sides that split their mass over different component counts; the map
follows the running sums of the two lines.  A true verdict fails to build
in exactly two ways: "pairing incomplete", when a side holds two unbounded
components, and the overflow below.

A mass line is held flat, as parallel lists of cell masses, components,
positions and densities.  One walk over the merged mass cuts places each
cut on both lines inline and writes every affine piece once, through its
slots; a touching segment with the same slope and offset extends the piece
before it.  On the cell of the previous cut, a cut's position is the one
already computed there.  A slope or offset outside the float range (a
density ratio that overflows or underflows, or an offset that overflows) is
rejected as an overflow.

On step functions the transport acts by ``lift`` (coefficients ride along,
intervals move), and ``transport_set`` maps interval sets.  Both run one
walk per source component, ``_images``: ``merge_pieces`` runs the source
pieces against that component's affine pieces sorted by start, each cell's
image ends are computed inline by ``AffinePiece.image_of``'s rule, and each
piece's covered length is checked when the walk leaves it.  ``lift`` joins
touching images of one piece in the walk and sorts the joined cells into
the step-function builder.  An image that is empty in floats (shorter than
the target's float spacing) is dropped and its cell counts as unmapped:
within the 1e-9 cover sliver it is lost, beyond it both functions raise
"collapsed image".

``weighting_isometry`` divides by a density to move between the plain and
the density-weighted norms.  ``verify_isometry`` is the numerical end of
the story: seeded random step functions, norms on both sides, worst
deviation reported.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

from ._value import Value, integer, real
from .errors import LogSpaceError
from .extreal import ExtendedReal
from .measure import (
    Component,
    MeasurableSet,
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
    merge_pieces,
)
from .passports import _MEASURE_RTOL, build_passport, decide_isometric_external
from .render import format_real
from .stepfunctions import (
    NormKind,
    StepFunction,
    _as_space_density,
    _bounds,
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
        # the lift hands image ends to the step-function builder, which takes floats
        for name in self.__slots__:
            object.__setattr__(self, name, real(getattr(self, name), f"affine piece {name}"))
        if not self.start < self.stop:
            raise LogSpaceError("affine piece must satisfy start < stop")
        if not self.slope > 0.0:
            raise LogSpaceError("affine piece slope must be > 0")

    def image_of(self, x: float) -> float:
        """Map a point; endpoints snap to the stored image interval ends.

        ``_images`` applies this rule inline to the ends of every cell.
        """
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


# A space's concatenated mass line as parallel lists, one entry per density
# piece: mass interval [m0, m1), component, position interval [p0, p1) and
# density.
_MassLine = tuple[list[float], list[float], list[int], list[float], list[float], list[float]]


def _mass_line(space: MeasureSpace) -> tuple[_MassLine, float]:
    """The mass line of a space: bounded components first, one unbounded tail.

    Returns the line and its end, the running sum (+inf for an unbounded tail).
    """
    bounded = [(i, c) for i, c in enumerate(space.components) if c.carrier[1] < math.inf]
    unbounded = [(i, c) for i, c in enumerate(space.components) if c.carrier[1] == math.inf]
    if len(unbounded) > 1:
        raise LogSpaceError("pairing incomplete")
    m0s: list[float] = []
    m1s: list[float] = []
    comps: list[int] = []
    p0s: list[float] = []
    p1s: list[float] = []
    dens: list[float] = []
    m = 0.0
    for idx, comp in bounded + unbounded:
        for p in comp.density.pieces:
            start, stop, value = p.start, p.stop, p.value
            m0s.append(m)
            m = math.inf if stop == math.inf else m + (stop - start) * value
            m1s.append(m)
            comps.append(idx)
            p0s.append(start)
            p1s.append(stop)
            dens.append(value)
    return (m0s, m1s, comps, p0s, p1s, dens), m


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
        eps = _MEASURE_RTOL * pts[-1]
    else:
        end = min(src_end, dst_end)
        eps = _MEASURE_RTOL * end
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
    s_at = d_at = -1  # the cells on which p2 and q2, the positions of the last cut, lie
    for a, b in zip(cuts, cuts[1:]):
        # a cell with at most eps of mass left beyond a counts as exhausted;
        # merged cuts can sit one ulp before a genuine cell boundary
        while si < s_last and sm1[si] <= a + eps:
            si += 1
        while di < d_last and dm1[di] <= a + eps:
            di += 1
        # the positions of masses a and b in each cell, clamped and snapped to its
        # ends; on the cell of the last cut, a's position is that cut's
        if si == s_at:
            p1 = p2
        else:
            s_at = si
            sm, sn, sx, sy, sd = sm0[si], sm1[si], sp0[si], sp1[si], sdens[si]
            p1 = sx if a <= sm else sy if a >= sn else sx + (a - sm) / sd
        p2 = sx if b <= sm else sy if b >= sn else sx + (b - sm) / sd
        if di == d_at:
            q1 = q2
        else:
            d_at = di
            dm, dn, dx, dy, dd = dm0[di], dm1[di], dp0[di], dp1[di], ddens[di]
            q1 = dx if a <= dm else dy if a >= dn else dx + (a - dm) / dd
        q2 = dx if b <= dm else dy if b >= dn else dx + (b - dm) / dd
        if not p1 < p2:
            continue
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
        tmap = transport_between_spaces(MeasureSpace((src,)), MeasureSpace((dst,)))
        entries.extend([ComponentTransport(k, k, e.pieces) for e in tmap.entries])
    return TransportMap(tuple(entries), len(pairs), len(pairs))


def transport_between_spaces(src: MeasureSpace, dst: MeasureSpace) -> TransportMap:
    """Monotone transport between whole spaces the isometry decision calls isometric.

    The two sides may split their mass over different component counts; the
    concatenated mass lines take care of the pairing.
    """
    if not all(c.realizable for c in src.components + dst.components):
        raise LogSpaceError("symbolic component")
    if not decide_isometric_external(build_passport(src), build_passport(dst)).verdict:
        raise LogSpaceError("no measure-preserving map")
    src_line, sm = _mass_line(src)
    dst_line, dm = _mass_line(dst)
    entries = _match_mass_lines(src_line, sm, dst_line, dm)
    return TransportMap(tuple(entries), len(src.components), len(dst.components))


def _check_cover(p, covered: float, lost: float) -> None:
    """A piece must be mapped up to a 1e-9 relative sliver, an unbounded one out to +inf.

    `covered` is its mapped length and `lost` the length whose image is empty in floats.
    """
    length = p.stop - p.start
    if math.isinf(length):
        if not math.isinf(covered):
            raise LogSpaceError("unmapped support")
    elif length - covered > _COVER_RTOL * (1.0 + length):
        if lost and not length - covered - lost > _COVER_RTOL * (1.0 + length):
            raise LogSpaceError(
                f"collapsed image: [{p.start!r}, {p.stop!r}) maps to less than the target's float spacing"
            )
        raise LogSpaceError("unmapped support")


def _images(tmap: TransportMap, sources: dict[int, Sequence], join: bool = False) -> Iterator[tuple]:
    """(source piece, dst component, image start, image stop) for every cell of the sources.

    `sources` maps a source component to its sorted, disjoint pieces.  One
    walk per component merges them with that component's affine pieces,
    sorted by start, whose destinations sit in a parallel list.  A cell's
    image ends follow ``AffinePiece.image_of``.  With `join`, touching
    images of one piece in one target component are yielded as one.  An
    image that is empty in floats (shorter than the target's float spacing)
    is dropped, and its cell counts as unmapped.  Each piece's cover is
    checked by ``_check_cover`` when the walk leaves it.
    """
    by_src: dict[int, list[ComponentTransport]] = {}
    for entry in tmap.entries:
        by_src.setdefault(entry.src, []).append(entry)
    for comp, pieces in sources.items():
        entries = by_src.get(comp, [])
        affine = [t for e in entries for t in e.pieces]
        dsts = [e.dst for e in entries for _ in e.pieces]
        starts = [t.start for t in affine]
        if sorted(starts) != starts:  # only a map built by hand lists its pieces out of order
            order = sorted(range(len(affine)), key=starts.__getitem__)
            affine = [affine[k] for k in order]
            dsts = [dsts[k] for k in order]
        k = 0  # the position of the cell's affine piece
        p = None  # the piece being walked
        for lo, hi, (q, t) in merge_pieces(pieces, affine):
            if q is not p:
                if p is not None:
                    _check_cover(p, covered, lost)
                    if dst >= 0:
                        yield p, dst, begin, end
                # its mapped and collapsed length, summed cell by cell, and the
                # target component of the image held back (none yet)
                p, covered, lost, dst = q, 0.0, 0.0, -1
            if q is None or t is None:
                continue
            while affine[k] is not t:
                k += 1
            # image_of's rule: an end of the affine piece snaps to its stored image end
            y0 = t.image_start if lo == t.start else t.offset + t.slope * lo
            y1 = t.image_stop if hi == t.stop else t.offset + t.slope * hi
            if not y0 < y1:
                lost += hi - lo
                continue
            covered += hi - lo
            if join and dsts[k] == dst and y0 == end:
                end = y1
            else:
                if dst >= 0:
                    yield p, dst, begin, end
                dst, begin, end = dsts[k], y0, y1
        if p is not None:
            _check_cover(p, covered, lost)
            if dst >= 0:
                yield p, dst, begin, end


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
    Touching images of one piece in one target component are joined in the
    walk, so each piece usually reaches the builder once.
    """
    if len(f.pieces) != tmap.src_components:
        raise LogSpaceError("function/space mismatch")
    buckets: list[list[tuple[float, float, complex]]] = [[] for _ in range(tmap.dst_components)]
    sources = {comp: pieces for comp, pieces in enumerate(f.pieces) if pieces}
    for p, dst, lo, hi in _images(tmap, sources, join=True):
        buckets[dst].append((lo, hi, p.coef))
    for cells in buckets:
        cells.sort(key=_bounds)
    return _wrap(tuple([_from_cells(cells) for cells in buckets]))


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

    samples, seed = integer(samples, "sample count"), integer(seed, "seed")
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
