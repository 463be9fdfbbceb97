"""Measure-preserving transport between interval spaces and the isometries it carries.

The transport between two components (or two spaces) is the monotone map
matching cumulative measure: T = G^-1 o F for the cumulative measure
functions F, G of source and target.  With piecewise-constant densities it is
piecewise affine, so it is stored as finitely many affine pieces; unbounded
carriers contribute one unbounded tail piece.  The two sides may split their
mass over different component counts.

A transport defers to the isometry decision: it is built only where
``decide_isometric_external`` calls the passports of the two spaces
isometric, and raises "no measure-preserving map" elsewhere.  A true verdict
fails to build in exactly three ways: "pairing incomplete", when a side
holds two unbounded components; a slope or offset outside the float range,
rejected as an overflow; and a cut whose position rounds past its cell's
end, so that the next piece or image starts before it, rejected by the
order check of ``_store``, which every map passes.  A map built by hand is
checked as it is built, so that it takes the form the construction gives:
its component indexes are ints within its two component counts; each
source component's affine pieces, read in entry order, ascend without
overlap, and so do the images in each target component; and no piece's
image is reversed.  A map is stored as columns, one set per source
component holding its pieces' five fields (the offset is derived) and
targets, with each entry a range of them; the construction appends to
these columns and builds no record.  ``lift``,
``transport_set``, ``render_transport``, ``==`` and ``hash`` read the
columns, and ``entries`` shows them as records, built on first read.

On step functions the transport acts by ``lift`` (coefficients ride along,
intervals move), and ``transport_set`` maps interval sets.  Both require
every piece to be mapped up to a 1e-9 relative sliver of its length; past
that they raise "collapsed image" where the loss is images shorter than the
target's float spacing, and "unmapped support" otherwise.
``weighting_isometry`` divides by a density to move between the plain and
the density-weighted norms.  ``verify_isometry(transform, src_space,
dst_space, samples, seed)`` is the numerical end of the story: seeded
random step functions, norms on both sides, worst deviation reported.
Each transform names its two norms: a map carries the External norm onto
the External norm, and a density h the External norm onto Internal(h).
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Iterator, Sequence

from ._value import Value, finite_real, integer, real, records, sequence
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
    EXTERNAL,
    Internal,
    StepFunction,
    _as_space_density,
    _bounds,
    _from_cells,
    _wrap,
    log_norm,
)

_COVER_RTOL = 1e-9


class AffinePiece(Value):
    """y = offset + slope * x on [start, stop), landing on [image_start, image_stop); the offset is derived."""

    __slots__ = ("start", "stop", "slope", "image_start", "image_stop")
    start: float
    stop: float
    slope: float
    image_start: float
    image_stop: float

    def __post_init__(self):
        # the lift hands image ends to the step-function builder, which takes
        # floats; only the ends of an unbounded tail piece may be +inf
        for name in ("start", "slope", "image_start"):
            object.__setattr__(self, name, finite_real(getattr(self, name), f"affine piece {name}"))
        finite_real(self.offset, "affine piece offset")  # slope * start may overflow
        for name in ("stop", "image_stop"):
            object.__setattr__(self, name, real(getattr(self, name), f"affine piece {name}"))
        if not self.start < self.stop:  # a NaN stop fails it too
            raise LogSpaceError("affine piece must satisfy start < stop")
        if not self.slope > 0.0:
            raise LogSpaceError("affine piece slope must be > 0")
        # equal ends are legal: a built map holds images that collapse in floats
        if not self.image_start <= self.image_stop:  # a NaN image stop fails it too
            raise LogSpaceError(
                f"affine piece must satisfy image_start <= image_stop, got [{self.image_start}, {self.image_stop})"
            )

    @property
    def offset(self) -> float:
        return self.image_start - self.slope * self.start

    def __repr__(self):
        # the offset sits between slope and image_start, where map reprs and their digests expect it
        names = ("start", "stop", "slope", "offset", "image_start", "image_stop")
        return f"AffinePiece({', '.join([f'{n}={getattr(self, n)!r}' for n in names])})"

    def image_of(self, x: float) -> float:
        """Map a point; endpoints snap to the stored image interval ends.

        ``_images`` applies this rule inline to the ends of every cell.
        """
        if x == self.start:
            return self.image_start
        if x == self.stop:
            return self.image_stop
        return self.offset + self.slope * x


class ComponentTransport(Value):
    """The affine pieces that map source component `src` into target component `dst`."""

    src: int
    dst: int
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        object.__setattr__(self, "src", integer(self.src, "component index"))
        object.__setattr__(self, "dst", integer(self.dst, "component index"))
        object.__setattr__(self, "pieces", records(self.pieces, AffinePiece, "transport pieces"))


class TransportMap(Value):
    """Entries between a source of `src_components` components and a target of `dst_components`.

    The map is stored as columns: ``columns[k]`` holds source component k's
    affine pieces, in entry order, as six tuples (their starts, stops,
    slopes, image starts, image stops and target components), and ``runs``
    holds each entry as (src, dst, lo, hi), its pieces being those at
    lo..hi-1 of its source's columns.  Every operation reads only these,
    and ``==`` and ``hash`` run over them.  ``entries``, the first field,
    shows the same pieces as ``ComponentTransport`` and ``AffinePiece``
    records; it is built on its first read and kept, and the repr, pickles
    and copies go through it.  The constructor takes the entries, checks
    their component indexes and builds the columns from them; ``_store``
    checks their order, as it does for every map, so a map built by hand
    equals the one the construction builds.
    """

    entries: tuple[ComponentTransport, ...]
    src_components: int = 1
    dst_components: int = 1

    def __post_init__(self):
        for name in ("src_components", "dst_components"):
            n = integer(getattr(self, name), name)
            if n < 1:
                raise LogSpaceError(f"{name} must be >= 1, got {n}")
            object.__setattr__(self, name, n)
        entries = records(self.entries, ComponentTransport, "transport entries")
        groups = [([], [], [], [], []) for _ in range(self.src_components)]
        runs = []
        for e in entries:
            for i, count in ((e.src, self.src_components), (e.dst, self.dst_components)):
                if not 0 <= i < count:
                    raise LogSpaceError(f"component index {i} out of range")
            group = groups[e.src]
            lo = len(group[0])
            for column, name in zip(group, AffinePiece.__slots__):  # a map's first five columns
                column.extend([getattr(p, name) for p in e.pieces])
            runs.append((e.src, e.dst, lo, len(group[0])))
        _store(self, groups, runs, self.dst_components)
        self.__dict__["entries"] = entries

    # not a property: the value lives in the instance dict, where the
    # constructor stores a hand-built map's checked entries and later reads
    # find it without a call
    @cached_property
    def entries(self) -> tuple[ComponentTransport, ...]:
        return _entries_view(self)

    def __eq__(self, other):
        if other.__class__ is not TransportMap:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        # src_components is len(columns)
        return self.columns, self.runs, self.dst_components


def _store(tmap: TransportMap, groups: list, runs: list, dst_components: int) -> TransportMap:
    """Check a map's order, then write its columns into `tmap`: each source's five piece columns and its targets.

    This is every map's one order check: read in entry order, each source's
    pieces must ascend without overlap, and so must the images in each
    target.  The constructor calls it, and so do the construction and
    ``glue_transports`` on a bare map, past the constructor.
    """
    targets: list[list[int]] = [[] for _ in groups]
    image_ends: dict[int, float] = {}  # each target's last image stop
    for src, dst, lo, hi in runs:
        starts, stops, _, image_starts, image_stops = groups[src]
        end = stops[lo - 1] if lo else -math.inf
        image_end = image_ends.get(dst, -math.inf)
        for i in range(lo, hi):
            if starts[i] < end:
                raise LogSpaceError(f"transport pieces of component {src} overlap or are out of order")
            if image_starts[i] < image_end:
                raise LogSpaceError(f"transport images in component {dst} overlap or are out of order")
            end, image_end = stops[i], image_stops[i]
        image_ends[dst] = image_end
        targets[src] += [dst] * (hi - lo)
    columns = tuple([tuple(map(tuple, group)) + (tuple(t),) for group, t in zip(groups, targets)])
    tmap.__dict__.update(
        columns=columns, runs=tuple(runs), src_components=len(groups), dst_components=dst_components
    )
    return tmap


def _entries_view(tmap: TransportMap) -> tuple[ComponentTransport, ...]:
    """The ``ComponentTransport`` records of a map's runs, with their ``AffinePiece`` records."""
    out = []
    for src, dst, lo, hi in tmap.runs:
        fields = [column[lo:hi] for column in tmap.columns[src][:5]]
        out.append(ComponentTransport(src, dst, tuple(map(AffinePiece, *fields))))
    return tuple(out)


class IsometryReport(Value):
    samples: int
    max_abs_deviation: float
    worst_case: str

    def __post_init__(self):
        object.__setattr__(self, "samples", integer(self.samples, "sample count"))
        dev = real(self.max_abs_deviation, "deviation")
        if not dev >= 0.0:  # NaN included
            raise LogSpaceError("deviation must be >= 0")
        object.__setattr__(self, "max_abs_deviation", dev)


# A space's concatenated mass line is a list of cells, one per density piece,
# each a tuple (m0, m1, component, p0, p1, density): mass interval [m0, m1),
# component, position interval [p0, p1) and density.
_Cell = tuple[float, float, int, float, float, float]


def _mass_line(space: MeasureSpace) -> tuple[list[_Cell], float]:
    """The mass line of a space: bounded components first, one unbounded tail.

    Returns the line and its end, the running sum (+inf for an unbounded tail).
    """
    bounded = [(i, c) for i, c in enumerate(space.components) if c.carrier[1] < math.inf]
    unbounded = [(i, c) for i, c in enumerate(space.components) if c.carrier[1] == math.inf]
    if len(unbounded) > 1:
        raise LogSpaceError("pairing incomplete")
    line: list[_Cell] = []
    m = 0.0
    for idx, comp in bounded + unbounded:
        for p in comp.density.pieces:
            start, stop, value = p.start, p.stop, p.value
            m0 = m
            m = math.inf if stop == math.inf else m + (stop - start) * value
            line.append((m0, m, idx, start, stop, value))
    return line, m


def _match_mass_lines(src: MeasureSpace, dst: MeasureSpace) -> TransportMap:
    """Affine pieces matching equal mass on the two spaces' lines, grouped by component pair.

    The mass cuts of both lines, closer than eps merged, split the lines into
    segments; each segment maps the source cell it lies in onto the target
    cell, and touching segments of one pair with one affine law are joined.
    One pass over the sorted cell starts keeps the cuts below end - eps.
    One walk over the cuts places each cut on both lines inline and appends
    every affine piece once to its source's columns; a line's cursor moves,
    and its cell is unpacked, only when the cut leaves at most eps of that
    cell's mass, and otherwise a cut's position is the one already computed
    there.  A slope or offset outside the float range (a density ratio that
    overflows or underflows, or an offset that overflows) is rejected as an
    overflow at once, and ``_store`` checks the pieces' order after the walk.
    """
    inf = math.inf
    sline, src_end = _mass_line(src)
    dline, dst_end = _mass_line(dst)
    pts = sorted([cell[0] for cell in sline + dline])
    # an unbounded source line pairs with an unbounded target line, and
    # every cut of a decided pair is finite, so an unbounded end keeps them all
    end = min(src_end, dst_end)
    eps = _MEASURE_RTOL * (pts[-1] if end == inf else end)
    limit = end - eps
    cut = pts[0]
    cuts = [cut]
    for m in pts:
        if not m < limit:
            break
        if m - cut > eps:
            cut = m
            cuts.append(m)
    cuts.append(end)

    groups = [([], [], [], [], []) for _ in src.components]  # each source's piece columns
    runs: list[tuple[int, ...]] = []  # one (src, dst, lo, hi) run per component pair, hi set when it ends
    # the last piece's stop, slope and offset, which a touching piece of one law extends
    open_stop = open_slope = open_offset = 0.0
    s_prev = d_prev = -1
    s_last, d_last = len(sline) - 1, len(dline) - 1
    si = di = 0
    # the first cut is mass 0.0, the start of each line's first cell, where
    # its positions p2 and q2 are the cells' first positions
    sm, sn, sc, sx, sy, sd = sline[0]
    dm, dn, dc, dx, dy, dd = dline[0]
    p2, q2 = sx, dx
    for a, b in zip(cuts, cuts[1:]):
        # a cell with at most eps of mass left beyond a counts as exhausted;
        # merged cuts can sit one ulp before a genuine cell boundary.  On the
        # cell of the last cut, a's position is that cut's.
        reach = a + eps
        if sn <= reach and si < s_last:
            si += 1
            while si < s_last and sline[si][1] <= reach:
                si += 1
            sm, sn, sc, sx, sy, sd = sline[si]
            p1 = sx if a <= sm else sy if a >= sn else sx + (a - sm) / sd
        else:
            p1 = p2
        # the positions of mass b in each cell, clamped and snapped to its ends
        p2 = sx if b <= sm else sy if b >= sn else sx + (b - sm) / sd
        if dn <= reach and di < d_last:
            di += 1
            while di < d_last and dline[di][1] <= reach:
                di += 1
            dm, dn, dc, dx, dy, dd = dline[di]
            q1 = dx if a <= dm else dy if a >= dn else dx + (a - dm) / dd
        else:
            q1 = q2
        q2 = dx if b <= dm else dy if b >= dn else dx + (b - dm) / dd
        if not p1 < p2:
            continue
        slope = sd / dd
        offset = q1 - slope * p1
        if not (0.0 < slope < inf and -inf < offset < inf):
            raise LogSpaceError(
                f"transport slope or offset overflows a float (slope {slope!r}, offset {offset!r})"
            )
        if sc != s_prev or dc != d_prev:
            if runs:
                runs[-1] += (len(starts),)
            s_prev, d_prev = sc, dc
            starts, stops, slopes, image_starts, image_stops = groups[sc]
            runs.append((sc, dc, len(starts)))
        elif open_stop == p1 and open_slope == slope and open_offset == offset:
            stops[-1] = open_stop = p2
            image_stops[-1] = q2
            continue
        starts.append(p1)
        stops.append(p2)
        slopes.append(slope)
        image_starts.append(q1)
        image_stops.append(q2)
        open_stop, open_slope, open_offset = p2, slope, offset
    if runs:
        runs[-1] += (len(starts),)
    return _store(object.__new__(TransportMap), groups, runs, len(dst.components))


def monotone_transport(src: Component, dst: Component) -> TransportMap:
    """Cumulative-measure matching between two components of equal total measure."""
    return glue_transports([(src, dst)])


def glue_transports(pairs: Sequence[tuple[Component, Component]]) -> TransportMap:
    """Componentwise gluing of monotone transports; pair k maps component k to k."""
    pairs = sequence(pairs, "transport pairs", "a sequence of (source, target) component pairs")
    if not pairs:
        raise LogSpaceError("pairing incomplete")
    groups, runs = [], []
    for k, pair in enumerate(pairs):
        try:
            src, dst = pair
        except (TypeError, ValueError):
            raise LogSpaceError(
                f"transport pair must be a (source, target) component pair, got {pair!r}"
            ) from None
        tmap = transport_between_spaces(MeasureSpace((src,)), MeasureSpace((dst,)))
        # one source component, whose runs all map into target 0: relabel both as k
        groups.append(tmap.columns[0][:5])
        runs.extend([(k, k, lo, hi) for _, _, lo, hi in tmap.runs])
    return _store(object.__new__(TransportMap), groups, runs, len(pairs))


def transport_between_spaces(src: MeasureSpace, dst: MeasureSpace) -> TransportMap:
    """Monotone transport between whole spaces the isometry decision calls isometric.

    The two sides may split their mass over different component counts; the
    concatenated mass lines take care of the pairing.
    """
    if not all(c.realizable for c in src.components + dst.components):
        raise LogSpaceError("symbolic component")
    if not decide_isometric_external(build_passport(src), build_passport(dst)).verdict:
        raise LogSpaceError("no measure-preserving map")
    return _match_mass_lines(src, dst)


def _check_cover(start: float, stop: float, covered: float, lost: float) -> None:
    """A piece [start, stop) must be mapped up to a 1e-9 relative sliver, an unbounded one out to +inf.

    `covered` is its mapped length and `lost` the length whose image is empty
    in floats.  Within the sliver a lost length is dropped; beyond it, a
    piece that the lost length alone leaves short raises "collapsed image",
    any other "unmapped support".
    """
    length = stop - start
    if math.isinf(length):
        if not math.isinf(covered):
            raise LogSpaceError("unmapped support")
    elif length - covered > _COVER_RTOL * (1.0 + length):
        if lost and not length - covered - lost > _COVER_RTOL * (1.0 + length):
            raise LogSpaceError(
                f"collapsed image: [{start!r}, {stop!r}) maps to less than the target's float spacing"
            )
        raise LogSpaceError("unmapped support")


def _images(tmap: TransportMap, comp: int, pieces: Sequence, join: bool = False) -> Iterator[tuple]:
    """(piece index, dst component, image start, image stop) for every cell of one source's pieces.

    `pieces` holds the starts and stops of source component `comp`'s sorted,
    disjoint pieces as its first two columns.  One walk merges them with
    that component's affine pieces, read from the map's columns by index.
    A cell's image ends follow ``AffinePiece.image_of``.
    With `join`, touching images of one piece in one target component are
    yielded as one.  An image that is empty in floats (shorter than the
    target's float spacing) is dropped, and its cell counts as unmapped.
    Each piece's cover is checked by ``_check_cover`` when the walk leaves
    it.
    """
    affine = tmap.columns[comp]
    starts, stops, slopes, image_starts, image_stops, dsts = affine
    p = None  # the index of the piece being walked
    for lo, hi, (q, k) in merge_pieces(pieces, affine):
        if q != p:
            if p is not None:
                _check_cover(pieces[0][p], pieces[1][p], covered, lost)
                if dst >= 0:
                    yield p, dst, begin, end
            # its mapped and collapsed length, summed cell by cell, and the
            # target component of the image held back (none yet)
            p, covered, lost, dst = q, 0.0, 0.0, -1
        if q is None or k is None:
            continue
        # image_of's rule: an end snaps to its stored image end, a point inside maps by the law
        y0 = image_starts[k] if lo == starts[k] else image_starts[k] - slopes[k] * starts[k] + slopes[k] * lo
        y1 = image_stops[k] if hi == stops[k] else image_starts[k] - slopes[k] * starts[k] + slopes[k] * hi
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
        _check_cover(pieces[0][p], pieces[1][p], covered, lost)
        if dst >= 0:
            yield p, dst, begin, end


def transport_set(tmap: TransportMap, mset: MeasurableSet) -> MeasurableSet:
    """Image of an interval set under the transport."""
    sources: dict[int, tuple[list[float], list[float]]] = {}  # each component's part starts and stops
    n = tmap.src_components
    for comp, a, b in mset.parts:  # sorted, so each component's parts come together
        if not 0 <= comp < n:
            raise LogSpaceError(f"component index {comp} out of range")
        if comp not in sources:
            starts, stops = sources[comp] = ([], [])
        starts.append(a)
        stops.append(b)
    images = [(dst, y0, y1) for comp, parts in sources.items() for _, dst, y0, y1 in _images(tmap, comp, parts)]
    return MeasurableSet(tuple(images))


def lift(tmap: TransportMap, f: StepFunction) -> StepFunction:
    """Carry a step function along the transport: (lift f)(y) = f(T^-1(y)).

    Coefficients are untouched; pieces move to their image intervals.  The
    support must lie in the mapped region up to a 1e-9 relative sliver.
    Touching images of one piece in one target component are joined in the
    walk, so each piece usually reaches the builder once.
    """
    if len(f.columns) != tmap.src_components:
        raise LogSpaceError("function/space mismatch")
    buckets: list[list[tuple[float, float, complex]]] = [[] for _ in range(tmap.dst_components)]
    for comp, col in enumerate(f.columns):
        if col[0]:
            coefs = col[2]
            for i, dst, lo, hi in _images(tmap, comp, col, join=True):
                buckets[dst].append((lo, hi, coefs[i]))
    for cells in buckets:
        cells.sort(key=_bounds)
    return _wrap(tuple([_from_cells(cells) for cells in buckets]))


def weighting_isometry(f: StepFunction, h: SpaceDensity | PiecewiseDensity) -> StepFunction:
    """U(f) = f / h; turns the plain norm of f into the h-weighted norm of U(f).

    Every piece of f must lie in the carrier of its component's h.
    """
    h = _as_space_density(h, "weighting density")
    if len(h) != len(f.columns):
        raise LogSpaceError("kind/space mismatch")
    out = []
    for hc, col in zip(h, f.columns):
        dens, coefs = hc.pieces, col[2]
        raw = []
        for lo, hi, (i, j) in merge_pieces(col, ([p.start for p in dens], [p.stop for p in dens])):
            if i is None:
                continue
            if j is None:
                raise LogSpaceError("out of carrier")
            raw.append((lo, hi, coefs[i] / dens[j].value))
        out.append(_from_cells(raw))
    return _wrap(tuple(out))


def _deviation(a: ExtendedReal, b: ExtendedReal) -> float:
    if a.is_finite and b.is_finite:
        return abs(a.value - b.value)
    return 0.0 if a == b else math.inf


def verify_isometry(
    transform: TransportMap | SpaceDensity | PiecewiseDensity,
    src_space: MeasureSpace,
    dst_space: MeasureSpace,
    samples: int,
    seed: int,
) -> IsometryReport:
    """Worst norm deviation across seeded random step functions.

    The transform names the two norms it preserves.  A TransportMap is
    checked through ``lift``, from the External norm on `src_space` to the
    External norm on `dst_space`; a density h (one PiecewiseDensity, or one
    per component) through ``weighting_isometry``, from the External norm
    to Internal(h).  Sample k draws from its own stream derived from
    (seed, k), so the report does not depend on evaluation order.
    """
    from .sampling import random_step_function

    samples, seed = integer(samples, "sample count"), integer(seed, "seed")
    if samples < 1:
        raise LogSpaceError("sample count must be >= 1")
    if isinstance(transform, TransportMap):
        carry, dst_kind = (lambda f: lift(transform, f)), EXTERNAL
    else:
        h = _as_space_density(transform, "weighting density")
        carry, dst_kind = (lambda f: weighting_isometry(f, h)), Internal(h)
    worst = -1.0
    worst_case = ""
    for k in range(samples):
        rng = random.Random(seed * 1_000_003 + k)
        f = random_step_function(rng, src_space)
        n_src = log_norm(f, src_space)
        n_dst = log_norm(carry(f), dst_space, dst_kind)
        dev = _deviation(n_src, n_dst)
        if dev > worst:
            worst = dev
            worst_case = f"sample {k}: source norm {n_src.value!r}, image norm {n_dst.value!r}"
    return IsometryReport(samples, worst, worst_case)


def render_transport(tmap: TransportMap) -> str:
    """One header line per component pair, one line per affine piece."""
    lines = []
    for src, dst, lo, hi in tmap.runs:
        lines.append(f"component {src} -> {dst}")
        starts, stops, slopes, image_starts = tmap.columns[src][:4]
        for i in range(lo, hi):
            lines.append(
                f"src=[{format_real(starts[i])},{format_real(stops[i])})"
                f" slope={format_real(slopes[i])} offset={format_real(image_starts[i] - slopes[i] * starts[i])}"
            )
    return "\n".join(lines)
