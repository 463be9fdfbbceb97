"""The flat mass-line walk against the per-cell construction it replaced.

Transports used to turn every density piece into a frozen ``_Cell`` whose
``invert`` method placed a mass on it, and built every affine piece through
the validating ``AffinePiece`` constructor, once per segment and again per
merge.  The reference below is that construction, copied.  The walk in
``transport.py`` now reads parallel float lists and appends each affine
piece once to its source component's columns, building no record.  Maps
must agree bit for bit, and a rejected pair
must raise the same ``LogSpaceError`` message.  The one intended difference:
a slope or offset outside the float range, which the old construction stored
(or reported as a zero slope), is now rejected as an overflow.

The inputs reach the cases the walk must keep: unbounded tails, different
component splits on the two sides, cuts and group totals a few ulps apart,
equal neighbouring densities (touching segments with one affine law) and
exact power-of-two rescalings whose density ratios overflow.
"""

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_final_records, rel_close
from test_decision_agrees import RANGES, _partner, _source
from logspaces import (
    AffinePiece,
    Component,
    IntervalPiece,
    LogSpaceError,
    MeasureSpace,
    PiecewiseDensity,
    StepFunction,
    build_passport,
    decide_isometric_external,
    density,
    glue_transports,
    interval_space,
    lift,
    log_norm,
    space,
    transport_between_spaces,
)
from logspaces.extreal import ext_sum
from logspaces.measure import _weight_groups
from logspaces.passports import _MEASURE_RTOL, _same_measure
from logspaces.sampling import (
    equal_passport_partner,
    random_equal_passport_pair,
    random_matched_components_pair,
    random_space,
)
from logspaces.transport import ComponentTransport, TransportMap

OVERFLOW = "transport slope or offset overflows a float"


@dataclass(frozen=True)
class _Cell:
    m0: float
    m1: float
    comp: int
    p0: float
    p1: float
    dens: float

    def invert(self, m):
        if m <= self.m0:
            return self.p0
        if m >= self.m1:
            return self.p1
        return self.p0 + (m - self.m0) / self.dens


def reference_group_cells(items):
    masses = [c.measure() for _, c in items]
    finite = [item for item, mass in zip(items, masses) if mass.is_finite]
    unbounded = [item for item, mass in zip(items, masses) if not mass.is_finite]
    if len(unbounded) > 1:
        raise LogSpaceError("pairing incomplete")
    total = ext_sum(masses).value
    cells = []
    m = 0.0
    for idx, comp in finite + unbounded:
        for p in comp.density.pieces:
            if math.isinf(p.stop):
                cells.append(_Cell(m, math.inf, idx, p.start, math.inf, p.value))
                m = math.inf
            else:
                dm = p.length * p.value
                cells.append(_Cell(m, m + dm, idx, p.start, p.stop, p.value))
                m += dm
    return cells, m, total


def reference_match_mass_lines(src_cells, src_total, dst_cells, dst_total, offsets=None):
    """The entries of the matched lines; each kept piece's offset q1 - slope*p1 is appended to `offsets`."""
    infinite = math.isinf(src_total)
    cuts = {c.m0 for c in src_cells} | {c.m0 for c in dst_cells}
    if infinite:
        pts = sorted(cuts)
        eps = _MEASURE_RTOL * (1.0 + pts[-1])
    else:
        total = min(src_total, dst_total)
        eps = _MEASURE_RTOL * (1.0 + total)
        pts = sorted(m for m in cuts if m < total - eps)
    deduped = [pts[0]]
    for m in pts[1:]:
        if m - deduped[-1] > eps:
            deduped.append(m)
    segments = list(zip(deduped, deduped[1:] + [math.inf if infinite else total]))
    runs = []
    si = di = 0
    for m1, m2 in segments:
        while si + 1 < len(src_cells) and src_cells[si].m1 <= m1 + eps:
            si += 1
        while di + 1 < len(dst_cells) and dst_cells[di].m1 <= m1 + eps:
            di += 1
        sc, dc = src_cells[si], dst_cells[di]
        p1, p2 = sc.invert(m1), sc.invert(m2)
        q1, q2 = dc.invert(m1), dc.invert(m2)
        if not p1 < p2:
            continue
        slope = sc.dens / dc.dens
        offset = q1 - slope * p1
        piece = AffinePiece(p1, p2, slope, q1, q2)
        pair = (sc.comp, dc.comp)
        if not runs or runs[-1][0] != pair:
            runs.append((pair, [piece], [offset]))
            continue
        _, run, laws = runs[-1]
        prev = run[-1]
        if prev.stop == piece.start and (prev.slope, laws[-1]) == (slope, offset):
            run[-1] = AffinePiece(prev.start, piece.stop, prev.slope, prev.image_start, piece.image_stop)
        else:
            run.append(piece)
            laws.append(offset)
    if offsets is not None:
        offsets.extend([offset for _, _, laws in runs for offset in laws])
    return [ComponentTransport(s, d, tuple(run)) for (s, d), run, _ in runs]


def reference_match_groups(src, dst, offsets=None):
    src_cells, sm, src_total = reference_group_cells(src)
    dst_cells, dm, dst_total = reference_group_cells(dst)
    if not _same_measure(src_total, dst_total):
        raise LogSpaceError("no measure-preserving map")
    return reference_match_mass_lines(src_cells, sm, dst_cells, dm, offsets)


def reference_between_spaces(src, dst, offsets=None):
    if not all(c.realizable for c in src.components + dst.components):
        raise LogSpaceError("symbolic component")
    src_groups, dst_groups = _weight_groups(src), _weight_groups(dst)
    if src_groups.keys() != dst_groups.keys():
        raise LogSpaceError("no measure-preserving map")
    entries = []
    for weight, items in src_groups.items():
        entries.extend(reference_match_groups(items, dst_groups[weight], offsets))
    return TransportMap(tuple(entries), len(src.components), len(dst.components))


def reference_glue(pairs):
    entries = []
    for k, (src, dst) in enumerate(pairs):
        entries.extend(reference_match_groups([(k, src)], [(k, dst)]))
    return TransportMap(tuple(entries), len(pairs), len(pairs))


_FIELDS = ("start", "stop", "slope", "offset", "image_start", "image_stop")


def _outcome(build, *args):
    """Every field of every affine piece by its bits, or the error raised."""
    try:
        tmap = build(*args)
    except LogSpaceError as e:
        return ("LogSpaceError", str(e))
    entries = [
        (e.src, e.dst, [tuple(getattr(p, f).hex() for f in _FIELDS) for p in e.pieces])
        for e in tmap.entries
    ]
    return (tmap.src_components, tmap.dst_components, entries)


def _out_of_range(outcome):
    """Whether the old construction stored a non-finite slope or offset, or a zero slope.

    ``AffinePiece`` now refuses a non-finite slope or offset, so the copied
    construction raises that error where it used to store the value.
    """
    if outcome == ("LogSpaceError", "affine piece slope must be > 0"):
        return True
    if outcome[0] == "LogSpaceError" and outcome[1].startswith(
        ("affine piece slope must be finite", "affine piece offset must be finite")
    ):
        return True
    if outcome[0] == "LogSpaceError":
        return False
    laws = [(float.fromhex(p[2]), float.fromhex(p[3])) for _, _, ps in outcome[2] for p in ps]
    return any(not (math.isfinite(slope) and math.isfinite(offset)) for slope, offset in laws)


def _assert_same(got, ref):
    if _out_of_range(ref):
        assert got[0] == "LogSpaceError" and got[1].startswith(OVERFLOW)
    else:
        assert got == ref


def _assert_same_both_ways(src, dst):
    for a, b in ((src, dst), (dst, src)):
        got = _outcome(transport_between_spaces, a, b)
        _assert_same(got, _outcome(reference_between_spaces, a, b))


def _assert_same_glued(src, dst):
    for a, b in ((src, dst), (dst, src)):
        pairs = list(zip(a.components, b.components))
        _assert_same(_outcome(glue_transports, pairs), _outcome(reference_glue, pairs))


def _dyadic_component(rng, start, n, unbounded=False):
    """Pieces on multiples of 1/8 with densities in {1/2, 1, 2, 4}: every mass is exact,
    and neighbours often share a density, so touching segments share one affine law."""
    bounds = [start]
    for _ in range(n):
        bounds.append(bounds[-1] + rng.randint(1, 16) / 8.0)
    if unbounded:
        bounds[-1] = math.inf
    values = [rng.choice([0.5, 1.0, 2.0, 4.0]) for _ in bounds[1:]]
    pieces = tuple(IntervalPiece(a, b, v) for a, b, v in zip(bounds, bounds[1:], values))
    return Component(PiecewiseDensity(pieces))


def _recut(rng, comp, split):
    """The same density with one more cut; with `split`, cut into two components there."""
    pieces = list(comp.density.pieces)
    i = rng.randrange(len(pieces))
    p = pieces[i]
    stop = p.start + 1.0 if math.isinf(p.stop) else p.stop
    x = p.start + (stop - p.start) * rng.choice([0.25, 0.5, 0.75])
    left, right = IntervalPiece(p.start, x, p.value), IntervalPiece(x, p.stop, p.value)
    if split:
        return [
            Component(PiecewiseDensity(tuple(pieces[:i] + [left]))),
            Component(PiecewiseDensity(tuple([right] + pieces[i + 1 :]))),
        ]
    return [Component(PiecewiseDensity(tuple(pieces[:i] + [left, right] + pieces[i + 1 :])))]


def _ulps(x, k):
    """x moved by k ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _nudged(rng, comp):
    """comp with one interior breakpoint or its last density moved by a few ulps."""
    pieces = list(comp.density.pieces)
    k = rng.choice([-3, -2, -1, 1, 2, 3])
    if len(pieces) > 1 and rng.random() < 0.6:
        i = rng.randrange(1, len(pieces))
        a, b = pieces[i - 1], pieces[i]
        x = _ulps(b.start, k)
        if not a.start < x < b.stop:
            return comp
        pieces[i - 1 : i + 1] = [
            IntervalPiece(a.start, x, a.value),
            IntervalPiece(x, b.stop, b.value),
        ]
    else:
        p = pieces[-1]
        pieces[-1] = IntervalPiece(p.start, p.stop, _ulps(p.value, k))
    return Component(PiecewiseDensity(tuple(pieces)), comp.weight)


def _rescaled(space, k):
    """Positions times 2**k and densities times 2**-k: every mass is unchanged, bit for bit."""

    def piece(p):
        return IntervalPiece(math.ldexp(p.start, k), math.ldexp(p.stop, k), math.ldexp(p.value, -k))

    return MeasureSpace(
        tuple(
            Component(PiecewiseDensity(tuple(piece(p) for p in c.density.pieces)), c.weight)
            for c in space.components
        )
    )


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_whole_space_maps_match_the_reference_construction(seed):
    rng = random.Random(seed)
    src = random_space(rng, 3, unbounded_prob=rng.choice([0.0, 0.5, 1.0]))
    dst = equal_passport_partner(rng, src)
    if rng.random() < 0.5:  # a few ulps apart: cuts, and sometimes the group totals
        dst = MeasureSpace(tuple(_nudged(rng, c) for c in dst.components))
    _assert_same_both_ways(src, dst)
    _assert_same_both_ways(src, MeasureSpace(tuple(_nudged(rng, c) for c in src.components)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_glued_maps_match_the_reference_construction(seed):
    rng = random.Random(seed)
    src, dst = random_matched_components_pair(rng)
    _assert_same_glued(src, dst)
    _assert_same_glued(src, MeasureSpace(tuple(_nudged(rng, c) for c in src.components)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), split=st.booleans(), unbounded=st.booleans())
def test_touching_segments_with_one_law_match_the_reference_construction(seed, split, unbounded):
    rng = random.Random(seed)
    comps = [_dyadic_component(rng, rng.randint(-16, 16) / 4.0, rng.randint(1, 6), unbounded)]
    if rng.random() < 0.5:
        comps.insert(0, _dyadic_component(rng, rng.randint(-16, 16) / 4.0, rng.randint(1, 6)))
    src = MeasureSpace(tuple(comps))
    dst = MeasureSpace(tuple(c for comp in comps for c in _recut(rng, comp, split)))
    _assert_same_both_ways(src, dst)
    if not split:
        _assert_same_glued(src, dst)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 2000))
def test_rescaled_pairs_match_the_reference_or_overflow(seed, k):
    # the density ratio is scaled by 2**k: past about 2**1020 a slope or an offset overflows
    rng = random.Random(seed)
    src, dst = random_equal_passport_pair(rng)
    _assert_same_both_ways(_rescaled(src, -(k // 2)), _rescaled(dst, k - k // 2))


def _long_tail():
    # 12,000 pieces of mass 1.1e-16 each vanish from a running sum at 1.0
    xs = [1.0 + i * 1e-4 for i in range(12_001)]
    return Component(density([(0.0, 1.0, 1.0)] + [(a, b, 1.1e-12) for a, b in zip(xs, xs[1:])]))


def test_the_many_tiny_pieces_component_matches_the_reference_construction():
    src = MeasureSpace((_long_tail(),))
    (m,) = [c.measure().value for c in src.components]
    others = (interval_space(0, 1), interval_space(0, 1, m), interval_space(-3, -3 + 2 * m, 0.5))
    for other in others:
        _assert_same_both_ways(src, other)
        _assert_same_glued(src, other)


def _offset_bits(src, dst):
    """How many built pieces have a reference twin; each one's derived offset must be the twin's q1 - slope*p1.

    A twin is a reference piece with the same stored fields, bit for bit.
    The reference merges cuts within 1e-12 * (1 + total) where the walk
    uses 1e-12 * total, so on a line whose total is far from 1 some pieces
    have no twin, and a line far lighter than 1 fails it outright.
    """
    try:
        built = transport_between_spaces(src, dst)
    except LogSpaceError:  # an overflow or an order fault, which the tests above compare
        return 0
    offsets = []
    try:
        reference = reference_between_spaces(src, dst, offsets)
    except (LogSpaceError, IndexError):  # every cut of a light line merged away
        return 0

    def stored(piece):
        return tuple([getattr(piece, f).hex() for f in AffinePiece.__match_args__])

    twins = {stored(p): x.hex() for p, x in zip([p for e in reference.entries for p in e.pieces], offsets)}
    matched = 0
    for p in (p for e in built.entries for p in e.pieces):
        offset = twins.get(stored(p))
        if offset is not None:
            assert p.offset.hex() == offset
            matched += 1
    return matched


@pytest.mark.parametrize("exponents", RANGES)
def test_each_built_piece_derives_the_offset_the_reference_computes(exponents):
    # the map stores start, slope and image start, and derives its offset
    # from them; it must be the float the construction computed for the law
    rng = random.Random(27)
    pieces = 0
    for _ in range(60):
        try:
            src = _source(rng, exponents)
            dst = _partner(rng, exponents, src, None)
        except LogSpaceError:
            continue
        pieces += _offset_bits(src, dst) + _offset_bits(dst, src)
    assert pieces > 100


def test_the_many_tiny_pieces_component_derives_the_reference_offsets():
    src = MeasureSpace((_long_tail(),))
    (m,) = [c.measure().value for c in src.components]
    others = (interval_space(0, 1), interval_space(0, 1, m), interval_space(-3, -3 + 2 * m, 0.5))
    # the first other is not isometric to it; each of the two others maps in one piece
    assert sum(_offset_bits(src, other) + _offset_bits(other, src) for other in others) == 4


def _nudged_pair(seed):
    """The whole-space pair of ``test_whole_space_maps_match_the_reference_construction``'s second check."""
    rng = random.Random(seed)
    src = random_space(rng, 3, unbounded_prob=rng.choice([0.0, 0.5, 1.0]))
    return src, MeasureSpace(tuple(_nudged(rng, c) for c in src.components))


def _nudged_components(seed):
    """The component pairs of ``test_glued_maps_match_the_reference_construction``'s second check."""
    rng = random.Random(seed)
    src, _ = random_matched_components_pair(rng)
    return list(zip(src.components, [_nudged(rng, c) for c in src.components]))


def _swapped(pairs):
    return [(b, a) for a, b in pairs]


_PIECES_OUT_OF_ORDER = "transport pieces of component 0 overlap or are out of order"
_IMAGES_OUT_OF_ORDER = "transport images in component 0 overlap or are out of order"
_A, _OVER = AffinePiece(0, 1, 1, 0, 1), AffinePiece(0.5, 1.5, 1, 1, 2)


# (a map's builder, its arguments, the message): a position a few ulps past
# its cell's end puts a built piece or image before the last, and one check
# names it on a map built by hand, by the walk or by gluing
@pytest.mark.parametrize(
    "build, args, message",
    [
        (TransportMap, ((ComponentTransport(0, 0, (_A, _OVER)),), 1, 1), _PIECES_OUT_OF_ORDER),
        (
            TransportMap,
            ((ComponentTransport(0, 0, (_A,)), ComponentTransport(1, 0, (_A,))), 2, 1),
            _IMAGES_OUT_OF_ORDER,
        ),
        (transport_between_spaces, _nudged_pair(1627)[::-1], _PIECES_OUT_OF_ORDER),
        (transport_between_spaces, _nudged_pair(1627), _IMAGES_OUT_OF_ORDER),
        (glue_transports, (_swapped(_nudged_components(6070)),), _PIECES_OUT_OF_ORDER),
        (glue_transports, (_nudged_components(6070),), _IMAGES_OUT_OF_ORDER),
    ],
    ids=["by-hand-pieces", "by-hand-images", "walked-pieces", "walked-images", "glued-pieces", "glued-images"],
)
def test_one_order_check_serves_every_map(build, args, message):
    with pytest.raises(LogSpaceError, match=f"^{message}$"):
        build(*args)
    reference = {transport_between_spaces: reference_between_spaces, glue_transports: reference_glue}
    if build in reference:  # the copied construction meets it in the constructor
        assert _outcome(reference[build], *args) == ("LogSpaceError", message)


def _assert_lift_keeps_the_norm(src, dst, start, stop):
    """The decision says isometric, so a function on [start, stop) lifts with its norm."""
    assert decide_isometric_external(build_passport(src), build_passport(dst)).verdict
    f = StepFunction.from_pieces(src, [(0, start, stop, 1.0)])
    g = lift(transport_between_spaces(src, dst), f)
    assert rel_close(log_norm(g, dst).value, log_norm(f, src).value, 1e-9)


# Known defects of the construction: in each, the decision is true, but
# `lift` raises "unmapped support" in the first two and silently drops the
# function in the third.  Fixing any of them changes map bits, so they are
# pinned here until a fix lands.
@pytest.mark.xfail(
    strict=True,
    raises=LogSpaceError,
    reason="last cut short: the group's last cut is min(src_end, dst_end), so the map stops at "
    "1.99999995 and lift raises 'unmapped support'",
)
def test_last_cut_short_by_a_low_end_density():
    src = space(Component(density([(0, 1, 1.0), (1, 2, 1e-5)])))
    (m,) = build_passport(src).row_m.values
    _assert_lift_keeps_the_norm(src, interval_space(0, m * (1 - 5e-13)), 1.5, 2.0)


@pytest.mark.xfail(
    strict=True,
    raises=LogSpaceError,
    reason="cells below half an ulp: the running mass sum drops the tail's 1.1e-16 cells, so the "
    "map covers only [0, 1) and lift raises 'unmapped support'",
)
def test_many_tiny_pieces_tail_maps():
    src = MeasureSpace((_long_tail(),))
    (m,) = build_passport(src).row_m.values
    _assert_lift_keeps_the_norm(src, interval_space(0, 1, m), 1.5, 1.6)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="cells lighter than eps merged away: the two 1e20 and 1e40 cells at the start of the "
    "line fall below eps = 1e-12 * 1e40, so lift of 1 on [0, 1e-50) returns the zero function, "
    "norm 0 against 6.93e19",
)
def test_light_cells_at_the_start_of_an_unbounded_line_map():
    src = space(Component(density([(0, 1e-50, 1e70), (1e-50, 2e-50, 1e90), (2e-50, math.inf, 1)])))
    _assert_lift_keeps_the_norm(src, interval_space(0, math.inf), 0.0, 1e-50)


@pytest.mark.parametrize(
    "src, dst",
    [
        (interval_space(0, 1e-200, 1e200), interval_space(0, 1e200, 1e-200)),
        (interval_space(0, 1e200, 1e-200), interval_space(0, 1e-200, 1e200)),
        (interval_space(1e-200, 2e-200, 1e200), interval_space(1e200, 2e200, 1e-200)),
    ],
)
def test_densities_whose_ratio_leaves_the_float_range_are_an_overflow(src, dst):
    ref = _outcome(reference_between_spaces, src, dst)
    assert _out_of_range(ref)
    _assert_same_both_ways(src, dst)
    _assert_same_glued(src, dst)


def _built_maps():
    """Maps from each way the walk builds: whole spaces both ways round, glued
    components, touching segments of one law joined, and the many tiny pieces."""
    rng = random.Random(3)
    src, dst = random_equal_passport_pair(rng)
    msrc, mdst = random_matched_components_pair(rng)
    comp = _dyadic_component(rng, 0.0, 6, unbounded=True)
    tail = MeasureSpace((_long_tail(),))
    (m,) = [c.measure().value for c in tail.components]
    joined = transport_between_spaces(MeasureSpace((comp,)), MeasureSpace(tuple(_recut(rng, comp, False))))
    # the recut adds a segment of the law of its neighbour, which the walk joins
    assert len(joined.columns[0][0]) <= len(comp.density.pieces)
    return [
        transport_between_spaces(src, dst),
        transport_between_spaces(dst, src),
        glue_transports(list(zip(msrc.components, mdst.components))),
        joined,
        transport_between_spaces(tail, interval_space(0, 1, m)),
    ]


def test_building_a_map_writes_each_affine_piece_once(monkeypatch):
    checked = []
    post_init = AffinePiece.__post_init__
    monkeypatch.setattr(AffinePiece, "__post_init__", lambda p: checked.append(p) or post_init(p))
    maps = _built_maps()
    assert sum(len(cols[0]) for t in maps for cols in t.columns) > 0
    assert checked == []  # the walk appends to columns; nothing goes through __init__


def test_built_maps_hold_only_final_affine_pieces():
    pieces = [p for t in _built_maps() for e in t.entries for p in e.pieces]
    assert len(pieces) > 10
    assert_final_records(pieces, AffinePiece)


def test_affine_pieces_built_directly_are_still_checked():
    assert AffinePiece(0.0, 1.0, 2.0, 0.5, 2.5).image_of(0.5) == 1.5
    with pytest.raises(LogSpaceError, match="start < stop"):
        AffinePiece(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(LogSpaceError, match="start < stop"):
        AffinePiece(2.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(LogSpaceError, match="slope must be > 0"):
        AffinePiece(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(LogSpaceError, match="slope must be > 0"):
        AffinePiece(0.0, 1.0, -1.0, 0.0, -1.0)
