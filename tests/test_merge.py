"""The one piece merge against the per-piece walks it replaced.

``add``/``multiply``, ``weighting_isometry``, ``lift`` and ``transport_set``
all walk piece lists against each other through ``merge_pieces`` now.  The
references below are the earlier walks: a sorted breakpoint set for the
pointwise operations, a per-piece slice of h for the weighting, and a scan
of every transport entry for every source piece for lift and set transport.
They produce the same cells and the same arithmetic, so results must be
equal, not merely close, and unmapped support must raise the same error.
``merge_pieces`` itself now walks (starts, stops) columns and yields piece
indexes; a frozen copy of its record walk pins its cells bit for bit.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logspaces import (
    Component,
    IntervalPiece,
    LogSpaceError,
    MeasurableSet,
    MeasureSpace,
    PiecewiseDensity,
    StepFunction,
    StepPiece,
    add,
    glue_transports,
    interval_space,
    lift,
    multiply,
    transport_between_spaces,
    transport_set,
    weighting_isometry,
)
from logspaces.measure import merge_pieces
from logspaces.sampling import (
    random_density,
    random_equal_passport_pair,
    random_matched_components_pair,
    random_measurable_set,
    random_space,
    random_step_function,
)
from logspaces.stepfunctions import _canonical, _wrap
from logspaces.transport import AffinePiece, ComponentTransport, TransportMap
from test_mass_lines import _outcome as map_outcome
from test_mass_lines import reference_between_spaces

_COVER_RTOL = 1e-9


def _combine(pa, pb, fn):
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


def reference_weighting(f, h):
    out = []
    for hc, pieces in zip(h, f.pieces):
        raw = []
        for p in pieces:
            if p.start < hc.start or (not math.isinf(p.stop) and p.stop > hc.stop):
                raise LogSpaceError("out of carrier")
            for q in hc.pieces:
                lo, hi = max(q.start, p.start), min(q.stop, p.stop)
                if lo < hi:
                    raw.append((lo, hi, p.coef / q.value))
        out.append(_canonical(raw))
    return _wrap(tuple(out))


def _clip_to_entries(tmap, comp, a, b):
    images = []
    covered = 0.0
    for entry in tmap.entries:
        if entry.src != comp:
            continue
        for piece in entry.pieces:
            lo = max(a, piece.start)
            hi = min(b, piece.stop)
            if lo < hi:
                images.append((entry.dst, piece.image_of(lo), piece.image_of(hi)))
                if not math.isinf(hi):
                    covered += hi - lo
                else:
                    covered = math.inf
    return images, covered


def _checked_images(tmap, comp, a, b):
    images, covered = _clip_to_entries(tmap, comp, a, b)
    if math.isinf(b):
        if not any(math.isinf(hi) for _, _, hi in images):
            raise LogSpaceError("unmapped support")
    elif (b - a) - covered > _COVER_RTOL * (1.0 + (b - a)):
        raise LogSpaceError("unmapped support")
    return images


def reference_transport_set(tmap, mset):
    parts = []
    for comp, a, b in mset.parts:
        parts.extend(_checked_images(tmap, comp, a, b))
    return MeasurableSet(tuple(parts))


def reference_lift(tmap, f):
    buckets = [[] for _ in range(tmap.dst_components)]
    for comp, pieces in enumerate(f.pieces):
        for p in pieces:
            for dst, lo, hi in _checked_images(tmap, comp, p.start, p.stop):
                if lo < hi:
                    buckets[dst].append((lo, hi, p.coef))
    return _wrap(tuple([_canonical(b) for b in buckets]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LogSpaceError as e:
        return ("LogSpaceError", str(e))


def _exact(x):
    """Bit patterns, so that 0.0 and -0.0 count as different."""
    if isinstance(x, StepFunction):
        return [[(p.start.hex(), p.stop.hex(), repr(p.coef)) for p in ps] for ps in x.pieces]
    if isinstance(x, MeasurableSet):
        return [(c, a.hex(), b.hex()) for c, a, b in x.parts]
    return x


def _shifted(f, delta):
    """f moved by delta, partly off its carriers; built without the carrier check."""
    return StepFunction(
        tuple(tuple(StepPiece(p.start + delta, p.stop + delta, p.coef) for p in ps) for ps in f.pieces)
    )


def _with_tails(rng, space, f, mset):
    """f and mset plus a piece reaching +inf on each unbounded carrier, beyond the sampling window."""
    specs = [(j, p.start, p.stop, p.coef) for j, ps in enumerate(f.pieces) for p in ps]
    parts = list(mset.parts)
    for i, comp in enumerate(space.components):
        lo, hi = comp.carrier
        if math.isinf(hi):
            specs.append((i, lo + 5.0, math.inf, complex(rng.uniform(0.1, 3.0), 0.5)))
            parts.append((i, lo + 5.0, math.inf))
    return StepFunction.from_pieces(space, specs), MeasurableSet(tuple(parts))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_pieces=st.integers(1, 24))
def test_add_and_multiply_match_breakpoint_walk(seed, max_pieces):
    rng = random.Random(seed)
    space = random_space(rng, 3, unbounded_prob=0.5)
    f = random_step_function(rng, space, max_pieces=max_pieces)
    g = random_step_function(rng, space, max_pieces=max_pieces)
    for got, fn in ((add(f, g), lambda x, y: x + y), (multiply(f, g), lambda x, y: x * y)):
        want = _wrap(tuple([_combine(a, b, fn) for a, b in zip(f.pieces, g.pieces)]))
        assert _exact(got) == _exact(want)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_pieces=st.integers(1, 24), shift=st.booleans())
def test_weighting_matches_per_piece_slices(seed, max_pieces, shift):
    rng = random.Random(seed)
    space = random_space(rng, 3, unbounded_prob=0.5)
    f = random_step_function(rng, space, max_pieces=max_pieces)
    f, _ = _with_tails(rng, space, f, MeasurableSet(()))
    if shift:
        f = _shifted(f, rng.uniform(-2.0, 2.0))
    h = random_density(rng, space)
    got = _exact(_outcome(weighting_isometry, f, h))
    assert got == _exact(_outcome(reference_weighting, f, h))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    matched=st.booleans(),
    tail=st.booleans(),
    shift=st.booleans(),
)
def test_lift_and_transport_set_match_entry_scan(seed, matched, tail, shift):
    rng = random.Random(seed)
    if matched:
        src, dst = random_matched_components_pair(rng)
        tmap = glue_transports(list(zip(src.components, dst.components)))
    else:
        src, dst = random_equal_passport_pair(rng)
        tmap = transport_between_spaces(src, dst)
    f = random_step_function(rng, src, max_pieces=rng.randint(1, 24))
    mset = random_measurable_set(rng, src, max_intervals=8)
    if tail:
        f, mset = _with_tails(rng, src, f, mset)
    if shift:  # pushes support off the mapped region: unmapped support on both sides
        delta = rng.uniform(-2.0, 2.0)
        f = _shifted(f, delta)
        mset = MeasurableSet(tuple((c, a + delta, b + delta) for c, a, b in mset.parts))
    assert _exact(_outcome(lift, tmap, f)) == _exact(_outcome(reference_lift, tmap, f))
    got = _exact(_outcome(transport_set, tmap, mset))
    assert got == _exact(_outcome(reference_transport_set, tmap, mset))


def test_merge_pieces_handles_gaps_and_different_spans():
    a = ([0.0, 2.0], [1.0, 3.0])
    b = ([0.5], [2.5])
    c = ([5.0], [math.inf])
    assert list(merge_pieces(a, b, c)) == [
        (0.0, 0.5, (0, None, None)),
        (0.5, 1.0, (0, 0, None)),
        (1.0, 2.0, (None, 0, None)),
        (2.0, 2.5, (1, 0, None)),
        (2.5, 3.0, (1, None, None)),
        # [3, 5) is covered by no list and skipped
        (5.0, math.inf, (None, None, 0)),
    ]
    assert list(merge_pieces(([], []), ([], []))) == []
    assert [(lo, hi) for lo, hi, _ in merge_pieces(a, ([], []))] == [(0.0, 1.0), (2.0, 3.0)]


class _Piece:
    def __init__(self, start, stop):
        self.start, self.stop = start, stop


def frozen_record_merge(*piece_lists):
    """``merge_pieces`` as it walked lists of records, copied before it read columns."""
    inf = math.inf
    lists = range(len(piece_lists))
    its = [iter(pl) for pl in piece_lists]
    heads = [next(it, None) for it in its]
    live = [None] * len(piece_lists)
    nxt = [inf if p is None else p.start for p in heads]
    covering = 0
    lo = min(nxt, default=inf)
    while lo != inf:
        for k in lists:
            if nxt[k] != lo:
                continue
            p = heads[k]
            if live[k] is not None:
                covering -= 1
                p = heads[k] = next(its[k], None)
                if p is None:
                    live[k], nxt[k] = None, inf
                    continue
            if p.start == lo:
                live[k], nxt[k] = p, p.stop
                covering += 1
            else:
                live[k], nxt[k] = None, p.start
        hi = min(nxt)
        if covering:
            yield lo, hi, tuple(live)
        lo = hi


_GRID = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf]


@st.composite
def piece_columns(draw):
    """(starts, stops) of sorted, disjoint pieces on a coarse grid: gaps, touching pieces,
    an unbounded end, and each 0 drawn as -0.0 or 0.0; possibly no pieces at all."""
    points = sorted(set(draw(st.lists(st.sampled_from(_GRID), max_size=7))))
    starts, stops = [], []
    for a, b in zip(points, points[1:]):
        if draw(st.booleans()):
            a, b = [draw(st.sampled_from([-0.0, 0.0])) if x == 0 else x for x in (a, b)]
            starts.append(a)
            stops.append(b)
    return starts, stops


def _bits(lo, hi, pieces):
    """A cell's bounds and each list's (start, stop), or None, as bit patterns."""
    return lo.hex(), hi.hex(), tuple(p and (p[0].hex(), p[1].hex()) for p in pieces)


@settings(max_examples=500, deadline=None)
@given(st.lists(piece_columns(), min_size=1, max_size=4))
def test_the_column_walk_gives_the_cells_of_the_record_walk_bit_for_bit(columns):
    records = [[_Piece(a, b) for a, b in zip(*col)] for col in columns]
    want = [_bits(lo, hi, [p and (p.start, p.stop) for p in ps]) for lo, hi, ps in frozen_record_merge(*records)]
    got = [
        _bits(lo, hi, [None if i is None else (s[i], t[i]) for (s, t), i in zip(columns, ix)])
        for lo, hi, ix in merge_pieces(*columns)
    ]
    assert got == want


def test_an_unbounded_piece_needs_an_unbounded_image():
    tmap = transport_between_spaces(interval_space(0, 1), interval_space(0, 1))
    f = StepFunction(((StepPiece(0.0, math.inf, 1),),))  # built without the carrier check
    with pytest.raises(LogSpaceError, match="unmapped support"):
        lift(tmap, f)
    with pytest.raises(LogSpaceError, match="unmapped support"):
        transport_set(tmap, MeasurableSet(((0, 0.0, math.inf),)))


# Benchmark-size inputs: components of a few hundred to a thousand density
# pieces, functions and sets of as many pieces, so that a map has thousands
# of affine pieces and every walk runs far past its first few steps.


def _sized_component(rng, start, n, mass=None, unbounded=False):
    """n density pieces 0.002-0.018 long; rescaled to `mass` when given."""
    bounds = [start]
    for _ in range(n):
        bounds.append(bounds[-1] + rng.uniform(0.002, 0.018))
    values = [rng.uniform(0.25, 4.0) for _ in range(n)]
    if mass is not None:
        scale = mass / math.fsum((b - a) * v for a, b, v in zip(bounds, bounds[1:], values))
        values = [v * scale for v in values]
    if unbounded:
        bounds[-1] = math.inf
    pieces = tuple(IntervalPiece(a, b, v) for a, b, v in zip(bounds, bounds[1:], values))
    return Component(PiecewiseDensity(pieces))


def _sized_pair(rng, n, parts, unbounded):
    """A one-component source of n pieces and a partner splitting its mass over `parts` components.

    The partner's carriers touch.  With `unbounded`, both sides end in an unbounded component.
    """
    src = MeasureSpace((_sized_component(rng, 0.0, n, unbounded=unbounded),))
    bounded = parts - 1 if unbounded else parts
    share = (rng.uniform(0.5, 2.0) if unbounded else src.components[0].measure().value) / bounded
    comps = []
    start = -5.0
    for _ in range(bounded):  # end to end, so that images in two components can touch
        comps.append(_sized_component(rng, start, n // parts, share))
        start = comps[-1].carrier[1]
    if unbounded:
        comps.append(_sized_component(rng, start, n // parts, unbounded=True))
    return src, MeasureSpace(tuple(comps))


def _sized_function(rng, space, n):
    """About n pieces per component, with gaps and complex coefficients.

    An unbounded carrier also gets a piece out to +inf.
    """
    specs = []
    for i, comp in enumerate(space.components):
        lo, hi = comp.carrier
        top = lo + 0.01 * n if math.isinf(hi) else hi
        bounds = sorted(rng.uniform(lo, top) for _ in range(n))
        for a, b in zip(bounds, bounds[1:]):
            if a < b and rng.random() < 0.9:
                specs.append((i, a, b, complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))))
        if math.isinf(hi):
            specs.append((i, top, math.inf, 2.0 + 1j))
    return StepFunction.from_pieces(space, specs)


def _sized_set(rng, space, n):
    """About n/2 disjoint intervals per component, with gaps between them.

    An unbounded carrier also gets an interval out to +inf.
    """
    parts = []
    for i, comp in enumerate(space.components):
        lo, hi = comp.carrier
        top = lo + 0.01 * n if math.isinf(hi) else hi
        bounds = sorted({rng.uniform(lo, top) for _ in range(n)})
        parts.extend((i, a, b) for a, b in zip(bounds[0::2], bounds[1::2]))
        if math.isinf(hi):
            parts.append((i, top, math.inf))
    return MeasurableSet(tuple(parts))


def _assert_lift_and_set_match_entry_scan(tmap, src, n, rng):
    f = _sized_function(rng, src, n)
    mset = _sized_set(rng, src, n)
    got = _outcome(lift, tmap, f)
    assert not isinstance(got, tuple)  # the inputs lie in the mapped region
    assert _exact(got) == _exact(_outcome(reference_lift, tmap, f))
    got = _outcome(transport_set, tmap, mset)
    assert _exact(got) == _exact(_outcome(reference_transport_set, tmap, mset))


@pytest.mark.parametrize(
    "n, parts, unbounded",
    [(250, 1, False), (250, 3, True), (500, 4, False), (1000, 2, True)],
)
def test_lift_and_transport_set_match_entry_scan_at_benchmark_size(n, parts, unbounded):
    rng = random.Random(n + parts)
    src, dst = _sized_pair(rng, n, parts, unbounded)
    tmap = transport_between_spaces(src, dst)
    assert len({e.dst for e in tmap.entries}) == parts
    _assert_lift_and_set_match_entry_scan(tmap, src, n, rng)
    # the reverse map takes several source components to one
    _assert_lift_and_set_match_entry_scan(transport_between_spaces(dst, src), dst, n, rng)


@pytest.mark.parametrize("n", [250, 500])
def test_glued_lift_and_transport_set_match_entry_scan_at_benchmark_size(n):
    rng = random.Random(n)
    src = MeasureSpace(tuple(_sized_component(rng, 10.0 * k, n // 2) for k in range(2)))
    dst = MeasureSpace(
        tuple(_sized_component(rng, -10.0 * k, n, c.measure().value) for k, c in enumerate(src.components))
    )
    tmap = glue_transports(list(zip(src.components, dst.components)))
    _assert_lift_and_set_match_entry_scan(tmap, src, n, rng)


def test_a_map_listing_its_pieces_out_of_order_is_rejected_by_name():
    # the walk takes each source's affine pieces in the order the map holds
    # them, so a map whose pieces do not ascend is refused as it is built
    rng = random.Random(5)
    src, dst = _sized_pair(rng, 250, 3, False)
    built = transport_between_spaces(src, dst)
    for entries in (
        tuple(ComponentTransport(e.src, e.dst, e.pieces[::-1]) for e in built.entries),
        tuple(reversed(built.entries)),
    ):
        with pytest.raises(LogSpaceError, match="^transport pieces of component 0 overlap or are out of order$"):
            TransportMap(entries, built.src_components, built.dst_components)


def test_a_source_split_over_two_entries_matches_entry_scan():
    # source 0's [0, 1) goes to target 0 and its [1, 3) to target 1, with
    # source 1's entry listed between the two
    tmap = TransportMap(
        (
            ComponentTransport(0, 0, (AffinePiece(0, 1, 1, 0, 1),)),
            ComponentTransport(1, 0, (AffinePiece(0, 1, 1, 1, 2),)),
            ComponentTransport(0, 1, (AffinePiece(1, 3, 0.5, 0, 1),)),
        ),
        2,
        2,
    )
    src = MeasureSpace(interval_space(0, 3).components + interval_space(0, 1).components)
    rng = random.Random(3)
    for _ in range(40):
        f = random_step_function(rng, src, max_pieces=8)
        mset = random_measurable_set(rng, src, max_intervals=6)
        got = _outcome(lift, tmap, f)
        assert not isinstance(got, tuple)  # the map covers both carriers
        assert _exact(got) == _exact(_outcome(reference_lift, tmap, f))
        got = _outcome(transport_set, tmap, mset)
        assert not isinstance(got, tuple)
        assert _exact(got) == _exact(_outcome(reference_transport_set, tmap, mset))
    # a piece across the split lands in both targets
    f = StepFunction(((StepPiece(0.5, 2, 3),), ()))
    assert lift(tmap, f) == StepFunction(((StepPiece(0.5, 1, 3),), (StepPiece(0, 0.5, 3),)))
    assert _exact(lift(tmap, f)) == _exact(reference_lift(tmap, f))


def test_a_thousand_piece_map_matches_the_frozen_construction():
    rng = random.Random(1000)
    src, dst = _sized_pair(rng, 1000, 3, False)
    for a, b in ((src, dst), (dst, src)):
        want = map_outcome(reference_between_spaces, a, b)
        assert want[0] != "LogSpaceError" and sum(len(ps) for _, _, ps in want[2]) > 1000
        assert map_outcome(transport_between_spaces, a, b) == want
