"""The compiled-table norm and the indexed measure against per-piece slicing.

The weighted cell tables are also checked against ``merge_pieces``: the
three-list sweep that compiles them must give the merge's cells exactly,
down to the sign of a zero bound.

The reference below refines the density, h1 and h2 afresh inside every step
piece (O(P*D) per component) and sums each measure part over a fresh slice
of the density.  It yields the same cells and the same products, and
``math.fsum`` does not depend on term order, so the kernels must agree with
it bit for bit, not merely within a tolerance.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import merge_records
from logspaces import (
    EXTERNAL,
    Component,
    External,
    Generalized,
    Internal,
    IntervalPiece,
    MeasurableSet,
    MeasureSpace,
    PiecewiseDensity,
    StepFunction,
    constant_density,
    density,
    log_norm,
    measure,
)
from logspaces import stepfunctions
from logspaces.measure import merge_pieces
from logspaces.stepfunctions import _cell_table, _kind_weights
from logspaces.sampling import (
    random_kind,
    random_measurable_set,
    random_space,
    random_step_function,
)


def _slice(pieces, a, b):
    out = []
    for p in pieces:
        lo = max(p.start, a)
        hi = min(p.stop, b)
        if lo < hi:
            out.append(IntervalPiece(lo, hi, p.value))
    return out


def _refine(*piece_lists):
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


def reference_log_norm(f, space, kind):
    if isinstance(kind, External):
        h1 = h2 = None
    elif isinstance(kind, Internal):
        h1, h2 = None, kind.h
    else:
        h1, h2 = kind.h1, kind.h2
    terms = []
    for i, (comp, ps) in enumerate(zip(space.components, f.pieces)):
        lists = [comp.density.pieces]
        if h1 is not None:
            lists.append(h1[i].pieces)
        if h2 is not None:
            lists.append(h2[i].pieces)
        for p in ps:
            if math.isinf(p.stop):
                return math.inf
            mod = abs(p.coef)
            for a, b, vals in _refine(*[_slice(pl, p.start, p.stop) for pl in lists]):
                d = vals[0]
                if h1 is not None:
                    w1, w2 = vals[1], vals[2]
                elif h2 is not None:
                    w1, w2 = 1.0, vals[1]
                else:
                    w1, w2 = 1.0, 1.0
                terms.append(((b - a) * d * w1, w2 * mod))
    return math.fsum(w * math.log1p(s) for w, s in terms)


def reference_measure(space, mset):
    terms = []
    for c, a, b in mset.parts:
        if math.isinf(b):
            return math.inf
        terms.extend(p.length * p.value for p in _slice(space.components[c].density.pieces, a, b))
    return math.fsum(terms)


def _with_unbounded_tail(rng, space, f):
    """f plus a nonzero piece reaching +inf on the first unbounded carrier, if any.

    The tail starts beyond the window the sampler draws supports from.
    """
    for i, comp in enumerate(space.components):
        lo, hi = comp.carrier
        if math.isinf(hi):
            specs = [(j, p.start, p.stop, p.coef) for j, ps in enumerate(f.pieces) for p in ps]
            specs.append((i, lo + 5.0, math.inf, complex(rng.uniform(0.1, 3.0), 0.5)))
            return StepFunction.from_pieces(space, specs)
    return f


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_components=st.integers(1, 3),
    max_pieces=st.integers(1, 24),
    tail=st.booleans(),
)
def test_log_norm_matches_per_piece_reference_bit_for_bit(seed, max_components, max_pieces, tail):
    rng = random.Random(seed)
    space = random_space(rng, max_components, unbounded_prob=0.5)
    kind = random_kind(rng, space)
    f = random_step_function(rng, space, max_pieces=max_pieces)
    if tail:
        f = _with_unbounded_tail(rng, space, f)
    want = reference_log_norm(f, space, kind).hex()
    want_external = reference_log_norm(f, space, EXTERNAL).hex()
    # the first round compiles the space's tables, the second hits them
    for _ in range(2):
        assert log_norm(f, space, kind).value.hex() == want
        assert log_norm(f, space, EXTERNAL).value.hex() == want_external


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_components=st.integers(1, 3),
    max_intervals=st.integers(0, 12),
    tail=st.booleans(),
)
def test_measure_matches_per_part_slice_sum_bit_for_bit(seed, max_components, max_intervals, tail):
    rng = random.Random(seed)
    space = random_space(rng, max_components, unbounded_prob=0.5)
    mset = random_measurable_set(rng, space, max_intervals=max_intervals)
    if tail:
        unbounded = [i for i, c in enumerate(space.components) if math.isinf(c.carrier[1])]
        if unbounded:
            i = unbounded[0]
            lo = space.components[i].carrier[0] + 5.0  # beyond the sampling window
            mset = MeasurableSet(mset.parts + ((i, lo, math.inf),))
    f = random_step_function(rng, space)
    if tail:
        f = _with_unbounded_tail(rng, space, f)
    want = reference_measure(space, mset).hex()
    # the first measure builds the space's density index, which the plain
    # norm then shares; the second measure hits it
    assert measure(space, mset).value.hex() == want
    assert log_norm(f, space, EXTERNAL).value.hex() == reference_log_norm(f, space, EXTERNAL).hex()
    assert measure(space, mset).value.hex() == want


def merged_table(space, kind):
    """Each component's cells as ``merge_pieces`` gives them for the density, h1 and h2."""
    h1, h2 = _kind_weights(space, kind)
    return [
        [
            (lo, hi, d.value, w1.value, w2.value)
            for lo, hi, (d, w1, w2) in merge_records(comp.density.pieces, a.pieces, b.pieces)
        ]
        for comp, a, b in zip(space.components, h1, h2)
    ]


def _hex_cells(cells):
    return [tuple(v.hex() for v in cell) for cell in cells]


def assert_table_matches_merge(space, kind):
    table = _cell_table(space, kind)
    want = merged_table(space, kind)
    assert len(table) == len(want)
    for (realizable, starts, cells), comp, ref in zip(table, space.components, want):
        assert realizable == comp.realizable
        assert _hex_cells(cells) == _hex_cells(ref)
        assert [x.hex() for x in starts] == [c[0].hex() for c in ref]


def _weights_sharing_cuts(rng, space, reuse):
    """One density per carrier whose interior cuts are drawn from `reuse` and afresh.

    `reuse` holds candidate cuts per component; each is kept with
    probability one half, so breakpoints coincide with those lists.  A
    quarter of the densities are a single piece.
    """
    out = []
    for comp, shared in zip(space.components, reuse):
        lo, hi = comp.carrier
        top = lo + 4.0 if math.isinf(hi) else hi
        cuts = {c for c in shared if rng.random() < 0.5}
        cuts.update(rng.uniform(lo, top) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.25:
            cuts = set()
        bounds = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
        out.append(
            PiecewiseDensity(
                tuple(IntervalPiece(a, b, rng.uniform(0.25, 4.0)) for a, b in zip(bounds, bounds[1:]))
            )
        )
    return tuple(out)


def _cuts(h):
    return [[p.stop for p in hc.pieces[:-1]] for hc in h]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_components=st.integers(1, 3),
    generalized=st.booleans(),
)
def test_weighted_table_matches_the_merge_bit_for_bit(seed, max_components, generalized):
    rng = random.Random(seed)
    space = random_space(rng, max_components, unbounded_prob=0.5)
    dens_cuts = _cuts([c.density for c in space.components])
    h1 = _weights_sharing_cuts(rng, space, dens_cuts)
    if generalized:
        # h2 may share cuts with the density, with h1, or with both
        shared = [d + c for d, c in zip(dens_cuts, _cuts(h1))]
        kind = Generalized(h1, _weights_sharing_cuts(rng, space, shared))
    else:
        kind = Internal(h1)
    assert_table_matches_merge(space, kind)


def _split_at_zero(zero, value=1.0):
    """A density on [-1, 1), cut at `zero` (-0.0 or 0.0), or one piece if `zero` is None."""
    if zero is None:
        return constant_density(-1.0, 1.0, value)
    return density([(-1.0, zero, value), (zero, 1.0, 2.0 * value)])


@pytest.mark.parametrize("dens_zero", [None, -0.0, 0.0])
@pytest.mark.parametrize("h1_zero", [None, -0.0, 0.0])
@pytest.mark.parametrize("h2_zero", [None, -0.0, 0.0])
def test_a_signed_zero_breakpoint_is_written_as_the_merge_writes_it(dens_zero, h1_zero, h2_zero):
    # the pieces tile with -0.0 | 0.0 since -0.0 == 0.0; a cell ends at the
    # first list's zero among those cut there
    space = MeasureSpace((Component(_split_at_zero(dens_zero)),))
    kind = Generalized((_split_at_zero(h1_zero, 0.5),), (_split_at_zero(h2_zero, 3.0),))
    assert_table_matches_merge(space, kind)
    cuts = [z for z in (dens_zero, h1_zero, h2_zero) if z is not None]
    [(_, _, cells)] = _cell_table(space, kind)
    assert [c[1].hex() for c in cells[:-1]] == [z.hex() for z in cuts[:1]]


def test_a_density_starting_at_negative_zero_keeps_its_start():
    space = MeasureSpace((Component(density([(-0.0, 0.5, 1.0), (0.5, 1.0, 2.0)])),))
    h = (constant_density(0.0, 1.0, 3.0),)
    for kind in (Internal(h), Generalized(h, h)):
        assert_table_matches_merge(space, kind)
        [(_, starts, cells)] = _cell_table(space, kind)
        assert starts[0].hex() == cells[0][0].hex() == "-0x0.0p+0"


def test_compiling_a_weighted_table_never_calls_the_merge(monkeypatch):
    calls = []

    def counted(*lists):
        calls.append(len(lists))
        return merge_pieces(*lists)

    monkeypatch.setattr(sys.modules[merge_pieces.__module__], "merge_pieces", counted)
    assert not hasattr(stepfunctions, "merge_pieces")  # no second binding to patch
    rng = random.Random(5)
    for _ in range(20):
        space = random_space(rng, 3, unbounded_prob=0.5)
        f = random_step_function(rng, space)
        h1 = _weights_sharing_cuts(rng, space, _cuts([c.density for c in space.components]))
        h2 = _weights_sharing_cuts(rng, space, _cuts(h1))
        for kind in (Internal(h1), Generalized(h1, h2)):
            assert log_norm(f, space, kind).is_finite
    assert calls == []  # the sweep walks the three lists itself
