"""The compiled-table norm and the indexed measure against per-piece slicing.

The reference below refines the density, h1 and h2 afresh inside every step
piece (O(P*D) per component) and sums each measure part over a fresh slice
of the density.  It yields the same cells and the same products, and
``math.fsum`` does not depend on term order, so the kernels must agree with
it bit for bit, not merely within a tolerance.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from logspaces import (
    EXTERNAL,
    External,
    Internal,
    IntervalPiece,
    MeasurableSet,
    StepFunction,
    log_norm,
    measure,
)
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
