"""The one piece builder against the sort-and-rebuild path it replaced.

Every operation used to canonicalize its cells by sorting them, merging
equal neighbours and then building each piece through ``StepPiece``, whose
``__post_init__`` converted and checked it.  The reference below is that
path, copied: ``reference_canonical`` plus ``_reference_piece``.  The
operations now hand their cells to ``_from_cells``, which checks each cell
inline and writes a component's starts, stops and coefficients as three
columns; ``StepFunction.pieces`` shows them as ``StepPiece`` records.
Results must agree bit for bit, and a rejected input must raise the same
``LogSpaceError`` message.

The inputs reach the cases the builder must keep: products that underflow to
zero, neighbours that round equal after scaling, and products that overflow.
The norm walk, which is also the package's one check that a function fits
a space, is compared with a per-component reference check on spaces with
symbolic, too-short and missing components; the oracle, which borrows that
walk for its own fit check, must raise the same errors.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_final_records
from logspaces import (
    Component,
    IntervalPiece,
    LogSpaceError,
    MeasureSpace,
    PiecewiseDensity,
    StepFunction,
    StepPiece,
    add,
    glue_transports,
    interval_space,
    lift,
    log_norm,
    multiply,
    riemann_oracle,
    scale,
    transport_between_spaces,
    weighting_isometry,
)
from logspaces.measure import merge_pieces
from logspaces.sampling import (
    random_density,
    random_equal_passport_pair,
    random_kind,
    random_matched_components_pair,
    random_space,
    random_step_function,
)
from logspaces.transport import _images


def _density_in(rng, space, lo, hi):
    """``random_density``'s pieces with values drawn uniformly from [lo, hi) instead."""
    return tuple(
        PiecewiseDensity(tuple(IntervalPiece(p.start, p.stop, rng.uniform(lo, hi)) for p in d.pieces))
        for d in random_density(rng, space)
    )


def _reference_piece(a, b, c):
    a, b, c = float(a), float(b), complex(c)
    if math.isnan(a) or math.isinf(a) or not a < b:
        raise LogSpaceError(f"step piece must satisfy start < stop, got [{a}, {b})")
    if not cmath.isfinite(c):
        raise LogSpaceError(f"step coefficient must be finite, got {c!r}")
    return (a, b, c)


def reference_canonical(raw):
    items = sorted(((a, b, c) for a, b, c in raw if c != 0 and a < b), key=lambda t: (t[0], t[1]))
    merged = []
    for a, b, c in items:
        if merged and a < merged[-1][1]:
            raise LogSpaceError("step function pieces must be disjoint")
        if merged and a == merged[-1][1] and c == merged[-1][2]:
            merged[-1][1] = b
        else:
            merged.append([a, b, c])
    return [_reference_piece(a, b, c) for a, b, c in merged]


def reference_from_pieces(space, specs):
    per = [[] for _ in space.components]
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
    return [reference_canonical(ps) for ps in per]


def reference_scale(f, alpha):
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise LogSpaceError(f"scale factor must be finite, got {alpha!r}")
    if alpha == 0:
        return [[] for _ in f.pieces]
    return [reference_canonical([(p.start, p.stop, alpha * p.coef) for p in ps]) for ps in f.pieces]


def reference_pointwise(f, g, fn):
    return [
        reference_canonical(
            [
                (lo, hi, fn(0j if p is None else p.coef, 0j if q is None else q.coef))
                for lo, hi, (p, q) in merge_pieces(pa, pb)
            ]
        )
        for pa, pb in zip(f.pieces, g.pieces)
    ]


def reference_weighting(f, h):
    out = []
    for hc, pieces in zip(h, f.pieces):
        raw = []
        for lo, hi, (p, w) in merge_pieces(pieces, hc.pieces):
            if p is None:
                continue
            if w is None:
                raise LogSpaceError("out of carrier")
            raw.append((lo, hi, p.coef / w.value))
        out.append(reference_canonical(raw))
    return out


def reference_lift(tmap, f):
    if len(f.pieces) != tmap.src_components:
        raise LogSpaceError("function/space mismatch")
    buckets = [[] for _ in range(tmap.dst_components)]
    sources = {comp: pieces for comp, pieces in enumerate(f.pieces) if pieces}
    for p, dst, lo, hi in _images(tmap, sources):
        if lo < hi:
            buckets[dst].append((lo, hi, p.coef))
    return [reference_canonical(b) for b in buckets]


def reference_check_function_fits(f, space):
    if len(f.pieces) != len(space.components):
        raise LogSpaceError("function/space mismatch")
    for comp, ps in zip(space.components, f.pieces):
        if ps and not comp.realizable:
            raise LogSpaceError("symbolic component")
        if ps:
            lo, hi = comp.carrier
            if ps[0].start < lo or ps[-1].stop > hi:
                raise LogSpaceError("out of carrier")


def reference_log_norm(f, space, kind):
    reference_check_function_fits(f, space)  # a misfit function is reported before the kind
    return log_norm(f, space, kind)


def _exact(x):
    """Bit patterns of every bound and coefficient, or the error raised."""
    if isinstance(x, StepFunction):
        x = [[(p.start, p.stop, p.coef) for p in ps] for ps in x.pieces]
    if isinstance(x, list):
        return [[(a.hex(), b.hex(), c.real.hex(), c.imag.hex()) for a, b, c in ps] for ps in x]
    return x


def _outcome(fn, *args):
    try:
        return _exact(fn(*args))
    except LogSpaceError as e:
        return ("LogSpaceError", str(e))


def _magnitude(rng):
    """A modulus anywhere from subnormal to near the float maximum."""
    return rng.choice([rng.uniform(0.1, 10.0), 10.0 ** rng.uniform(-330.0, 308.0), 2.0 ** -1070])


def _coef(rng, modulus):
    if rng.random() < 0.3:
        return complex(modulus * rng.choice([1.0, -1.0]), 0.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(phase), modulus * math.sin(phase))


def _extreme_specs(rng, space, max_pieces):
    """Touching and gapped pieces with wide-range coefficients, some one ulp apart."""
    specs = []
    for i, comp in enumerate(space.components):
        lo, hi = comp.carrier
        hi = min(hi, lo + 4.0)
        bounds = sorted({rng.uniform(lo, hi) for _ in range(rng.randint(1, max_pieces) + 1)})
        c = _coef(rng, _magnitude(rng))
        for a, b in zip(bounds, bounds[1:]):
            roll = rng.random()
            if roll < 0.15:
                continue  # a gap
            if roll < 0.55:  # the neighbour's coefficient, one ulp off
                c = complex(math.nextafter(c.real, math.inf), c.imag)
            elif roll < 0.65:
                c = 0j
            else:
                c = _coef(rng, _magnitude(rng))
            if cmath.isfinite(c):
                specs.append((i, a, b, c))
    return specs


def _reference_function(space, specs):
    """A step function built by the reference path only, so inputs do not depend on the builder."""
    return StepFunction(tuple(tuple(StepPiece(*t) for t in ps) for ps in reference_from_pieces(space, specs)))


def _factor(rng):
    return rng.choice(
        [
            _coef(rng, _magnitude(rng)),
            _coef(rng, 2.0 ** rng.randint(-1100, 1023)),
            -1,
            0,
            2,
            complex(0.0, 1.0),
        ]
    )


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_pieces=st.integers(1, 16))
def test_arithmetic_matches_the_reference_path(seed, max_pieces):
    rng = random.Random(seed)
    space = random_space(rng, 3, unbounded_prob=0.5)
    f = _reference_function(space, _extreme_specs(rng, space, max_pieces))
    g = _reference_function(space, _extreme_specs(rng, space, max_pieces))
    alpha = _factor(rng)
    assert _outcome(scale, f, alpha) == _outcome(reference_scale, f, alpha)
    for got, fn in ((add, lambda x, y: x + y), (multiply, lambda x, y: x * y)):
        assert _outcome(got, f, g) == _outcome(reference_pointwise, f, g, fn)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_pieces=st.integers(1, 16), overlap=st.booleans())
def test_from_pieces_matches_the_reference_path(seed, max_pieces, overlap):
    rng = random.Random(seed)
    space = random_space(rng, 3, unbounded_prob=0.5)
    specs = _extreme_specs(rng, space, max_pieces)
    if overlap and specs:  # a second, overlapping, touching or zero-length copy of one piece
        i, a, b, c = rng.choice(specs)
        a2 = rng.choice([a, b, (a + b) / 2])
        specs.append((i, a2, rng.choice([a2, b, b + (b - a2)]), rng.choice([c, 2 * c, 0j])))
    rng.shuffle(specs)
    got = _outcome(StepFunction.from_pieces, space, specs)
    assert got == _outcome(reference_from_pieces, space, specs)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_pieces=st.integers(1, 16))
def test_weighting_matches_the_reference_path(seed, max_pieces):
    rng = random.Random(seed)
    space = random_space(rng, 3, unbounded_prob=0.5)
    f = _reference_function(space, _extreme_specs(rng, space, max_pieces))
    # weights from far below to far above 1, so quotients underflow and overflow
    h = _density_in(rng, space, *rng.choice([(0.25, 4.0), (1e-300, 1e-290), (1e290, 1e300)]))
    assert _outcome(weighting_isometry, f, h) == _outcome(reference_weighting, f, h)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), matched=st.booleans())
def test_lift_matches_the_reference_path(seed, matched):
    rng = random.Random(seed)
    if matched:
        src, dst = random_matched_components_pair(rng)
        tmap = glue_transports(list(zip(src.components, dst.components)))
    else:
        src, dst = random_equal_passport_pair(rng)
        tmap = transport_between_spaces(src, dst)
    f = _reference_function(src, _extreme_specs(rng, src, rng.randint(1, 16)))
    assert _outcome(lift, tmap, f) == _outcome(reference_lift, tmap, f)


def _shorter(rng, comp, f_pieces):
    """comp cut so that it no longer holds f's first or last piece."""
    pieces = comp.density.pieces
    if f_pieces and rng.random() < 0.5:
        x = f_pieces[-1].stop
        if math.isinf(x):
            x = f_pieces[-1].start + 1.0
        cut = rng.uniform(f_pieces[0].start, x)
        kept = [IntervalPiece(p.start, min(p.stop, cut), p.value) for p in pieces if p.start < cut]
    else:
        cut = rng.uniform(comp.carrier[0], f_pieces[0].start) if f_pieces else comp.carrier[0]
        cut = rng.choice([cut, f_pieces[0].stop if f_pieces else cut])
        kept = [IntervalPiece(max(p.start, cut), p.stop, p.value) for p in pieces if p.stop > cut]
    if not kept or kept[0].start >= kept[0].stop:
        return comp
    return Component(PiecewiseDensity(tuple(kept)), comp.weight)


def _misfit(rng, space, f):
    """A variant of space on which f may be symbolic, out of carrier or mismatched."""
    comps = list(space.components)
    i = rng.randrange(len(comps))
    roll = rng.random()
    if roll < 0.35:
        comps[i] = Component(comps[i].density, weight=rng.randint(1, 3))
    elif roll < 0.8:
        comps[i] = _shorter(rng, comps[i], f.pieces[i])
    elif roll < 0.9:
        comps.append(Component(comps[i].density))
    elif len(comps) > 1:
        del comps[i]
    return MeasureSpace(tuple(comps))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_norm_and_oracle_fit_checks_match_the_reference(seed):
    """log_norm agrees with the reference everywhere; riemann_oracle raises its errors.

    The oracle is compared only where the reference rejects f or the kind,
    before any sum; a norm sum that overflows is the closed form's own error.
    """
    rng = random.Random(seed)
    space = random_space(rng, 3, unbounded_prob=0.5)
    f = random_step_function(rng, space, max_pieces=rng.randint(1, 8))
    if rng.random() < 0.5:  # a tail reaching +inf, so an infinite norm meets a misfit elsewhere
        specs = [(i, p.start, p.stop, p.coef) for i, ps in enumerate(f.pieces) for p in ps]
        for i, comp in enumerate(space.components):
            if math.isinf(comp.carrier[1]):
                specs.append((i, comp.carrier[0] + 5.0, math.inf, 1))
        f = StepFunction.from_pieces(space, specs)
    other = _misfit(rng, space, f)
    kinds = [random_kind(rng, rng.choice([space, other]))]
    kinds.append(kinds[0])  # the second call hits the stored table
    for kind in kinds:
        expected = _outcome(reference_log_norm, f, other, kind)
        assert _outcome(log_norm, f, other, kind) == expected
        if isinstance(expected, tuple) and not expected[1].endswith("overflows a float"):
            assert _outcome(riemann_oracle, f, other, kind, 10) == expected


UNIT = interval_space(0, 1)


def _touching(c1, c2):
    return StepFunction.from_pieces(UNIT, [(0, 0.0, 0.5, c1), (0, 0.5, 1.0, c2)])


def test_products_that_underflow_are_dropped():
    f = _touching(1e-200, 3.0)
    got = scale(f, 1e-200)
    assert [(p.start, p.stop) for p in got.pieces[0]] == [(0.5, 1.0)]
    assert multiply(f, f).pieces[0][0].start == 0.5
    assert _exact(got) == _exact(reference_scale(f, 1e-200))


def test_neighbours_that_round_equal_after_scaling_are_merged():
    f = _touching(1.0, 1.0 + 2.0**-52)
    assert len(f.pieces[0]) == 2
    got = scale(f, 2.0**-1070)  # both products round to the same subnormal
    assert [(p.start, p.stop, p.coef) for p in got.pieces[0]] == [(0.0, 1.0, 2.0**-1070)]
    assert _exact(got) == _exact(reference_scale(f, 2.0**-1070))


def test_products_that_overflow_are_rejected():
    f = _touching(1e300, 1.0)
    big = scale(f, 1e8)  # 1e308, still finite
    for op in (lambda: scale(f, 1e10), lambda: multiply(f, f), lambda: add(big, big)):
        with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
            op()
    with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
        weighting_isometry(f, _density_in(random.Random(1), UNIT, 1e-10, 1e-9))


def test_from_pieces_rejects_nan_and_reversed_bounds():
    for a, b in ((0.0, math.nan), (math.nan, 0.5), (0.7, 0.5)):
        with pytest.raises(LogSpaceError, match="step piece must satisfy start < stop"):
            StepFunction.from_pieces(UNIT, [(0, a, b, 0.5)])
    # zero-length pieces and zero coefficients are still dropped
    assert StepFunction.from_pieces(UNIT, [(0, 0.5, 0.5, 1), (0, 0.2, 0.3, 0)]).is_zero


def test_the_first_bad_piece_in_start_order_is_reported():
    # an overlap after a non-finite coefficient: the coefficient comes first
    with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
        StepFunction.from_pieces(UNIT, [(0, 0.0, 0.2, math.inf), (0, 0.3, 0.6, 1), (0, 0.5, 0.9, 2)])
    with pytest.raises(LogSpaceError, match="disjoint"):
        StepFunction.from_pieces(UNIT, [(0, 0.0, 0.6, 1), (0, 0.5, 0.9, 2), (0, 0.9, 1.0, math.inf)])


def _derived_functions():
    """Functions from every path that builds step pieces: the sampler, the
    algebra, lift, weighting, from_pieces and the constructor, and a scaling
    whose neighbours round equal, so that the builder extends a piece."""
    rng = random.Random(5)
    src, dst = random_equal_passport_pair(rng)
    tmap = transport_between_spaces(src, dst)
    f = random_step_function(rng, src, max_pieces=8)
    g = random_step_function(rng, src, max_pieces=8)
    h = random_density(rng, src)
    specs = [(i, p.start, p.stop, p.coef) for i, ps in enumerate(f.pieces) for p in ps]
    merged = scale(_touching(1.0, 1.0 + 2.0**-52), 2.0**-1070)
    assert len(merged.pieces[0]) == 1
    return [
        f,
        g,
        scale(f, 0.5),
        add(f, g),
        multiply(f, g),
        lift(tmap, f),
        weighting_isometry(f, h),
        StepFunction.from_pieces(src, specs),
        StepFunction(f.pieces),
        merged,
    ]


def test_derived_functions_hold_only_final_step_pieces():
    pieces = [p for r in _derived_functions() for ps in r.pieces for p in ps]
    assert len(pieces) > 20
    assert_final_records(pieces, StepPiece)


def test_the_pieces_view_is_built_once_from_the_columns():
    for f in _derived_functions():
        before = hash(f)
        view = f.pieces
        assert f.pieces is view
        assert [tuple(zip(*col)) for col in f.columns] == [
            tuple((p.start, p.stop, p.coef) for p in ps) for ps in view
        ]
        assert hash(f) == before and f == StepFunction(view)
    with pytest.raises(LogSpaceError, match="step function pieces must be StepPiece records"):
        StepFunction((((0.0, 1.0, 1j),),))
