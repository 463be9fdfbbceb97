"""Step functions stored as columns: equality, hashing and the ``pieces`` view.

Each component of a ``StepFunction`` is three tuples (starts, stops,
coefficients), and ``==`` and ``hash`` run over them; ``pieces`` is a view
of ``StepPiece`` records built on its first read.  Equal functions must
compare and hash alike whichever path built them, ``==`` must agree with
the view's ``==``, and no operation may build the view.
"""

import copy
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from logspaces import (
    EXTERNAL,
    Component,
    Generalized,
    Internal,
    StepFunction,
    StepPiece,
    add,
    constant_density,
    lift,
    log_norm,
    multiply,
    scale,
    space,
    transport_between_spaces,
    transport_set,
    verify_isometry,
    weighting_isometry,
)
from logspaces import stepfunctions
from logspaces.sampling import (
    random_density,
    random_equal_passport_pair,
    random_measurable_set,
    random_space,
    random_step_function,
)

_CARRIERS = ((-1.0, 1.0), (0.0, 2.0))
_SPACE = space(*[Component(constant_density(lo, hi)) for lo, hi in _CARRIERS])
# a zero coefficient is dropped, and two of these differ only in the sign of a zero part
_COEFS = [1 + 0j, complex(1.0, -0.0), complex(-0.0, 2.0), 2j, -1 + 0j, 0.5 - 0.5j, 0j]


@st.composite
def entries(draw):
    """(component, start, stop, coef) entries on a coarse grid of each carrier; 0 is -0.0 or 0.0 each time."""
    out = []
    for comp, (lo, hi) in enumerate(_CARRIERS):
        grid = [lo + k * (hi - lo) / 4 for k in range(5)]
        cuts = sorted(set(draw(st.lists(st.sampled_from(grid), max_size=5))))
        for a, b in zip(cuts, cuts[1:]):
            if draw(st.booleans()):
                a, b = [draw(st.sampled_from([-0.0, 0.0])) if x == 0 else x for x in (a, b)]
                out.append((comp, a, b, draw(st.sampled_from(_COEFS))))
    return out


def _flip_zeros(c):
    """c with the sign of each zero part flipped: an equal coefficient."""
    return complex(-c.real if c.real == 0 else c.real, -c.imag if c.imag == 0 else c.imag)


def _rebuilt(f, specs, space_):
    """f built again by every path that can build it."""
    zero = StepFunction.zero(space_)
    halves = [(i, x, y, c) for i, a, b, c in specs for x, y in ((a, (a + b) / 2), ((a + b) / 2, b))]
    return [
        StepFunction.from_pieces(space_, specs[::-1]),
        StepFunction.from_pieces(space_, halves),
        StepFunction.from_pieces(space_, [(i, a, b, _flip_zeros(complex(c))) for i, a, b, c in specs]),
        scale(f, 1),
        f + zero,
        zero + f,
        pickle.loads(pickle.dumps(f)),
        copy.copy(f),
        copy.deepcopy(f),
        StepFunction(f.pieces),
    ]


@settings(max_examples=300, deadline=None)
@given(entries())
def test_equal_functions_compare_and_hash_alike_whatever_built_them(specs):
    f = StepFunction.from_pieces(_SPACE, specs)
    for g in _rebuilt(f, specs, _SPACE):
        assert g == f and f == g and not g != f
        assert hash(g) == hash(f)
        assert g.pieces == f.pieces


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampled_functions_compare_and_hash_alike_whatever_built_them(seed):
    rng = random.Random(seed)
    space_ = random_space(rng)
    f = random_step_function(rng, space_)
    specs = [(i, a, b, c) for i, col in enumerate(f.columns) for a, b, c in zip(*col)]
    for g in _rebuilt(f, specs, space_):
        assert g == f and hash(g) == hash(f)


@settings(max_examples=300, deadline=None)
@given(entries(), entries())
def test_functions_are_equal_exactly_when_their_pieces_are(specs_f, specs_g):
    f = StepFunction.from_pieces(_SPACE, specs_f)
    g = StepFunction.from_pieces(_SPACE, specs_g)
    assert (f == g) == (f.pieces == g.pieces)
    assert (f != g) == (f.pieces != g.pieces)
    if f == g:
        assert hash(f) == hash(g)


def test_no_operation_builds_the_pieces_view(monkeypatch):
    def refuse(*args):
        raise AssertionError("a step piece record was built")

    monkeypatch.setattr(stepfunctions, "_pieces_view", refuse)
    monkeypatch.setattr(StepPiece, "__post_init__", refuse)
    built = 0
    for seed in range(20):
        rng = random.Random(seed)
        src, dst = random_equal_passport_pair(rng)
        tmap = transport_between_spaces(src, dst)
        f = random_step_function(rng, src)
        g = random_step_function(rng, src)
        h = random_density(rng, src)
        specs = [(i, a, b, c) for i, col in enumerate(f.columns) for a, b, c in zip(*col)]
        results = [
            add(f, g),
            multiply(f, g),
            scale(f, 0.5),
            f - g,
            lift(tmap, f),
            weighting_isometry(f, h),
            StepFunction.from_pieces(src, specs),
        ]
        for kind in (EXTERNAL, Internal(h), Generalized(h, random_density(rng, src))):
            log_norm(f, src, kind)
            log_norm(results[0], src, kind)
        transport_set(tmap, random_measurable_set(rng, src))
        verify_isometry(tmap, src, dst, 2, seed)
        verify_isometry(h, src, src, 2, seed)
        built += sum(len(col[0]) for r in results for col in r.columns)
    assert built > 100
