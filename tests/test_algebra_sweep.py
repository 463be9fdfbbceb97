"""`add` and `multiply` against the merge they were written out from.

The reference below is the pointwise algebra as it stood when it ran
through the generic merge: ``merge_pieces(pa, pb)`` gives the cells, a gap
counts as ``0j`` and is passed through ``fn``, and ``_from_cells`` builds
the canonical pieces.  The two-cursor sweep must give the same cells and
the same functions bit for bit, and raise the same errors.

The inputs are the ones the sampler never draws: ``-0.0`` and ``0.0`` as one
breakpoint (a piece may also stop at one zero and the next start at the
other), coefficients with ``-0.0`` parts, which a gap's ``0j`` turns into
``0.0``, pieces reaching ``+inf``, empty sides and disjoint supports, sums
that cancel, touching cells whose results are equal, and products and sums
that overflow.  The set-of-breakpoints reference in ``test_merge.py`` cannot
see the sign of a zero bound; this one can.
"""

import math
import operator
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logspaces import (
    LogSpaceError,
    StepFunction,
    StepPiece,
    add,
    interval_space,
    multiply,
    scale,
)
from logspaces.measure import merge_pieces
from logspaces.stepfunctions import _from_cells, _pointwise_cells, _wrap

_OPS = [(add, operator.add), (multiply, operator.mul)]


def reference_cells(pa, pb, fn):
    return [
        (lo, hi, fn(0j if p is None else p.coef, 0j if q is None else q.coef))
        for lo, hi, (p, q) in merge_pieces(pa, pb)
    ]


def reference_pointwise(f, g, fn):
    if len(f.pieces) != len(g.pieces):
        raise LogSpaceError("step functions live on different spaces")
    return _wrap(tuple([_from_cells(reference_cells(pa, pb, fn)) for pa, pb in zip(f.pieces, g.pieces)]))


def _hex_cells(cells):
    return [(a.hex(), b.hex(), c.real.hex(), c.imag.hex()) for a, b, c in cells]


def _exact(f):
    return [_hex_cells([(p.start, p.stop, p.coef) for p in ps]) for ps in f.pieces]


def _outcome(op, *args):
    try:
        return _exact(op(*args))
    except LogSpaceError as exc:
        return ("error", str(exc))


_ZERO = "zero"  # a breakpoint at 0, written -0.0 or 0.0 each time it is used
_CUTS = [-2.0, -1.0, -0.5, _ZERO, 0.5, 1.0, 2.0, math.inf]
_COEFS = [
    1 + 0j,
    2 + 0j,
    -1 + 0j,
    1j,
    0.5 - 0.5j,
    complex(1.0, -0.0),
    complex(-0.0, 1.0),
    complex(-2.0, -0.0),
    complex(-0.0, -0.0),  # a zero piece: the plain constructor keeps it
    1e200 + 0j,
    1.5e308 + 0j,
]


@st.composite
def piece_lists(draw):
    """Sorted, disjoint pieces on a few shared cuts; each piece or gap is drawn apart."""
    cuts = [c for c in _CUTS if draw(st.booleans())]
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            a, b = [draw(st.sampled_from([-0.0, 0.0])) if x is _ZERO else x for x in (a, b)]
            pieces.append(StepPiece(a, b, draw(st.sampled_from(_COEFS))))
    return tuple(pieces)


@st.composite
def function_pairs(draw):
    n = draw(st.integers(1, 2))
    f = StepFunction(tuple(draw(piece_lists()) for _ in range(n)))
    g = StepFunction(tuple(draw(piece_lists()) for _ in range(n)))
    return f, g


@settings(max_examples=600, deadline=None)
@given(function_pairs())
def test_cells_match_the_merge_bit_for_bit(pair):
    f, g = pair
    for pa, pb, a, b in zip(f.pieces, g.pieces, f.columns, g.columns):
        for _, fn in _OPS:
            assert _hex_cells(_pointwise_cells(a, b, fn)) == _hex_cells(reference_cells(pa, pb, fn))


@settings(max_examples=600, deadline=None)
@given(function_pairs())
def test_add_and_multiply_match_the_merge_bit_for_bit(pair):
    f, g = pair
    for op, fn in _OPS:
        assert _outcome(op, f, g) == _outcome(reference_pointwise, f, g, fn)
        assert _outcome(op, g, f) == _outcome(reference_pointwise, g, f, fn)


def _fn(*pieces):
    return StepFunction((tuple(StepPiece(*p) for p in pieces),))


@pytest.mark.parametrize("za", [-0.0, 0.0])
@pytest.mark.parametrize("zb", [-0.0, 0.0])
def test_a_zero_breakpoint_is_the_first_lists_zero(za, zb):
    # both lists cut at zero; the cell ends at f's zero, as min picks it
    f = _fn((-1.0, za, 1.0), (za, 1.0, 2.0))
    g = _fn((-1.0, zb, 3.0), (zb, 1.0, 5.0))
    for op, fn in _OPS:
        got = op(f, g)
        assert _exact(got) == _exact(reference_pointwise(f, g, fn))
        assert got.pieces[0][0].stop.hex() == got.pieces[0][1].start.hex() == za.hex()


def test_touching_pieces_meet_at_the_first_lists_zero():
    # f stops at -0.0 and g starts at 0.0: the sum's second piece starts at f's -0.0
    f = _fn((-1.0, -0.0, 1.0))
    g = _fn((0.0, 1.0, 2.0))
    got = add(f, g)
    assert _exact(got) == _exact(reference_pointwise(f, g, operator.add))
    assert [p.start.hex() for p in got.pieces[0]] == ["-0x1.0000000000000p+0", "-0x0.0p+0"]


def test_a_gap_passes_zero_through_fn():
    # 0j + (1-0j) is (1+0j): the gap's 0j turns a -0.0 part into 0.0
    f = _fn((0.0, 1.0, complex(1.0, -0.0)))
    empty = StepFunction(((),))
    for got in (add(f, empty), add(empty, f)):
        [[piece]] = got.pieces
        assert piece.coef.imag.hex() == "0x0.0p+0"
    assert multiply(f, empty).is_zero


@given(function_pairs())
@example((_fn((-1.0, -0.0, 2.0), (0.0, math.inf, 1j)), _fn()))
def test_a_function_minus_itself_cancels(pair):
    f, _ = pair
    neg = scale(f, -1)
    assert add(f, neg).is_zero
    assert _exact(add(f, neg)) == _exact(reference_pointwise(f, neg, operator.add))


def test_touching_cells_with_equal_results_merge():
    f = _fn((0.0, 1.0, 1.0), (1.0, 2.0, 2.0), (2.0, math.inf, 3.0))
    g = _fn((0.0, 1.0, 3.0), (1.0, 2.0, 2.0), (2.0, math.inf, 1.0))
    for op, fn in _OPS:
        got = op(f, g)
        assert _exact(got) == _exact(reference_pointwise(f, g, fn))
    [[piece]] = add(f, g).pieces
    assert (piece.start, piece.stop, piece.coef) == (0.0, math.inf, 4 + 0j)


@pytest.mark.parametrize(
    "f, g",
    [
        (_fn(), _fn()),
        (_fn((0.0, 1.0, 2.0)), _fn()),
        (_fn((0.0, 1.0, 2.0)), _fn((1.0, 2.0, 3.0))),
        (_fn((0.0, 1.0, 2.0)), _fn((5.0, math.inf, 3.0))),
        (_fn((-0.0, 1.0, 2.0)), _fn((-1.0, 0.0, 3.0))),
    ],
)
def test_empty_sides_and_disjoint_supports(f, g):
    for op, fn in _OPS:
        assert _exact(op(f, g)) == _exact(reference_pointwise(f, g, fn))
        assert _exact(op(g, f)) == _exact(reference_pointwise(g, f, fn))
    assert multiply(f, g).is_zero


def test_an_overflowing_product_or_sum_is_rejected():
    f = _fn((0.0, 1.0, 1e200))
    with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
        multiply(f, f)
    g = _fn((0.0, 1.0, 1.5e308))
    with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
        add(g, g)


def test_functions_on_different_spaces_are_rejected():
    f = StepFunction.from_pieces(interval_space(0, 1), [(0, 0.0, 0.5, 2)])
    g = StepFunction(((), ()))
    for op in (add, multiply):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(LogSpaceError, match="step functions live on different spaces"):
                op(a, b)


def test_add_and_multiply_never_call_the_merge(monkeypatch):
    calls = []

    def counted(*lists):
        calls.append(len(lists))
        return merge_pieces(*lists)

    monkeypatch.setattr(sys.modules[merge_pieces.__module__], "merge_pieces", counted)
    f = _fn((0.0, 1.0, 2.0), (1.0, 3.0, 1j))
    g = _fn((0.5, 2.0, 3.0))
    for h in (f + g, f * g, f - g):
        assert not h.is_zero
    assert calls == []
