"""Shared helpers for the test suite: tolerances and test-local oracles."""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest

from logspaces import IntervalPiece, MeasureSpace
from logspaces.measure import merge_pieces


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def assert_final_records(pieces, cls) -> None:
    """Each piece is exactly a `cls` record: frozen, equal and hashing alike to the
    one its constructor builds from its fields, and rebuilt by pickle and deepcopy."""
    for p in pieces:
        assert type(p) is cls
        with pytest.raises(AttributeError, match="cannot assign to field 'start'"):
            p.start = 0.0
        with pytest.raises(AttributeError, match="cannot delete field 'stop'"):
            del p.stop
        built = cls(*[getattr(p, name) for name in cls.__slots__])
        assert p == built and hash(p) == hash(built)
        for again in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert type(again) is cls and again == p and hash(again) == hash(p)


def merge_records(*piece_lists):
    """``merge_pieces`` over lists of records that have a ``start`` and a ``stop``.

    Yields (lo, hi, records): the record of each list covering the cell, or
    None.  A thin wrapper over the one column walk, for references written
    against records.
    """
    lists = [tuple(pl) for pl in piece_lists]
    columns = [([p.start for p in pl], [p.stop for p in pl]) for pl in lists]
    for lo, hi, cell in merge_pieces(*columns):
        yield lo, hi, tuple([None if i is None else pl[i] for pl, i in zip(lists, cell)])


def random_integrand(rng: random.Random, space: MeasureSpace, vmax: float = 5.0):
    """Non-negative piecewise-constant integrand covering every carrier."""
    out = []
    for comp in space.components:
        lo, hi = comp.carrier
        if math.isinf(hi):
            raise ValueError("bounded carriers only")
        cuts = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(0, 3)))
        bounds = [lo] + [c for c in cuts if lo < c < hi] + [hi]
        pieces = []
        for a, b in zip(bounds, bounds[1:]):
            if b > a:
                value = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, vmax)
                pieces.append(IntervalPiece(a, b, value))
        out.append(tuple(pieces))
    return tuple(out)


def _lookup(pieces, xs):
    """Pointwise values of (start, stop, value) pieces at xs; zero off-piece."""
    import numpy as np

    starts = np.array([p.start for p in pieces])
    stops = np.array([p.stop for p in pieces])
    vals = np.array([p.value for p in pieces])
    idx = np.clip(np.searchsorted(starts, xs, side="right") - 1, 0, len(pieces) - 1)
    inside = (xs >= starts[idx]) & (xs < stops[idx])
    return np.where(inside, vals[idx], 0.0)


def midpoint_integral(space: MeasureSpace, integrand, per_unit: int = 100_000) -> float:
    """Plain midpoint Riemann sum of integrand d(mu), refined at the jumps.

    Independent of the library's closed form: pointwise lookups and a cell sum.
    """
    import numpy as np

    total = 0.0
    for comp, pieces in zip(space.components, integrand):
        dens = comp.density.pieces
        cuts = sorted(
            {p.start for p in pieces}
            | {p.stop for p in pieces}
            | {p.start for p in dens}
            | {p.stop for p in dens}
        )
        for u, v in zip(cuts, cuts[1:]):
            n = max(1, math.ceil((v - u) * per_unit))
            w = (v - u) / n
            xs = u + (np.arange(n) + 0.5) * w
            total += w * float(np.sum(_lookup(pieces, xs) * _lookup(dens, xs)))
    return total
