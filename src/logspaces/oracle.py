"""The midpoint Riemann-sum oracle: an independent check of the closed-form norms.

Its sums come from its own grid; it shares with the closed form only the
kind weights and the fit check, the norm walk ``_norm_terms``, whose terms
it discards.  This is the one module that uses numpy, an optional
dependency (the package's ``oracle`` extra).  numpy is imported inside the
oracle and its grid helpers, so importing this module does not need it,
and a missing numpy is reported by ``riemann_oracle`` as an error that
names the extra.  The package loads this module only when
``logspaces.riemann_oracle`` is first read, so that no command-line call
compiles it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import LogSpaceError
from .measure import MeasureSpace, PiecewiseDensity, _density_index
from .stepfunctions import NormKind, StepFunction, StepPiece, _kind_weights, _norm_terms

if TYPE_CHECKING:
    import numpy as np


def _values_on_grid(pieces: Sequence[StepPiece], xs: np.ndarray) -> np.ndarray:
    """|f| sampled pointwise; zero in the gaps."""
    import numpy as np

    if not pieces:
        return np.zeros_like(xs)
    starts = np.array([p.start for p in pieces])
    stops = np.array([p.stop for p in pieces])
    mods = np.array([abs(p.coef) for p in pieces])
    idx = np.clip(np.searchsorted(starts, xs, side="right") - 1, 0, len(pieces) - 1)
    inside = (xs >= starts[idx]) & (xs < stops[idx])
    return np.where(inside, mods[idx], 0.0)


def _density_on_grid(pd: PiecewiseDensity, xs: np.ndarray) -> np.ndarray:
    import numpy as np

    starts = np.array([p.start for p in pd.pieces[1:]])
    vals = np.array([p.value for p in pd.pieces])
    return vals[np.searchsorted(starts, xs, side="right")]


def riemann_oracle(
    f: StepFunction, space: MeasureSpace, kind: NormKind, subdivisions: int
) -> float:
    """Midpoint Riemann sum of the selected norm integrand.

    `subdivisions` counts cells per unit length.  The partition is refined at
    the jump points of the integrand, so the sum is an independent pointwise
    check of the closed form rather than a victim of jump aliasing.  Supports
    must be bounded.  It needs numpy, the package's ``oracle`` extra.
    """
    try:
        import numpy as np
    except ImportError:
        raise LogSpaceError(
            'riemann_oracle needs numpy: install the "oracle" extra (pip install "logspaces[oracle]")'
        ) from None

    if subdivisions < 1:
        raise LogSpaceError("subdivisions must be >= 1")
    _norm_terms(f, _density_index(space))  # the fit check only: the terms are not used
    h1, h2 = _kind_weights(space, kind)
    total = 0.0
    for comp, ps, h1c, h2c in zip(space.components, f.pieces, h1, h2):
        if not ps:
            continue
        if math.isinf(ps[-1].stop):
            raise LogSpaceError("oracle requires bounded support")
        lo, hi = ps[0].start, ps[-1].stop
        cuts = {lo, hi}
        cuts.update(p.start for p in ps)
        cuts.update(p.stop for p in ps)
        for pd in (comp.density, h1c, h2c):
            cuts.update(p.start for p in pd.pieces if lo < p.start < hi)
            cuts.update(p.stop for p in pd.pieces if lo < p.stop < hi)
        grid = sorted(cuts)
        mids_all, widths_all = [], []
        for u, v in zip(grid, grid[1:]):
            n = max(1, math.ceil((v - u) * subdivisions))
            w = (v - u) / n
            mids_all.append(u + (np.arange(n) + 0.5) * w)
            widths_all.append(np.full(n, w))
        xs = np.concatenate(mids_all)
        ws = np.concatenate(widths_all)
        vals = _values_on_grid(ps, xs)
        integrand = _density_on_grid(comp.density, xs) * _density_on_grid(h1c, xs)
        scaled = _density_on_grid(h2c, xs) * vals
        total += float(np.dot(ws, integrand * np.log1p(scaled)))
    return total
