import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logspaces import (
    INF,
    ExtendedReal,
    External,
    Generalized,
    Internal,
    IntervalPiece,
    LogSpaceError,
    MeasurableSet,
    StepFunction,
    constant_density,
    ext_sum,
    finite,
    integrate_piecewise,
    interval_space,
    log_norm,
    measure,
    total_measure,
)

nonneg = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


def test_constants():
    assert not INF.is_finite
    assert finite(0.0) == ExtendedReal(0.0)
    assert float(finite(2.5)) == 2.5


@given(nonneg, nonneg)
def test_ordering_matches_floats(a, b):
    assert (ExtendedReal(a) <= ExtendedReal(b)) == (a <= b)
    assert ExtendedReal(a) < INF


@given(nonneg, nonneg)
def test_addition(a, b):
    assert ExtendedReal(a) + ExtendedReal(b) == ExtendedReal(a + b)
    assert (ExtendedReal(a) + INF) == INF


def test_rejects_negative_and_nan():
    with pytest.raises(LogSpaceError):
        ExtendedReal(-1.0)
    with pytest.raises(LogSpaceError):
        ExtendedReal(math.nan)
    with pytest.raises(LogSpaceError):
        finite(math.inf)


def test_ext_sum_compensated():
    # 0.1 summed 10^5 times: fsum is exact, naive accumulation is not
    vals = [ExtendedReal(0.1)] * 100_000
    assert ext_sum(vals).value == 10000.0
    assert ext_sum([ExtendedReal(1.0), INF, ExtendedReal(2.0)]) == INF
    assert ext_sum([]) == ExtendedReal(0.0)
    with pytest.raises(LogSpaceError, match="overflows"):
        ext_sum([ExtendedReal(1e308), ExtendedReal(1e308)])


def test_ext_sum_rejects_overflow_next_to_infinity():
    with pytest.raises(LogSpaceError, match="sum of finite values overflows"):
        ext_sum([ExtendedReal(1e308), INF, ExtendedReal(1e308)])



def test_sums_are_returned_without_a_second_check(monkeypatch):
    # norms, measures and sums of extended reals write their result
    # directly: a finite sum of terms >= 0 needs no constructor check
    space = interval_space(0, 2, 0.5)
    f = StepFunction.from_pieces(space, [(0, 0.0, 1.0, 2), (0, 1.5, 2.0, 3j)])
    h = constant_density(0, 2, 3)
    kinds = [External(), Internal(h), Generalized(h, h)]
    mset = MeasurableSet(((0, 0.25, 1.75),))
    integrand = [(IntervalPiece(0, 2, 4),)]
    parts = [finite(1.0), finite(2.5)]
    checked = []
    post_init = ExtendedReal.__post_init__
    monkeypatch.setattr(ExtendedReal, "__post_init__", lambda e: checked.append(e) or post_init(e))
    norms = [log_norm(f, space, kind) for kind in kinds]
    sums = [measure(space, mset), integrate_piecewise(space, integrand)]
    sums += [space.components[0].measure(), total_measure(space), ext_sum(parts)]
    assert checked == []
    assert [s.value for s in sums] == [0.75, 4.0, 1.0, 1.0, 3.5]
    assert all(type(n) is ExtendedReal and n.value > 0.0 for n in norms)
