import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logspaces import INF, ExtendedReal, LogSpaceError, ext_sum, finite

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
