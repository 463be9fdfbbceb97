"""Non-negative extended reals: measure and norm values that may be infinite."""

from __future__ import annotations

import math
from typing import Iterable

from ._value import Value, real
from .errors import LogSpaceError

_new = object.__new__
_set = object.__setattr__


class ExtendedReal(Value):
    """A value in [0, +inf].

    Finite values are non-negative floats; infinity is ``value == math.inf``.
    Ordering and equality are those of the underlying float, so
    ``finite(a) < INF`` always holds.
    """

    value: float

    def __post_init__(self):
        v = real(self.value, "extended real")
        if not v >= 0.0:  # NaN fails it too
            raise LogSpaceError(f"extended real must be >= 0 and not NaN, got {v!r}")
        _set(self, "value", v)

    @property
    def is_finite(self) -> bool:
        return not math.isinf(self.value)

    def __add__(self, other: "ExtendedReal") -> "ExtendedReal":
        return ExtendedReal(self.value + other.value)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return "ExtendedReal(inf)" if not self.is_finite else f"ExtendedReal({self.value!r})"

    # ordered only against another ExtendedReal, so that comparing with a
    # bare float raises TypeError
    def __lt__(self, other):
        return self.value < other.value if other.__class__ is ExtendedReal else NotImplemented

    def __le__(self, other):
        return self.value <= other.value if other.__class__ is ExtendedReal else NotImplemented

    def __gt__(self, other):
        return self.value > other.value if other.__class__ is ExtendedReal else NotImplemented

    def __ge__(self, other):
        return self.value >= other.value if other.__class__ is ExtendedReal else NotImplemented


INF = ExtendedReal(math.inf)


def finite(v: float) -> ExtendedReal:
    """A finite extended real; rejects infinities as well as negatives and NaN."""
    if math.isinf(real(v, "extended real")):
        raise LogSpaceError("finite() got an infinite value")
    return ExtendedReal(v)


def ext_sum(values: Iterable[ExtendedReal]) -> ExtendedReal:
    """Sum with infinity absorbing; finite parts use compensated summation.

    Finite parts whose sum exceeds the float range are rejected, even next
    to an infinite part, so that an overflow is never reported as infinite.
    """
    parts = []
    infinite = False
    for v in values:
        if v.is_finite:
            parts.append(v.value)
        else:
            infinite = True
    total = ext_fsum(parts, "sum of finite values")
    return INF if infinite else total


def ext_fsum(terms: Iterable[float], what: str) -> ExtendedReal:
    """``math.fsum`` of terms that are all >= 0 and stand for a finite quantity.

    A sum that exceeds the float range (or an infinite term) is rejected with
    a LogSpaceError naming `what`, so it is never reported as infinite.  What
    is left is a finite float >= 0, so it is written into the result past the
    constructor's checks; callers pass masses and norm terms, which are >= 0
    by construction.
    """
    try:
        total = math.fsum(terms)
    except OverflowError:  # "intermediate overflow in fsum"
        total = math.inf
    if not math.isfinite(total):
        raise LogSpaceError(f"{what} overflows a float")
    result = _new(ExtendedReal)
    _set(result, "value", total)
    return result
