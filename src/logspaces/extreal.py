"""Non-negative extended reals: measure and norm values that may be infinite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import LogSpaceError


@dataclass(frozen=True, order=True)
class ExtendedReal:
    """A value in [0, +inf].

    Finite values are non-negative floats; infinity is ``value == math.inf``.
    Ordering and equality are those of the underlying float, so
    ``finite(a) < INF`` always holds.
    """

    value: float

    def __post_init__(self):
        v = self.value
        if isinstance(v, int):
            object.__setattr__(self, "value", float(v))
            v = float(v)
        if not isinstance(v, float) or math.isnan(v) or v < 0.0:
            raise LogSpaceError(f"extended real must be >= 0 and not NaN, got {v!r}")

    @property
    def is_finite(self) -> bool:
        return not math.isinf(self.value)

    def __add__(self, other: "ExtendedReal") -> "ExtendedReal":
        return ExtendedReal(self.value + other.value)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return "ExtendedReal(inf)" if not self.is_finite else f"ExtendedReal({self.value!r})"


INF = ExtendedReal(math.inf)


def finite(v: float) -> ExtendedReal:
    """A finite extended real; rejects infinities as well as negatives and NaN."""
    if math.isinf(v):
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
    total = finite_fsum(parts, "sum of finite values")
    return INF if infinite else ExtendedReal(total)


def finite_fsum(terms: Iterable[float], what: str) -> float:
    """``math.fsum`` of terms that stand for a finite quantity.

    A sum that exceeds the float range (or an infinite term) is rejected with
    a LogSpaceError naming `what`, so it is never reported as infinite.
    """
    try:
        total = math.fsum(terms)
    except OverflowError:  # "intermediate overflow in fsum"
        total = math.inf
    if not math.isfinite(total):
        raise LogSpaceError(f"{what} overflows a float")
    return total
