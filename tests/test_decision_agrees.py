"""A transport is built only where the isometry decision says isometric.

Pairs of weight-0 spaces are drawn at one magnitude range each (starts,
lengths and density values spread over 10^0..1, 10^±3, 10^±20 or 10^±150),
with partners of equal passport (the mass split over 1-3 rescaled
components) and of unequal passport.  For each pair the transport must
agree with ``decide_isometric_external`` on the two passports:

- where building a passport raises, the transport raises the same error;
- on a false verdict it raises "no measure-preserving map";
- on a true verdict it builds, or fails in one of the two named ways:
  "pairing incomplete" (two unbounded components on one side) or a slope
  or offset that overflows a float.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from logspaces import (
    Component,
    LogSpaceError,
    MeasureSpace,
    build_passport,
    decide_isometric_external,
    density,
    glue_transports,
    transport_between_spaces,
)

OVERFLOW = "transport slope or offset overflows a float"

# (low, high) exponents of ten for starts, lengths and density values
RANGES = [(0.0, 1.0), (-3.0, 3.0), (-20.0, 20.0), (-150.0, 150.0)]


def _draw(rng, exponents):
    return 10.0 ** rng.uniform(*exponents)


def _component(rng, exponents, unbounded=False, mass=None):
    """A weight-0 component of 1-6 pieces; a bounded one rescaled to `mass` if given.

    Its start and lengths share one drawn scale, so that its breakpoints stay
    apart in floats; each density value is drawn on its own.
    """
    scale = _draw(rng, exponents)
    n = rng.randint(1, 6)
    bounds = [scale * rng.uniform(-4.0, 4.0)]
    for _ in range(n - 1 if unbounded else n):
        bounds.append(bounds[-1] + scale * rng.uniform(0.1, 3.0))
    if unbounded:
        bounds.append(math.inf)
    spec = [(a, b, _draw(rng, exponents)) for a, b in zip(bounds, bounds[1:])]
    if mass is not None:
        factor = mass / Component(density(spec)).measure().value
        spec = [(a, b, v * factor) for a, b, v in spec]
    return Component(density(spec))


def _source(rng, exponents):
    """1-3 components; the first is unbounded with probability 0.3."""
    first = _component(rng, exponents, unbounded=rng.random() < 0.3)
    rest = [_component(rng, exponents) for _ in range(rng.randint(0, 2))]
    return MeasureSpace(tuple([first] + rest))


def _partner(rng, exponents, src, change):
    """Each bounded mass of src split over 1-3 components, each unbounded one redrawn.

    `change` None keeps the passport; "mass" scales every bounded mass, "tail"
    adds an unbounded component and "no tail" drops them all.
    """
    factor = rng.choice([1.0 + 1e-9, 2.0, 0.5]) if change == "mass" else 1.0
    comps = []
    for c in src.components:
        if math.isinf(c.carrier[1]):
            if change != "no tail":
                comps.append(_component(rng, exponents, unbounded=True))
            continue
        weights = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(1, 3))]
        for w in weights:
            mass = c.measure().value * factor * (w / math.fsum(weights))
            comps.append(_component(rng, exponents, mass=mass))
    if change == "tail" or not comps:
        comps.append(_component(rng, exponents, unbounded=change == "tail"))
    return MeasureSpace(tuple(comps))


def _outcome(build, *args):
    try:
        return build(*args)
    except LogSpaceError as e:
        return str(e)


def _decide(src, dst):
    try:
        return decide_isometric_external(build_passport(src), build_passport(dst)).verdict
    except LogSpaceError as e:
        return str(e)


def _assert_agrees(decided, built):
    if decided is True:
        assert not isinstance(built, str) or built == "pairing incomplete" or built.startswith(OVERFLOW)
    elif decided is False:
        assert built == "no measure-preserving map"
    else:
        assert built == decided


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponents=st.sampled_from(RANGES),
    change=st.sampled_from([None, "mass", "tail", "no tail"]),
)
def test_a_transport_is_built_only_where_the_decision_says_isometric(seed, exponents, change):
    rng = random.Random(seed)
    try:
        src = _source(rng, exponents)
    except LogSpaceError:
        return  # the inputs themselves could not be built at this magnitude
    try:
        dst = _partner(rng, exponents, src, change)
    except LogSpaceError:
        dst = src  # no partner at this magnitude (a rescaled density left the float range)
    for a, b in ((src, dst), (dst, src)):
        _assert_agrees(_decide(a, b), _outcome(transport_between_spaces, a, b))
    # glued on a single pair: the decision on the two one-component spaces
    c, d = src.components[0], dst.components[0]
    decided = _decide(MeasureSpace((c,)), MeasureSpace((d,)))
    _assert_agrees(decided, _outcome(glue_transports, [(c, d)]))
