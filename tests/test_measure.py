import math
import random

import pytest

from conftest import midpoint_integral, random_integrand, rel_close
from logspaces import (
    Component,
    INF,
    IntervalPiece,
    LogSpaceError,
    MeasurableSet,
    MeasureSpace,
    constant_density,
    density,
    integrate_piecewise,
    interval_space,
    measure,
    rn_derivative,
    total_measure,
)
from logspaces.sampling import random_bounded_space, random_density, random_measurable_set


def test_measure_examples():
    s = interval_space(0, 1, 2.0)
    assert measure(s, MeasurableSet(())).value == 0.0
    assert measure(s, MeasurableSet(((0, 0.0, 0.5),))).value == 1.0
    s1 = interval_space(0, 1, 1.0)
    got = measure(s1, MeasurableSet(((0, 0.0, 0.25), (0, 0.5, 0.75))))
    assert got.value == 0.5


def test_measure_unbounded_subinterval_is_infinite():
    s = MeasureSpace((Component(density([(0.0, math.inf, 1.0)])),))
    assert measure(s, MeasurableSet(((0, 3.0, math.inf),))) == INF


def test_measure_errors():
    s = MeasureSpace(
        (
            Component(constant_density(0, 1)),
            Component(constant_density(0, 3), weight=1),
        )
    )
    with pytest.raises(LogSpaceError, match="symbolic component"):
        measure(s, MeasurableSet(((1, 0.0, 1.0),)))
    with pytest.raises(LogSpaceError, match="out of carrier"):
        measure(s, MeasurableSet(((0, 0.5, 1.5),)))


def test_total_measure_examples():
    assert total_measure(interval_space(0, 1)).value == 1.0
    unbounded = MeasureSpace((Component(density([(0.0, math.inf, 1.0)])),))
    assert total_measure(unbounded) == INF
    two = MeasureSpace((Component(constant_density(0, 2)), Component(constant_density(0, 1, 3.0))))
    assert total_measure(two).value == 5.0


def test_total_rejects_overflow_on_bounded_carrier():
    one_piece = constant_density(0, 1e200, 1e200)  # a single piece mass overflows
    summed = density([(0.0, 1.0, 1e308), (1.0, 2.0, 1e308)])  # only the sum overflows
    for dens in (one_piece, summed):
        with pytest.raises(LogSpaceError, match="overflows"):
            dens.total()
    with pytest.raises(LogSpaceError, match="overflows"):
        total_measure(MeasureSpace((Component(summed),)))
    assert constant_density(0, 1e154, 1e154).total().value == 1e308


def test_additivity_over_random_disjoint_families():
    rng = random.Random(11)
    for _ in range(200):
        space = random_bounded_space(rng)
        mset = random_measurable_set(rng, space)
        total = measure(space, mset).value
        parts = [measure(space, MeasurableSet((part,))).value for part in mset.parts]
        assert rel_close(total, math.fsum(parts), 1e-12)


def test_strict_positivity():
    rng = random.Random(12)
    for _ in range(200):
        space = random_bounded_space(rng)
        mset = random_measurable_set(rng, space)
        if mset.total_length() > 0:
            assert measure(space, mset).value > 0.0
        else:
            assert measure(space, mset).value == 0.0


def test_rn_derivative_identity_and_constant():
    mu = interval_space(0, 1, 1.0)
    assert [p.value for p in rn_derivative(mu, mu)[0].pieces] == [1.0]
    nu = interval_space(0, 1, 2.0)
    assert [p.value for p in rn_derivative(nu, mu)[0].pieces] == [2.0]


def test_rn_derivative_step_example():
    # d(mu) = 1; d(nu) = 0.5 then 2: h matches and converts integrals
    mu = interval_space(0, 1, 1.0)
    nu = MeasureSpace((Component(density([(0, 0.5, 0.5), (0.5, 1.0, 2.0)])),))
    h = rn_derivative(nu, mu)[0]
    assert [(p.start, p.stop, p.value) for p in h.pieces] == [(0, 0.5, 0.5), (0.5, 1.0, 2.0)]
    indicator = (
        (IntervalPiece(0.0, 0.5, 1.0), IntervalPiece(0.5, 1.0, 0.0)),
    )
    left = integrate_piecewise(nu, indicator).value
    hf = ((IntervalPiece(0.0, 0.5, 0.5), IntervalPiece(0.5, 1.0, 0.0)),)
    right = integrate_piecewise(mu, hf).value
    assert left == 0.25
    assert right == 0.25


def test_rn_derivative_change_of_measure_property():
    rng = random.Random(13)
    for _ in range(100):
        mu = random_bounded_space(rng)
        from logspaces import reweight

        hd = random_density(rng, mu)
        nu = reweight(mu, hd)
        h = rn_derivative(nu, mu)
        f = random_integrand(rng, mu)
        lhs = integrate_piecewise(nu, f).value
        from logspaces import refine

        hf = tuple(
            tuple(IntervalPiece(a, b, va * vb) for a, b, (va, vb) in refine(fp, hp.pieces))
            for fp, hp in zip(f, h)
        )
        rhs = integrate_piecewise(mu, hf).value
        assert rel_close(lhs, rhs, 1e-9)


def test_rn_derivative_rejects_different_algebras():
    with pytest.raises(LogSpaceError, match="different underlying algebra"):
        rn_derivative(interval_space(0, 1), interval_space(0, 2))
    a = MeasureSpace((Component(constant_density(0, 1), weight=0),))
    b = MeasureSpace((Component(constant_density(0, 1), weight=1),))
    with pytest.raises(LogSpaceError, match="different underlying algebra"):
        rn_derivative(a, b)


def test_integrate_piecewise_examples():
    s = interval_space(0, 1, 1.0)
    zero = ((IntervalPiece(0.0, 1.0, 0.0),),)
    assert integrate_piecewise(s, zero).value == 0.0
    one = ((IntervalPiece(0.0, 1.0, 1.0),),)
    assert integrate_piecewise(s, one).value == 1.0
    logs = ((IntervalPiece(0.0, 0.5, math.log(4)), IntervalPiece(0.5, 1.0, math.log(2))),)
    got = integrate_piecewise(s, logs).value
    assert abs(got - 1.5 * math.log(2)) < 1e-15


def test_integrate_piecewise_infinite_and_signed():
    s = MeasureSpace((Component(density([(0.0, math.inf, 1.0)])),))
    tail_zero = ((IntervalPiece(0.0, 2.0, 3.0), IntervalPiece(2.0, math.inf, 0.0)),)
    assert integrate_piecewise(s, tail_zero).value == 6.0
    tail_pos = ((IntervalPiece(0.0, math.inf, 1.0),),)
    assert integrate_piecewise(s, tail_pos) == INF
    with pytest.raises(LogSpaceError, match="signed integrand unsupported"):
        integrate_piecewise(interval_space(0, 1), ((IntervalPiece(0.0, 1.0, -1.0),),))


def test_integrate_piecewise_matches_midpoint_oracle():
    rng = random.Random(14)
    for _ in range(5):
        space = random_bounded_space(rng)
        f = random_integrand(rng, space)
        closed = integrate_piecewise(space, f).value
        assert abs(closed - midpoint_integral(space, f)) < 1e-6


def test_density_validation():
    with pytest.raises(LogSpaceError):
        density([(0, 1, 1.0), (2, 3, 1.0)])  # gap
    with pytest.raises(LogSpaceError):
        density([(0, 1, 0.0)])  # not strictly positive
    with pytest.raises(LogSpaceError):
        density([(0.0, math.inf, 1.0), (math.inf, math.inf, 1.0)])


def test_measurable_set_validation():
    with pytest.raises(LogSpaceError):
        MeasurableSet(((0, 0.0, 0.5), (0, 0.25, 0.75)))
    with pytest.raises(LogSpaceError):
        MeasurableSet(((0, 1.0, 1.0),))
