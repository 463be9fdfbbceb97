import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rel_close
from logspaces import (
    EXTERNAL,
    INF,
    Component,
    External,
    Generalized,
    Internal,
    LogSpaceError,
    MeasureSpace,
    StepFunction,
    StepPiece,
    add,
    constant_density,
    density,
    distance,
    interval_space,
    is_member,
    log_norm,
    multiply,
    reweight,
    riemann_oracle,
    rn_derivative,
    scale,
    uniform_density,
)
from logspaces.sampling import (
    random_bounded_space,
    random_density,
    random_kind,
    random_space,
    random_step_function,
)

UNIT = interval_space(0, 1, 1.0)
E1 = math.e - 1.0


def step(space, *specs):
    return StepFunction.from_pieces(space, specs)


def halfline(dens=1.0):
    return MeasureSpace((Component(density([(0.0, math.inf, dens)])),))


class TestCanonicalForm:
    def test_merges_adjacent_equal_pieces(self):
        f = step(UNIT, (0, 0.0, 0.5, 2), (0, 0.5, 1.0, 2))
        assert [(p.start, p.stop) for p in f.pieces[0]] == [(0.0, 1.0)]

    def test_drops_zero_coefficients(self):
        assert step(UNIT, (0, 0.0, 0.5, 0)).is_zero

    def test_rejects_overlap_and_symbolic_components(self):
        with pytest.raises(LogSpaceError):
            step(UNIT, (0, 0.0, 0.6, 1), (0, 0.5, 1.0, 2))
        sym = MeasureSpace((Component(constant_density(0, 1), weight=2),))
        with pytest.raises(LogSpaceError, match="symbolic component"):
            step(sym, (0, 0.0, 0.5, 1))

    def test_constructor_rejects_unsorted_pieces(self):
        # the norm's fit check reads only the first start and the last stop
        with pytest.raises(LogSpaceError, match="step function pieces must be disjoint"):
            log_norm(StepFunction(((StepPiece(5, 6, 1), StepPiece(0, 3, 1)),)), interval_space(0, 10))

    def test_constructor_rejects_a_piece_after_an_unbounded_one(self):
        with pytest.raises(LogSpaceError, match="step function pieces must be disjoint"):
            log_norm(StepFunction(((StepPiece(0, math.inf, 1), StepPiece(5, 6, 1)),)), interval_space(0, 10))

    def test_rejects_non_finite_coefficients(self):
        for coef in (math.nan, math.inf, -math.inf, complex(1, math.nan), complex(0, math.inf)):
            with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
                step(UNIT, (0, 0.0, 0.5, coef))

    def test_scale_rejects_non_finite_factors(self):
        f = step(UNIT, (0, 0.0, 0.5, 2))
        for alpha in (math.nan, math.inf, complex(math.nan, 0)):
            for g in (f, StepFunction.zero(UNIT)):
                with pytest.raises(LogSpaceError, match="scale factor must be finite"):
                    scale(g, alpha)
        # a finite factor whose product overflows is caught by the piece check
        with pytest.raises(LogSpaceError, match="step coefficient must be finite"):
            scale(step(UNIT, (0, 0.0, 0.5, 1e300)), 1e300)

    def test_scaling_by_zero_gives_the_zero_function(self):
        space = MeasureSpace((Component(constant_density(0, 1)), Component(constant_density(2, 3))))
        f = step(space, (0, 0.0, 0.5, 2), (1, 2.5, 3.0, -1j))
        zero = StepFunction.zero(space)
        for g in (scale(f, 0), scale(f, -0.0), scale(f, 0j), 0 * f, f * 0.0):
            assert g == zero and g.is_zero

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0.01, 1.0)), max_size=6))
    def test_from_pieces_is_idempotent(self, raw):
        specs = []
        cursor = 0.0
        for gap, width in raw:
            a = cursor + gap * (1.0 - cursor) * 0.5
            b = a + width * (1.0 - a) * 0.5
            if b > a:
                specs.append((0, a, b, 1.0 + 0j))
                cursor = b
        f = StepFunction.from_pieces(UNIT, specs)
        again = StepFunction.from_pieces(
            UNIT, [(0, p.start, p.stop, p.coef) for p in f.pieces[0]]
        )
        assert f == again


class TestAlgebraOps:
    def test_multiply_by_zero_absorbs(self):
        f = step(UNIT, (0, 0.0, 0.5, 3))
        assert multiply(f, StepFunction.zero(UNIT)).is_zero

    def test_additive_inverse(self):
        f = step(UNIT, (0, 0.1, 0.9, 2 + 1j))
        assert add(f, scale(f, -1)).is_zero

    def test_product_norm_example(self):
        f = step(UNIT, (0, 0.0, 1.0, E1))
        prod = multiply(f, f)
        assert prod.pieces[0][0].coef == complex(E1 * E1)
        norm = log_norm(prod, UNIT, EXTERNAL).value
        assert abs(norm - math.log1p(E1 * E1)) < 1e-15
        assert norm <= 2.0  # = ||f|| + ||f||

    def test_pointwise_on_common_refinement(self):
        f = step(UNIT, (0, 0.0, 0.6, 2))
        g = step(UNIT, (0, 0.4, 1.0, 3))
        fg = multiply(f, g)
        assert [(p.start, p.stop, p.coef) for p in fg.pieces[0]] == [(0.4, 0.6, 6 + 0j)]
        s = add(f, g)
        assert [p.coef for p in s.pieces[0]] == [2 + 0j, 5 + 0j, 3 + 0j]


class TestLogNorm:
    def test_zero_function(self):
        for kind in (EXTERNAL, Internal(uniform_density(UNIT, 2.0))):
            assert log_norm(StepFunction.zero(UNIT), UNIT, kind).value == 0.0

    def test_external_worked_constants(self):
        assert log_norm(step(UNIT, (0, 0.0, 1.0, E1)), UNIT).value == pytest.approx(1.0, abs=1e-12)
        f = step(UNIT, (0, 0.0, 0.5, 3), (0, 0.5, 1.0, 1))
        assert abs(log_norm(f, UNIT).value - 1.5 * math.log(2)) < 1e-12

    def test_infinite_on_unbounded_support(self):
        hl = halfline()
        assert log_norm(step(hl, (0, 0.0, math.inf, 1)), hl) == INF

    def test_internal_worked_constant(self):
        h = uniform_density(UNIT, 2.0)
        f = step(UNIT, (0, 0.0, 1.0, E1 / 2))
        assert log_norm(f, UNIT, Internal(h)).value == pytest.approx(1.0, abs=1e-12)

    def test_generalized_worked_constant(self):
        kind = Generalized(uniform_density(UNIT, 2.0), uniform_density(UNIT, 0.5))
        f = step(UNIT, (0, 0.0, 1.0, 2))
        assert abs(log_norm(f, UNIT, kind).value - 2 * math.log(2)) < 1e-12

    def test_norm_depends_on_modulus_only(self):
        f = step(UNIT, (0, 0.0, 1.0, complex(3, 4)))
        g = step(UNIT, (0, 0.0, 1.0, 5.0))
        assert log_norm(f, UNIT).value == log_norm(g, UNIT).value

    def test_rejects_overflow_on_bounded_support(self):
        big = interval_space(0, 1, 1e308)
        summed = step(big, (0, 0.0, 0.5, 5), (0, 0.5, 1.0, 6))  # each term finite, the sum is not
        wide = interval_space(0, 1e200, 1e200)
        one_cell = step(wide, (0, 0.0, 1e200, 1))  # the cell weight itself overflows
        for f, space in ((summed, big), (one_cell, wide)):
            with pytest.raises(LogSpaceError, match="norm of a bounded support overflows"):
                log_norm(f, space)
            with pytest.raises(LogSpaceError, match="overflows"):
                is_member(f, space)
        assert log_norm(step(big, (0, 0.0, 0.5, 5)), big).value == 0.5e308 * math.log1p(5)

    def test_kind_space_mismatch(self):
        h = uniform_density(interval_space(0, 2), 1.0)
        with pytest.raises(LogSpaceError, match="kind/space mismatch"):
            log_norm(step(UNIT, (0, 0.0, 0.5, 1)), UNIT, Internal(h))


class TestCompiledCellTables:
    """A space compiles its weighted norm cells once per kind object and keeps one such table."""

    def test_tables_follow_the_space_and_the_kind_object(self):
        a, b = interval_space(0, 1, 1.0), interval_space(0, 1, 3.0)
        kind = Internal(uniform_density(a, 2.0))
        other = Internal(uniform_density(a, 4.0))
        f_a, f_b = step(a, (0, 0.0, 1.0, E1 / 2)), step(b, (0, 0.0, 1.0, E1 / 2))
        for _ in range(2):  # each space keeps its own table for the shared kind
            assert log_norm(f_a, a, kind).value == pytest.approx(1.0, abs=1e-12)
            assert log_norm(f_b, b, kind).value == pytest.approx(3.0, abs=1e-12)
            assert log_norm(f_a, a, other).value == pytest.approx(math.log1p(2 * E1), abs=1e-12)
            assert log_norm(f_a, a, EXTERNAL).value == pytest.approx(math.log1p(E1 / 2), abs=1e-12)

    def test_mismatch_is_raised_after_a_fitting_space_stored_its_table(self):
        a, b = interval_space(0, 1), interval_space(0, 2)
        h = uniform_density(a, 2.0)
        for kind in (Internal(h), Generalized(h, h)):
            assert log_norm(step(a, (0, 0.0, 0.5, 1)), a, kind).value > 0.0
            for _ in range(2):
                with pytest.raises(LogSpaceError, match="kind/space mismatch"):
                    log_norm(step(b, (0, 0.0, 0.5, 1)), b, kind)

    def test_weights_are_validated_only_when_a_table_is_compiled(self, monkeypatch):
        import logspaces.stepfunctions as sf

        compiled = []
        kind_weights = sf._kind_weights
        monkeypatch.setattr(sf, "_kind_weights", lambda sp, k: compiled.append(k) or kind_weights(sp, k))
        space = interval_space(0, 2, 1.5)
        f = step(space, (0, 0.0, 1.5, 2))
        kind = Generalized(uniform_density(space, 2.0), uniform_density(space, 0.5))
        for _ in range(3):
            for k in (EXTERNAL, kind, External()):
                log_norm(f, space, k)
        assert compiled == [kind]  # the plain norm uses the density index, which has no weights

    def test_norm_calls_leave_equality_hash_and_repr_alone(self):
        space = MeasureSpace((Component(density([(0.0, 1.0, 1.0), (1.0, 2.0, 2.0)])),))
        twin = MeasureSpace(space.components)
        kind = Generalized(uniform_density(space, 2.0), uniform_density(space, 0.5))
        before = (repr(space), hash(space), repr(kind), hash(kind))
        for k in (EXTERNAL, kind):
            log_norm(step(space, (0, 0.5, 1.5, 3)), space, k)
        assert (repr(space), hash(space), repr(kind), hash(kind)) == before
        assert space == twin and twin == space
        assert kind == Generalized(uniform_density(twin, 2.0), uniform_density(twin, 0.5))

    def test_many_kinds_keep_one_weighted_table(self):
        space = MeasureSpace((Component(density([(i, i + 1.0, 1.0 + i % 7) for i in range(200)])),))
        f = step(space, (0, 10.0, 20.0, 2), (0, 150.0, 160.0, 3))
        gc.collect()  # a full collection empties the free lists
        tracemalloc.start()
        try:
            empty = tracemalloc.get_traced_memory()[0]
            log_norm(f, space, Internal(uniform_density(space, 1.0)))
            gc.collect()
            one = tracemalloc.get_traced_memory()[0]
            for i in range(1, 1001):
                log_norm(f, space, Internal(uniform_density(space, 1.0 + i / 1000)))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - one
        finally:
            tracemalloc.stop()
        table = one - empty
        assert grown < table, f"1000 kinds grew traced memory by {grown} B; one table is {table} B"


class TestMembershipAndDistance:
    def test_membership(self):
        hl = halfline()
        assert is_member(StepFunction.zero(hl), hl)
        assert is_member(step(hl, (0, 0.0, 2.0, 7)), hl)
        assert not is_member(step(hl, (0, 0.0, math.inf, 1)), hl)

    def test_distance_examples(self):
        f = step(UNIT, (0, 0.0, 0.5, 3))
        g = step(UNIT, (0, 0.0, 0.5, 1))
        assert distance(f, f, UNIT).value == 0.0
        assert distance(f, StepFunction.zero(UNIT), UNIT) == log_norm(f, UNIT)
        assert abs(distance(f, g, UNIT).value - 0.5 * math.log(3)) < 1e-12
        assert distance(f, g, UNIT) == distance(g, f, UNIT)


class TestNormAxioms:
    """The four F-norm conditions plus algebra closure, on a seeded corpus."""

    def _cases(self, n=300):
        rng = random.Random(101)
        for _ in range(n):
            space = random_space(rng)
            yield rng, space, random_step_function(rng, space, max_pieces=5), random_kind(rng, space)

    def test_positivity(self):
        for rng, space, f, kind in self._cases():
            v = log_norm(f, space, kind)
            if f.is_zero:
                assert v.value == 0.0
            else:
                assert v.value > 0.0

    def test_contraction_for_small_scalars(self):
        for rng, space, f, kind in self._cases():
            alpha = rng.uniform(-1.0, 1.0)
            assert log_norm(scale(f, alpha), space, kind).value <= log_norm(f, space, kind).value + 1e-12

    def test_norm_vanishes_along_halving_scalars(self):
        for rng, space, f, kind in self._cases(100):
            prev = math.inf
            for k in range(0, 41, 4):
                v = log_norm(scale(f, 2.0 ** -k), space, kind).value
                assert v <= prev + 1e-12
                prev = v
            assert prev < 1e-6
            assert log_norm(scale(f, 1e-12), space, kind).value < 1e-6

    def test_triangle_inequality(self):
        for rng, space, f, kind in self._cases():
            g = random_step_function(rng, space, max_pieces=5)
            lhs = log_norm(add(f, g), space, kind).value
            assert lhs <= log_norm(f, space, kind).value + log_norm(g, space, kind).value + 1e-9

    def test_product_closure(self):
        # product-norm subadditivity is a plain-norm fact: the weighted kinds
        # break it whenever the weight dips below 1; membership closes either way
        for rng, space, f, kind in self._cases():
            g = random_step_function(rng, space, max_pieces=5)
            lhs = log_norm(multiply(f, g), space).value
            assert lhs <= log_norm(f, space).value + log_norm(g, space).value + 1e-9
            assert is_member(multiply(f, g), space, kind)

    def test_product_norm_bound_fails_for_small_weights(self):
        # the counterexample that pins the restriction above
        big = step(UNIT, (0, 0.0, 1.0, 100))
        h = uniform_density(UNIT, 0.1)
        prod_norm = log_norm(multiply(big, big), UNIT, Internal(h)).value
        assert prod_norm > 2 * log_norm(big, UNIT, Internal(h)).value + 1.0

    def test_monotone_in_pointwise_modulus(self):
        rng = random.Random(102)
        for _ in range(200):
            space = random_space(rng)
            g = random_step_function(rng, space, max_pieces=5)
            shrink = [
                (i, p.start, p.stop, p.coef * rng.uniform(0.0, 1.0))
                for i, ps in enumerate(g.pieces)
                for p in ps
            ]
            f = StepFunction.from_pieces(space, shrink)
            kind = random_kind(rng, space)
            assert log_norm(f, space, kind).value <= log_norm(g, space, kind).value + 1e-12


class TestChangeOfMeasure:
    def test_external_norm_under_reweighted_measure(self):
        # nu = h d(mu): nu-external norm equals the h-weighted mu-integral
        rng = random.Random(103)
        for _ in range(150):
            mu = random_bounded_space(rng)
            h = random_density(rng, mu)
            nu = reweight(mu, h)
            f = random_step_function(rng, mu, max_pieces=5)
            lhs = log_norm(f, nu, EXTERNAL).value
            rhs = log_norm(f, mu, Generalized(h, uniform_density(mu, 1.0))).value
            assert rel_close(lhs, rhs, 1e-9)
            hh = rn_derivative(nu, mu)
            rhs2 = log_norm(f, mu, Generalized(hh, uniform_density(mu, 1.0))).value
            assert rel_close(lhs, rhs2, 1e-9)

    def test_generalized_reduces_to_internal_over_reweighted_space(self):
        rng = random.Random(104)
        for _ in range(150):
            mu = random_bounded_space(rng)
            h1 = random_density(rng, mu)
            h2 = random_density(rng, mu)
            f = random_step_function(rng, mu, max_pieces=5)
            lhs = log_norm(f, mu, Generalized(h1, h2)).value
            rhs = log_norm(f, reweight(mu, h1), Internal(h2)).value
            assert rel_close(lhs, rhs, 1e-9)

    def test_kind_degeneracies_exact(self):
        rng = random.Random(105)
        for _ in range(100):
            space = random_space(rng)
            h = random_density(rng, space)
            ones = uniform_density(space, 1.0)
            f = random_step_function(rng, space, max_pieces=5)
            assert log_norm(f, space, Generalized(ones, h)) == log_norm(f, space, Internal(h))
            assert log_norm(f, space, Internal(ones)) == log_norm(f, space, EXTERNAL)


class TestRiemannOracle:
    def test_zero_and_constant(self):
        assert riemann_oracle(StepFunction.zero(UNIT), UNIT, EXTERNAL, 10) == 0.0
        f = step(UNIT, (0, 0.0, 1.0, E1))
        assert abs(riemann_oracle(f, UNIT, EXTERNAL, 10**6) - 1.0) < 1e-9

    def test_two_step_example(self):
        f = step(UNIT, (0, 0.0, 0.5, 3), (0, 0.5, 1.0, 1))
        assert abs(riemann_oracle(f, UNIT, EXTERNAL, 10**6) - 1.5 * math.log(2)) < 1e-6

    def test_requires_bounded_support(self):
        hl = halfline()
        with pytest.raises(LogSpaceError, match="oracle requires bounded support"):
            riemann_oracle(step(hl, (0, 0.0, math.inf, 1)), hl, EXTERNAL, 10)

    def test_agrees_with_closed_form(self):
        rng = random.Random(106)
        for _ in range(40):
            space = random_space(rng)
            f = random_step_function(rng, space, max_pieces=5)
            kind = random_kind(rng, space)
            closed = log_norm(f, space, kind).value
            assert abs(closed - riemann_oracle(f, space, kind, 10**5)) < 1e-6


def test_scale_does_not_grow_the_tuple_free_lists():
    # A tuple built from a generator is grown by realloc and never drawn from
    # CPython's per-size free lists, yet parks there when freed (up to 2000
    # per size); built that way, this loop's tuples grow memory by ~1 MiB.
    rng = random.Random(23)
    fs = [random_step_function(rng, random_space(rng), max_pieces=16) for _ in range(300)]
    alphas = [rng.uniform(-2.0, 2.0) for _ in range(30)]
    for f in fs:
        scale(f, 0.5)
    gc.collect()  # a full collection empties the free lists
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for alpha in alphas:
            for f in fs:
                scale(f, alpha)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"9000 scale calls grew traced memory by {grown / 1024:.0f} KiB"
