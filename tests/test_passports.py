import math
import random

import pytest

from logspaces import (
    ClosedForm,
    Component,
    FiniteList,
    LogSpaceError,
    MeasureSpace,
    Passport,
    build_passport,
    constant_density,
    decide_isometric_external,
    decide_isometric_generalized,
    decide_isomorphic_pair,
    decide_star_isomorphic,
    density,
    interval_space,
    ratio_bounded,
    render_passport,
)


def halfline_component(weight=0, dens=1.0):
    return Component(density([(0.0, math.inf, dens)]), weight)


class TestBuildPassport:
    def test_single_finite_component(self):
        p = build_passport(interval_space(0, 1))
        assert p == Passport((), (0,), FiniteList((1.0,)))

    def test_mixed_weights(self):
        space = MeasureSpace(
            (halfline_component(weight=0), Component(constant_density(0, 3), weight=1))
        )
        p = build_passport(space)
        assert p.row_s == (0,)
        assert p.row_u == (1,)
        assert p.row_m.values == (3.0,)

    def test_same_weight_components_merge(self):
        space = MeasureSpace((Component(constant_density(0, 1)), Component(constant_density(0, 2))))
        p = build_passport(space)
        assert p.row_u == (0,)
        assert p.row_m.values == (3.0,)

    def test_infinite_member_makes_group_infinite(self):
        space = MeasureSpace((Component(constant_density(0, 1)), halfline_component()))
        p = build_passport(space)
        assert p.row_s == (0,)
        assert p.row_u == ()

    def test_overflowing_bounded_carrier_is_rejected_not_infinite(self):
        with pytest.raises(LogSpaceError, match="overflows"):
            build_passport(interval_space(0, 1e200, 1e200))


    def test_overflowing_weight_group_sum_is_rejected_not_infinite(self):
        # each component's mass is finite; only the same-weight sum overflows
        halves = (Component(constant_density(0, 1, 1e308)), Component(constant_density(1, 2, 1e308)))
        with pytest.raises(LogSpaceError, match="overflows"):
            build_passport(MeasureSpace(halves))

    def test_overflowing_bounded_part_next_to_an_unbounded_member_is_rejected(self):
        # the group is infinite either way, but its bounded part overflows
        comps = (
            Component(constant_density(0, 1, 1e308)),
            Component(constant_density(5, 6, 1e308)),
            halfline_component(),
        )
        with pytest.raises(LogSpaceError, match="sum of finite values overflows"):
            build_passport(MeasureSpace(comps))

    def test_invariant_under_reordering_and_splitting(self):
        a = Component(density([(0.0, 2.0, 1.5)]), weight=0)
        b = Component(constant_density(0, 3), weight=1)
        p1 = build_passport(MeasureSpace((a, b)))
        p2 = build_passport(MeasureSpace((b, a)))
        assert p1 == p2
        # split a into halves with the same weight
        a1 = Component(density([(0.0, 1.0, 1.5)]), weight=0)
        a2 = Component(density([(1.0, 2.0, 1.5)]), weight=0)
        p3 = build_passport(MeasureSpace((a1, b, a2)))
        assert decide_isometric_external(p1, p3).verdict

    def test_rows_strictly_increasing(self):
        rng = random.Random(21)
        for _ in range(50):
            comps = []
            for _ in range(rng.randint(1, 4)):
                w = rng.randint(0, 3)
                if rng.random() < 0.3:
                    comps.append(halfline_component(weight=w))
                else:
                    comps.append(Component(constant_density(0, rng.uniform(0.5, 4)), weight=w))
            p = build_passport(MeasureSpace(tuple(comps)))
            assert all(x < y for x, y in zip(p.row_s, p.row_s[1:]))
            assert all(x < y for x, y in zip(p.row_u, p.row_u[1:]))
            assert not set(p.row_s) & set(p.row_u)


class TestMeasureSeq:
    def test_terms(self):
        assert ClosedForm("CONST", (2.0,)).term(5) == 2.0
        assert ClosedForm("LINEAR", (2.0, 1.0)).term(3) == 7.0
        assert ClosedForm("RECIP", (3.0,)).term(6) == 0.5
        assert ClosedForm("GEOM", (1.0, 2.0)).term(10) == 1024.0
        assert FiniteList((1.0, 2.0)).term(2) == 2.0

    def test_log_term_matches_log_of_term(self):
        for cf in (
            ClosedForm("CONST", (2.0,)),
            ClosedForm("LINEAR", (1.0, 3.0)),
            ClosedForm("RECIP", (0.5,)),
            ClosedForm("GEOM", (2.0, 0.5)),
        ):
            for i in (1, 7, 50):
                assert math.isclose(cf.log_term(i), math.log(cf.term(i)), rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(LogSpaceError):
            ClosedForm("CONST", (0.0,))
        with pytest.raises(LogSpaceError):
            ClosedForm("LINEAR", (-1.0, 5.0))
        with pytest.raises(LogSpaceError):
            ClosedForm("GEOM", (1.0, -2.0))
        with pytest.raises(LogSpaceError):
            ClosedForm("CUBIC", (1.0,))
        with pytest.raises(LogSpaceError):
            FiniteList((1.0, 0.0))

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("CONST", (0.0,), "CONST(0.0,) is not positive at i=1"),
            ("RECIP", (-1.0,), "RECIP(-1.0,) is not positive at i=1"),
            ("GEOM", (1.0, -2.0), "GEOM(1.0, -2.0) is not positive at i=1"),
            ("GEOM", (-1.0, -2.0), "GEOM leading parameter must be > 0"),
        ],
    )
    def test_non_positive_parameters_are_rejected_by_the_first_term_or_the_leading_sign(
        self, kind, params, message
    ):
        # a non-positive CONST or RECIP parameter, or GEOM ratio, makes term(1) or
        # the leading parameter non-positive; no later check is reached
        with pytest.raises(LogSpaceError) as err:
            ClosedForm(kind, params)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("CONST", (math.nan,), "c"),
            ("CONST", (math.inf,), "c"),
            ("LINEAR", (1.0, math.nan), "b"),
            ("LINEAR", (math.inf, 0.0), "a"),
            ("RECIP", (math.nan,), "a"),
            ("GEOM", (1.0, math.inf), "r"),
            ("GEOM", (1.0, math.nan), "r"),
            ("GEOM", (math.inf, 0.5), "a"),
        ],
    )
    def test_non_finite_parameters_are_rejected_by_name(self, kind, params, name):
        # NaN passes every sign check, so finiteness is checked on its own
        with pytest.raises(LogSpaceError, match=f"{kind} parameter {name} must be finite"):
            ClosedForm(kind, params)

    def test_geom_with_unit_ratio_is_const(self):
        cf = ClosedForm("GEOM", (2.0, 1.0))
        assert cf == ClosedForm("CONST", (2.0,))
        assert render_passport(Passport(row_u=None, row_m=cf)) == "s:\nu: 0 1 2 ...\nm: CONST c=2"
        assert decide_isometric_external(P(m=cf), P(m=ClosedForm("CONST", (2.0,)))).verdict


# (a, b, expected ratio_bounded(a, b)); checked against direct evaluation below
RATIO_TABLE = [
    (ClosedForm("CONST", (1.0,)), ClosedForm("RECIP", (1.0,)), False),
    (ClosedForm("RECIP", (1.0,)), ClosedForm("CONST", (1.0,)), True),
    (ClosedForm("LINEAR", (1.0, 0.0)), ClosedForm("LINEAR", (2.0, 0.0)), True),
    (ClosedForm("LINEAR", (5.0, 0.0)), ClosedForm("LINEAR", (1.0, 100.0)), True),
    (ClosedForm("LINEAR", (1.0, 0.0)), ClosedForm("CONST", (10.0,)), False),
    (ClosedForm("CONST", (10.0,)), ClosedForm("LINEAR", (1.0, 0.0)), True),
    (ClosedForm("GEOM", (1.0, 2.0)), ClosedForm("LINEAR", (100.0, 0.0)), False),
    (ClosedForm("LINEAR", (100.0, 0.0)), ClosedForm("GEOM", (1.0, 2.0)), True),
    (ClosedForm("GEOM", (1.0, 2.0)), ClosedForm("GEOM", (1.0, 3.0)), True),
    (ClosedForm("GEOM", (1.0, 3.0)), ClosedForm("GEOM", (1.0, 2.0)), False),
    (ClosedForm("GEOM", (7.0, 2.0)), ClosedForm("GEOM", (1.0, 2.0)), True),
    (ClosedForm("GEOM", (1.0, 1.0)), ClosedForm("CONST", (5.0,)), True),
    (ClosedForm("CONST", (5.0,)), ClosedForm("GEOM", (1.0, 1.0)), True),
    (ClosedForm("GEOM", (1.0, 0.5)), ClosedForm("RECIP", (1.0,)), True),
    (ClosedForm("RECIP", (1.0,)), ClosedForm("GEOM", (1.0, 0.5)), False),
    (ClosedForm("GEOM", (1.0, 0.5)), ClosedForm("GEOM", (1.0, 0.25)), False),
    (ClosedForm("GEOM", (1.0, 0.25)), ClosedForm("GEOM", (1.0, 0.5)), True),
    (ClosedForm("RECIP", (2.0,)), ClosedForm("RECIP", (5.0,)), True),
]


class TestRatioBounded:
    @pytest.mark.parametrize("a,b,expected", RATIO_TABLE)
    def test_table(self, a, b, expected):
        assert ratio_bounded(a, b) is expected

    @pytest.mark.parametrize("a,b,expected", RATIO_TABLE)
    def test_table_against_direct_terms_up_to_1e6(self, a, b, expected):
        # bounded pairs stop growing between i=1e3 and i=1e6; unbounded ones
        # gain at least three decades
        drift = (a.log_term(10**6) - b.log_term(10**6)) - (a.log_term(10**3) - b.log_term(10**3))
        if expected:
            assert drift < 0.7
        else:
            assert drift > 2.0

    def test_finite_lists_always_bounded(self):
        assert ratio_bounded(FiniteList((1.0, 2.0, 3.0)), FiniteList((5.0, 5.0, 5.0)))

    def test_reflexive(self):
        rng = random.Random(22)
        seqs = [a for a, _, _ in RATIO_TABLE] + [FiniteList((1.0, 2.0))]
        for s in seqs:
            assert ratio_bounded(s, s)

    def test_incomparable_shapes(self):
        with pytest.raises(LogSpaceError, match="incomparable sequences"):
            ratio_bounded(FiniteList((1.0,)), FiniteList((1.0, 2.0)))
        with pytest.raises(LogSpaceError, match="incomparable sequences"):
            ratio_bounded(FiniteList((1.0,)), ClosedForm("CONST", (1.0,)))


def P(s=(), u=(), m=()):
    if isinstance(m, ClosedForm):
        return Passport(tuple(s), None, m)
    return Passport(tuple(s), tuple(u), FiniteList(tuple(m)))


class TestDecisions:
    def test_isomorphic_pair(self):
        assert decide_isomorphic_pair(P(s=(0,)), P(s=(0,))).verdict
        assert decide_isomorphic_pair(P(s=(0,)), P(s=(0,))).rule == "single-component-weights"
        assert decide_isomorphic_pair(P(s=(0, 2)), P(s=(0, 2))).verdict
        d = decide_isomorphic_pair(P(s=(0, 1)), P(s=(0, 2)))
        assert not d.verdict
        assert "index 1" in d.witness
        with pytest.raises(LogSpaceError, match="finite-measure component present"):
            decide_isomorphic_pair(P(u=(0,), m=(1.0,)), P(s=(0,)))

    def test_star_isomorphic(self):
        q = P(u=(0,), m=(1.0,))
        assert decide_star_isomorphic(q, q).verdict
        lin = decide_star_isomorphic(
            P(m=ClosedForm("LINEAR", (1.0, 0.0))), P(m=ClosedForm("LINEAR", (2.0, 0.0)))
        )
        assert lin.verdict
        bad = decide_star_isomorphic(
            P(m=ClosedForm("CONST", (1.0,))), P(m=ClosedForm("RECIP", (1.0,)))
        )
        assert not bad.verdict and bad.witness == "mu_i/nu_i unbounded"
        rev = decide_star_isomorphic(
            P(m=ClosedForm("RECIP", (1.0,))), P(m=ClosedForm("CONST", (1.0,)))
        )
        assert not rev.verdict and rev.witness == "nu_i/mu_i unbounded"

    def test_isometric_external_rules(self):
        d = decide_isometric_external(P(u=(0,), m=(2.0,)), P(u=(0,), m=(2.0,)))
        assert d.verdict and d.rule == "single-finite-component"
        d = decide_isometric_external(P(u=(0,), m=(2.0,)), P(u=(0,), m=(3.0,)))
        assert not d.verdict and d.rule == "single-finite-component"
        d = decide_isometric_external(P(s=(0,)), P(s=(0,)))
        assert d.verdict and d.rule == "single-infinite-component"
        d = decide_isometric_external(P(s=(0, 1)), P(s=(0, 1)))
        assert d.verdict and d.rule == "infinite-components-first-rows"
        d = decide_isometric_external(P(s=(1,), u=(0,), m=(3.0,)), P(s=(1,), u=(0,), m=(3.0,)))
        assert d.verdict and d.rule == "full-passport-equality"

    def test_isometric_external_tolerance(self):
        base = P(u=(0,), m=(2.0,))
        assert decide_isometric_external(base, P(u=(0,), m=(2.0 + 1e-13,))).verdict
        assert not decide_isometric_external(base, P(u=(0,), m=(2.0 + 1e-9,))).verdict
        # closed-form parameters compare at the same tolerance as finite rows
        for decide in (decide_isometric_external, decide_isometric_generalized):
            assert decide(P(m=ClosedForm("CONST", (1.0,))), P(m=ClosedForm("CONST", (1 + 1e-15,)))).verdict
            cf = ClosedForm("LINEAR", (2.0, 3.0))
            assert decide(P(m=cf), P(m=ClosedForm("LINEAR", (2.0 + 1e-13, 3.0 - 1e-13)))).verdict
            d = decide(P(m=cf), P(m=ClosedForm("LINEAR", (2.0, 3.0 + 1e-9))))
            assert not d.verdict and d.witness == "third rows differ: LINEAR a=2 b=3 vs LINEAR a=2 b=3.000000001"
            d = decide(P(m=ClosedForm("CONST", (2.0,))), P(m=ClosedForm("RECIP", (2.0,))))
            assert not d.verdict and d.witness == "third rows differ: CONST c=2 vs RECIP a=2"

    def test_isometric_generalized(self):
        a = P(u=(0, 1), m=(1.0, 0.5))
        assert decide_isometric_generalized(a, a).verdict
        b = P(u=(0, 1), m=(2.0, 1.0))
        d = decide_isometric_generalized(P(u=(0, 1), m=(1.0, 2.0)), b)
        assert not d.verdict and "index 0" in d.witness
        with pytest.raises(LogSpaceError, match="different underlying algebra"):
            decide_isometric_generalized(P(u=(0,), m=(1.0,)), P(u=(1,), m=(1.0,)))

    def test_isometric_implies_star_isomorphic(self):
        cases = [
            (P(u=(0,), m=(2.0,)), P(u=(0,), m=(2.0,))),
            (P(s=(0, 2)), P(s=(0, 2))),
            (P(m=ClosedForm("GEOM", (1.0, 2.0))), P(m=ClosedForm("GEOM", (1.0, 2.0)))),
        ]
        for a, b in cases:
            if decide_isometric_external(a, b).verdict:
                assert decide_star_isomorphic(a, b).verdict

    def test_reflexive_and_symmetric(self):
        rng = random.Random(23)
        pool = [
            P(s=(0,)),
            P(s=(0, 2)),
            P(u=(0,), m=(2.0,)),
            P(u=(0, 3), m=(1.0, 4.0)),
            P(s=(1,), u=(0,), m=(3.0,)),
            P(m=ClosedForm("LINEAR", (1.0, 0.0))),
            P(m=ClosedForm("GEOM", (2.0, 0.5))),
        ]
        deciders = [decide_star_isomorphic, decide_isometric_external]
        for a in pool:
            for dec in deciders:
                assert dec(a, a).verdict
            for b in pool:
                for dec in deciders:
                    try:
                        ab = dec(a, b).verdict
                    except LogSpaceError:
                        with pytest.raises(LogSpaceError):
                            dec(b, a)
                        continue
                    assert ab == dec(b, a).verdict


class TestPassportValidation:
    def test_rows_must_increase(self):
        with pytest.raises(LogSpaceError):
            Passport((2, 1), (), FiniteList(()))
        with pytest.raises(LogSpaceError):
            Passport((), (0, 0), FiniteList((1.0, 1.0)))

    def test_third_row_alignment(self):
        with pytest.raises(LogSpaceError):
            Passport((), (0,), FiniteList(()))
        with pytest.raises(LogSpaceError):
            Passport((), (0,), ClosedForm("CONST", (1.0,)))
        # implicit second row needs a closed form
        with pytest.raises(LogSpaceError):
            Passport((), None, FiniteList((1.0,)))

    @pytest.mark.parametrize("label", [1.5, 1.0, math.nan, math.inf, True, "1", None])
    def test_labels_must_be_integers(self, label):
        # no label is rounded (1.5 is not weight 1) or fails with a raw
        # ValueError or OverflowError; lists still build (test_values)
        for rows in (((label,), (), FiniteList(())), ((), (label,), FiniteList((1.0,)))):
            with pytest.raises(LogSpaceError, match="row labels must be integers"):
                Passport(*rows)


class TestRendering:
    def test_finite(self):
        assert render_passport(P(u=(0,), m=(1.0,))) == "s:\nu: 0\nm: 1"
        assert render_passport(P(s=(0,), u=(1,), m=(3.0,))) == "s: 0\nu: 1\nm: 3"
        assert render_passport(P(u=(0, 2), m=(1.0, 0.5))) == "s:\nu: 0 2\nm: 1 0.5"

    def test_closed_form(self):
        p = P(m=ClosedForm("LINEAR", (1.0, 0.0)))
        assert render_passport(p) == "s:\nu: 0 1 2 ...\nm: LINEAR a=1 b=0"
        q = P(s=(0,), m=ClosedForm("GEOM", (1.0, 2.0)))
        assert render_passport(q) == "s: 0\nu: 0 1 2 ...\nm: GEOM a=1 r=2"
