import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    emit_workspace,
    interval_space,
    parse_workspace,
    ratio_bounded,
    render_passport,
)
from logspaces.passports import Decision
from logspaces.render import format_real
from logspaces.workspace import Workspace


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
            ("CONST", (1.0, 2.0), "CONST takes 1 parameter(s)"),
            ("LINEAR", (1.0,), "LINEAR takes 2 parameter(s)"),
            ("GEOM", (), "GEOM takes 2 parameter(s)"),
        ],
    )
    def test_a_wrong_parameter_count_is_named(self, kind, params, message):
        with pytest.raises(LogSpaceError) as err:
            ClosedForm(kind, params)
        assert str(err.value) == message

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

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("LINEAR", (1e308, 1e308), "LINEAR(1e+308, 1e+308) term 1 overflows a float"),
            ("GEOM", (1e300, 1e10), "GEOM(1e+300, 10000000000.0) term 1 overflows a float"),
        ],
    )
    def test_a_first_term_beyond_the_float_range_is_rejected(self, kind, params, message):
        # mu_1 = inf would be an infinite measure in a finite-measure row
        with pytest.raises(LogSpaceError) as err:
            ClosedForm(kind, params)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "cf, i",
        [
            (ClosedForm("GEOM", (1.0, 2.0)), 2000),  # r**i raises OverflowError
            (ClosedForm("GEOM", (1e300, 1.5)), 100),  # a * r**i rounds to inf
            (ClosedForm("LINEAR", (1e300, 1.0)), 10**9),
            (ClosedForm("LINEAR", (1.0, 1.0)), 10**400),  # i does not convert to a float
        ],
        ids=["geom-power", "geom-product", "linear-product", "linear-index"],
    )
    def test_a_term_beyond_the_float_range_is_rejected_by_index(self, cf, i):
        with pytest.raises(LogSpaceError, match=rf"^{cf.kind}\(.*\) term {i} overflows a float"):
            cf.term(i)
        assert math.isfinite(cf.log_term(min(i, 10**6)))

    @pytest.mark.parametrize("kind", [["CONST"], None, 1, b"CONST"])
    def test_a_kind_that_is_not_a_string_is_rejected(self, kind):
        with pytest.raises(LogSpaceError) as err:
            ClosedForm(kind, (1.0,))
        assert str(err.value) == f"closed form kind must be a string, got {kind!r}"

    @pytest.mark.parametrize("params", [1.0, None, 3])
    def test_params_that_are_not_a_sequence_are_rejected(self, params):
        with pytest.raises(LogSpaceError) as err:
            ClosedForm("CONST", params)
        assert str(err.value) == f"CONST parameters must be a sequence, got {params!r}"

    @pytest.mark.parametrize(
        "cf, text, log_10, growth",
        [
            (ClosedForm("CONST", (2.5,)), "CONST c=2.5", math.log(2.5), (2, 0.0)),
            (ClosedForm("LINEAR", (2.0, -1.0)), "LINEAR a=2 b=-1", math.log(19.0), (3, 0.0)),
            (ClosedForm("RECIP", (0.5,)), "RECIP a=0.5", math.log(0.5) - math.log(10), (1, 0.0)),
            (ClosedForm("GEOM", (3.0, 0.5)), "GEOM a=3 r=0.5", math.log(3.0) + 10 * math.log(0.5), (0, 0.5)),
            (ClosedForm("GEOM", (1.5, 2.0)), "GEOM a=1.5 r=2", math.log(1.5) + 10 * math.log(2.0), (4, 2.0)),
        ],
    )
    def test_every_kind_renders_and_round_trips_through_a_workspace(self, cf, text, log_10, growth):
        assert cf.log_term(10) == log_10
        assert cf.growth() == growth
        p = Passport(row_u=None, row_m=cf)
        assert render_passport(p) == f"s:\nu: 0 1 2 ...\nm: {text}"
        ws = Workspace(passports={"P": p})
        again = parse_workspace(emit_workspace(ws))
        assert again.passports == {"P": p}
        assert emit_workspace(again) == emit_workspace(ws)

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

    def test_a_negative_decision_needs_a_witness(self):
        with pytest.raises(LogSpaceError, match="^a negative decision needs a witness$"):
            Decision(False, "r", "")
        assert Decision(True, "r", "").verdict

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


# Closed forms are compared by the values that fix their terms: CONST c and
# RECIP a, LINEAR a and a + b, each at 1e-12 relative, and GEOM a at 1e-12
# with r exactly.
def test_closed_forms_whose_terms_drift_apart_are_not_isometric():
    # r differs by 1e-13 relative, yet the log-terms differ by 0.0999 at i = 10^12
    a, b = ClosedForm("GEOM", (1.0, 2.0)), ClosedForm("GEOM", (1.0, 2.0 * (1 + 1e-13)))
    assert b.log_term(10**12) - a.log_term(10**12) == pytest.approx(0.0999, abs=5e-4)
    assert not decide_isometric_external(P(m=a), P(m=b)).verdict


def test_closed_forms_with_equal_terms_are_isometric():
    # b = 0 and b = 1e-300 are far apart relatively, yet every term a*i + b is the same float
    a, b = ClosedForm("LINEAR", (1.0, 0.0)), ClosedForm("LINEAR", (1.0, 1e-300))
    assert all(a.term(i) == b.term(i) for i in (1, 2, 10, 10**6, 10**12))
    assert decide_isometric_external(P(m=a), P(m=b)).verdict


_INDEXES = (1, 2, 10, 10**3, 10**6, 10**12)


def _terms_agree(a, b):
    """Whether the terms of a and b agree to 1e-12 relative at every index in _INDEXES.

    Read off the log-terms, which do not overflow: their difference is the
    log of the terms' ratio.  Each log-term is rounded, to an ulp or two of
    its own size and of its term's.
    """
    for i in _INDEXES:
        la, lb = a.log_term(i), b.log_term(i)
        if abs(la - lb) > 1e-12 + 1e-15 + 4 * math.ulp(max(abs(la), abs(lb))):
            return False
    return True


@st.composite
def _nearby_closed_forms(draw):
    """A closed form and one whose parameters are each moved by up to 3e-12 relative."""
    kind = draw(st.sampled_from(["CONST", "LINEAR", "RECIP", "GEOM"]))
    x = draw(st.floats(1e-3, 1e3))
    if kind == "LINEAR":  # b from -0.999 a, where a + b is small, up to 1e3 a
        params = (x, x * draw(st.floats(-0.999, 1e3)))
    elif kind == "GEOM":
        params = (x, 10.0 ** draw(st.floats(-1.0, 1.0)))
    else:
        params = (x,)
    nudge = st.one_of(st.just(0), st.integers(-30, 30))  # a parameter left as it is, often
    nudges = draw(st.lists(nudge, min_size=len(params), max_size=len(params)))
    return ClosedForm(kind, params), ClosedForm(kind, tuple(p * (1 + k * 1e-13) for p, k in zip(params, nudges)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_nearby_closed_forms())
def test_closed_forms_called_equal_have_equal_terms(pair):
    a, b = pair
    verdict = decide_isometric_external(P(m=a), P(m=b)).verdict
    if verdict:
        assert _terms_agree(a, b)
    if a.kind == "GEOM" and b.kind == "GEOM" and a.params[1] != b.params[1]:
        assert not verdict


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

    def test_format_real_refuses_nan(self):
        with pytest.raises(ValueError, match="^cannot render NaN$"):
            format_real(math.nan)
        assert [format_real(x) for x in (math.inf, 2.0, 0.5, 1e16)] == ["inf", "2", "0.5", "1e+16"]

    def test_closed_form(self):
        p = P(m=ClosedForm("LINEAR", (1.0, 0.0)))
        assert render_passport(p) == "s:\nu: 0 1 2 ...\nm: LINEAR a=1 b=0"
        q = P(s=(0,), m=ClosedForm("GEOM", (1.0, 2.0)))
        assert render_passport(q) == "s: 0\nu: 0 1 2 ...\nm: GEOM a=1 r=2"
