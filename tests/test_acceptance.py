"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import random_integrand, rel_close
from logspaces import (
    EXTERNAL,
    ClosedForm,
    FiniteList,
    Generalized,
    Internal,
    IntervalPiece,
    Passport,
    StepFunction,
    add,
    build_passport,
    decide_isometric_external,
    decide_isometric_generalized,
    decide_isomorphic_pair,
    decide_star_isomorphic,
    density,
    glue_transports,
    integrate_piecewise,
    interval_space,
    is_member,
    lift,
    log_norm,
    measure,
    multiply,
    ratio_bounded,
    refine,
    reweight,
    riemann_oracle,
    scale,
    transport_between_spaces,
    transport_set,
    uniform_density,
    weighting_isometry,
)
from logspaces.sampling import (
    random_bounded_space,
    random_density,
    random_equal_passport_pair,
    random_kind,
    random_matched_components_pair,
    random_measurable_set,
    random_space,
    random_step_function,
)

CORPUS_SIZE = 10_000


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(0xC0FFEE)
    cases = []
    for _ in range(CORPUS_SIZE):
        space = random_space(rng)
        f = random_step_function(rng, space, max_pieces=4)
        g = random_step_function(rng, space, max_pieces=4)
        kind = random_kind(rng, space)
        cases.append((space, f, g, kind, rng.uniform(-1.0, 1.0)))
    return cases


def test_criterion_1_f_norm_axioms(corpus):
    started = time.perf_counter()
    for space, f, g, kind, alpha in corpus:
        nf = log_norm(f, space, kind).value
        if f.is_zero:
            assert nf == 0.0
        else:
            assert nf > 0.0
        assert log_norm(scale(f, alpha), space, kind).value <= nf + 1e-12
        prev = math.inf
        for k in range(41):
            v = log_norm(scale(f, 2.0 ** -k), space, kind).value
            assert v <= prev + 1e-12
            prev = v
        assert prev < 1e-6
        ng = log_norm(g, space, kind).value
        assert log_norm(add(f, g), space, kind).value <= nf + ng + 1e-9
    elapsed = time.perf_counter() - started
    _report(
        1,
        "F-norm axioms (positivity, contraction, vanishing scalars, triangle) "
        f"over {CORPUS_SIZE} cases",
        elapsed <= 60.0,
        f"runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_2_algebra_closure(corpus):
    # the product-norm bound is the plain-norm statement (it fails for
    # weighted kinds with weights < 1); membership closure holds for all kinds
    for space, f, g, kind, _ in corpus:
        fg = multiply(f, g)
        bound = log_norm(f, space).value + log_norm(g, space).value + 1e-9
        assert log_norm(fg, space).value <= bound
        assert is_member(fg, space, kind)
        assert is_member(fg, space)
    _report(2, f"product norm bound and membership closure over {CORPUS_SIZE} cases", True)


def test_criterion_3_change_of_measure_identities():
    rng = random.Random(0xBEEF)
    configs = 1000
    for _ in range(configs):
        mu = random_bounded_space(rng)
        h1 = random_density(rng, mu)
        h2 = random_density(rng, mu)
        nu1 = reweight(mu, h1)
        f = random_step_function(rng, mu, max_pieces=4)
        ones = uniform_density(mu, 1.0)

        # external norm under the reweighted measure = h1-weighted integral
        lhs = log_norm(f, nu1, EXTERNAL).value
        rhs = log_norm(f, mu, Generalized(h1, ones)).value
        assert rel_close(lhs, rhs, 1e-9)

        # plain integrals converted by the density, for both densities
        g = random_integrand(rng, mu)
        for hd, nu in ((h1, nu1), (h2, reweight(mu, h2))):
            left = integrate_piecewise(nu, g).value
            hg = tuple(
                tuple(IntervalPiece(a, b, va * vb) for a, b, (va, vb) in refine(gp, hp.pieces))
                for gp, hp in zip(g, hd)
            )
            right = integrate_piecewise(mu, hg).value
            assert rel_close(left, right, 1e-9)

        # two-density norm over mu = h2-weighted norm over the h1-reweighted space
        lhs = log_norm(f, mu, Generalized(h1, h2)).value
        rhs = log_norm(f, nu1, Internal(h2)).value
        assert rel_close(lhs, rhs, 1e-9)
    _report(3, f"change-of-measure identities over {configs} random configurations", True)


def test_criterion_4_weighting_isometry():
    rng = random.Random(0xABCD)
    cases = 1000
    worst = 0.0
    for _ in range(cases):
        space = random_space(rng)
        h = random_density(rng, space)
        f = random_step_function(rng, space, max_pieces=5)
        lhs = log_norm(f, space, EXTERNAL).value
        rhs = log_norm(weighting_isometry(f, h), space, Internal(h)).value
        worst = max(worst, abs(lhs - rhs))
    _report(4, f"weighting isometry exactness over {cases} (f, h) pairs", worst <= 1e-9,
            f"max deviation {worst:.2e}")


def test_criterion_5_transport_isometry():
    rng = random.Random(0xDADA)
    pairs = 100
    sets_per_map = 1000
    fns_per_map = 1000
    worst_measure = 0.0
    worst_norm = 0.0
    for i in range(pairs):
        if i % 2 == 0:
            src, dst = random_matched_components_pair(rng)
            tmap = glue_transports(list(zip(src.components, dst.components)))
        else:
            src, dst = random_equal_passport_pair(rng)
            tmap = transport_between_spaces(src, dst)
        assert decide_isometric_external(build_passport(src), build_passport(dst)).verdict
        for _ in range(sets_per_map):
            a = random_measurable_set(rng, src)
            ma = measure(src, a).value
            mb = measure(dst, transport_set(tmap, a)).value
            worst_measure = max(worst_measure, abs(ma - mb) / (1.0 + ma))
        for _ in range(fns_per_map):
            f = random_step_function(rng, src, max_pieces=4)
            dev = abs(log_norm(f, src).value - log_norm(lift(tmap, f), dst).value)
            worst_norm = max(worst_norm, dev)
    ok = worst_measure <= 1e-9 and worst_norm <= 1e-9
    _report(
        5,
        f"transport construction on {pairs} equal-passport pairs "
        f"({sets_per_map} sets and {fns_per_map} functions per map)",
        ok,
        f"measure dev {worst_measure:.2e}, norm dev {worst_norm:.2e}",
    )


def _P(s=(), u=(), m=()):
    if isinstance(m, ClosedForm):
        return Passport(tuple(s), None, m)
    return Passport(tuple(s), tuple(u), FiniteList(tuple(m)))


# (relation, left, right, expected verdict, expected rule); verdicts derived by
# hand from the row-comparison statements each rule implements
TRUTH_TABLE = [
    (decide_isomorphic_pair, _P(s=(0,)), _P(s=(0,)), True, "single-component-weights"),
    (decide_isomorphic_pair, _P(s=(1,)), _P(s=(2,)), False, "single-component-weights"),
    (decide_isomorphic_pair, _P(s=(0, 2)), _P(s=(0, 2)), True, "infinite-first-rows"),
    (decide_isomorphic_pair, _P(s=(0, 1)), _P(s=(0, 2)), False, "infinite-first-rows"),
    (decide_isomorphic_pair, _P(s=(0,)), _P(s=(0, 2)), False, "infinite-first-rows"),
    (decide_star_isomorphic, _P(u=(0,), m=(1.0,)), _P(u=(0,), m=(1.0,)), True, None),
    (decide_star_isomorphic, _P(u=(0, 1), m=(1.0, 2.0)), _P(u=(0, 1), m=(100.0, 0.001)), True, None),
    (decide_star_isomorphic, _P(m=ClosedForm("LINEAR", (1.0, 0.0))), _P(m=ClosedForm("LINEAR", (2.0, 0.0))), True, None),
    (decide_star_isomorphic, _P(m=ClosedForm("CONST", (1.0,))), _P(m=ClosedForm("RECIP", (1.0,))), False, None),
    (decide_star_isomorphic, _P(m=ClosedForm("RECIP", (1.0,))), _P(m=ClosedForm("CONST", (1.0,))), False, None),
    (decide_star_isomorphic, _P(m=ClosedForm("GEOM", (1.0, 2.0))), _P(m=ClosedForm("GEOM", (1.0, 3.0))), False, None),
    (decide_star_isomorphic, _P(m=ClosedForm("GEOM", (1.0, 2.0))), _P(m=ClosedForm("GEOM", (5.0, 2.0))), True, None),
    (decide_star_isomorphic, _P(u=(0,), m=(1.0,)), _P(u=(1,), m=(1.0,)), False, None),
    (decide_star_isomorphic, _P(s=(0,), u=(1,), m=(1.0,)), _P(s=(2,), u=(1,), m=(1.0,)), False, None),
    (decide_isometric_external, _P(u=(0,), m=(2.0,)), _P(u=(0,), m=(2.0,)), True, "single-finite-component"),
    (decide_isometric_external, _P(u=(0,), m=(2.0,)), _P(u=(0,), m=(3.0,)), False, "single-finite-component"),
    (decide_isometric_external, _P(s=(0,)), _P(s=(0,)), True, "single-infinite-component"),
    (decide_isometric_external, _P(s=(1,)), _P(s=(2,)), False, "single-infinite-component"),
    (decide_isometric_external, _P(s=(0, 1)), _P(s=(0, 1)), True, "infinite-components-first-rows"),
    (decide_isometric_external, _P(s=(0, 1)), _P(s=(0, 2)), False, "infinite-components-first-rows"),
    (decide_isometric_external, _P(s=(1,), u=(0,), m=(3.0,)), _P(s=(1,), u=(0,), m=(3.0,)), True, "full-passport-equality"),
    (decide_isometric_external, _P(s=(1,), u=(0,), m=(3.0,)), _P(s=(1,), u=(0,), m=(4.0,)), False, "full-passport-equality"),
    (decide_isometric_external, _P(u=(0,), m=(2.0,)), _P(s=(0,)), False, "full-passport-equality"),
    (decide_isometric_external, _P(m=ClosedForm("CONST", (1.0,))), _P(m=ClosedForm("CONST", (1.0,))), True, "full-passport-equality"),
    (decide_isometric_external, _P(m=ClosedForm("CONST", (1.0,))), _P(m=ClosedForm("CONST", (2.0,))), False, "full-passport-equality"),
    (decide_isometric_external, _P(m=ClosedForm("GEOM", (2.0, 1.0))), _P(m=ClosedForm("CONST", (2.0,))), True, "full-passport-equality"),
    (decide_isometric_generalized, _P(u=(0, 1), m=(1.0, 0.5)), _P(u=(0, 1), m=(1.0, 0.5)), True, "third-rows"),
    (decide_isometric_generalized, _P(u=(0, 1), m=(1.0, 2.0)), _P(u=(0, 1), m=(2.0, 1.0)), False, "third-rows"),
    (decide_isometric_generalized, _P(m=ClosedForm("LINEAR", (1.0, 0.0))), _P(m=ClosedForm("LINEAR", (1.0, 0.0))), True, "third-rows"),
    (decide_isometric_generalized, _P(m=ClosedForm("LINEAR", (1.0, 0.0))), _P(m=ClosedForm("LINEAR", (2.0, 0.0))), False, "third-rows"),
]


def test_criterion_6_decision_truth_table():
    assert len(TRUTH_TABLE) >= 24
    for decider, left, right, verdict, rule in TRUTH_TABLE:
        decision = decider(left, right)
        assert decision.verdict is verdict, (decider.__name__, left, right, decision)
        if rule is not None:
            assert decision.rule == rule, (decider.__name__, decision)
    # cross-check every closed-form ratio decision against terms up to i = 1e6:
    # bounded ratios stop drifting, unbounded ones gain decades
    checked = 0
    for _, left, right, _, _ in TRUTH_TABLE:
        for a, b in ((left.row_m, right.row_m), (right.row_m, left.row_m)):
            if not (isinstance(a, ClosedForm) and isinstance(b, ClosedForm)):
                continue
            drift = (a.log_term(10**6) - b.log_term(10**6)) - (
                a.log_term(10**3) - b.log_term(10**3)
            )
            if ratio_bounded(a, b):
                assert drift < 0.7
            else:
                assert drift > 2.0
            checked += 1
    assert checked >= 10
    _report(6, f"decision truth table ({len(TRUTH_TABLE)} pairs, every rule covered; "
               f"{checked} ratio decisions cross-checked to index 1e6)", True)


def test_criterion_7_oracle_agreement():
    rng = random.Random(0xFACE)
    cases = 1000
    worst = 0.0
    for _ in range(cases):
        space = random_space(rng)
        f = random_step_function(rng, space, max_pieces=4)
        kind = random_kind(rng, space)
        closed = log_norm(f, space, kind).value
        approx = riemann_oracle(f, space, kind, 10**5)
        worst = max(worst, abs(closed - approx))
    _report(7, f"closed form vs midpoint Riemann oracle on {cases} bounded-support cases",
            worst <= 1e-6, f"max |difference| {worst:.2e}")


def test_criterion_8_worked_constants():
    unit = interval_space(0, 1, 1.0)
    e1 = math.e - 1.0
    n1 = log_norm(StepFunction.from_pieces(unit, [(0, 0.0, 1.0, e1)]), unit).value
    ok1 = abs(n1 - 1.0) <= 1e-12

    steps = StepFunction.from_pieces(unit, [(0, 0.0, 0.5, 3), (0, 0.5, 1.0, 1)])
    n2 = log_norm(steps, unit).value
    ok2 = abs(n2 - 1.5 * math.log(2.0)) <= 1e-12

    h = (density([(0.0, 0.5, 2.0), (0.5, 1.0, 4.0)]),)
    f = StepFunction.from_pieces(unit, [(0, 0.0, 1.0, 2)])
    lhs = log_norm(f, unit).value
    rhs = log_norm(weighting_isometry(f, h), unit, Internal(h)).value
    ok3 = abs(lhs - math.log(3.0)) <= 1e-12 and abs(rhs - math.log(3.0)) <= 1e-12

    _report(8, "three hand-checkable norm constants reproduce to 1e-12", ok1 and ok2 and ok3,
            f"values {n1!r}, {n2!r}, {lhs!r}/{rhs!r}")


FIXTURE = str(Path(__file__).parent / "data" / "fixture.json")

CLI_GOLDEN = [
    (["norm", "--file", FIXTURE, "--fn", "f_steps"], "norm = 1.0397207708399179\n", 0),
    (["norm", "--file", FIXTURE, "--fn", "f_zero"], "norm = 0\n", 0),
    (["passport", "--file", FIXTURE], "s:\nu: 0\nm: 1\n", 0),
    (
        ["decide", "--file", FIXTURE, "--relation", "isometric", "--left", "P1", "--right", "P2"],
        "verdict = false\nrule = single-finite-component\nwitness = third rows differ at index 0: 2 vs 3\n",
        1,
    ),
    (["transport", "--file", FIXTURE], "component 0 -> 0\nsrc=[0,1) slope=2 offset=0\n", 0),
    (
        ["verify", "--file", FIXTURE, "--target", "transport", "--samples", "50", "--seed", "42"],
        "samples = 50\nmax_abs_deviation = 0\n",
        0,
    ),
]


def test_criterion_9_cli_golden():
    for args, stdout, code in CLI_GOLDEN:
        first = subprocess.run(
            [sys.executable, "-m", "logspaces", *args], capture_output=True, text=True
        )
        second = subprocess.run(
            [sys.executable, "-m", "logspaces", *args], capture_output=True, text=True
        )
        assert first.stdout == stdout and first.returncode == code, args
        assert second.stdout == first.stdout and second.returncode == first.returncode
    bad = subprocess.run(
        [sys.executable, "-m", "logspaces", "norm", "--file", FIXTURE, "--fn", "nope"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2 and "unknown name: nope" in bad.stderr
    _report(9, f"CLI reports byte-identical across runs with the exit-code contract "
               f"({len(CLI_GOLDEN)} commands plus an error case)", True)
