import copy
import math
import pickle
import random
import re

import pytest

from logspaces import (
    Component,
    Internal,
    LogSpaceError,
    MeasurableSet,
    MeasureSpace,
    StepFunction,
    StepPiece,
    add,
    build_passport,
    constant_density,
    decide_isometric_external,
    density,
    glue_transports,
    interval_space,
    lift,
    log_norm,
    measure,
    monotone_transport,
    multiply,
    render_transport,
    scale,
    transport_between_spaces,
    transport_set,
    uniform_density,
    verify_isometry,
    weighting_isometry,
)
from logspaces.sampling import (
    equal_passport_partner,
    random_equal_passport_pair,
    random_matched_components_pair,
    random_measurable_set,
    random_step_function,
)
from logspaces.transport import AffinePiece, ComponentTransport, IsometryReport, TransportMap


def comp(spec, weight=0):
    return Component(density(spec), weight)


class TestMonotoneTransport:
    def test_identity(self):
        c = comp([(0.0, 1.0, 1.0)])
        t = monotone_transport(c, c)
        (entry,) = t.entries
        (piece,) = entry.pieces
        assert (piece.start, piece.stop, piece.slope, piece.offset) == (0.0, 1.0, 1.0, 0.0)

    def test_stretch_by_density_ratio(self):
        t = monotone_transport(comp([(0.0, 1.0, 1.0)]), comp([(0.0, 2.0, 0.5)]))
        (piece,) = t.entries[0].pieces
        assert (piece.slope, piece.offset) == (2.0, 0.0)
        t = monotone_transport(comp([(0.0, 1.0, 2.0)]), comp([(0.0, 4.0, 0.5)]))
        (piece,) = t.entries[0].pieces
        assert (piece.slope, piece.offset) == (4.0, 0.0)

    def test_piecewise_source_density(self):
        # masses: [0,.5) holds .25, [.5,1) holds 1.0 under d=(0.5, 2)
        src = comp([(0.0, 0.5, 0.5), (0.5, 1.0, 2.0)])
        dst = comp([(0.0, 1.25, 1.0)])
        t = monotone_transport(src, dst)
        pieces = t.entries[0].pieces
        assert [(p.start, p.stop) for p in pieces] == [(0.0, 0.5), (0.5, 1.0)]
        assert [p.slope for p in pieces] == [0.5, 2.0]
        assert pieces[0].image_of(0.5) == 0.25
        assert pieces[1].image_of(1.0) == 1.25

    def test_errors(self):
        with pytest.raises(LogSpaceError, match="no measure-preserving map"):
            monotone_transport(comp([(0.0, 1.0, 1.0)]), comp([(0.0, 1.0, 2.0)]))
        with pytest.raises(LogSpaceError, match="no measure-preserving map"):
            monotone_transport(comp([(0.0, 1.0, 1.0)]), comp([(0.0, math.inf, 1.0)]))
        with pytest.raises(LogSpaceError, match="symbolic component"):
            monotone_transport(comp([(0.0, 1.0, 1.0)], weight=1), comp([(0.0, 1.0, 1.0)]))


class TestGlueAndInfinite:
    def test_single_pair_equals_monotone(self):
        a, b = comp([(0.0, 1.0, 1.0)]), comp([(0.0, 2.0, 0.5)])
        assert glue_transports([(a, b)]).entries == monotone_transport(a, b).entries

    def test_identity_on_halfline(self):
        c = comp([(0.0, math.inf, 1.0)])
        t = glue_transports([(c, c)])
        (piece,) = t.entries[0].pieces
        assert (piece.slope, piece.offset) == (1.0, 0.0)
        assert math.isinf(piece.stop)

    def test_halfline_density_doubling_halves_positions(self):
        t = monotone_transport(comp([(0.0, math.inf, 1.0)]), comp([(0.0, math.inf, 2.0)]))
        (piece,) = t.entries[0].pieces
        assert (piece.slope, piece.offset) == (0.5, 0.0)

    def test_empty_pairing(self):
        with pytest.raises(LogSpaceError, match="pairing incomplete"):
            glue_transports([])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (lambda c: [c], "transport pair must be a (source, target) component pair, got {c!r}"),
            (lambda c: [1], "transport pair must be a (source, target) component pair, got 1"),
            (lambda c: [(c, c), (c,)], "transport pair must be a (source, target) component pair, got ({c!r},)"),
            (lambda c: [(c, c, c)], "transport pair must be a (source, target) component pair, got ({c!r}, {c!r}, {c!r})"),
            (lambda c: None, "transport pairs must be a sequence of (source, target) component pairs, got None"),
        ],
    )
    def test_a_bad_pair_is_named(self, pairs, message):
        # each raised the TypeError of len() or of iterating
        c = comp([(0.0, 1.0, 1.0)])
        with pytest.raises(LogSpaceError, match=f"^{re.escape(message.format(c=c))}$"):
            glue_transports(pairs(c))


class TestSpaceTransport:
    def test_one_component_to_two(self):
        src = MeasureSpace((comp([(0.0, 3.0, 1.0)]),))
        dst = MeasureSpace((comp([(0.0, 1.0, 1.0)]), comp([(0.0, 1.0, 2.0)])))
        t = transport_between_spaces(src, dst)
        assert [(e.src, e.dst) for e in t.entries] == [(0, 0), (0, 1)]
        f = StepFunction.from_pieces(src, [(0, 0.0, 3.0, 5)])
        g = lift(t, f)
        assert abs(log_norm(f, src).value - log_norm(g, dst).value) < 1e-12

    def test_finite_plus_tail_against_plain_halfline(self):
        src = MeasureSpace((comp([(0.0, math.inf, 1.0)]),))
        dst = MeasureSpace((comp([(0.0, 1.0, 1.0)]), comp([(0.0, math.inf, 2.0)])))
        t = transport_between_spaces(src, dst)
        f = StepFunction.from_pieces(src, [(0, 0.0, 3.0, 4)])
        g = lift(t, f)
        assert abs(log_norm(f, src).value - log_norm(g, dst).value) < 1e-12

    def test_weight_groups_must_match(self):
        src = MeasureSpace((comp([(0.0, 1.0, 1.0)]),))
        dst = MeasureSpace((comp([(0.0, 1.0, 1.0)], weight=1),))
        with pytest.raises(LogSpaceError, match="symbolic component"):
            transport_between_spaces(src, dst)

    def test_overflowing_group_is_rejected_like_its_passport(self):
        # each component's mass is finite; only the same-weight sum overflows
        space = MeasureSpace((comp([(0.0, 1.0, 1e308)]), comp([(5.0, 6.0, 1e308)])))
        with pytest.raises(LogSpaceError, match="sum of finite values overflows"):
            build_passport(space)
        with pytest.raises(LogSpaceError, match="sum of finite values overflows"):
            transport_between_spaces(space, space)

    def test_overflowing_group_with_an_unbounded_member_is_rejected_like_its_decision(self):
        # decision and construction agree: both reject the overflowing bounded part
        src = MeasureSpace(
            (comp([(0.0, 1.0, 1e308)]), comp([(5.0, 6.0, 1e308)]), comp([(10.0, math.inf, 1.0)]))
        )
        half = MeasureSpace((comp([(0.0, math.inf, 1.0)]),))
        with pytest.raises(LogSpaceError) as built:
            transport_between_spaces(src, half)
        with pytest.raises(LogSpaceError) as decided:
            decide_isometric_external(build_passport(src), build_passport(half))
        assert str(built.value) == str(decided.value) == "sum of finite values overflows a float"

    def test_two_unbounded_components_unrepresentable(self):
        hl = comp([(0.0, math.inf, 1.0)])
        src = MeasureSpace((hl, hl))
        dst = MeasureSpace((hl,))
        with pytest.raises(LogSpaceError, match="pairing incomplete"):
            transport_between_spaces(src, dst)
        # the decision is asked first: two half-lines are not isometric to a bounded space
        with pytest.raises(LogSpaceError, match="no measure-preserving map"):
            transport_between_spaces(src, interval_space(0, 1))

    def test_slope_that_overflows_is_rejected_as_an_overflow(self):
        # density ratio 1e400: the slope is inf and its offset 0 - inf * 0 is NaN
        src, dst = interval_space(0, 1e-200, 1e200), interval_space(0, 1e200, 1e-200)
        with pytest.raises(LogSpaceError, match="transport slope or offset overflows a float"):
            transport_between_spaces(src, dst)
        with pytest.raises(LogSpaceError, match="transport slope or offset overflows a float"):
            glue_transports([(src.components[0], dst.components[0])])

    def test_slope_that_underflows_is_rejected_as_an_overflow(self):
        # density ratio 1e-400 rounds to a zero slope, whose inverse overflows
        src, dst = interval_space(0, 1e200, 1e-200), interval_space(0, 1e-200, 1e200)
        with pytest.raises(LogSpaceError, match="transport slope or offset overflows a float"):
            transport_between_spaces(src, dst)
        with pytest.raises(LogSpaceError, match="transport slope or offset overflows a float"):
            glue_transports([(src.components[0], dst.components[0])])


class TestGroupTotalsAgreeWithTheDecision:
    """A group total is the passport's, not the running sum of the mass line."""

    @staticmethod
    def _long_tail():
        # 12,000 pieces of mass 1.1e-16 each vanish from a running sum at 1.0
        xs = [1.0 + i * 1e-4 for i in range(12_001)]
        spec = [(0.0, 1.0, 1.0)] + [(a, b, 1.1e-12) for a, b in zip(xs, xs[1:])]
        return comp(spec)

    def _verdicts(self, c, other):
        src = MeasureSpace((c,))
        decided = decide_isometric_external(build_passport(src), build_passport(other)).verdict
        built = []
        for construct in (
            lambda: transport_between_spaces(src, other),
            lambda: glue_transports([(c, other.components[0])]),
        ):
            try:
                construct()
                built.append(True)
            except LogSpaceError as e:
                assert str(e) == "no measure-preserving map"
                built.append(False)
        return [decided] + built

    def test_all_reject_a_total_that_differs_only_beyond_the_running_sum(self):
        assert self._verdicts(self._long_tail(), interval_space(0, 1)) == [False, False, False]

    def test_all_accept_the_passport_total(self):
        c = self._long_tail()
        (m,) = build_passport(MeasureSpace((c,))).row_m.values
        assert m != 1.0
        assert self._verdicts(c, interval_space(0, 1, m)) == [True, True, True]

    def test_all_reject_a_group_whose_mass_underflows(self):
        s = interval_space(0, 1e-200, 1e-200)  # mass 1e-400 rounds to 0
        message = "finite measures must be positive and finite, got 0.0"
        for construct in (
            lambda: build_passport(s),
            lambda: transport_between_spaces(s, s),
            lambda: glue_transports([(s.components[0], s.components[0])]),
            # the source's passport is rejected before a target whose mass overflows
            lambda: transport_between_spaces(s, interval_space(0, 1e200, 1e200)),
        ):
            with pytest.raises(LogSpaceError) as err:
                construct()
            assert str(err.value) == message


class TestLightGroups:
    """A group's mass cuts merge by the passport's relative test, so a light group maps whole."""

    def test_one_piece_group_of_mass_1e_12_maps_onto_itself(self):
        s = interval_space(0, 1e-6, 1e-6)
        t = transport_between_spaces(s, s)
        assert render_transport(t) == "component 0 -> 0\nsrc=[0,1e-06) slope=1 offset=0"

    def test_many_piece_light_group_maps_every_cell(self):
        src = MeasureSpace((comp([(0, 1e-7, 1e-6), (1e-7, 5e-7, 2e-6), (5e-7, 1e-6, 1e-6)]),))
        dst = interval_space(0, 1.4e-6, 1e-6)
        t = transport_between_spaces(src, dst)
        (entry,) = t.entries
        assert [(p.start, p.stop) for p in entry.pieces] == [(0, 1e-7), (1e-7, 5e-7), (5e-7, 1e-6)]
        f = StepFunction.from_pieces(src, [(0, 0, 9e-7, 1.5)])
        assert log_norm(lift(t, f), dst).value == log_norm(f, src).value


def _merged_parts(mset):
    """The parts of a set with touching parts of one component joined."""
    out = []
    for c, a, b in mset.parts:
        if out and out[-1][0] == c and out[-1][2] == a:
            out[-1][2] = b
        else:
            out.append([c, a, b])
    return out


def _with_tails(space, mset):
    """mset plus an unbounded part on every unbounded carrier, beyond the sampled window."""
    tails = [
        (i, c.carrier[0] + 5.0, math.inf)
        for i, c in enumerate(space.components)
        if math.isinf(c.carrier[1])
    ]
    return MeasurableSet(mset.parts + tuple(tails))


class TestReverseTransport:
    """The reverse transport carries the image of a set back onto the set."""

    @staticmethod
    def _assert_round_trip(rng, src, forward, reverse, sets=50):
        for _ in range(sets):
            a = _with_tails(src, random_measurable_set(rng, src, max_intervals=4))
            back = transport_set(reverse, transport_set(forward, a))
            want, got = _merged_parts(a), _merged_parts(back)
            assert [p[0] for p in got] == [p[0] for p in want]
            for (_, x0, x1), (_, y0, y1) in zip(want, got):
                for x, y in ((x0, y0), (x1, y1)):
                    assert x == y or abs(x - y) <= 1e-9 * max(1.0, abs(x)), (want, got)

    def test_whole_space_round_trip(self):
        rng = random.Random(38)
        for _ in range(40):
            src, dst = random_equal_passport_pair(rng)
            forward = transport_between_spaces(src, dst)
            reverse = transport_between_spaces(dst, src)
            self._assert_round_trip(rng, src, forward, reverse)
            self._assert_round_trip(rng, dst, reverse, forward)

    def test_glued_round_trip(self):
        rng = random.Random(39)
        for _ in range(40):
            src, dst = random_matched_components_pair(rng)
            pairs = list(zip(src.components, dst.components))
            forward = glue_transports(pairs)
            reverse = glue_transports([(d, s) for s, d in pairs])
            self._assert_round_trip(rng, src, forward, reverse)
            self._assert_round_trip(rng, dst, reverse, forward)


class TestLift:
    def test_identity_map_keeps_function(self):
        s = interval_space(0, 1)
        t = transport_between_spaces(s, s)
        f = StepFunction.from_pieces(s, [(0, 0.1, 0.4, 2 + 1j)])
        assert lift(t, f) == f

    def test_image_interval_example(self):
        s1, s2 = interval_space(0, 1, 1.0), interval_space(0, 2, 0.5)
        t = transport_between_spaces(s1, s2)
        f = StepFunction.from_pieces(s1, [(0, 0.0, 0.5, 3)])
        g = lift(t, f)
        assert [(p.start, p.stop, p.coef) for p in g.pieces[0]] == [(0.0, 1.0, 3 + 0j)]
        assert log_norm(f, s1).value == log_norm(g, s2).value == pytest.approx(math.log(2))

    def test_linear_and_multiplicative(self):
        rng = random.Random(31)
        for _ in range(50):
            src, dst = random_matched_components_pair(rng)
            t = transport_between_spaces(src, dst)
            f = random_step_function(rng, src, max_pieces=4)
            g = random_step_function(rng, src, max_pieces=4)
            a, b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(-2, 2)
            assert lift(t, add(scale(f, a), scale(g, b))) == add(scale(lift(t, f), a), scale(lift(t, g), b))
            assert lift(t, multiply(f, g)) == multiply(lift(t, f), lift(t, g))

    @pytest.mark.parametrize("index", [3, -1, 1])
    def test_transport_set_names_a_component_the_map_lacks(self, index):
        # it raised "unmapped support"; measure names the same part this way
        s = interval_space(0, 1)
        t = transport_between_spaces(s, interval_space(0, 2, 0.5))
        mset = MeasurableSet(((0, 0.0, 0.5), (index, 0.0, 0.5)))
        message = f"^component index {index} out of range$"
        with pytest.raises(LogSpaceError, match=message):
            measure(s, mset)
        with pytest.raises(LogSpaceError, match=message):
            transport_set(t, mset)

    def test_a_function_of_another_component_count_is_refused(self):
        s = interval_space(0, 1)
        two = MeasureSpace(s.components * 2)
        with pytest.raises(LogSpaceError, match="^function/space mismatch$"):
            lift(transport_between_spaces(s, s), StepFunction.zero(two))

    def test_unmapped_support(self):
        s1, s2 = interval_space(0, 1), interval_space(0, 1)
        t = transport_between_spaces(s1, s2)
        wide = interval_space(0, 2)
        f = StepFunction.from_pieces(wide, [(0, 1.2, 1.8, 1)])
        with pytest.raises(LogSpaceError, match="unmapped support"):
            lift(t, f)

    def test_a_map_built_from_integers_lifts_to_float_bounds(self):
        s = interval_space(0, 1)
        f = StepFunction.from_pieces(s, [(0, 0.0, 0.5, 3), (0, 0.5, 1.0, 1)])
        by_hand = TransportMap((ComponentTransport(0, 0, (AffinePiece(0, 1, 2, 0, 2),)),))
        g = lift(by_hand, f)
        assert [(p.start.hex(), p.stop.hex()) for p in g.pieces[0]] == [
            (x.hex(), y.hex()) for x, y in ((0.0, 1.0), (1.0, 2.0))
        ]


class TestHandBuiltMaps:
    """A map built by hand is checked as it is built: integer indexes in range, counts >= 1."""

    @staticmethod
    def _pieces():
        (entry,) = transport_between_spaces(interval_space(0, 1), interval_space(0, 2, 0.5)).entries
        return entry.pieces

    @pytest.mark.parametrize("src, dst", [(0, -1), (0, 5), (-1, 0), (1, 0)])
    def test_an_index_out_of_range_is_rejected(self, src, dst):
        # dst=-1 made transport_set drop the support and lift fail with UnboundLocalError;
        # dst=5 made transport_set return parts in component 5 and lift fail with IndexError
        bad = src if src else dst
        with pytest.raises(LogSpaceError, match=f"^component index {bad} out of range$"):
            TransportMap((ComponentTransport(src, dst, self._pieces()),), 1, 1)

    def test_an_index_in_range_of_the_counts_is_accepted(self):
        tmap = TransportMap((ComponentTransport(1, 2, self._pieces()),), 2, 3)
        assert tmap.entries[0].dst == 2

    @pytest.mark.parametrize("index", [True, False, 0.0, "0", None])
    @pytest.mark.parametrize("field", ["src", "dst"])
    def test_indexes_are_integers_not_bools(self, field, index):
        other = {"src": 0, "dst": 0, field: index}
        with pytest.raises(LogSpaceError, match=f"^component index must be an integer, got {re.escape(repr(index))}$"):
            ComponentTransport(other["src"], other["dst"], self._pieces())

    @pytest.mark.parametrize("count", [True, 1.0, "1", None])
    @pytest.mark.parametrize("field", ["src_components", "dst_components"])
    def test_counts_are_integers_not_bools(self, field, count):
        with pytest.raises(LogSpaceError, match=f"^{field} must be an integer, got {re.escape(repr(count))}$"):
            TransportMap((), **{field: count})

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("field", ["src_components", "dst_components"])
    def test_counts_are_at_least_one(self, field, count):
        with pytest.raises(LogSpaceError, match=f"^{field} must be >= 1, got {count}$"):
            TransportMap((), **{field: count})

    def test_an_int_subclass_index_is_stored_as_an_int(self):
        class Label(int):
            pass

        entry = ComponentTransport(Label(0), Label(0), self._pieces())
        assert type(entry.src) is int and type(entry.dst) is int
        tmap = TransportMap((entry,), Label(1), Label(1))
        assert type(tmap.src_components) is int and type(tmap.dst_components) is int

    @pytest.mark.parametrize("glued", [False, True], ids=["between-spaces", "glued"])
    @pytest.mark.parametrize("duplicate", ["pickle", "deepcopy"])
    def test_a_copied_map_equals_and_acts_as_the_built_one(self, glued, duplicate):
        # a copy is rebuilt through the constructor, which groups its pieces by source again
        rng = random.Random(21)
        for _ in range(10):
            if glued:
                src, dst = random_matched_components_pair(rng)
                built = glue_transports(list(zip(src.components, dst.components)))
            else:
                src, dst = random_equal_passport_pair(rng)
                built = transport_between_spaces(src, dst)
            if duplicate == "pickle":
                copied = pickle.loads(pickle.dumps(built))
            else:
                copied = copy.deepcopy(built)
            assert copied is not built and copied == built
            assert render_transport(copied) == render_transport(built)
            f = random_step_function(rng, src, max_pieces=8)
            mset = random_measurable_set(rng, src, max_intervals=6)
            assert lift(copied, f) == lift(built, f)
            assert transport_set(copied, mset) == transport_set(built, mset)

    def test_a_rebuilt_map_equals_the_built_one(self):
        built = transport_between_spaces(interval_space(0, 1), interval_space(0, 2, 0.5))
        (entry,) = built.entries
        rebuilt = TransportMap((ComponentTransport(entry.src, entry.dst, entry.pieces),), 1, 1)
        assert rebuilt == built
        assert render_transport(rebuilt) == render_transport(built)

    # [0, 1) onto [0, 1), [1, 2) onto [0, 1) and [0.5, 1.5) onto [1, 2), by slope 1
    A, B = AffinePiece(0, 1, 1, 0, 1), AffinePiece(1, 2, 1, 0, 1)
    OVER = AffinePiece(0.5, 1.5, 1, 1, 2)

    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 0, (A, OVER))],  # an overlap inside one entry
            [(0, 0, (A,)), (0, 1, (OVER,))],  # an overlap across two entries of one source
            [(0, 0, (B, A))],  # out of order inside one entry
            [(0, 1, (B,)), (0, 0, (A,))],  # out of order across two entries
        ],
        ids=["overlap-in-entry", "overlap-across-entries", "unsorted-in-entry", "unsorted-across-entries"],
    )
    def test_pieces_of_one_source_must_ascend_without_overlap(self, entries):
        # the overlapping map lifted [0, 1.5) onto [0, 2) without an error
        with pytest.raises(LogSpaceError, match="^transport pieces of component 0 overlap or are out of order$"):
            TransportMap(tuple(ComponentTransport(*e) for e in entries), 1, 2)

    def test_an_index_out_of_range_is_reported_before_an_order_fault(self):
        # the indexes are checked as the entries are grouped, and the order
        # after them, in the one check every map passes
        entries = (ComponentTransport(0, 0, (self.A, self.OVER)), ComponentTransport(0, 5, (self.B,)))
        with pytest.raises(LogSpaceError, match="^component index 5 out of range$"):
            TransportMap(entries, 1, 2)

    def test_pieces_of_different_sources_are_ordered_apart(self):
        # source 1's entry comes first, and source 0's piece starts after it stops
        tmap = TransportMap((ComponentTransport(1, 1, (self.A,)), ComponentTransport(0, 0, (self.B,))), 2, 2)
        f = StepFunction(((StepPiece(1, 2, 5),), (StepPiece(0, 1, 3),)))
        assert lift(tmap, f) == StepFunction(((StepPiece(0, 1, 5),), (StepPiece(0, 1, 3),)))

    # [0, 1) onto [1, 2): with B after it in one entry, its source ascends and its image descends
    C = AffinePiece(0, 1, 1, 1, 2)

    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 0, (A,)), (1, 0, (A,))],  # two sources whose images overlap in target 0
            [(0, 0, (C,)), (1, 0, (A,))],  # images in target 0 descend across entries
            [(0, 0, (C, B))],  # images in target 0 descend inside one entry
        ],
        ids=["overlap-across-sources", "descend-across-entries", "descend-in-entry"],
    )
    def test_images_in_one_target_must_ascend_without_overlap(self, entries):
        # the overlapping map was accepted; lift then raised "step function pieces
        # must be disjoint" and transport_set "subintervals within a component must be disjoint"
        with pytest.raises(LogSpaceError, match="^transport images in component 0 overlap or are out of order$"):
            TransportMap(tuple(ComponentTransport(*e) for e in entries), 2, 1)

    def test_touching_and_collapsed_images_in_one_target_are_legal(self):
        collapsed = AffinePiece(0, 1, 1, 2, 2)
        entries = [(0, 0, (self.A,)), (1, 0, (self.C,)), (2, 0, (collapsed,))]
        tmap = TransportMap(tuple(ComponentTransport(*e) for e in entries), 3, 1)
        f = StepFunction(((StepPiece(0, 1, 5),), (StepPiece(0, 1, 3),), ()))
        assert lift(tmap, f) == StepFunction(((StepPiece(0, 1, 5), StepPiece(1, 2, 3)),))

    def test_images_in_different_targets_are_ordered_apart(self):
        # target 1's image [1, 2) comes first; target 0's image [0, 1) lies below it
        tmap = TransportMap((ComponentTransport(0, 1, (self.C,)), ComponentTransport(1, 0, (self.A,))), 2, 2)
        f = StepFunction(((StepPiece(0, 1, 5),), (StepPiece(0, 1, 3),)))
        assert lift(tmap, f) == StepFunction(((StepPiece(0, 1, 3),), (StepPiece(1, 2, 5),)))

    def test_a_reversed_image_is_rejected_by_name(self):
        # the lift reported it as a "collapsed image"; equal ends, which a built
        # map can hold, stay legal and are one
        with pytest.raises(LogSpaceError, match="^affine piece must satisfy image_start <= image_stop, got"):
            AffinePiece(0, 1, 1, 1, 0)
        tmap = TransportMap((ComponentTransport(0, 0, (AffinePiece(0, 1, 1, 0.5, 0.5),)),))
        with pytest.raises(LogSpaceError, match="collapsed image"):
            lift(tmap, StepFunction(((StepPiece(0, 1, 1),),)))


class TestCollapsedImages:
    """Images shorter than the target's float spacing near 1e16 (2.0) have zero length."""

    s = interval_space(0, 1)
    t = interval_space(1e16, 1e16 + 4, 0.25)

    def test_a_collapse_beyond_the_cover_sliver_is_named(self):
        tmap = transport_between_spaces(self.s, self.t)
        f = StepFunction.from_pieces(self.s, [(0, 0.1, 0.1000001, 1), (0, 0.5, 1.0, 2)])
        assert log_norm(f, self.s).value > 0.0
        with pytest.raises(LogSpaceError, match="collapsed image"):
            lift(tmap, f)
        with pytest.raises(LogSpaceError, match="collapsed image"):
            transport_set(tmap, MeasurableSet(((0, 0.1, 0.1000001), (0, 0.5, 1.0))))

    def test_a_collapse_within_the_cover_sliver_is_dropped_in_both(self):
        tmap = transport_between_spaces(self.s, self.t)
        f = StepFunction.from_pieces(self.s, [(0, 0.1, 0.1 + 1e-10, 1), (0, 0.5, 1.0, 2)])
        assert lift(tmap, f) == StepFunction.from_pieces(self.t, [(0, 1e16 + 2, 1e16 + 4, 2)])
        image = transport_set(tmap, MeasurableSet(((0, 0.1, 0.1 + 1e-10), (0, 0.5, 1.0))))
        assert image == MeasurableSet(((0, 1e16 + 2, 1e16 + 4),))

    def test_support_off_the_map_is_still_unmapped_support(self):
        # [0.9999999, 1) collapses onto 1e16 + 4, and [1, 1.5) lies off the map
        tmap = transport_between_spaces(self.s, self.t)
        f = StepFunction.from_pieces(interval_space(0, 2), [(0, 0.9999999, 1.5, 1)])
        with pytest.raises(LogSpaceError, match="unmapped support"):
            lift(tmap, f)


class TestWeighting:
    def test_identity_density(self):
        s = interval_space(0, 1)
        f = StepFunction.from_pieces(s, [(0, 0.2, 0.8, 3)])
        assert weighting_isometry(f, uniform_density(s, 1.0)) == f

    def test_constant_density_worked_example(self):
        s = interval_space(0, 1)
        f = StepFunction.from_pieces(s, [(0, 0.0, 1.0, math.e - 1)])
        h = uniform_density(s, 2.0)
        u = weighting_isometry(f, h)
        assert u.pieces[0][0].coef == complex((math.e - 1) / 2)
        assert log_norm(f, s).value == pytest.approx(1.0, abs=1e-12)
        assert log_norm(u, s, Internal(h)).value == pytest.approx(1.0, abs=1e-12)

    def test_uncovered_unbounded_piece_is_out_of_carrier(self):
        hl = MeasureSpace((comp([(0.0, math.inf, 1.0)]),))
        f = StepFunction.from_pieces(hl, [(0, 0.5, math.inf, 2)])
        h = (density([(0.0, 1.0, 2.0)]),)  # covers only [0, 1)
        with pytest.raises(LogSpaceError, match="out of carrier"):
            weighting_isometry(f, h)
        with pytest.raises(LogSpaceError, match="out of carrier"):  # a bounded piece past h
            weighting_isometry(StepFunction.from_pieces(hl, [(0, 0.5, 1.5, 2)]), h)

    def test_a_density_of_another_component_count_is_refused(self):
        f = StepFunction.from_pieces(interval_space(0, 1), [(0, 0.0, 0.5, 2)])
        with pytest.raises(LogSpaceError, match="^kind/space mismatch$"):
            weighting_isometry(f, (density([(0.0, 1.0, 1.0)]),) * 2)

    def test_step_density_worked_example(self):
        s = interval_space(0, 1)
        h = (density([(0.0, 0.5, 2.0), (0.5, 1.0, 4.0)]),)
        f = StepFunction.from_pieces(s, [(0, 0.0, 1.0, 2)])
        u = weighting_isometry(f, h)
        assert [(p.start, p.stop, p.coef) for p in u.pieces[0]] == [
            (0.0, 0.5, 1 + 0j),
            (0.5, 1.0, 0.5 + 0j),
        ]
        lhs = log_norm(f, s).value
        rhs = log_norm(u, s, Internal(h)).value
        assert abs(lhs - math.log(3)) < 1e-12
        assert abs(rhs - math.log(3)) < 1e-12

    def test_exactness_over_random_pairs(self):
        rng = random.Random(32)
        from logspaces.sampling import random_density, random_space

        for _ in range(200):
            s = random_space(rng)
            h = random_density(rng, s)
            f = random_step_function(rng, s, max_pieces=5)
            dev = abs(log_norm(f, s).value - log_norm(weighting_isometry(f, h), s, Internal(h)).value)
            assert dev <= 1e-9


class TestVerifyIsometry:
    def test_identity_reports_zero(self):
        s = interval_space(0, 1)
        t = transport_between_spaces(s, s)
        rep = verify_isometry(t, s, s, 50, 1)
        assert rep.samples == 50
        assert rep.max_abs_deviation == 0.0
        assert rep.worst_case

    def test_deterministic_in_seed(self):
        s1, s2 = interval_space(0, 1, 2.0), interval_space(0, 4, 0.5)
        t = transport_between_spaces(s1, s2)
        a = verify_isometry(t, s1, s2, 25, 9)
        b = verify_isometry(t, s1, s2, 25, 9)
        assert a == b

    def test_weighting_setup(self):
        rng = random.Random(33)
        from logspaces.sampling import random_density, random_space

        s = random_space(rng)
        h = random_density(rng, s)
        rep = verify_isometry(h, s, s, 200, 5)
        assert rep.max_abs_deviation <= 1e-9

    @pytest.mark.parametrize("bad", [True, False, 2.5, "3", None])
    @pytest.mark.parametrize("name", ["sample count", "seed"])
    def test_sample_count_and_seed_are_integers_not_bools(self, name, bad):
        s = interval_space(0, 1)
        t = transport_between_spaces(s, s)
        samples, seed = (bad, 1) if name == "sample count" else (3, bad)
        with pytest.raises(LogSpaceError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            verify_isometry(t, s, s, samples, seed)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_is_at_least_one(self, samples):
        s = interval_space(0, 1)
        t = transport_between_spaces(s, s)
        with pytest.raises(LogSpaceError, match="^sample count must be >= 1$"):
            verify_isometry(t, s, s, samples, 1)

    def test_a_negative_deviation_is_refused(self):
        with pytest.raises(LogSpaceError, match="^deviation must be >= 0$"):
            IsometryReport(1, -1.0, "")

    def test_a_nan_deviation_is_refused(self):
        with pytest.raises(LogSpaceError, match="^deviation must be >= 0$"):
            IsometryReport(1, math.nan, "")

    @pytest.mark.parametrize("bad", [True, False, 1.5, "3", None])
    def test_a_report_sample_count_is_an_integer_not_a_bool(self, bad):
        with pytest.raises(LogSpaceError, match=f"^sample count must be an integer, got {re.escape(repr(bad))}$"):
            IsometryReport(bad, 0.5, "x")


class TestMeasurePreservation:
    def test_random_sets_keep_their_measure(self):
        rng = random.Random(34)
        for _ in range(20):
            src, dst = random_equal_passport_pair(rng)
            t = transport_between_spaces(src, dst)
            for _ in range(100):
                a = random_measurable_set(rng, src)
                ma = measure(src, a).value
                mb = measure(dst, transport_set(t, a)).value
                assert abs(ma - mb) <= 1e-9 * (1.0 + ma)

    def test_piecewise_measure_preservation_invariant(self):
        rng = random.Random(35)
        for _ in range(30):
            src, dst = random_matched_components_pair(rng)
            t = transport_between_spaces(src, dst)
            for entry in t.entries:
                for p in entry.pieces:
                    if math.isinf(p.stop):
                        continue
                    a = measure(src, MeasurableSet(((entry.src, p.start, p.stop),))).value
                    b = measure(dst, MeasurableSet(((entry.dst, p.image_start, p.image_stop),))).value
                    assert abs(a - b) <= 1e-9 * (1.0 + a)


class TestComposition:
    def test_chained_transports_preserve_norms(self):
        rng = random.Random(36)
        for _ in range(30):
            s0, s1 = random_equal_passport_pair(rng)
            s2 = equal_passport_partner(rng, s1)
            t01 = transport_between_spaces(s0, s1)
            t12 = transport_between_spaces(s1, s2)
            f = random_step_function(rng, s0, max_pieces=4)
            g = lift(t12, lift(t01, f))
            assert abs(log_norm(f, s0).value - log_norm(g, s2).value) <= 1e-9


class TestEndToEndWithPassports:
    def test_equal_passports_transport_and_verify(self):
        rng = random.Random(37)
        for _ in range(25):
            src, dst = random_equal_passport_pair(rng)
            assert decide_isometric_external(build_passport(src), build_passport(dst)).verdict
            t = transport_between_spaces(src, dst)
            rep = verify_isometry(t, src, dst, 40, 17)
            assert rep.max_abs_deviation <= 1e-9

    def test_unequal_finite_measures_fail(self):
        a = comp([(0.0, 1.0, 1.0)])
        b = comp([(0.0, 1.0, 2.0)])
        assert not decide_isometric_external(
            build_passport(MeasureSpace((a,))), build_passport(MeasureSpace((b,)))
        ).verdict
        with pytest.raises(LogSpaceError, match="no measure-preserving map"):
            monotone_transport(a, b)


def test_render_transport():
    t = transport_between_spaces(interval_space(0, 1, 1.0), interval_space(0, 2, 0.5))
    assert render_transport(t) == "component 0 -> 0\nsrc=[0,1) slope=2 offset=0"
