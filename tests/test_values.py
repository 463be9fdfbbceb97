"""Value semantics of the package's record classes.

Every record class gets its constructor, ``==``, ``hash``, ``repr`` and the
read-only guard from one small base.  The table pins what each class does:
its exact ``repr``, equality against equal, different and foreign values,
hashes of equal instances, pickling, and that fields cannot be assigned or
deleted.  ``Workspace`` is the mutable exception and ``ExtendedReal`` the
ordered one.
"""

import copy
import math
import pickle
import re

import pytest

from logspaces import (
    INF,
    AffinePiece,
    ClosedForm,
    Component,
    ComponentTransport,
    Decision,
    ExtendedReal,
    External,
    FiniteList,
    Generalized,
    Internal,
    IntervalPiece,
    IsometryReport,
    LogSpaceError,
    MeasurableSet,
    MeasureSpace,
    Passport,
    PiecewiseDensity,
    StepFunction,
    StepPiece,
    TransportMap,
    constant_density,
    density,
    finite,
    interval_space,
    log_norm,
    scale,
    weighting_isometry,
)
from logspaces.workspace import Workspace


def _affine():
    return AffinePiece(0.0, 1.0, 2.0, 3.0, 5.0)


def _transport():
    return ComponentTransport(0, 1, (_affine(),))


# (make, make an equal value, make a different value or None, repr)
CASES = {
    "ExtendedReal": (
        lambda: ExtendedReal(1.5),
        lambda: ExtendedReal(1.5),
        lambda: ExtendedReal(2),
        "ExtendedReal(1.5)",
    ),
    "ExtendedReal-inf": (
        lambda: ExtendedReal(math.inf),
        lambda: INF,
        lambda: ExtendedReal(0),
        "ExtendedReal(inf)",
    ),
    "IntervalPiece": (
        lambda: IntervalPiece(0, 1, 2),
        lambda: IntervalPiece(0.0, 1.0, 2.0),
        lambda: IntervalPiece(0, math.inf, 2),
        "IntervalPiece(start=0.0, stop=1.0, value=2.0)",
    ),
    "PiecewiseDensity": (
        lambda: constant_density(0, 1, 2),
        lambda: PiecewiseDensity([IntervalPiece(0, 1, 2)]),
        lambda: constant_density(0, 1, 3),
        "PiecewiseDensity(pieces=(IntervalPiece(start=0.0, stop=1.0, value=2.0),))",
    ),
    "Component": (
        lambda: Component(constant_density(0, 1), 1),
        lambda: Component(density=constant_density(0, 1), weight=1),
        lambda: Component(constant_density(0, 1)),
        "Component(density=PiecewiseDensity(pieces=(IntervalPiece(start=0.0, stop=1.0,"
        " value=1.0),)), weight=1)",
    ),
    "MeasureSpace": (
        lambda: interval_space(0, 2, 0.5),
        lambda: MeasureSpace([Component(constant_density(0, 2, 0.5))]),
        lambda: interval_space(0, 2),
        "MeasureSpace(components=(Component(density=PiecewiseDensity(pieces=(IntervalPiece("
        "start=0.0, stop=2.0, value=0.5),)), weight=0),))",
    ),
    "MeasurableSet": (
        lambda: MeasurableSet(((0, 2, 3), (0, 0, 1))),
        lambda: MeasurableSet([(0, 0.0, 1.0), (0, 2.0, 3.0)]),
        lambda: MeasurableSet(((0, 0, 1),)),
        "MeasurableSet(parts=((0, 0.0, 1.0), (0, 2.0, 3.0)))",
    ),
    "FiniteList": (
        lambda: FiniteList((1, 2.5)),
        lambda: FiniteList([1.0, 2.5]),
        lambda: FiniteList((1,)),
        "FiniteList(values=(1.0, 2.5))",
    ),
    "ClosedForm": (
        lambda: ClosedForm("GEOM", (2, 0.5)),
        lambda: ClosedForm(kind="GEOM", params=[2.0, 0.5]),
        lambda: ClosedForm("GEOM", (2, 1)),
        "ClosedForm(kind='GEOM', params=(2.0, 0.5))",
    ),
    "Passport": (
        lambda: Passport((0,), (1,), FiniteList((3,))),
        lambda: Passport(row_s=[0], row_u=[1], row_m=FiniteList([3.0])),
        lambda: Passport(),
        "Passport(row_s=(0,), row_u=(1,), row_m=FiniteList(values=(3.0,)))",
    ),
    "Decision": (
        lambda: Decision(False, "rule", "witness"),
        lambda: Decision(verdict=False, rule="rule", witness="witness"),
        lambda: Decision(True, "rule", ""),
        "Decision(verdict=False, rule='rule', witness='witness')",
    ),
    "StepPiece": (
        lambda: StepPiece(0, 1, 2j),
        lambda: StepPiece(0.0, 1.0, complex(0, 2)),
        lambda: StepPiece(0, 1, 2),
        "StepPiece(start=0.0, stop=1.0, coef=2j)",
    ),
    "StepFunction": (
        lambda: StepFunction(((StepPiece(0, 1, 2),),)),
        lambda: StepFunction.from_pieces(interval_space(0, 1), [(0, 0, 1, 2)]),
        lambda: StepFunction(((),)),
        "StepFunction(pieces=((StepPiece(start=0.0, stop=1.0, coef=(2+0j)),),))",
    ),
    "External": (External, External, None, "External()"),
    "Internal": (
        lambda: Internal(constant_density(0, 1, 2)),
        lambda: Internal((constant_density(0, 1, 2),)),
        lambda: Internal(constant_density(0, 1, 3)),
        "Internal(h=(PiecewiseDensity(pieces=(IntervalPiece(start=0.0, stop=1.0,"
        " value=2.0),)),))",
    ),
    "Generalized": (
        lambda: Generalized(constant_density(0, 1, 2), constant_density(0, 1)),
        lambda: Generalized(h1=[constant_density(0, 1, 2)], h2=[constant_density(0, 1)]),
        lambda: Generalized(constant_density(0, 1), constant_density(0, 1, 2)),
        "Generalized(h1=(PiecewiseDensity(pieces=(IntervalPiece(start=0.0, stop=1.0,"
        " value=2.0),)),), h2=(PiecewiseDensity(pieces=(IntervalPiece(start=0.0, stop=1.0,"
        " value=1.0),)),))",
    ),
    "AffinePiece": (
        _affine,
        lambda: AffinePiece(start=0.0, stop=1.0, slope=2.0, image_start=3.0, image_stop=5.0),
        lambda: AffinePiece(0.0, 1.0, 2.0, 3.0, 4.0),
        "AffinePiece(start=0.0, stop=1.0, slope=2.0, offset=3.0, image_start=3.0,"
        " image_stop=5.0)",
    ),
    "ComponentTransport": (
        _transport,
        lambda: ComponentTransport(src=0, dst=1, pieces=(_affine(),)),
        lambda: ComponentTransport(0, 0, (_affine(),)),
        "ComponentTransport(src=0, dst=1, pieces=(AffinePiece(start=0.0, stop=1.0, slope=2.0,"
        " offset=3.0, image_start=3.0, image_stop=5.0),))",
    ),
    "TransportMap": (
        lambda: TransportMap((_transport(),), 1, 2),
        lambda: TransportMap(entries=(_transport(),), dst_components=2),
        lambda: TransportMap((_transport(),), 1, 3),
        "TransportMap(entries=(ComponentTransport(src=0, dst=1, pieces=(AffinePiece(start=0.0,"
        " stop=1.0, slope=2.0, offset=3.0, image_start=3.0, image_stop=5.0),)),),"
        " src_components=1, dst_components=2)",
    ),
    "IsometryReport": (
        lambda: IsometryReport(3, 0.5, "sample 0"),
        lambda: IsometryReport(samples=3, max_abs_deviation=0.5, worst_case="sample 0"),
        lambda: IsometryReport(3, 0.0, "sample 0"),
        "IsometryReport(samples=3, max_abs_deviation=0.5, worst_case='sample 0')",
    ),
    "Workspace": (
        lambda: Workspace(interval_space(0, 1), functions={"f": StepFunction(((),))}),
        lambda: Workspace(space=interval_space(0, 1), functions={"f": StepFunction(((),))}),
        Workspace,
        "Workspace(space=MeasureSpace(components=(Component(density=PiecewiseDensity(pieces=("
        "IntervalPiece(start=0.0, stop=1.0, value=1.0),)), weight=0),)), space2=None,"
        " functions={'f': StepFunction(pieces=((),))}, densities={}, passports={})",
    ),
}
FROZEN = [name for name in CASES if name != "Workspace"]


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, make_equal, make_other, text = CASES[name]
    assert repr(make()) == text
    assert repr(make_equal()) == text


@pytest.mark.parametrize("name", CASES)
def test_equality(name):
    make, make_equal, make_other, _ = CASES[name]
    x, y = make(), make_equal()
    assert x is not y
    assert x == y and not x != y
    if make_other is not None:
        other = make_other()
        assert x != other and not x == other
    foreign = IntervalPiece(0, 1, 2) if name != "IntervalPiece" else StepPiece(0, 1, 2)
    assert x != foreign and not x == foreign
    assert x != () and x != (1.5,) and not x == ()


@pytest.mark.parametrize("name", FROZEN)
def test_hash_and_pickle(name):
    make, make_equal, _, _ = CASES[name]
    assert hash(make()) == hash(make_equal())
    for duplicate in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert duplicate(make()) == make()


def _past_constructor(cls, *values):
    """An instance of `cls` holding `values` as its fields, written past every check."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


_OVERLAP = (AffinePiece(0, 1, 1, 0, 1), AffinePiece(0.5, 1.5, 1, 1, 2))

# (a value built past its constructor, the constructor's message for it)
TAMPERED = {
    "StepPiece": (
        lambda: _past_constructor(StepPiece, 2.0, 1.0, 1j),
        "step piece must satisfy start < stop, got [2.0, 1.0)",
    ),
    "AffinePiece": (
        lambda: _past_constructor(AffinePiece, 0.0, 1.0, 1.0, 1.0, 0.0),
        "affine piece must satisfy image_start <= image_stop, got [1.0, 0.0)",
    ),
    "TransportMap": (
        lambda: _past_constructor(TransportMap, (ComponentTransport(0, 0, _OVERLAP),), 1, 1),
        "transport pieces of component 0 overlap or are out of order",
    ),
    "TransportMap-images": (
        lambda: _past_constructor(
            TransportMap, tuple(ComponentTransport(k, 0, _OVERLAP[:1]) for k in range(2)), 2, 1
        ),
        "transport images in component 0 overlap or are out of order",
    ),
    "MeasurableSet": (
        lambda: _past_constructor(MeasurableSet, ((0, 0.0, 2.0), (0, 1.0, 3.0))),
        "subintervals within a component must be disjoint",
    ),
}


@pytest.mark.parametrize("name", TAMPERED)
def test_pickles_and_copies_are_checked_by_the_constructor(name):
    # each one loaded and copied without an error, its fields written past every check
    make, message = TAMPERED[name]
    data = pickle.dumps(make())
    with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
        pickle.loads(data)
    for duplicate in (copy.copy, copy.deepcopy):
        with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
            duplicate(make())


@pytest.mark.parametrize("name", FROZEN)
def test_fields_are_read_only(name):
    x = CASES[name][0]()
    for attr in type(x).__match_args__:
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 1
    assert repr(x) == CASES[name][3]


def test_spaces_keep_their_caches_outside_the_fields():
    space = interval_space(0, 2, 0.5)
    before = (repr(space), hash(space))
    log_norm(StepFunction.from_pieces(space, [(0, 0, 1, 2)]), space)
    assert "_index" in vars(space)
    assert (repr(space), hash(space)) == before
    assert space == interval_space(0, 2, 0.5)


def test_constructors_bind_like_functions():
    assert Component(constant_density(0, 1)).weight == 0
    assert Passport() == Passport((), (), FiniteList(()))
    assert TransportMap(()).src_components == 1
    with pytest.raises(TypeError):
        StepPiece(0, 1)
    with pytest.raises(TypeError):
        StepPiece(0, 1, 2, 3)
    with pytest.raises(TypeError):
        StepPiece(0, 1, coef=2, other=3)
    with pytest.raises(TypeError):
        StepPiece(0, 1, 2, start=0)


@pytest.mark.parametrize("weight", [True, False, 1.0, -1, None])
def test_component_weight_is_a_non_negative_integer_not_a_bool(weight):
    with pytest.raises(LogSpaceError, match="weight must be a non-negative integer"):
        Component(constant_density(0, 1), weight)


# (constructor, field name in the message) for every record whose real fields
# are read by one shared reader; each is called with one field replaced
NUMBER_FIELDS = [
    (lambda v: IntervalPiece(v, 1, 1), "piece start"),
    (lambda v: IntervalPiece(0, v, 1), "piece stop"),
    (lambda v: IntervalPiece(0, 1, v), "piece value"),
    (lambda v: StepPiece(v, 1, 1), "step piece start"),
    (lambda v: StepPiece(0, v, 1), "step piece stop"),
    (lambda v: FiniteList((1.0, v)), "finite measure"),
    (lambda v: ClosedForm("CONST", (v,)), "CONST parameter c"),
    (lambda v: ClosedForm("GEOM", (1.0, v)), "GEOM parameter r"),
    (lambda v: AffinePiece(v, 1, 1, 0, 1), "affine piece start"),
    (lambda v: AffinePiece(0, 1, 1, 0, v), "affine piece image_stop"),
    (lambda v: MeasurableSet(((0, v, 1),)), "subinterval start"),
    (lambda v: MeasurableSet(((0, 0, v),)), "subinterval stop"),
    (lambda v: StepFunction.from_pieces(interval_space(0, 2), [(0, v, 1, 1)]), "step piece start"),
    (lambda v: StepFunction.from_pieces(interval_space(0, 2), [(0, 0, v, 1)]), "step piece stop"),
    (lambda v: IsometryReport(1, v, ""), "deviation"),
    (ExtendedReal, "extended real"),
    (finite, "extended real"),
]


@pytest.mark.parametrize("build, name", NUMBER_FIELDS)
@pytest.mark.parametrize("value", ["2", True, False, None, 1j])
def test_real_fields_reject_strings_and_bools_by_name(build, name, value):
    with pytest.raises(LogSpaceError, match=f"^{name} must be a real number, got {value!r}$"):
        build(value)


@pytest.mark.parametrize("build, name", NUMBER_FIELDS)
def test_real_fields_reject_integers_too_large_for_a_float(build, name):
    with pytest.raises(LogSpaceError, match=f"^{name} must be finite, got an integer too large for a float$"):
        build(10**400)


# (fields, the constructor's message) for affine pieces holding a NaN or an
# infinity; only stop and image_stop may be +inf, as the unbounded tail piece
# needs.  Each of these used to build, and went through a map's constructor.
# The offset, image_start - slope * start, is derived from three finite
# fields, so it can overflow but never be NaN.
NON_FINITE_AFFINE = [
    ((0, 1, math.inf, 0, 1), "affine piece slope must be finite, got inf"),
    ((0, 1, math.nan, 0, 1), "affine piece slope must be finite, got nan"),
    ((1e300, 2e300, 1e10, 0, 1), "affine piece offset must be finite, got -inf"),
    ((-2e300, -1e300, 1e10, 0, 1), "affine piece offset must be finite, got inf"),
    ((0, 1, 1, math.nan, 1), "affine piece image_start must be finite, got nan"),
    ((0, 1, 1, -math.inf, 1), "affine piece image_start must be finite, got -inf"),
    ((0, 1, 1, 0, math.nan), "affine piece must satisfy image_start <= image_stop, got [0.0, nan)"),
    ((-math.inf, 1, 1, 0, 1), "affine piece start must be finite, got -inf"),
    ((math.nan, 1, 1, 0, 1), "affine piece start must be finite, got nan"),
    ((0, math.nan, 1, 0, 1), "affine piece must satisfy start < stop"),
]


@pytest.mark.parametrize("fields, message", NON_FINITE_AFFINE)
def test_affine_pieces_reject_nan_and_infinite_fields_by_name(fields, message):
    with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
        AffinePiece(*fields)


def test_an_affine_piece_derives_its_offset_and_takes_none():
    piece = AffinePiece(1.0, 2.0, 3.0, 4.0, 7.0)
    assert piece.offset == 1.0
    with pytest.raises(AttributeError):
        piece.offset = 1.0
    with pytest.raises(TypeError):
        AffinePiece(1.0, 2.0, 3.0, 1.0, 4.0, 7.0)
    with pytest.raises(TypeError):
        AffinePiece(1.0, 2.0, 3.0, offset=1.0, image_start=4.0, image_stop=7.0)


class _SixFieldPiece:
    """Pickles as an affine piece did while it stored its offset as a field."""

    def __reduce__(self):
        return AffinePiece, (1.0, 2.0, 3.0, 1.0, 4.0, 7.0)


def test_a_pickled_six_field_affine_piece_no_longer_loads():
    with pytest.raises(TypeError, match="takes 5 arguments, got 6"):
        pickle.loads(pickle.dumps(_SixFieldPiece()))


def test_only_the_ends_of_an_affine_piece_may_be_unbounded():
    tail = AffinePiece(0, math.inf, 1, 0, math.inf)
    assert (tail.stop, tail.image_stop) == (math.inf, math.inf)
    assert TransportMap((ComponentTransport(0, 0, (tail,)),)).entries[0].pieces == (tail,)


# (constructor, field name in the message) for every complex coefficient,
# read by the one coefficient reader
COEFFICIENT_FIELDS = [
    (lambda v: StepPiece(0, 1, v), "step coefficient"),
    (lambda v: StepFunction.from_pieces(interval_space(0, 2), [(0, 0, 1, v)]), "step coefficient"),
    (lambda v: StepFunction.from_pieces(interval_space(0, 2), [(0, 1, 1, v)]), "step coefficient"),
    (lambda v: scale(StepFunction.from_pieces(interval_space(0, 2), [(0, 0, 1, 1)]), v), "scale factor"),
]


@pytest.mark.parametrize("build, name", COEFFICIENT_FIELDS)
@pytest.mark.parametrize("value", ["2", True, False, None, b"2"])
def test_coefficients_reject_strings_and_bools_by_name(build, name, value):
    # a zero-length piece is dropped, but its coefficient is still read
    with pytest.raises(LogSpaceError, match=f"^{name} must be a number, got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("build, name", COEFFICIENT_FIELDS)
def test_coefficients_reject_integers_too_large_for_a_float(build, name):
    with pytest.raises(LogSpaceError, match=f"^{name} must be finite, got an integer too large for a float$"):
        build(10**400)


def test_coefficients_take_ints_floats_and_complexes():
    assert StepPiece(0, 1, 2) == StepPiece(0, 1, 2.0) == StepPiece(0, 1, 2 + 0j)
    assert type(StepPiece(0, 1, 2).coef) is complex
    f = StepFunction.from_pieces(interval_space(0, 2), [(0, 0, 1, 2), (0, 1, 2, 1.5j)])
    assert f.pieces[0] == (StepPiece(0, 1, 2), StepPiece(1, 2, 1.5j))
    assert scale(f, 2) == scale(f, 2.0) == scale(f, 2 + 0j)


@pytest.mark.parametrize("index", [0.0, 0.7, True, False, "0", None])
def test_measurable_set_components_are_integers_not_bools(index):
    with pytest.raises(LogSpaceError, match=f"^component index must be an integer, got {re.escape(repr(index))}$"):
        MeasurableSet(((index, 0, 0.5),))


@pytest.mark.parametrize("part", [5, None, (0, 1), (0, 1, 2, 3), ()])
def test_measurable_set_parts_are_triples(part):
    # a part that does not unpack raised the unpacking's own TypeError or ValueError
    message = f"measurable set part must be a (component, start, stop) triple, got {part!r}"
    with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
        MeasurableSet(((0, 0.0, 0.5), part))


@pytest.mark.parametrize("entry", [5, None, (0, 1), (0, 0, 1), (0, 0, 1, 1, 1), ()])
def test_from_pieces_entries_are_quadruples(entry):
    # an entry that does not unpack raised the unpacking's own TypeError or ValueError
    message = f"step function entry must be a (component, start, stop, coefficient) quadruple, got {entry!r}"
    with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
        StepFunction.from_pieces(interval_space(0, 2), [(0, 0, 1, 1), entry])


@pytest.mark.parametrize("entry", [5, None, (0, 1), (0, 1, 1, 1), ()])
def test_density_entries_are_triples(entry):
    message = f"density entry must be a (start, stop, value) triple, got {entry!r}"
    with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
        density([(0, 1, 1), entry])


@pytest.mark.parametrize("index", [0.0, 1.0, True, False, "0", None])
def test_from_pieces_component_indexes_are_integers_not_bools(index):
    # the message of MeasurableSet: "0" must not read as the in-range index 0
    two = MeasureSpace((Component(constant_density(0, 1)), Component(constant_density(2, 3))))
    with pytest.raises(LogSpaceError, match=f"^component index must be an integer, got {re.escape(repr(index))}$"):
        StepFunction.from_pieces(two, [(index, 0, 0.5, 1)])


@pytest.mark.parametrize("index", [-1, 2, 10**400])
def test_from_pieces_names_an_integer_index_out_of_range(index):
    two = MeasureSpace((Component(constant_density(0, 1)), Component(constant_density(2, 3))))
    with pytest.raises(LogSpaceError, match=f"^component index {index} out of range$"):
        StepFunction.from_pieces(two, [(index, 0, 0.5, 1)])


# (constructor given a tuple where a record belongs, the field in the message,
# the record it expects)
RECORD_FIELDS = [
    (lambda: StepFunction((((0.0, 1.0, 1),),)), "step function pieces", "StepPiece"),
    (lambda: MeasureSpace(((1, 2),)), "space components", "Component"),
    (lambda: Component((0, 1)), "component density", "PiecewiseDensity"),
    (lambda: PiecewiseDensity(((0.0, 1.0, 1.0),)), "density pieces", "IntervalPiece"),
    (lambda: ComponentTransport(0, 0, ((0.0, 1.0, 2.0, 0.0, 0.0, 2.0),)), "transport pieces", "AffinePiece"),
    (lambda: TransportMap(((0, 0, (_affine(),)),)), "transport entries", "ComponentTransport"),
]


@pytest.mark.parametrize("build, name, record", RECORD_FIELDS)
def test_record_fields_reject_tuples_by_name(build, name, record):
    with pytest.raises(LogSpaceError, match=rf"^{name} must be (a )?{record}( records)?, got \("):
        build()


# (constructor given something that is not a sequence, the field in the message, the record)
SEQUENCE_FIELDS = [
    (lambda: StepFunction((StepPiece(0, 1, 2),)), "step function pieces", "StepPiece"),
    (lambda: MeasureSpace(Component(constant_density(0, 1))), "space components", "Component"),
    (lambda: PiecewiseDensity(IntervalPiece(0, 1, 2)), "density pieces", "IntervalPiece"),
    (lambda: ComponentTransport(0, 0, _affine()), "transport pieces", "AffinePiece"),
    (lambda: TransportMap(_transport()), "transport entries", "ComponentTransport"),
]


@pytest.mark.parametrize("build, name, record", SEQUENCE_FIELDS)
def test_record_sequences_reject_a_single_record_by_name(build, name, record):
    with pytest.raises(LogSpaceError, match=rf"^{name} must be a sequence of {record} records, got \w+\("):
        build()


# (constructor given a value that is not a sequence, or a sequence of the
# wrong records, and the message that names the field)
NOT_SEQUENCES = [
    (lambda: FiniteList(5), "finite measures must be a sequence, got 5"),
    (lambda: MeasurableSet(5), "measurable set parts must be a sequence, got 5"),
    (lambda: Passport(5), "first row must be a sequence, got 5"),
    (lambda: Passport((), 5), "second row must be a sequence, got 5"),
    (lambda: Passport((), (0,), (1.0,)), "third row must be a FiniteList or a ClosedForm, got (1.0,)"),
    (lambda: StepFunction(5), "step function components must be a sequence, got 5"),
    (lambda: StepFunction.from_pieces(interval_space(0, 2), 5), "step function entries must be a sequence, got 5"),
    (lambda: density(5), "density entries must be a sequence, got 5"),
    (lambda: Internal(5), "Internal h must be a sequence of PiecewiseDensity records, got 5"),
    (lambda: Generalized(5, 5), "Generalized h1 must be a sequence of PiecewiseDensity records, got 5"),
    (
        lambda: Generalized(constant_density(0, 1), 5),
        "Generalized h2 must be a sequence of PiecewiseDensity records, got 5",
    ),
    (lambda: Internal(((0, 1, 2),)), "Internal h must be PiecewiseDensity records, got (0, 1, 2)"),
    (
        lambda: weighting_isometry(StepFunction(((),)), 5),
        "weighting density must be a sequence of PiecewiseDensity records, got 5",
    ),
]


@pytest.mark.parametrize("build, message", NOT_SEQUENCES)
def test_sequence_fields_reject_other_values_by_name(build, message):
    with pytest.raises(LogSpaceError, match=f"^{re.escape(message)}$"):
        build()


def test_passport_labels_are_stored_as_ints():
    class Label(int):
        pass

    p = Passport((Label(0),), (Label(1),), FiniteList((2.0,)))
    assert type(p.row_s[0]) is int and type(p.row_u[0]) is int
    assert p == Passport((0,), (1,), FiniteList((2.0,)))


def test_component_weights_are_stored_as_ints():
    class Label(int):
        pass

    c = Component(constant_density(0, 1), Label(2))
    assert type(c.weight) is int
    assert c == Component(constant_density(0, 1), 2)


def test_real_fields_take_integers_as_floats():
    assert IntervalPiece(0, 1, 2) == IntervalPiece(0.0, 1.0, 2.0)
    assert FiniteList((3,)).values == (3.0,)
    assert ClosedForm("LINEAR", (2, 1)).params == (2.0, 1.0)
    assert StepPiece(0, 1, 2) == StepPiece(0.0, 1.0, 2 + 0j)
    assert type(AffinePiece(0, 1, 2, 0, 2).slope) is float
    assert MeasurableSet(((1, 0, 2),)).parts == ((1, 0.0, 2.0),)
    assert type(MeasurableSet(((1, 0, 2),)).parts[0][1]) is float


def test_workspace_is_mutable_and_unhashable():
    ws = Workspace()
    with pytest.raises(TypeError):
        hash(ws)
    assert ws.functions == {} and ws.functions is not Workspace().functions
    ws.space = interval_space(0, 1)
    ws.functions["f"] = StepFunction(((),))
    assert ws == CASES["Workspace"][0]()
    ws.space2 = ws.space
    assert ws != CASES["Workspace"][0]()
    del ws.space2


def test_extended_reals_order_by_value():
    one, two = finite(1), ExtendedReal(2)
    assert one < two <= two < INF and INF > two >= one
    assert not two < one and not INF <= two
    assert sorted([INF, two, one]) == [one, two, INF]
    assert max(one, INF) is INF
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(one, op)(1.0) is NotImplemented
    with pytest.raises(TypeError):
        one < 2.0
    with pytest.raises(TypeError):
        2.0 >= one
