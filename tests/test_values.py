"""Value semantics of the package's record classes.

Every record class gets its constructor, ``==``, ``hash``, ``repr`` and the
read-only guard from one small base.  The table pins what each class does:
its exact ``repr``, equality against equal, different and foreign values,
hashes of equal instances, pickling, and that fields cannot be assigned or
deleted.  ``Workspace`` is the mutable exception and ``ExtendedReal`` the
ordered one.
"""

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
    finite,
    interval_space,
    log_norm,
    scale,
)
from logspaces.workspace import Workspace


def _affine():
    return AffinePiece(0.0, 1.0, 2.0, 3.0, 3.0, 5.0)


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
        lambda: AffinePiece(
            start=0.0, stop=1.0, slope=2.0, offset=3.0, image_start=3.0, image_stop=5.0
        ),
        lambda: AffinePiece(0.0, 1.0, 2.0, 3.0, 3.0, 4.0),
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
        lambda: TransportMap((_transport(),)),
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
    assert pickle.loads(pickle.dumps(make())) == make()


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
    (lambda v: AffinePiece(v, 1, 1, 0, 0, 1), "affine piece start"),
    (lambda v: AffinePiece(0, 1, 1, 0, 0, v), "affine piece image_stop"),
    (lambda v: MeasurableSet(((0, v, 1),)), "subinterval start"),
    (lambda v: MeasurableSet(((0, 0, v),)), "subinterval stop"),
    (lambda v: StepFunction.from_pieces(interval_space(0, 2), [(0, v, 1, 1)]), "step piece start"),
    (lambda v: StepFunction.from_pieces(interval_space(0, 2), [(0, 0, v, 1)]), "step piece stop"),
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


def test_real_fields_take_integers_as_floats():
    assert IntervalPiece(0, 1, 2) == IntervalPiece(0.0, 1.0, 2.0)
    assert FiniteList((3,)).values == (3.0,)
    assert ClosedForm("LINEAR", (2, 1)).params == (2.0, 1.0)
    assert StepPiece(0, 1, 2) == StepPiece(0.0, 1.0, 2 + 0j)
    assert type(AffinePiece(0, 1, 2, 0, 0, 2).slope) is float
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
