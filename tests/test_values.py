"""Contract of the package's twelve value types: frozen, slotted, validated
classes on ``core._Value``, in ``core``, ``worldlines``, ``diagram`` and ``verify``.

Each names its fields once, in ``__slots__``.  ``==`` and ``hash`` go by the
field tuple, repr reads ``Name(field=value, ...)``, assignment and deletion
raise ``AttributeError`` with the messages a frozen dataclass gives, and
pickle and copy rebuild through ``__init__``, which validates again.
"""

import copy
import math
import pickle
import weakref

import pytest

from bilorentz import core, worldlines
from bilorentz.core import (
    BranchKind,
    CausalClass,
    CausalReport,
    CoordinateSpeed,
    Metric,
    Transform,
    TwoVector,
    make_lambda,
)
from bilorentz.diagram import DiagramStyle, SvgDocument
from bilorentz.verify import CheckResult, VerificationReport
from bilorentz.worldlines import LightRayViolationError, Scenario, Window, Worldline, WorldlineKind

M = ((1.0, 0.5), (0.5, 1.0))
DERIVED = BranchKind.DERIVED
T = Transform(M, DERIVED)
ORIGIN = TwoVector(0, 0)
WL = Worldline(ORIGIN, TwoVector(1, 0.5))
WIN = Window(TwoVector(-1, -1), TwoVector(1, 1))
STYLE = DiagramStyle()
CHECK = CheckResult("k_recovery", 0.0, 1e-10)

T_REPR = ("Transform(m=((1.0, 0.5), (0.5, 1.0)), branch=<BranchKind.DERIVED: 'derived'>, "
          "tau=None, k=None, vel=None)")
WL_REPR = ("Worldline(anchor=TwoVector(c1=0.0, c2=0.0), direction=TwoVector(c1=1.0, c2=0.5), "
           "label='', kind=<WorldlineKind.PARTICLE: 'particle'>)")
WIN_REPR = "Window(lo=TwoVector(c1=-1.0, c2=-1.0), hi=TwoVector(c1=1.0, c2=1.0))"
STYLE_REPR = "DiagramStyle(width_px=480, height_px=480, decimal_places=6)"
CHECK_REPR = "CheckResult(name='k_recovery', residual=0.0, tolerance=1e-10, error=None)"

#: class -> (positional args, the same value by keyword, its repr at this
#: value, its field names)
VALUES = {
    TwoVector: ((1, 2.5), {"c1": 1.0, "c2": 2.5},
                "TwoVector(c1=1.0, c2=2.5)", ("c1", "c2")),
    Transform: ((M, DERIVED), {"m": M, "branch": DERIVED, "tau": None, "k": None, "vel": None},
                T_REPR, ("m", "branch", "tau", "k", "vel")),
    Metric: ((M,), {"g": M}, "Metric(g=((1.0, 0.5), (0.5, 1.0)))", ("g",)),
    CoordinateSpeed: ((0.5,), {"value": 0.5}, "CoordinateSpeed(value=0.5)", ("value",)),
    CausalReport: ((CoordinateSpeed(0.5), 3.0, CausalClass.TIMELIKE),
                   {"coord_speed": CoordinateSpeed(0.5), "interval_sq": 3.0,
                    "causal_class": CausalClass.TIMELIKE},
                   "CausalReport(coord_speed=CoordinateSpeed(value=0.5), interval_sq=3.0, "
                   "causal_class=<CausalClass.TIMELIKE: 'timelike'>)",
                   ("coord_speed", "interval_sq", "causal_class")),
    Worldline: ((ORIGIN, TwoVector(1, 0.5)),
                {"anchor": ORIGIN, "direction": TwoVector(1, 0.5), "label": "",
                 "kind": WorldlineKind.PARTICLE},
                WL_REPR, ("anchor", "direction", "label", "kind")),
    Window: ((TwoVector(-1, -1), TwoVector(1, 1)), {"lo": WIN.lo, "hi": WIN.hi},
             WIN_REPR, ("lo", "hi")),
    # Positional lists are coerced to tuples.
    Scenario: (("demo", T, [WL], WIN, [(ORIGIN, "X")]),
               {"name": "demo", "transform": T, "worldlines": (WL,), "window": WIN,
                "events": ((ORIGIN, "X"),)},
               f"Scenario(name='demo', transform={T_REPR}, worldlines=({WL_REPR},), "
               f"window={WIN_REPR}, events=((TwoVector(c1=0.0, c2=0.0), 'X'),))",
               ("name", "transform", "worldlines", "window", "events")),
    DiagramStyle: ((), {"width_px": 480, "height_px": 480, "decimal_places": 6},
                   STYLE_REPR, ("width_px", "height_px", "decimal_places")),
    SvgDocument: ((STYLE, WIN, ("<title>t</title>",)),
                  {"style": STYLE, "window": WIN, "elements": ("<title>t</title>",)},
                  f"SvgDocument(style={STYLE_REPR}, window={WIN_REPR}, "
                  "elements=('<title>t</title>',))", ("style", "window", "elements")),
    CheckResult: (("k_recovery", 0.0, 1e-10),
                  {"name": "k_recovery", "residual": 0.0, "tolerance": 1e-10, "error": None},
                  CHECK_REPR, ("name", "residual", "tolerance", "error")),
    VerificationReport: ((0, 1000, (CHECK,)), {"seed": 0, "trials": 1000, "checks": (CHECK,)},
                         f"VerificationReport(seed=0, trials=1000, checks=({CHECK_REPR},))",
                         ("seed", "trials", "checks")),
}

classes = pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)


def value(cls):
    return cls(*VALUES[cls][0])


@classes
def test_fields_cannot_be_assigned_or_deleted(cls):
    v = value(cls)
    name = VALUES[cls][3][0]
    for attr in (name, "other"):
        with pytest.raises(AttributeError) as info:
            setattr(v, attr, 0.0)
        assert str(info.value) == f"cannot assign to field {attr!r}"
        with pytest.raises(AttributeError) as info:
            delattr(v, attr)
        assert str(info.value) == f"cannot delete field {attr!r}"
    assert v == value(cls)


@classes
def test_positional_and_keyword_values_are_equal_and_hash_equal(cls):
    v, w = value(cls), cls(**VALUES[cls][1])
    assert v == w and hash(v) == hash(w)
    fields = tuple(VALUES[cls][1].values())
    assert v != fields and hash(v) == hash(fields)
    assert v.__eq__(fields) is NotImplemented


def test_two_vector_is_not_a_tuple():
    assert TwoVector(1, 2) != (1.0, 2.0)
    assert not isinstance(TwoVector(1, 2), tuple)


@classes
def test_repr_is_unchanged(cls):
    assert repr(value(cls)) == VALUES[cls][2]


@classes
def test_field_names_are_unchanged(cls):
    assert cls.__slots__ == VALUES[cls][3]


def test_copy_and_reduce_go_through_init():
    t = make_lambda(1, 1.0, 0.5)
    assert copy.copy(t) == t == copy.deepcopy(t)
    rebuild, args = t.__reduce__()
    flipped = rebuild(*args[:2], -1, *args[3:])
    assert (flipped.m, flipped.branch, flipped.tau, flipped.k, flipped.vel) == \
        (t.m, t.branch, -1, t.k, t.vel)
    rebuild, (c1, _) = TwoVector(1.0, 2.0).__reduce__()
    assert rebuild(c1, 3) == TwoVector(1.0, 3.0)
    with pytest.raises(ValueError, match="must be finite"):
        rebuild(c1, math.nan)
    # A field written around __init__ does not survive a copy or a pickle round trip.
    broken = TwoVector(1.0, 2.0)
    core._set_c2(broken, math.nan)
    for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match="must be finite"):
            again(broken)


def test_copy_and_pickle_validate_worldline_values_again():
    # As for TwoVector above: a field written around __init__ fails its check again.
    narrow = Window(TwoVector(0.0, 0.0), TwoVector(1.0, 1.0))
    worldlines._set_hi(narrow, TwoVector(0.0, 1.0))
    wide = Window(TwoVector(0.0, 0.0), TwoVector(1.0, 1.0))
    worldlines._set_lo(wide, TwoVector(-1e308, 0.0))
    worldlines._set_hi(wide, TwoVector(1e308, 1.0))
    ray = Worldline(ORIGIN, TwoVector(1.0, 0.5))
    worldlines._set_kind(ray, WorldlineKind.LIGHT_RAY)
    for broken, error, message in ((narrow, ValueError, "positive width and height"),
                                   (wide, ValueError, "finite width and height"),
                                   (ray, LightRayViolationError, "off the light cone")):
        for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            with pytest.raises(error, match=message):
                again(broken)


@pytest.mark.parametrize("kind", ["lightray", "particle", None, CausalClass.TIMELIKE],
                         ids=["lightray-str", "particle-str", "none", "other-enum"])
def test_worldline_kind_must_be_a_worldline_kind(kind):
    # A "lightray" string skipped the light-cone check, and save_scenario then failed
    # with AttributeError and render_pair with KeyError; the constructor refuses it.
    with pytest.raises(ValueError, match=r"^kind must be a WorldlineKind, got "):
        Worldline(ORIGIN, TwoVector(1, 0.5), "x", kind=kind)


def test_copy_and_pickle_refuse_a_kind_that_is_not_a_worldline_kind():
    broken = Worldline(ORIGIN, TwoVector(1.0, 0.5))
    worldlines._set_kind(broken, "lightray")
    for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match="^kind must be a WorldlineKind, got 'lightray'$"):
            again(broken)


@pytest.mark.parametrize("build, message", [
    (lambda: Worldline(ORIGIN, TwoVector(1, 0.5), 5), "^label must be a string, got 5$"),
    (lambda: Worldline(ORIGIN, TwoVector(1, 1), None, WorldlineKind.LIGHT_RAY),
     "^label must be a string, got None$"),
    (lambda: Scenario(7, T, (WL,), WIN), "^name must be a string, got 7$"),
    (lambda: Scenario("demo", T, (WL,), WIN, ((ORIGIN, "X"), (ORIGIN, None))),
     r"^events\[1\]\.label must be a string, got None$"),
    (lambda: Scenario("demo", T, (WL,), WIN, [(ORIGIN, b"X")]),
     r"^events\[0\]\.label must be a string, got b'X'$"),
], ids=["worldline-int", "lightray-none", "scenario-name", "event-none", "event-bytes"])
def test_labels_and_names_must_be_strings(build, message):
    # save_scenario would write them, load_scenario would refuse the file, and the
    # diagram would fail escaping them; the constructors refuse them instead.
    with pytest.raises(ValueError, match=message):
        build()


def test_copy_and_pickle_refuse_a_label_or_name_that_is_not_a_string():
    # As for TwoVector above: a field written around __init__ fails its check again.
    labelled = Worldline(ORIGIN, TwoVector(1.0, 0.5))
    worldlines._set_label(labelled, 5)
    named, evented = value(Scenario), value(Scenario)
    worldlines._set_name(named, 7)
    worldlines._set_events(evented, ((ORIGIN, None),))
    for broken, message in ((labelled, "^label must be a string, got 5$"),
                            (named, "^name must be a string, got 7$"),
                            (evented, r"^events\[0\]\.label must be a string, got None$")):
        for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            with pytest.raises(ValueError, match=message):
                again(broken)


@pytest.mark.parametrize("events, message", [
    ((((0.0, 0.0), "X"),), r"^events\[0\]\.at must be a TwoVector, got \(0\.0, 0\.0\)$"),
    (((ORIGIN, "X"), (None, "Y")), r"^events\[1\]\.at must be a TwoVector, got None$"),
    ([(WIN, "X")], r"^events\[0\]\.at must be a TwoVector, got Window\("),
], ids=["pair", "none", "window"])
def test_event_positions_must_be_two_vectors(events, message):
    # annotate_events and save_scenario would fail on them with AttributeError.
    with pytest.raises(ValueError, match=message):
        Scenario("demo", T, (WL,), WIN, events)


def test_copy_and_pickle_refuse_an_event_position_that_is_not_a_two_vector():
    broken = value(Scenario)
    worldlines._set_events(broken, (((0.0, 0.0), "X"),))
    for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match=r"^events\[0\]\.at must be a TwoVector"):
            again(broken)


@classes
def test_pickle_round_trip(cls):
    v = value(cls)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(v, protocol)) == v


def test_two_vector_coerces_to_float():
    v = TwoVector(1, True)
    assert type(v.c1) is float and type(v.c2) is float
    assert (v.c1, v.c2) == (1.0, 1.0)


@pytest.mark.parametrize("c1, c2, shown", [
    (math.inf, 0, "(inf, 0.0)"),
    (0, math.nan, "(0.0, nan)"),
    (1.0, -math.inf, "(1.0, -inf)"),
])
def test_two_vector_rejects_non_finite(c1, c2, shown):
    with pytest.raises(ValueError) as info:
        TwoVector(c1, c2)
    assert str(info.value) == f"TwoVector components must be finite, got {shown}"


@pytest.mark.parametrize("g, message", [
    (((1.0, 2.0), (0.0, 1.0)), "metric matrix must be symmetric"),
    (((1.0, 1.0), (1.0, 1.0)), "metric matrix must be non-degenerate"),
])
def test_metric_rejects_bad_forms(g, message):
    with pytest.raises(ValueError) as info:
        Metric(g)
    assert str(info.value) == message


@classes
def test_instances_are_slotted(cls):
    v = value(cls)
    assert not hasattr(v, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(v)
