"""Scenario JSON round-trips and strict schema rejection."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bilorentz import (
    Scenario,
    ScenarioFormatError,
    Transform,
    TwoVector,
    Window,
    Worldline,
    WorldlineKind,
    build_fig2_scenario,
    build_fig3_scenario,
    build_fig4_scenario,
    compose,
    load_scenario,
    make_l,
    make_lambda,
    make_lambda_infinite_limit,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


@pytest.mark.parametrize("builder", [build_fig2_scenario, build_fig3_scenario,
                                     build_fig4_scenario])
def test_roundtrip_builtin_scenarios(builder):
    s = builder()
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_roundtrip_through_file(tmp_path):
    s = build_fig4_scenario()
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_roundtrip_survives_json_text():
    s = build_fig2_scenario()
    text = json.dumps(scenario_to_dict(s))
    assert scenario_from_dict(json.loads(text)) == s


def test_infinity_velocity_roundtrip():
    data = scenario_to_dict(build_fig3_scenario())
    data["transform"] = {"branch": "lambda", "tau": 1, "k": -1, "vel": "infinity"}
    s = scenario_from_dict(data)
    assert math.isinf(s.transform.vel)
    assert scenario_to_dict(s)["transform"]["vel"] == "infinity"


def test_infinity_requires_lambda_branch_and_negative_k():
    base = scenario_to_dict(build_fig3_scenario())
    bad_transforms = (
        {"branch": "l", "tau": -1, "k": -1, "vel": "infinity"},
        {"branch": "lambda", "tau": 1, "k": 1, "vel": "infinity"},
        # Python's json parses these non-standard literals as floats.
        {"branch": "lambda", "tau": 1, "k": -1, "vel": json.loads("Infinity")},
        {"branch": "lambda", "tau": 1, "k": -1, "vel": json.loads("-Infinity")},
        {"branch": "l", "tau": -1, "k": json.loads("Infinity"), "vel": 2},
        {"branch": "lambda", "tau": 1, "k": json.loads("-Infinity"), "vel": 0.5},
        {"branch": "lambda", "tau": 1, "k": json.loads("-Infinity"), "vel": "infinity"},
    )
    for bad in bad_transforms:
        data = dict(base)
        data["transform"] = bad
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(data)


def test_unknown_top_level_key_rejected():
    data = scenario_to_dict(build_fig3_scenario())
    data["extra"] = 1
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(data)


def test_unknown_nested_key_rejected():
    data = scenario_to_dict(build_fig3_scenario())
    data["worldlines"][0]["speed"] = 2
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(data)


def test_missing_key_rejected():
    data = scenario_to_dict(build_fig3_scenario())
    del data["window"]
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(data)


def test_bad_kind_rejected():
    data = scenario_to_dict(build_fig3_scenario())
    data["worldlines"][0]["kind"] = "tachyon"
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(data)


def test_bad_vector_rejected():
    data = scenario_to_dict(build_fig3_scenario())
    data["worldlines"][0]["anchor"] = [1, 2, 3]
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(data)


def test_boolean_is_not_a_number():
    data = scenario_to_dict(build_fig3_scenario())
    data["transform"]["k"] = True
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(data)


@pytest.mark.parametrize("text", ["true", "1.0", "-1.0", "2"])
def test_bad_tau_rejected(text):
    data = scenario_to_dict(build_fig3_scenario())
    data["transform"]["tau"] = json.loads(text)
    with pytest.raises(ScenarioFormatError, match="^transform: tau must be"):
        scenario_from_dict(data)


@pytest.mark.parametrize("tau", [1, -1])
def test_integer_tau_roundtrips(tau):
    data = scenario_to_dict(build_fig3_scenario())
    data["transform"] = {"branch": "l", "tau": tau, "k": 1, "vel": 2}
    s = scenario_from_dict(json.loads(json.dumps(data)))
    assert s.transform.tau == tau and type(s.transform.tau) is int
    assert scenario_to_dict(s)["transform"] == {"branch": "l", "tau": tau, "k": 1.0, "vel": 2.0}


@pytest.mark.parametrize("path, value, message", [
    (("transform",), [1, -1], "transform must be an object"),
    (("worldlines", 0, "label"), 7, r"worldlines\[0\]\.label must be a string"),
    (("worldlines",), {}, "worldlines must be an array"),
    (("events",), "X", "events must be an array"),
])
def test_wrong_json_type_names_its_path(path, value, message):
    data = scenario_to_dict(build_fig3_scenario())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ScenarioFormatError, match=message):
        scenario_from_dict(data)


@pytest.mark.parametrize("branch, vel, message", [
    ("lambda", 2, "symmetric family undefined"),
    ("l", 0.5, "antisymmetric family undefined"),
])
def test_out_of_domain_velocity_is_a_format_error(branch, vel, message):
    data = scenario_to_dict(build_fig3_scenario())
    data["transform"] = {"branch": branch, "tau": 1, "k": 1, "vel": vel}
    with pytest.raises(ScenarioFormatError, match=f"^transform: {message}"):
        scenario_from_dict(data)


@pytest.mark.parametrize("branch, k, vel, message", [
    ("lambda", 0.5, 1, r"symmetric family singular at \|v\| = 1, got v = 1.0 for k = 0.5"),
    ("lambda", -1, -1, r"symmetric family singular at \|v\| = 1, got v = -1.0 for k = -1.0"),
    ("l", 2, 1.0, r"antisymmetric family singular at \|w\| = 1, got w = 1.0 for k = 2.0"),
    ("l", 4, -1.0, r"antisymmetric family singular at \|w\| = 1, got w = -1.0 for k = 4.0"),
])
def test_singular_family_member_is_a_format_error(branch, k, vel, message):
    data = scenario_to_dict(build_fig3_scenario())
    data["transform"] = {"branch": branch, "tau": 1, "k": k, "vel": vel}
    with pytest.raises(ScenarioFormatError, match=f"^transform: {message}$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("lo, hi, size", [([3, 3], [-3, -3], "positive"),
                                          ([-1e308, 0], [1e308, 1], "finite")])
def test_invalid_window_is_a_format_error(lo, hi, size):
    data = scenario_to_dict(build_fig3_scenario())
    data["window"] = {"min": lo, "max": hi}
    with pytest.raises(ScenarioFormatError,
                       match=f"^window: window must have {size} width and height$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("kind, direction, message", [
    ("particle", [0, 0], "worldline direction must be non-zero"),
    ("lightray", [1, 0.5], r"light ray direction \(1\.0, 0\.5\) is off the light cone by 0\.5"),
], ids=["zero-direction", "off-cone-lightray"])
def test_bad_worldline_names_its_index(kind, direction, message):
    data = scenario_to_dict(build_fig3_scenario())
    data["worldlines"][1].update(kind=kind, direction=direction)
    with pytest.raises(ScenarioFormatError, match=rf"^worldlines\[1\]: {message}$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("path, where", [
    (("worldlines", 0, "anchor"), r"worldlines\[0\]\.anchor"),
    (("window", "max"), r"window\.max"),
    (("events", 1, "at"), r"events\[1\]\.at"),
], ids=["anchor", "window", "event"])
def test_non_finite_vector_names_its_path(path, where):
    data = scenario_to_dict(build_fig4_scenario())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    # Python's json parses the non-standard literal NaN as a float.
    parent[path[-1]] = [json.loads("NaN"), 1.0]
    with pytest.raises(ScenarioFormatError,
                       match=rf"^{where}: TwoVector components must be finite, got \(nan, 1\.0\)$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("path, where", [
    (("transform", "k"), r"transform\.k"),
    (("worldlines", 0, "anchor", 1), r"worldlines\[0\]\.anchor"),
], ids=["k", "anchor"])
def test_integer_beyond_the_float_range_names_its_path(path, where):
    data = scenario_to_dict(build_fig3_scenario())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = json.loads("9" * 400)
    with pytest.raises(ScenarioFormatError,
                       match=rf"^{where} must be a number within the float range, "
                             r"got an integer of 1329 bits$"):
        scenario_from_dict(data)


def test_derived_transform_not_serializable():
    s = build_fig3_scenario()
    derived = compose(make_lambda(1, 1.0, 0.1), make_lambda(1, 1.0, 0.1))
    broken = Scenario(name=s.name, transform=derived,
                      worldlines=s.worldlines, window=s.window)
    with pytest.raises(ScenarioFormatError):
        scenario_to_dict(broken)


def test_refused_save_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "fig2.json"
    save_scenario(build_fig2_scenario(), path)
    before = path.read_bytes()
    s = build_fig3_scenario()
    derived = Scenario(s.name, compose(make_lambda(1, 1.0, 0.1), make_lambda(1, 1.0, 0.1)),
                       s.worldlines, s.window)
    with pytest.raises(ScenarioFormatError, match="^derived transforms are not serializable$"):
        save_scenario(derived, path)
    assert path.read_bytes() == before


#: Text that json escapes: non-ASCII, a quote, a backslash, control characters, and
#: markup that the SVG title must escape.
AWKWARD = 'ξ₁ "quoted" back\\slash \x00\x1f\t\n\u2028 </title> & \U0001f600'


def _awkward_scenario() -> Scenario:
    origin = TwoVector(0.0, 0.0)
    return Scenario(
        AWKWARD, make_l(-1, 1.0, 2.0),
        (Worldline(origin, TwoVector(1.0, 1.0), AWKWARD, WorldlineKind.LIGHT_RAY),
         Worldline(TwoVector(-0.0, 1e-300), TwoVector(1.0, -0.1), "é")),
        Window(TwoVector(-3.0, -2.5), TwoVector(3.0, 1e300)),
        ((origin, AWKWARD), (TwoVector(0.5, -0.25), "")))


def _infinity_scenario() -> Scenario:
    s = build_fig3_scenario()
    return Scenario("inf", make_lambda_infinite_limit(-1, -0.25), s.worldlines, s.window)


def _no_worldlines_scenario() -> Scenario:
    s = build_fig4_scenario()
    return Scenario(s.name, s.transform, (), s.window, s.events)


def _direct_transform_scenario() -> Scenario:
    # A bool tau and an int k, which no family constructor stores; json writes true and 1.
    s = build_fig4_scenario()
    t = make_l(-1, 1.0, 2.0)
    return Scenario(s.name, Transform(t.m, t.branch, tau=True, k=1, vel=2.0),
                    s.worldlines, s.window, s.events)


def _assert_saved_as_json_dump(s: Scenario, folder) -> None:
    # save_scenario encodes the whole text before its one write; the bytes must be
    # those of the stdlib's streaming json.dump into the open file, plus a newline.
    reference = folder / "reference.json"
    with open(reference, "w", encoding="utf-8") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")
    path = folder / "saved.json"
    save_scenario(s, path)
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("build", [build_fig2_scenario, build_fig3_scenario,
                                   build_fig4_scenario, _awkward_scenario, _infinity_scenario,
                                   _no_worldlines_scenario, _direct_transform_scenario],
                         ids=["fig2", "fig3", "fig4", "awkward-text", "infinity",
                              "no-worldlines", "direct-transform"])
def test_saved_bytes_are_the_streaming_json_dump(tmp_path, build):
    s = build()
    _assert_saved_as_json_dump(s, tmp_path)
    if build is _direct_transform_scenario:
        with pytest.raises(ScenarioFormatError, match="^transform: tau must be"):
            load_scenario(tmp_path / "saved.json")
    else:
        assert load_scenario(tmp_path / "saved.json") == s


_signs = st.sampled_from([1, -1])
#: Finite floats, with the signed zero, the smallest subnormal and huge values drawn often.
_coords = st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False)
_vectors = st.builds(TwoVector, _coords, _coords)
#: Text json must escape: non-ASCII, a quote, a backslash, control characters, U+2028
#: and a lone surrogate, which st.characters() never draws.  Only a high one: json.loads
#: joins the escapes of a high and a low surrogate into one astral character (the test
#: of a surrogate pair below pins that join).
_labels = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "ξ", "\U0001f600"]),
    max_size=8)
_transforms = st.one_of(
    st.builds(make_lambda, _signs, st.sampled_from([0.25, 1.0]), st.floats(-0.999, 0.999)),
    st.builds(make_lambda, _signs, st.sampled_from([-4.0, -1.0]),
              st.floats(-1e100, 1e100).filter(lambda v: abs(v) != 1.0)),
    st.builds(make_l, _signs, st.sampled_from([1.0, 4.0]),
              st.floats(1.001, 1e100) | st.floats(-1e100, -1.001)),
    st.builds(make_lambda_infinite_limit, _signs, st.sampled_from([-4.0, -1.0, -0.25])),
)
_worldlines = st.one_of(
    st.builds(Worldline, _vectors,
              _vectors.filter(lambda d: d.c1 != 0.0 or d.c2 != 0.0), _labels),
    st.builds(lambda anchor, c, sign, label: Worldline(anchor, TwoVector(c, sign * c), label,
                                                       WorldlineKind.LIGHT_RAY),
              _vectors, _coords.filter(lambda c: c != 0.0), _signs, _labels),
)


#: Two distinct ends of a window side whose length does not overflow, as Window requires.
_sides = st.lists(_coords, min_size=2, max_size=2, unique=True).filter(
    lambda ends: abs(ends[0] - ends[1]) < math.inf)


@st.composite
def _windows(draw) -> Window:
    c1s, c2s = draw(_sides), draw(_sides)
    return Window(TwoVector(min(c1s), min(c2s)), TwoVector(max(c1s), max(c2s)))


_scenarios = st.builds(Scenario, _labels, _transforms,
                       st.lists(_worldlines, max_size=4).map(tuple), _windows(),
                       st.lists(st.tuples(_vectors, _labels), max_size=4).map(tuple))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(s=_scenarios)
def test_any_saved_scenario_is_the_streaming_json_dump_and_loads_back(tmp_path, s):
    _assert_saved_as_json_dump(s, tmp_path)
    assert load_scenario(tmp_path / "saved.json") == s


def test_a_surrogate_pair_is_saved_as_two_escapes_and_loads_as_one_character(tmp_path):
    # The format's meaning: json.loads joins the escapes of a high and a low surrogate.
    fig3 = build_fig3_scenario()
    wl = fig3.worldlines[0]
    s = Scenario("pair \ud800\udfff", fig3.transform,
                 (Worldline(wl.anchor, wl.direction, "\ud800\udfff", wl.kind),), fig3.window)
    path = tmp_path / "saved.json"
    save_scenario(s, path)
    text = path.read_text(encoding="utf-8")
    assert '"name": "pair \\ud800\\udfff"' in text
    assert '"label": "\\ud800\\udfff"' in text
    loaded = load_scenario(path)
    assert loaded.name == "pair \U000103ff" and loaded.worldlines[0].label == "\U000103ff"
    assert loaded != s
    # The astral character is saved as the same two escapes: one more round changes nothing.
    save_scenario(loaded, path)
    assert path.read_text(encoding="utf-8") == text
    assert load_scenario(path) == loaded
