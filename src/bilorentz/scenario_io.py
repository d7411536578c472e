"""Strict JSON serialization for scenarios.

Schema (all keys required unless noted):

    {
      "name": "demo",
      "transform": {"branch": "lambda"|"l", "tau": 1|-1, "k": number,
                    "vel": number | "infinity"},
      "worldlines": [{"anchor": [n, n], "direction": [n, n],
                      "kind": "particle"|"lightray", "label": "text"}, ...],
      "window": {"min": [n, n], "max": [n, n]},
      "events": [{"at": [n, n], "label": "text"}, ...]   // optional
    }

Unknown keys are rejected everywhere.  "infinity" is only a valid velocity
for the "lambda" branch with k < 0; the accepted velocity spellings are
documented once, in core.make_transform.

save_scenario writes json.dumps(scenario_to_dict(s), indent=2, sort_keys=True)
plus a newline, byte for byte.  CPython's json has no C path for indent, so
_scenario_json writes that layout itself; json's own encoders still write
every string and every transform value.  So a high surrogate followed by a low
one (two code points) is saved as two escapes and loads back as the one astral
character they spell: the format means the joined character.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .core import BranchKind, Transform, TwoVector, make_transform
from .worldlines import Scenario, Window, Worldline, WorldlineKind, _string


class ScenarioFormatError(ValueError):
    """The JSON document does not match the scenario schema."""


# A JSON path ``where`` holds a "{}" for the array index ``i``, filled in only for errors.
def _require_keys(obj: dict, required: frozenset[str] | set[str], where: str,
                  i: int | None = None, optional: set[str] = frozenset()) -> None:
    if obj.__class__ is dict and obj.keys() == required:
        return
    where = where.format(i)
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object, got {type(obj).__name__}")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ScenarioFormatError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ScenarioFormatError(f"missing keys in {where}: {sorted(missing)}")


def _made(where: str, i: int | None, make, *args):
    """make(*args), with a ValueError it raises prefixed by the JSON path ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where.format(i)}: {exc}") from exc


def _number(value, where: str, i: int | None = None) -> float:
    if value.__class__ is float:    # most numbers json gives: no checks or float() needed
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where.format(i)} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # JSON integers are unbounded; the repr of one past 4300 digits raises.
        raise ScenarioFormatError(f"{where.format(i)} must be a number within the float "
                                  f"range, got an integer of {value.bit_length()} bits") from None


def _vector(value, where: str, i: int | None = None) -> TwoVector:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioFormatError(f"{where.format(i)} must be a 2-element array, got {value!r}")
    return _made(where, i, TwoVector, _number(value[0], where, i), _number(value[1], where, i))


def _text(value, where: str, i: int | None = None) -> str:
    try:
        return value if isinstance(value, str) else _string(value, where.format(i))
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None


def _transform_from_dict(obj: dict) -> Transform:
    _require_keys(obj, {"branch", "tau", "k", "vel"}, "transform")
    branch = _text(obj["branch"], "transform.branch")
    k = _number(obj["k"], "transform.k")
    if obj["vel"] == "infinity":
        vel = math.inf
    else:
        vel = _number(obj["vel"], "transform.vel")
        if not math.isfinite(vel):
            raise ScenarioFormatError(f'transform.vel must be finite or "infinity", got {vel!r}')
    return _made("transform", None, make_transform, branch, obj["tau"], k, vel)


def _transform_to_dict(t: Transform) -> dict:
    if t.branch is BranchKind.DERIVED:
        raise ScenarioFormatError("derived transforms are not serializable")
    vel = "infinity" if math.isinf(t.vel) else t.vel
    return {"branch": t.branch.value, "tau": t.tau, "k": t.k, "vel": vel}


_KINDS = {kind.value: kind for kind in WorldlineKind}
_WORLDLINE_KEYS = frozenset({"anchor", "direction", "kind", "label"})
_EVENT_KEYS = frozenset({"at", "label"})


def _worldline_from_dict(obj: dict, i: int) -> Worldline:
    _require_keys(obj, _WORLDLINE_KEYS, "worldlines[{}]", i)
    kind = _KINDS.get(_text(obj["kind"], "worldlines[{}].kind", i))
    if kind is None:
        raise ScenarioFormatError(
            f'worldlines[{i}].kind must be "particle" or "lightray", got {obj["kind"]!r}')
    return _made("worldlines[{}]", i, Worldline,
                 _vector(obj["anchor"], "worldlines[{}].anchor", i),
                 _vector(obj["direction"], "worldlines[{}].direction", i),
                 _text(obj["label"], "worldlines[{}].label", i), kind)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed JSON, strictly; each error names its JSON path."""
    _require_keys(data, {"name", "transform", "worldlines", "window"}, "scenario",
                  optional={"events"})
    name = _text(data["name"], "name")
    transform = _transform_from_dict(data["transform"])
    if not isinstance(data["worldlines"], list):
        raise ScenarioFormatError("worldlines must be an array")
    worldlines = tuple(_worldline_from_dict(o, i)
                       for i, o in enumerate(data["worldlines"]))
    _require_keys(data["window"], {"min", "max"}, "window")
    window = _made("window", None, Window, _vector(data["window"]["min"], "window.min"),
                   _vector(data["window"]["max"], "window.max"))
    raw_events = data.get("events", [])
    if not isinstance(raw_events, list):
        raise ScenarioFormatError("events must be an array")
    events = []
    for i, obj in enumerate(raw_events):
        _require_keys(obj, _EVENT_KEYS, "events[{}]", i)
        events.append((_vector(obj["at"], "events[{}].at", i),
                       _text(obj["label"], "events[{}].label", i)))
    return Scenario(name, transform, worldlines, window, tuple(events))


def scenario_to_dict(s: Scenario) -> dict:
    out = {
        "name": s.name,
        "transform": _transform_to_dict(s.transform),
        "worldlines": [
            {"anchor": [wl.anchor.c1, wl.anchor.c2],
             "direction": [wl.direction.c1, wl.direction.c2],
             "kind": wl.kind.value,
             "label": wl.label}
            for wl in s.worldlines
        ],
        "window": {"min": [s.window.lo.c1, s.window.lo.c2],
                   "max": [s.window.hi.c1, s.window.hi.c2]},
    }
    if s.events:
        out["events"] = [{"at": [at.c1, at.c2], "label": label}
                         for at, label in s.events]
    return out


#: The string encoder json.dumps itself uses under its default ensure_ascii.
_string_json = json.encoder.encode_basestring_ascii


def _scenario_json(s: Scenario) -> str:
    """json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n", written straight
    from s in the schema's sorted key order.  A TwoVector's components are finite, exact
    floats, so ``!r`` is json's float.__repr__; the transform's values go through
    json.dumps, since a directly built Transform may hold an int k or a bool tau."""
    t = _transform_to_dict(s.transform)
    lo, hi = s.window.lo, s.window.hi
    events = ",\n".join([
        f'    {{\n      "at": [\n        {at.c1!r},\n        {at.c2!r}\n      ],\n'
        f'      "label": {_string_json(label)}\n    }}'
        for at, label in s.events])
    worldlines = ",\n".join([
        f'    {{\n'
        f'      "anchor": [\n        {wl.anchor.c1!r},\n        {wl.anchor.c2!r}\n      ],\n'
        f'      "direction": [\n        {wl.direction.c1!r},\n        {wl.direction.c2!r}\n'
        f'      ],\n'
        f'      "kind": {_string_json(wl.kind.value)},\n'
        f'      "label": {_string_json(wl.label)}\n    }}'
        for wl in s.worldlines])
    return ("{\n"
            + (f'  "events": [\n{events}\n  ],\n' if events else "")
            + f'  "name": {_string_json(s.name)},\n'
            f'  "transform": {{\n    "branch": {json.dumps(t["branch"])},\n'
            f'    "k": {json.dumps(t["k"])},\n    "tau": {json.dumps(t["tau"])},\n'
            f'    "vel": {json.dumps(t["vel"])}\n  }},\n'
            f'  "window": {{\n    "max": [\n      {hi.c1!r},\n      {hi.c2!r}\n    ],\n'
            f'    "min": [\n      {lo.c1!r},\n      {lo.c2!r}\n    ]\n  }},\n'
            + (f'  "worldlines": [\n{worldlines}\n  ]\n' if worldlines else '  "worldlines": []\n')
            + "}\n")


def load_scenario(path: str | Path) -> Scenario:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write the scenario as JSON, indented by 2 with sorted keys, in one write.
    A scenario it refuses, as scenario_to_dict does, leaves the file at ``path`` untouched."""
    text = _scenario_json(s)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
