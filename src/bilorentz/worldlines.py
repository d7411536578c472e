"""Straight worldlines, light rays, and the built-in diagram scenarios."""

from __future__ import annotations

import math
from enum import Enum

from .core import (
    DEFAULT_TOL,
    CoordinateSpeed,
    Transform,
    TwoVector,
    _setters,
    _Value,
    apply,
    classify_coordinate,
    make_l,
)


class LightRayViolationError(ValueError):
    """A light-ray worldline stopped satisfying |direction.c1| == |direction.c2|."""


def _string(value, where: str) -> str:
    """value, refused with a ValueError unless it is a str; scenario_io._text uses it too."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


class WorldlineKind(Enum):
    PARTICLE = "particle"
    LIGHT_RAY = "lightray"


class Worldline(_Value):
    """An inertial worldline: the line anchor + s * direction, s real.

    Light rays must have |direction.c1| == |direction.c2| (coordinate speed
    exactly 1); this is re-checked whenever a light ray is constructed.
    """

    __slots__ = ("anchor", "direction", "label", "kind")

    def __init__(self, anchor: TwoVector, direction: TwoVector, label: str = "",
                 kind: WorldlineKind = WorldlineKind.PARTICLE):
        if direction.c1 == 0.0 and direction.c2 == 0.0:
            raise ValueError("worldline direction must be non-zero")
        if kind is WorldlineKind.LIGHT_RAY:
            gap = abs(abs(direction.c1) - abs(direction.c2))
            if gap > DEFAULT_TOL * (abs(direction.c1) + abs(direction.c2)):
                raise LightRayViolationError(
                    f"light ray direction ({direction.c1}, {direction.c2}) "
                    f"is off the light cone by {gap}")
        elif kind is not WorldlineKind.PARTICLE:
            raise ValueError(f"kind must be a WorldlineKind, got {kind!r}")
        _set_anchor(self, anchor)
        _set_direction(self, direction)
        _set_label(self, _string(label, "label"))
        _set_kind(self, kind)


_set_anchor, _set_direction, _set_label, _set_kind = _setters(Worldline)


class Window(_Value):
    """Rectangular plot bounds: lo/hi corner events."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: TwoVector, hi: TwoVector):
        if not (hi.c1 > lo.c1 and hi.c2 > lo.c2):
            raise ValueError("window must have positive width and height")
        if not (hi.c1 - lo.c1 < math.inf and hi.c2 - lo.c2 < math.inf):
            raise ValueError("window must have finite width and height")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def contains(self, p: TwoVector) -> bool:
        return (self.lo.c1 <= p.c1 <= self.hi.c1
                and self.lo.c2 <= p.c2 <= self.hi.c2)


_set_lo, _set_hi = _setters(Window)


class Scenario(_Value):
    """A named set of worldlines, the frame change to draw them under, and bounds."""

    __slots__ = ("name", "transform", "worldlines", "window", "events")

    def __init__(self, name: str, transform: Transform, worldlines: tuple[Worldline, ...],
                 window: Window, events: tuple[tuple[TwoVector, str], ...] = ()):
        events = tuple(events)
        for i, (at, label) in enumerate(events):
            if not isinstance(at, TwoVector):
                raise ValueError(f"events[{i}].at must be a TwoVector, got {at!r}")
            _string(label, f"events[{i}].label")
        _set_name(self, _string(name, "name"))
        _set_transform(self, transform)
        _set_worldlines(self, tuple(worldlines))
        _set_window(self, window)
        _set_events(self, events)


_set_name, _set_transform, _set_worldlines, _set_window, _set_events = _setters(Scenario)


def transform_worldline(t: Transform, w: Worldline) -> Worldline:
    """Map anchor and direction through the transform, preserving kind.

    Raises LightRayViolationError if a light ray comes out non-lightlike;
    family-constructed transforms never trigger this because the light cone
    spans the eigenvectors of their matrices.
    """
    return Worldline(apply(t, w.anchor), apply(t, w.direction), w.label, w.kind)


def coordinate_velocity(w: Worldline) -> CoordinateSpeed:
    """Coordinate speed of the worldline, read off its direction."""
    return classify_coordinate(w.direction)


def rest_point_worldline(w: float) -> Worldline:
    """Worldline of the point pinned to second-coordinate zero by make_l(-1, 1, w).

    In the original coordinates this is the line x = w * c * t; the k = 1
    antisymmetric transform with parameter w maps it onto the vertical axis
    of the transformed frame.  Raises DomainError wherever make_l(-1, 1, w) does.
    """
    make_l(-1, 1.0, w)
    return Worldline(anchor=TwoVector(0.0, 0.0), direction=TwoVector(1.0, w),
                     label=f"x = {w:g} ct")


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

_ORIGIN = TwoVector(0.0, 0.0)
_FIG_WINDOW = Window(TwoVector(-3.0, -3.0), TwoVector(3.0, 3.0))

#: Speeds of the four demo particles; any set below 1 works, these are fixed
#: so the rendered output stays byte-stable.
FIG2_PARTICLE_SPEEDS = (0.0, 0.25, 0.5, 0.75)


def _fig_transform() -> Transform:
    return make_l(-1, 1.0, 2.0)


def _light_rays() -> tuple[Worldline, Worldline]:
    return (
        Worldline(_ORIGIN, TwoVector(1.0, 1.0), label="light +",
                  kind=WorldlineKind.LIGHT_RAY),
        Worldline(_ORIGIN, TwoVector(1.0, -1.0), label="light -",
                  kind=WorldlineKind.LIGHT_RAY),
    )


def build_fig2_scenario() -> Scenario:
    """Four subluminal particles plus both light rays, under the w=2 transform."""
    particles = tuple(
        Worldline(_ORIGIN, TwoVector(1.0, v), label=f"v = {v:g}")
        for v in FIG2_PARTICLE_SPEEDS
    )
    return Scenario(name="fig2", transform=_fig_transform(),
                    worldlines=particles + _light_rays(), window=_FIG_WINDOW)


def build_fig3_scenario() -> Scenario:
    """Two light rays from the common origin, under the w=2 transform."""
    return Scenario(name="fig3", transform=_fig_transform(),
                    worldlines=_light_rays(), window=_FIG_WINDOW)


def build_fig4_scenario() -> Scenario:
    """A light ray and a v=0.5 particle carrying the marked events X and Y.

    The displacement Y - X = (2, 1) is the worked example: coordinate speed
    0.5 here, infinite raw coordinate speed after the transform, interval
    squared 3 on both sides.
    """
    x = TwoVector(0.0, 0.0)
    y = TwoVector(2.0, 1.0)
    ray = Worldline(_ORIGIN, TwoVector(1.0, 1.0), label="light",
                    kind=WorldlineKind.LIGHT_RAY)
    particle = Worldline(x, TwoVector(2.0, 1.0), label="v = 0.5")
    return Scenario(name="fig4", transform=_fig_transform(),
                    worldlines=(ray, particle), window=_FIG_WINDOW,
                    events=((x, "X"), (y, "Y")))
