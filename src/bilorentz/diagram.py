"""Deterministic SVG rendering of scenario pairs (original / transformed).

Axis convention: the first coordinate runs up the vertical plot axis, the
second along the horizontal one, for both documents of a pair.  Output is
byte-identical across runs for identical inputs: coordinates are rounded to
a fixed number of decimals and elements are emitted in a fixed order.
"""

from __future__ import annotations

import math

from .core import TwoVector, _setters, _Value
from .worldlines import Scenario, Window, Worldline, WorldlineKind, transform_worldline

_MARGIN = 40.0
_AXIS_LABELS = ("ξ₁", "ξ₂")
_TRANSFORMED_AXIS_LABELS = ("η₁", "η₂")
#: The class and the stroke colour of each kind's line.
_LINE = {kind: (kind.value, stroke)
         for kind, stroke in ((WorldlineKind.PARTICLE, "blue"), (WorldlineKind.LIGHT_RAY, "red"))}


def escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class EmptyWindowError(ValueError):
    """No worldline of the scenario intersects the plot window."""


class OutOfWindowError(ValueError):
    """An annotated event falls outside the plot window."""


class DiagramStyle(_Value):
    __slots__ = ("width_px", "height_px", "decimal_places")

    def __init__(self, width_px: int = 480, height_px: int = 480, decimal_places: int = 6):
        # An integer is what has __index__, numpy's included.  A bool has it too, but
        # _formatter's format spec would read ".Truef".
        for name, value in (("decimal_places", decimal_places), ("width_px", width_px),
                            ("height_px", height_px)):
            if value.__class__ is bool or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if decimal_places < 1:
            raise ValueError("decimal_places must be >= 1")
        if width_px <= 2 * _MARGIN or height_px <= 2 * _MARGIN:
            raise ValueError(
                f"pixel dimensions must exceed {int(2 * _MARGIN)} in both directions")
        _set_width_px(self, width_px)
        _set_height_px(self, height_px)
        _set_decimal_places(self, decimal_places)


_set_width_px, _set_height_px, _set_decimal_places = _setters(DiagramStyle)


def _pixel_map(style: DiagramStyle, window: Window):
    """The map from an event's (c1, c2) to pixels: second coordinate right, first up."""
    lo1, lo2, hi1, hi2 = window.lo.c1, window.lo.c2, window.hi.c1, window.hi.c2
    span1, span2 = hi1 - lo1, hi2 - lo2
    plot_w, plot_h = style.width_px - 2 * _MARGIN, style.height_px - 2 * _MARGIN
    def to_pixel(c1: float, c2: float) -> tuple[float, float]:
        return _MARGIN + (c2 - lo2) / span2 * plot_w, _MARGIN + (hi1 - c1) / span1 * plot_h
    return to_pixel


def _formatter(decimals: int):
    """The map from a coordinate to its text with ``decimals`` places, where a negative
    that rounds to zero prints unsigned, as 0.0 does."""
    spec = f".{decimals}f"
    def fmt(value: float) -> str:
        text = f"{value:{spec}}"
        return text[1:] if text[0] == "-" and not text.strip("-0.") else text
    return fmt


class SvgDocument(_Value):
    """A rendered diagram plus the coordinate mapping used to place elements."""

    __slots__ = ("style", "window", "elements")

    def __init__(self, style: DiagramStyle, window: Window, elements: tuple[str, ...]):
        _set_style(self, style)
        _set_window(self, window)
        _set_elements(self, elements)

    def to_pixel(self, p: TwoVector) -> tuple[float, float]:
        """Map an event to pixel coordinates (second coord right, first coord up)."""
        return _pixel_map(self.style, self.window)(p.c1, p.c2)

    def to_svg(self) -> str:
        w, h = self.style.width_px, self.style.height_px
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


_set_style, _set_window, _set_elements = _setters(SvgDocument)


def _span(wl: Worldline, window: Window) -> tuple[float, float, float, float] | None:
    """clip_to_window's endpoints as the floats (c1, c2, c1, c2), or None."""
    a1, a2, d1, d2 = wl.anchor.c1, wl.anchor.c2, wl.direction.c1, wl.direction.c2
    smin, smax = -math.inf, math.inf
    for a, d, lo, hi in ((a1, d1, window.lo.c1, window.hi.c1),
                         (a2, d2, window.lo.c2, window.hi.c2)):
        if d == 0.0:
            if not lo <= a <= hi:
                return None
            continue
        s0, s1 = (lo - a) / d, (hi - a) / d
        if s0 > s1:
            s0, s1 = s1, s0
        # comparisons, not max/min: this runs per line, and a call costs more
        if s0 > smin:
            smin = s0
        if s1 < smax:
            smax = s1
    if smin > smax:
        return None
    # a bound of a tiny direction, or an endpoint, may overflow: _render_one refuses it
    return a1 + smin * d1, a2 + smin * d2, a1 + smax * d1, a2 + smax * d2


def clip_to_window(wl: Worldline, window: Window) -> tuple[TwoVector, TwoVector] | None:
    """The endpoints of the line anchor + s*direction inside the window, or None."""
    span = _span(wl, window)
    return None if span is None else (TwoVector(*span[:2]), TwoVector(*span[2:]))


def _render_one(title: str, worldlines: tuple[Worldline, ...], window: Window,
                style: DiagramStyle, axis_labels: tuple[str, str]) -> SvgDocument:
    w, h = style.width_px, style.height_px
    to_pixel, fmt = _pixel_map(style, window), _formatter(style.decimal_places)
    elements: list[str] = [
        f"<title>{escape(title)}</title>",
        f'<rect class="background" x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        (f'<rect class="frame" x="{fmt(_MARGIN)}" y="{fmt(_MARGIN)}" '
         f'width="{fmt(w - 2 * _MARGIN)}" height="{fmt(h - 2 * _MARGIN)}" '
         f'fill="none" stroke="black" stroke-width="1"/>'),
    ]

    # zero lines for both coordinates, drawn only when inside the window (else labels by the frame)
    vx, hy = _MARGIN, h - _MARGIN
    if window.lo.c2 <= 0.0 <= window.hi.c2:
        vx, _ = to_pixel(window.lo.c1, 0.0)
        elements.append(
            f'<line class="axis" x1="{fmt(vx)}" y1="{fmt(_MARGIN)}" '
            f'x2="{fmt(vx)}" y2="{fmt(h - _MARGIN)}" '
            f'stroke="gray" stroke-width="0.5"/>')
    if window.lo.c1 <= 0.0 <= window.hi.c1:
        _, hy = to_pixel(0.0, window.lo.c2)
        elements.append(
            f'<line class="axis" x1="{fmt(_MARGIN)}" y1="{fmt(hy)}" '
            f'x2="{fmt(w - _MARGIN)}" y2="{fmt(hy)}" '
            f'stroke="gray" stroke-width="0.5"/>')
    elements.append(
        f'<text class="axis-label" x="{fmt(vx + 6.0)}" '
        f'y="{fmt(_MARGIN - 8.0)}" font-size="14">{escape(axis_labels[0])}</text>')
    elements.append(
        f'<text class="axis-label" x="{fmt(w - _MARGIN + 6.0)}" '
        f'y="{fmt(hy + 4.0)}" font-size="14">{escape(axis_labels[1])}</text>')

    first_line = len(elements)
    for wl in worldlines:
        span = _span(wl, window)
        if span is None:
            continue
        a1, a2, b1, b2 = span
        if not math.isfinite(a1 + a2 + b1 + b2):
            TwoVector(a1, a2), TwoVector(b1, b2)    # refuses an endpoint that overflowed
        (x1, y1), (x2, y2) = to_pixel(a1, a2), to_pixel(b1, b2)
        kind, stroke = _LINE[wl.kind]
        elements.append(
            f'<line class="worldline {kind}" x1="{fmt(x1)}" y1="{fmt(y1)}" '
            f'x2="{fmt(x2)}" y2="{fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="1.5"><title>{escape(wl.label)}</title></line>')
    if len(elements) == first_line:
        raise EmptyWindowError(f"no worldline of {title!r} intersects the window")

    return SvgDocument(style, window, tuple(elements))


def render_pair(scenario: Scenario,
                style: DiagramStyle | None = None) -> tuple[SvgDocument, SvgDocument]:
    """Render the scenario in original and in transformed coordinates."""
    style = style if style is not None else DiagramStyle()
    original = _render_one(f"{scenario.name} (original coordinates)",
                           scenario.worldlines, scenario.window, style, _AXIS_LABELS)
    moved = tuple(transform_worldline(scenario.transform, wl)
                  for wl in scenario.worldlines)
    transformed = _render_one(f"{scenario.name} (transformed coordinates)",
                              moved, scenario.window, style, _TRANSFORMED_AXIS_LABELS)
    return original, transformed


def annotate_events(doc: SvgDocument,
                    events: tuple[tuple[TwoVector, str], ...]) -> SvgDocument:
    """Return a copy of the document with a labelled marker per event."""
    added: list[str] = []
    to_pixel, fmt = _pixel_map(doc.style, doc.window), _formatter(doc.style.decimal_places)
    for at, label in events:
        if not doc.window.contains(at):
            raise OutOfWindowError(
                f"event {label!r} at ({at.c1}, {at.c2}) lies outside the window")
        px, py = to_pixel(at.c1, at.c2)
        added.append(
            f'<circle class="event" cx="{fmt(px)}" cy="{fmt(py)}" '
            f'r="3" fill="black"/>')
        added.append(
            f'<text class="event-label" x="{fmt(px + 6.0)}" '
            f'y="{fmt(py - 6.0)}" font-size="13">{escape(label)}</text>')
    return SvgDocument(doc.style, doc.window, doc.elements + tuple(added))
