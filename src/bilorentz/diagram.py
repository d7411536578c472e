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
        # _fmt's format spec would read ".Truef".
        if decimal_places.__class__ is bool or not hasattr(decimal_places, "__index__"):
            raise ValueError(f"decimal_places must be an integer, got {decimal_places!r}")
        if decimal_places < 1:
            raise ValueError("decimal_places must be >= 1")
        if width_px <= 2 * _MARGIN or height_px <= 2 * _MARGIN:
            raise ValueError(
                f"pixel dimensions must exceed {int(2 * _MARGIN)} in both directions")
        _set_width_px(self, width_px)
        _set_height_px(self, height_px)
        _set_decimal_places(self, decimal_places)


_set_width_px, _set_height_px, _set_decimal_places = _setters(DiagramStyle)


class SvgDocument(_Value):
    """A rendered diagram plus the coordinate mapping used to place elements."""

    __slots__ = ("style", "window", "elements")

    def __init__(self, style: DiagramStyle, window: Window, elements: tuple[str, ...]):
        _set_style(self, style)
        _set_window(self, window)
        _set_elements(self, elements)

    def to_pixel(self, p: TwoVector) -> tuple[float, float]:
        """Map an event to pixel coordinates (second coord right, first coord up)."""
        win = self.window
        plot_w = self.style.width_px - 2 * _MARGIN
        plot_h = self.style.height_px - 2 * _MARGIN
        px = _MARGIN + (p.c2 - win.lo.c2) / (win.hi.c2 - win.lo.c2) * plot_w
        py = _MARGIN + (win.hi.c1 - p.c1) / (win.hi.c1 - win.lo.c1) * plot_h
        return px, py

    def to_svg(self) -> str:
        w, h = self.style.width_px, self.style.height_px
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


_set_style, _set_window, _set_elements = _setters(SvgDocument)


def _fmt(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    # a negative that rounds to zero prints unsigned, as 0.0 does
    return text[1:] if text[0] == "-" and not text.strip("-0.") else text


def clip_to_window(wl: Worldline, window: Window) -> tuple[TwoVector, TwoVector] | None:
    """Intersect the infinite line anchor + s*direction with the window.

    Returns the endpoints of the clipped segment, or None when the line
    misses the window entirely.
    """
    anchor, direction = wl.anchor, wl.direction
    smin, smax = -math.inf, math.inf
    for a, d, lo, hi in ((anchor.c1, direction.c1, window.lo.c1, window.hi.c1),
                         (anchor.c2, direction.c2, window.lo.c2, window.hi.c2)):
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
    # direction is non-zero, so both bounds are finite by now
    return (TwoVector(anchor.c1 + smin * direction.c1, anchor.c2 + smin * direction.c2),
            TwoVector(anchor.c1 + smax * direction.c1, anchor.c2 + smax * direction.c2))


def _render_one(title: str, worldlines: tuple[Worldline, ...], window: Window,
                style: DiagramStyle, axis_labels: tuple[str, str]) -> SvgDocument:
    w, h = style.width_px, style.height_px
    dp = style.decimal_places
    elements: list[str] = [
        f"<title>{escape(title)}</title>",
        f'<rect class="background" x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        (f'<rect class="frame" x="{_fmt(_MARGIN, dp)}" y="{_fmt(_MARGIN, dp)}" '
         f'width="{_fmt(w - 2 * _MARGIN, dp)}" height="{_fmt(h - 2 * _MARGIN, dp)}" '
         f'fill="none" stroke="black" stroke-width="1"/>'),
    ]

    doc = SvgDocument(style, window, ())
    # zero lines for both coordinates, drawn only when inside the window
    vx = hy = None
    if window.lo.c2 <= 0.0 <= window.hi.c2:
        vx, _ = doc.to_pixel(TwoVector(window.lo.c1, 0.0))
    if window.lo.c1 <= 0.0 <= window.hi.c1:
        _, hy = doc.to_pixel(TwoVector(0.0, window.lo.c2))
    if vx is not None:
        elements.append(
            f'<line class="axis" x1="{_fmt(vx, dp)}" y1="{_fmt(_MARGIN, dp)}" '
            f'x2="{_fmt(vx, dp)}" y2="{_fmt(h - _MARGIN, dp)}" '
            f'stroke="gray" stroke-width="0.5"/>')
    if hy is not None:
        elements.append(
            f'<line class="axis" x1="{_fmt(_MARGIN, dp)}" y1="{_fmt(hy, dp)}" '
            f'x2="{_fmt(w - _MARGIN, dp)}" y2="{_fmt(hy, dp)}" '
            f'stroke="gray" stroke-width="0.5"/>')
    label_x = vx if vx is not None else _MARGIN
    label_y = hy if hy is not None else h - _MARGIN
    elements.append(
        f'<text class="axis-label" x="{_fmt(label_x + 6.0, dp)}" '
        f'y="{_fmt(_MARGIN - 8.0, dp)}" font-size="14">{escape(axis_labels[0])}</text>')
    elements.append(
        f'<text class="axis-label" x="{_fmt(w - _MARGIN + 6.0, dp)}" '
        f'y="{_fmt(label_y + 4.0, dp)}" font-size="14">{escape(axis_labels[1])}</text>')

    drawn = 0
    for wl in worldlines:
        seg = clip_to_window(wl, window)
        if seg is None:
            continue
        (p1x, p1y), (p2x, p2y) = doc.to_pixel(seg[0]), doc.to_pixel(seg[1])
        kind, stroke = _LINE[wl.kind]
        elements.append(
            f'<line class="worldline {kind}" x1="{_fmt(p1x, dp)}" y1="{_fmt(p1y, dp)}" '
            f'x2="{_fmt(p2x, dp)}" y2="{_fmt(p2y, dp)}" stroke="{stroke}" '
            f'stroke-width="1.5"><title>{escape(wl.label)}</title></line>')
        drawn += 1
    if drawn == 0:
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
    dp = doc.style.decimal_places
    for at, label in events:
        if not doc.window.contains(at):
            raise OutOfWindowError(
                f"event {label!r} at ({at.c1}, {at.c2}) lies outside the window")
        px, py = doc.to_pixel(at)
        added.append(
            f'<circle class="event" cx="{_fmt(px, dp)}" cy="{_fmt(py, dp)}" '
            f'r="3" fill="black"/>')
        added.append(
            f'<text class="event-label" x="{_fmt(px + 6.0, dp)}" '
            f'y="{_fmt(py - 6.0, dp)}" font-size="13">{escape(label)}</text>')
    return SvgDocument(doc.style, doc.window, doc.elements + tuple(added))
