"""SVG rendering: determinism, slope fidelity, annotations, error paths."""

import copy
import math
import pickle
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilorentz import (
    DiagramStyle,
    EmptyWindowError,
    OutOfWindowError,
    Scenario,
    SvgDocument,
    TwoVector,
    Window,
    Worldline,
    WorldlineKind,
    annotate_events,
    build_fig2_scenario,
    build_fig3_scenario,
    build_fig4_scenario,
    clip_to_window,
    make_l,
    make_lambda,
    render_pair,
    transform_worldline,
)
from bilorentz.diagram import _formatter, _set_decimal_places, _set_height_px, _set_width_px

SVG_NS = "{http://www.w3.org/2000/svg}"


def lines_of(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{SVG_NS}line") if cls in el.get("class", "")]


def plot_slope(el):
    x1, y1, x2, y2 = (float(el.get(a)) for a in ("x1", "y1", "x2", "y2"))
    if x2 == x1:
        return math.inf
    return (y2 - y1) / (x2 - x1)


def test_render_pair_is_deterministic():
    s = build_fig2_scenario()
    first = [doc.to_svg() for doc in render_pair(s)]
    second = [doc.to_svg() for doc in render_pair(s)]
    assert first == second


def test_output_is_valid_xml_with_svg_root():
    for doc in render_pair(build_fig4_scenario()):
        root = ET.fromstring(doc.to_svg())
        assert root.tag == f"{SVG_NS}svg"


def test_fig3_has_two_unit_slope_rays_in_both_frames():
    for doc in render_pair(build_fig3_scenario()):
        rays = lines_of(doc.to_svg(), "lightray")
        assert len(rays) == 2
        for el in rays:
            assert abs(abs(plot_slope(el)) - 1.0) < 1e-5


def test_fig2_particle_slopes_flip_across_the_transform():
    # vertical plot axis carries the first coordinate, so |plot slope| = 1/speed
    original, transformed = render_pair(build_fig2_scenario())
    steep = lines_of(original.to_svg(), "particle")
    shallow = lines_of(transformed.to_svg(), "particle")
    assert len(steep) == len(shallow) == 4
    for el in steep:
        assert abs(plot_slope(el)) > 1.0  # speeds < 1, rest particle is vertical
    for el in shallow:
        assert abs(plot_slope(el)) < 1.0  # raw coordinate speeds > 1


def test_slope_fidelity_against_worldline_directions():
    s = build_fig2_scenario()
    original, transformed = render_pair(s)
    moved = tuple(transform_worldline(s.transform, w) for w in s.worldlines)
    tol = 10.0 ** (1 - original.style.decimal_places)
    for doc, wls in ((original, s.worldlines), (transformed, moved)):
        els = lines_of(doc.to_svg(), "worldline")
        assert len(els) == len(wls)
        for el, wl in zip(els, wls):
            d = wl.direction
            got = plot_slope(el)
            if d.c2 == 0.0:
                assert math.isinf(got)
            else:
                # svg y runs downward; square style and window keep scales equal
                assert abs(got - (-d.c1 / d.c2)) < tol


def test_empty_window_raises():
    off_screen = Window(TwoVector(100.0, 100.0), TwoVector(101.0, 101.0))
    s = Scenario(name="far", transform=make_l(-1, 1.0, 2.0),
                 worldlines=(Worldline(TwoVector(0.0, 0.0), TwoVector(1.0, 0.0)),),
                 window=off_screen)
    with pytest.raises(EmptyWindowError):
        render_pair(s)


def test_annotate_events_adds_markers():
    s = build_fig4_scenario()
    original, _ = render_pair(s)
    svg = annotate_events(original, s.events).to_svg()
    assert svg.count('class="event"') == 2
    assert ">X</text>" in svg
    assert ">Y</text>" in svg


def test_annotate_events_empty_is_noop():
    original, _ = render_pair(build_fig3_scenario())
    assert annotate_events(original, ()).to_svg() == original.to_svg()


def test_annotate_event_at_window_corner_is_allowed():
    original, _ = render_pair(build_fig3_scenario())
    out = annotate_events(original, ((TwoVector(3.0, 3.0), "corner"),))
    assert 'class="event"' in out.to_svg()


def test_annotate_event_outside_window_raises():
    original, _ = render_pair(build_fig3_scenario())
    with pytest.raises(OutOfWindowError):
        annotate_events(original, ((TwoVector(10.0, 0.0), "far"),))


def test_clip_segment_endpoints_stay_in_window():
    win = Window(TwoVector(-3.0, -3.0), TwoVector(3.0, 3.0))
    wl = Worldline(TwoVector(0.5, -1.0), TwoVector(2.0, 1.0))
    p, q = clip_to_window(wl, win)
    for pt in (p, q):
        assert win.lo.c1 - 1e-9 <= pt.c1 <= win.hi.c1 + 1e-9
        assert win.lo.c2 - 1e-9 <= pt.c2 <= win.hi.c2 + 1e-9
    assert p != q


def test_clip_misses_window():
    win = Window(TwoVector(-3.0, -3.0), TwoVector(3.0, 3.0))
    away = Worldline(TwoVector(100.0, 0.0), TwoVector(0.0, 1.0))
    assert clip_to_window(away, win) is None


def test_style_validation():
    with pytest.raises(ValueError):
        DiagramStyle(decimal_places=0)
    with pytest.raises(ValueError):
        DiagramStyle(width_px=50)


@pytest.mark.parametrize("places", [6.0, True, False, np.float64(3.0), np.True_, "6", None],
                         ids=["float", "true", "false", "numpy-float", "numpy-bool", "str", "none"])
def test_decimal_places_must_be_an_integer(places):
    # Each of these constructed before, and render_pair then failed on its format spec.
    with pytest.raises(ValueError, match=r"^decimal_places must be an integer, got "):
        DiagramStyle(decimal_places=places)


def test_copy_and_pickle_refuse_decimal_places_that_is_not_an_integer():
    for places in (6.0, True):
        broken = DiagramStyle()
        _set_decimal_places(broken, places)
        for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            with pytest.raises(ValueError, match="^decimal_places must be an integer"):
                again(broken)


_SIZES = [float("nan"), math.inf, 480.5, 480.0, True, np.float64(480.0), np.True_, "480", None]


@pytest.mark.parametrize("field", ["width_px", "height_px"])
@pytest.mark.parametrize("size", _SIZES, ids=["nan", "inf", "fraction", "float", "true",
                                              "numpy-float", "numpy-bool", "str", "none"])
def test_pixel_sizes_must_be_integers(field, size):
    # nan and inf rendered width="nan" or "inf" and coordinates to match; 480.5 rendered.
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        DiagramStyle(**{field: size})


def test_copy_and_pickle_refuse_pixel_sizes_that_are_not_integers():
    for setter, field in ((_set_width_px, "width_px"), (_set_height_px, "height_px")):
        for size in (480.5, float("nan"), True):
            broken = DiagramStyle()
            setter(broken, size)
            for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
                with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                    again(broken)


def test_numpy_integer_pixel_sizes_render_as_the_ints():
    style = DiagramStyle(np.int64(500), np.int32(300))
    svgs = [doc.to_svg() for doc in render_pair(build_fig3_scenario(), style)]
    assert svgs == [doc.to_svg() for doc in render_pair(build_fig3_scenario(),
                                                        DiagramStyle(500, 300))]


def test_numpy_integer_decimal_places_render_as_the_int():
    style = DiagramStyle(decimal_places=np.int64(3))
    for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert again(style) == style == DiagramStyle(decimal_places=3)
    svgs = [doc.to_svg() for doc in render_pair(build_fig3_scenario(), style)]
    assert svgs == [doc.to_svg() for doc in render_pair(build_fig3_scenario(),
                                                        DiagramStyle(decimal_places=3))]


def test_custom_decimal_places_are_used():
    style = DiagramStyle(decimal_places=3)
    original, _ = render_pair(build_fig3_scenario(), style)
    svg = original.to_svg()
    assert "40.000" in svg
    assert ".000000" not in svg


def fmt_reference(value, decimals):
    """The formula _formatter replaced: round first, then drop the sign of a zero."""
    r = round(value, decimals)
    if r == 0.0:
        r = 0.0
    return f"{r:.{decimals}f}"


@settings(max_examples=2000, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       decimals=st.integers(min_value=1, max_value=10))
def test_fmt_matches_round_then_format(value, decimals):
    assert _formatter(decimals)(value) == fmt_reference(value, decimals)


@pytest.mark.parametrize("value, decimals, text", [
    (5e-7, 6, "0.000000"),      # half-way in decimal, just below it in binary
    (-5e-7, 6, "0.000000"),
    (-4e-7, 6, "0.000000"),
    (-0.0049, 2, "0.00"),
    (-1e-300, 10, "0.0000000000"),
    (-0.0, 6, "0.000000"),
    (5e-324, 6, "0.000000"),
    (-5e-324, 1, "0.0"),
    (0.125, 2, "0.12"),         # exactly half-way: both round half to even
    (-0.375, 2, "-0.38"),
    (2.675, 2, "2.67"),         # 2.67499999... in binary
    (-2.675, 2, "-2.67"),
    (-0.5, 1, "-0.5"),
    (-10.0, 1, "-10.0"),
    (1e300, 1, f"{int(1e300)}.0"),  # the exact decimal value of the double
    (-1e300, 3, f"-{int(1e300)}.000"),
])
def test_fmt_edge_cases(value, decimals, text):
    assert _formatter(decimals)(value) == text == fmt_reference(value, decimals)


def _reference_render(title, worldlines, window, style, axis_labels):
    """One document's elements as the renderer drew them from TwoVectors: clip_to_window,
    then SvgDocument.to_pixel's formula written out, then the rounding of fmt_reference."""
    w, h = style.width_px, style.height_px
    lo, hi = window.lo, window.hi

    def to_pixel(p):
        return (40.0 + (p.c2 - lo.c2) / (hi.c2 - lo.c2) * (w - 2 * 40.0),
                40.0 + (hi.c1 - p.c1) / (hi.c1 - lo.c1) * (h - 2 * 40.0))

    def f(value):
        return fmt_reference(value, style.decimal_places)

    elements = [f"<title>{escape(title)}</title>",
                f'<rect class="background" x="0" y="0" width="{w}" height="{h}" fill="white"/>',
                f'<rect class="frame" x="{f(40.0)}" y="{f(40.0)}" width="{f(w - 80.0)}" '
                f'height="{f(h - 80.0)}" fill="none" stroke="black" stroke-width="1"/>']
    vx, hy = 40.0, h - 40.0
    if lo.c2 <= 0.0 <= hi.c2:
        vx = to_pixel(TwoVector(lo.c1, 0.0))[0]
        elements.append(f'<line class="axis" x1="{f(vx)}" y1="{f(40.0)}" x2="{f(vx)}" '
                        f'y2="{f(h - 40.0)}" stroke="gray" stroke-width="0.5"/>')
    if lo.c1 <= 0.0 <= hi.c1:
        hy = to_pixel(TwoVector(0.0, lo.c2))[1]
        elements.append(f'<line class="axis" x1="{f(40.0)}" y1="{f(hy)}" x2="{f(w - 40.0)}" '
                        f'y2="{f(hy)}" stroke="gray" stroke-width="0.5"/>')
    elements.append(f'<text class="axis-label" x="{f(vx + 6.0)}" y="{f(32.0)}" '
                    f'font-size="14">{escape(axis_labels[0])}</text>')
    elements.append(f'<text class="axis-label" x="{f(w - 34.0)}" y="{f(hy + 4.0)}" '
                    f'font-size="14">{escape(axis_labels[1])}</text>')
    doc = SvgDocument(style, window, ())
    drawn = 0
    for wl in worldlines:
        seg = clip_to_window(wl, window)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = map(to_pixel, seg)
        assert [doc.to_pixel(p) for p in seg] == [(x1, y1), (x2, y2)]
        kind, stroke = ("lightray", "red") if wl.kind is WorldlineKind.LIGHT_RAY else (
            "particle", "blue")
        elements.append(f'<line class="worldline {kind}" x1="{f(x1)}" y1="{f(y1)}" '
                        f'x2="{f(x2)}" y2="{f(y2)}" stroke="{stroke}" stroke-width="1.5">'
                        f'<title>{escape(wl.label)}</title></line>')
        drawn += 1
    if not drawn:
        raise EmptyWindowError(f"no worldline of {title!r} intersects the window")
    return tuple(elements)


def _reference_pair(s, style):
    original = _reference_render(f"{s.name} (original coordinates)", s.worldlines, s.window,
                                 style, ("ξ₁", "ξ₂"))
    moved = tuple(transform_worldline(s.transform, wl) for wl in s.worldlines)
    return original, _reference_render(f"{s.name} (transformed coordinates)", moved, s.window,
                                       style, ("η₁", "η₂"))


@st.composite
def _render_cases(draw):
    """A scenario in a window of side 1e-300 to 1e300 about it, and a style of 1 to 10
    decimals.  The first line passes through the window's middle; others may miss it.
    Direction components include 0 and the smallest subnormal, whose bounds overflow."""
    scale = 10.0 ** draw(st.integers(-300, 299))
    lo = [draw(st.floats(-1.0, 0.5)) * scale for _ in range(2)]
    side = [draw(st.floats(0.01, 1.0)) * scale for _ in range(2)]
    window = Window(TwoVector(*lo), TwoVector(lo[0] + side[0], lo[1] + side[1]))
    part = st.sampled_from([0.0, 5e-324, -5e-324, 1.0, -1.0]) | st.floats(-2.0, 2.0)
    lines = []
    for i in range(draw(st.integers(1, 5))):
        where = (0.5, 0.5) if i == 0 else (draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5)))
        anchor = TwoVector(lo[0] + where[0] * side[0], lo[1] + where[1] * side[1])
        label = draw(st.sampled_from(["", "p", "a <&> b", "ξ"]))
        if draw(st.booleans()):
            c = draw(part) * scale or scale      # a product may underflow to 0
            lines.append(Worldline(anchor, TwoVector(c, draw(st.sampled_from([c, -c]))), label,
                                   WorldlineKind.LIGHT_RAY))
        else:
            d = TwoVector(draw(part) * scale, draw(part) * scale)
            lines.append(Worldline(anchor, d if d.c1 or d.c2 else TwoVector(scale, 0.0), label))
    transform = draw(st.one_of(
        st.builds(make_lambda, st.sampled_from([1, -1]), st.sampled_from([0.25, 1.0]),
                  st.floats(-0.99, 0.99)),
        st.builds(make_l, st.sampled_from([1, -1]), st.just(1.0),
                  st.floats(1.01, 100.0) | st.floats(-100.0, -1.01))))
    style = DiagramStyle(draw(st.integers(81, 1200)), draw(st.integers(81, 1200)),
                         draw(st.integers(1, 10)))
    return Scenario(draw(st.sampled_from(["s", "a & b"])), transform, tuple(lines), window), style


@settings(max_examples=300, deadline=None)
@given(case=_render_cases())
def test_render_pair_draws_what_the_two_vector_path_drew(case):
    s, style = case
    try:
        want = _reference_pair(s, style)
    except ValueError as exc:       # EmptyWindowError, or an endpoint that overflowed
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            render_pair(s, style)
        return
    assert tuple(doc.elements for doc in render_pair(s, style)) == want


def test_an_endpoint_that_overflows_is_refused_as_a_two_vector():
    # 0.5 / 5e-324 overflows, so the ray's end at the window's corner is (-inf, -inf).
    window = Window(TwoVector(0.0, 0.0), TwoVector(1.0, 1.0))
    wl = Worldline(TwoVector(0.5, 0.5), TwoVector(5e-324, 5e-324), "", WorldlineKind.LIGHT_RAY)
    s = Scenario("overflow", make_lambda(1, 1.0, 0.5), (wl,), window)
    message = re.escape("TwoVector components must be finite, got (-inf, -inf)")
    for draw in (lambda: render_pair(s), lambda: clip_to_window(wl, window)):
        with pytest.raises(ValueError, match=f"^{message}$") as raised:
            draw()
        assert raised.type is ValueError
