"""SVG rendering: determinism, slope fidelity, annotations, error paths."""

import copy
import math
import pickle
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilorentz import (
    DiagramStyle,
    EmptyWindowError,
    OutOfWindowError,
    Scenario,
    TwoVector,
    Window,
    Worldline,
    annotate_events,
    build_fig2_scenario,
    build_fig3_scenario,
    build_fig4_scenario,
    clip_to_window,
    make_l,
    render_pair,
    transform_worldline,
)
from bilorentz.diagram import _fmt, _set_decimal_places

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
    """The formula _fmt replaced: round first, then drop the sign of a zero."""
    r = round(value, decimals)
    if r == 0.0:
        r = 0.0
    return f"{r:.{decimals}f}"


@settings(max_examples=2000, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       decimals=st.integers(min_value=1, max_value=10))
def test_fmt_matches_round_then_format(value, decimals):
    assert _fmt(value, decimals) == fmt_reference(value, decimals)


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
    assert _fmt(value, decimals) == text == fmt_reference(value, decimals)
