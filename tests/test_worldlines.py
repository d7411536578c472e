"""Worldline transformation and the built-in scenarios."""

import math

import pytest

from bilorentz import (
    STANDARD_METRIC,
    BranchKind,
    DomainError,
    LightRayViolationError,
    Transform,
    TwoVector,
    Window,
    Worldline,
    WorldlineKind,
    apply,
    build_fig2_scenario,
    build_fig3_scenario,
    build_fig4_scenario,
    classify_coordinate,
    coordinate_velocity,
    interval_squared,
    make_l,
    measured_displacement,
    rest_point_worldline,
    transform_metric,
    transform_worldline,
)

SQRT3 = 1.7320508075688772
L2 = make_l(-1, 1.0, 2.0)


def test_worldline_rejects_zero_direction():
    with pytest.raises(ValueError):
        Worldline(TwoVector(0.0, 0.0), TwoVector(0.0, 0.0))


def test_light_ray_must_be_lightlike():
    with pytest.raises(LightRayViolationError):
        Worldline(TwoVector(0.0, 0.0), TwoVector(1.0, 0.5),
                  kind=WorldlineKind.LIGHT_RAY)


def test_light_ray_check_is_relative_to_the_direction():
    """Off the cone by half its length is a violation at any scale; one ulp off
    at 1e15 is roundoff."""
    with pytest.raises(LightRayViolationError):
        Worldline(TwoVector(0.0, 0.0), TwoVector(1e-13, 0.5e-13),
                  kind=WorldlineKind.LIGHT_RAY)
    big = 1e15
    ray = Worldline(TwoVector(0.0, 0.0), TwoVector(big, math.nextafter(big, math.inf)),
                    kind=WorldlineKind.LIGHT_RAY)
    assert ray.direction.c2 - ray.direction.c1 == 0.125


def test_transform_preserves_light_ray():
    ray = Worldline(TwoVector(0.0, 0.0), TwoVector(1.0, 1.0),
                    kind=WorldlineKind.LIGHT_RAY)
    out = transform_worldline(L2, ray)
    assert out.kind is WorldlineKind.LIGHT_RAY
    assert out.direction.c1 == pytest.approx(1.0 / SQRT3, abs=1e-15)
    assert abs(out.direction.c1) == abs(out.direction.c2)


def test_transform_rest_particle_under_identity():
    ident = Transform(m=((1.0, 0.0), (0.0, 1.0)), branch=BranchKind.DERIVED)
    still = Worldline(TwoVector(0.0, 0.0), TwoVector(1.0, 0.0), label="rest")
    assert transform_worldline(ident, still) == still


def test_transform_makes_half_c_particle_vertical():
    particle = Worldline(TwoVector(0.0, 0.0), TwoVector(2.0, 1.0))
    out = transform_worldline(L2, particle)
    assert out.direction.c1 == 0.0
    assert out.direction.c2 == pytest.approx(SQRT3, abs=1e-14)


def test_broken_transform_trips_light_ray_check():
    bogus = Transform(m=((2.0, 0.0), (0.0, 1.0)), branch=BranchKind.DERIVED)
    ray = Worldline(TwoVector(0.0, 0.0), TwoVector(1.0, 1.0),
                    kind=WorldlineKind.LIGHT_RAY)
    with pytest.raises(LightRayViolationError):
        transform_worldline(bogus, ray)


def test_coordinate_velocity_reads_direction():
    at = TwoVector(0.0, 0.0)
    assert coordinate_velocity(Worldline(at, TwoVector(1.0, 0.5))).value == 0.5
    assert math.isinf(coordinate_velocity(Worldline(at, TwoVector(0.0, 1.0))).value)
    assert coordinate_velocity(Worldline(at, TwoVector(2.0, 1.0))).value == 0.5


def test_rest_point_worldline():
    line = rest_point_worldline(2.0)
    assert line.anchor == TwoVector(0.0, 0.0)
    assert line.direction == TwoVector(1.0, 2.0)
    image = apply(L2, line.direction)
    assert image.c2 == 0.0
    assert image.c1 == pytest.approx(SQRT3, abs=1e-14)


def test_rest_point_worldline_negative_parameter():
    line = rest_point_worldline(-2.0)
    assert line.direction == TwoVector(1.0, -2.0)
    image = apply(make_l(-1, 1.0, -2.0), line.direction)
    assert abs(image.c2) <= 1e-12


def test_rest_point_worldline_domain():
    # Exactly the domain of make_l(-1, 1, w), overflow of w**2 included.
    for w in (0.0, 0.5, 1.0, -1.0, 1e155, 1e200, math.inf, math.nan):
        with pytest.raises(DomainError):
            make_l(-1, 1.0, w)
        with pytest.raises(DomainError):
            rest_point_worldline(w)


@pytest.mark.parametrize("w", [1.5, 2.0, -2.0, 1e100])
def test_rest_point_worldline_is_pinned_by_make_l(w):
    line = rest_point_worldline(w)
    assert line.direction == TwoVector(1.0, w)
    assert apply(make_l(-1, 1.0, w), line.direction).c2 == 0.0


def test_window_needs_positive_extent():
    with pytest.raises(ValueError):
        Window(TwoVector(0.0, 0.0), TwoVector(0.0, 1.0))
    with pytest.raises(ValueError):
        Window(TwoVector(0.0, 0.0), TwoVector(1.0, -1.0))


def test_fig2_scenario_contents():
    s = build_fig2_scenario()
    particles = [w for w in s.worldlines if w.kind is WorldlineKind.PARTICLE]
    rays = [w for w in s.worldlines if w.kind is WorldlineKind.LIGHT_RAY]
    assert len(particles) == 4
    assert len(rays) == 2
    assert all(coordinate_velocity(w).value < 1.0 for w in particles)
    assert s.transform.branch is BranchKind.ANTISYMMETRIC_L
    assert (s.transform.tau, s.transform.k, s.transform.vel) == (-1, 1.0, 2.0)


def test_fig2_particles_look_superluminal_raw_but_not_measured():
    s = build_fig2_scenario()
    for wl in s.worldlines:
        moved = transform_worldline(s.transform, wl)
        raw = coordinate_velocity(moved).value
        if wl.kind is WorldlineKind.PARTICLE:
            assert raw > 1.0
            measured = classify_coordinate(measured_displacement(moved.direction))
            assert measured.value < 1.0
        else:
            assert raw == pytest.approx(1.0, abs=1e-12)


def test_fig3_scenario_contents():
    s = build_fig3_scenario()
    assert len(s.worldlines) == 2
    assert all(w.kind is WorldlineKind.LIGHT_RAY for w in s.worldlines)
    dirs = {(w.direction.c1, w.direction.c2) for w in s.worldlines}
    assert dirs == {(1.0, 1.0), (1.0, -1.0)}


def test_fig3_left_ray_transforms_onto_same_cone():
    out = apply(L2, TwoVector(1.0, -1.0))
    assert out.c1 == pytest.approx(-SQRT3, abs=1e-14)
    assert out.c2 == pytest.approx(SQRT3, abs=1e-14)


def test_fig4_scenario_reproduces_worked_example():
    s = build_fig4_scenario()
    (x, x_label), (y, y_label) = s.events
    assert (x_label, y_label) == ("X", "Y")
    d = TwoVector(y.c1 - x.c1, y.c2 - x.c2)
    assert interval_squared(d, STANDARD_METRIC) == 3.0
    moved = apply(s.transform, d)
    assert moved.c1 == 0.0
    assert moved.c2 == pytest.approx(SQRT3, abs=1e-14)
    g2 = transform_metric(s.transform, STANDARD_METRIC)
    assert interval_squared(moved, g2) == pytest.approx(3.0, abs=1e-12)


def test_fig4_has_one_ray_and_one_particle():
    kinds = [w.kind for w in build_fig4_scenario().worldlines]
    assert kinds.count(WorldlineKind.LIGHT_RAY) == 1
    assert kinds.count(WorldlineKind.PARTICLE) == 1


def test_scenario_builders_are_deterministic():
    assert build_fig2_scenario() == build_fig2_scenario()
    assert build_fig3_scenario() == build_fig3_scenario()
    assert build_fig4_scenario() == build_fig4_scenario()
