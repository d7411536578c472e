"""Interval computation, metric congruence and causal classification."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from bilorentz import core
from bilorentz import (
    STANDARD_METRIC,
    SWAPPED_METRIC,
    CausalClass,
    DegenerateDisplacementError,
    Metric,
    TwoVector,
    apply,
    classify_coordinate,
    classify_geometric,
    interval_squared,
    make_l,
    make_lambda,
    measured_displacement,
    transform_metric,
)

SQRT3 = 1.7320508075688772


def test_interval_standard_metric():
    assert interval_squared(TwoVector(2.0, 1.0), STANDARD_METRIC) == 3.0


def test_interval_swapped_metric():
    s = interval_squared(TwoVector(0.0, SQRT3), SWAPPED_METRIC)
    assert s == pytest.approx(3.0, abs=1e-12)


def test_interval_lightlike():
    assert interval_squared(TwoVector(1.0, 1.0), STANDARD_METRIC) == 0.0


def test_interval_matches_numpy_quadratic_form():
    rng = np.random.default_rng(3)
    g = Metric(((0.5, 0.25), (0.25, -2.0)))
    gm = np.asarray(g.g)
    for _ in range(50):
        d = rng.uniform(-5, 5, 2)
        expected = float(d @ gm @ d)
        got = interval_squared(TwoVector(d[0], d[1]), g)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric(((1.0, 0.5), (0.25, 1.0)))  # not symmetric
    with pytest.raises(ValueError):
        Metric(((1.0, 1.0), (1.0, 1.0)))  # degenerate
    # Non-finite: a nan entry made the timelike (1, 0.5) read interval_sq=nan, lightlike.
    for g in (((math.nan, 0.0), (0.0, -1.0)), ((1.0, math.inf), (math.inf, -1.0)),
              ((1.0, 0.0), (0.0, -math.inf))):
        with pytest.raises(ValueError, match="^metric entries must be finite, got "):
            Metric(g)


def test_transform_metric_refuses_an_image_that_overflows():
    # (m^-1)^T g m^-1 of 1e-160 times the identity is ((1e320, 0), (0, -1e320)): inf, where
    # the timelike (1, 0.5) read lightlike in the image.
    tiny = core.Transform(((1e-160, 0.0), (0.0, 1e-160)), core.BranchKind.DERIVED)
    with pytest.raises(ValueError, match=r"^metric entries must be finite, got \(\(inf, 0.0\)"):
        transform_metric(tiny, STANDARD_METRIC)


def test_transform_metric_lambda_preserves_standard_form():
    g = transform_metric(make_lambda(1, 1.0, 0.5), STANDARD_METRIC)
    np.testing.assert_allclose(np.asarray(g.g), np.diag([1.0, -1.0]), atol=1e-14)


def test_transform_metric_l_swaps_signature():
    g = transform_metric(make_l(-1, 1.0, 2.0), STANDARD_METRIC)
    np.testing.assert_allclose(np.asarray(g.g), np.diag([-1.0, 1.0]), atol=1e-14)


def test_transform_metric_identity():
    assert transform_metric(make_lambda(1, 1.0, 0.0), STANDARD_METRIC) == STANDARD_METRIC


def test_transform_metric_matches_numpy_congruence():
    t = make_l(-1, 1.0, 3.3)
    inv = np.linalg.inv(np.asarray(t.m))
    expected = inv.T @ np.asarray(STANDARD_METRIC.g) @ inv
    got = np.asarray(transform_metric(t, STANDARD_METRIC).g)
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_transform_metric_makes_interval_invariant():
    t = make_l(-1, 1.0, 2.0)
    g2 = transform_metric(t, STANDARD_METRIC)
    for d in (TwoVector(2.0, 1.0), TwoVector(0.3, -0.9), TwoVector(1.0, 1.0)):
        before = interval_squared(d, STANDARD_METRIC)
        after = interval_squared(apply(t, d), g2)
        assert after == pytest.approx(before, abs=1e-12)


def test_classify_coordinate_subluminal():
    assert classify_coordinate(TwoVector(2.0, 1.0)).value == 0.5


def test_classify_coordinate_vertical_is_infinite():
    speed = classify_coordinate(TwoVector(0.0, SQRT3))
    assert math.isinf(speed.value)
    assert speed.superluminal


def test_classify_coordinate_light_ray():
    assert classify_coordinate(TwoVector(1.0, 1.0)).value == 1.0


def test_classify_coordinate_rejects_zero_displacement():
    with pytest.raises(DegenerateDisplacementError):
        classify_coordinate(TwoVector(0.0, 0.0))


def test_classify_geometric_worked_case():
    report = classify_geometric(TwoVector(2.0, 1.0), STANDARD_METRIC)
    assert report.coord_speed.value == 0.5
    assert not report.coord_superluminal
    assert report.interval_sq == 3.0
    assert report.causal_class is CausalClass.TIMELIKE


def test_classify_geometric_transformed_worked_case():
    # coordinate-superluminal yet geometrically timelike
    report = classify_geometric(TwoVector(0.0, SQRT3), SWAPPED_METRIC)
    assert math.isinf(report.coord_speed.value)
    assert report.coord_superluminal
    assert report.interval_sq == pytest.approx(3.0, abs=1e-12)
    assert report.causal_class is CausalClass.TIMELIKE


def test_classify_geometric_lightlike():
    report = classify_geometric(TwoVector(1.0, 1.0), STANDARD_METRIC)
    assert report.coord_speed.value == 1.0
    assert not report.coord_superluminal
    assert report.interval_sq == 0.0
    assert report.causal_class is CausalClass.LIGHTLIKE


def test_classify_geometric_spacelike():
    report = classify_geometric(TwoVector(1.0, 3.0), STANDARD_METRIC)
    assert report.coord_superluminal
    assert report.interval_sq == -8.0
    assert report.causal_class is CausalClass.SPACELIKE


def test_measured_displacement_swaps_components():
    assert measured_displacement(TwoVector(0.0, SQRT3)) == TwoVector(SQRT3, 0.0)


def test_measured_displacement_fixes_lightlike():
    assert measured_displacement(TwoVector(0.7, 0.7)) == TwoVector(0.7, 0.7)


def test_measured_light_ray_speed_is_still_one():
    out = apply(make_l(-1, 1.0, 2.0), TwoVector(1.0, 1.0))
    assert classify_coordinate(measured_displacement(out)).value == 1.0


# core's array kernels build each result with augmented assignment.  The old one-line
# expressions, written out here, apply the same operations in the same order, so the
# two agree bit for bit, NaN signs included.

def _expression_mat_vec(m, c1, c2):
    (a, b), (c, d) = m
    return a * c1 + b * c2, c * c1 + d * c2


def _expression_quad_form(g, c1, c2):
    (g11, g12), (g21, g22) = g
    return (g11 * c1 + g12 * c2) * c1 + (g21 * c1 + g22 * c2) * c2


def _expression_form_size(g, c1, c2):
    (g11, g12), (g21, g22) = g
    return (abs(g11) + abs(g12) + abs(g21) + abs(g22)) * (c1 * c1 + c2 * c2)


_KERNELS = pytest.mark.parametrize("kernel, expression", [
    (core.mat_vec, _expression_mat_vec),
    (core.quad_form, _expression_quad_form),
    (core.form_size, _expression_form_size),
], ids=["mat_vec", "quad_form", "form_size"])

#: Signed zeros, subnormals, overflow, infinities and NaNs of both signs.
_EDGES = (0.0, -0.0, 1.0, -1.5, 0.1, 1e308, -1e-300, 5e-324, -5e-324, 1e-310,
          math.inf, -math.inf, math.nan, -math.nan)
_MATRICES = (
    STANDARD_METRIC.g,
    ((1.25, -0.5), (-0.5, 1.25)),
    ((-0.0, 5e-324), (math.inf, -1e-310)),
    ((math.nan, -2.0), (1e308, -math.nan)),
)


def _bits(result):
    """The float64 bit patterns of a kernel result: a float, an array or a pair of them."""
    return np.asarray(result, dtype=np.float64).view(np.uint64)


def _edge_columns():
    """Every ordered pair of _EDGES, as the columns c1 and c2."""
    c1, c2 = np.array(list(product(_EDGES, repeat=2))).T
    return c1.copy(), c2.copy()


@_KERNELS
def test_array_kernels_are_their_expressions_bit_for_bit(kernel, expression):
    c1, c2 = _edge_columns()
    with np.errstate(all="ignore"):
        for m in _MATRICES:
            for x1, x2 in ((c1, c2), (1.0, c2), (c1, -0.0), (c2[::-1], c1)):
                assert np.array_equal(_bits(kernel(m, x1, x2)), _bits(expression(m, x1, x2)))
            for x1, x2 in zip(c1.tolist(), c2.tolist()):
                got = kernel(m, x1, x2)
                assert all(type(x) is float for x in (got if type(got) is tuple else (got,)))
                assert np.array_equal(_bits(got), _bits(expression(m, x1, x2)))


@_KERNELS
def test_array_kernels_leave_their_inputs_alone(kernel, expression):
    c1, c2 = _edge_columns()
    entries = np.linspace(-2.0, 2.0, c1.size)
    saved = [_bits(x).copy() for x in (c1, c2, entries)]
    with np.errstate(all="ignore"):
        for m, x1, x2 in ((_MATRICES[1], c1, c2), (_MATRICES[3], c1, c1), (_MATRICES[1], 1.0, c2),
                          (((entries, 0.5), (-0.5, entries)), c1, c2)):
            for out in (kernel(m, x1, x2) if kernel is core.mat_vec else (kernel(m, x1, x2),)):
                assert not any(np.shares_memory(out, x) for x in (c1, c2, entries))
    assert all(np.array_equal(_bits(x), old) for x, old in zip((c1, c2, entries), saved))


@pytest.mark.parametrize("kernel, arrays", [
    (core.mat_vec, 3), (core.quad_form, 3), (core.form_size, 2),
], ids=["mat_vec", "quad_form", "form_size"])
def test_array_kernels_hold_few_block_sized_arrays(kernel, arrays):
    """numpy reports its buffers to tracemalloc, so this is a byte count.  numpy reuses
    the temporary of a*b + c only for arrays of at least 256 KiB, and a fuzz block of
    verify is 2**14 trials, 128 KiB: the one-line expressions held 4, 4 and 3 arrays."""
    rng = np.random.default_rng(5)
    c1, c2 = rng.uniform(-1.0, 1.0, (2, 1 << 14))
    m = ((1.25, -0.5), (0.75, 2.0))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = kernel(m, c1, c2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    del result
    assert (peak - before) // c1.nbytes <= arrays
