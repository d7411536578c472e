"""Property-based invariants for the transformation families."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from bilorentz import (
    STANDARD_METRIC,
    TwoVector,
    apply,
    classify_coordinate,
    classify_geometric,
    gamma_antisymmetric,
    gamma_symmetric,
    interval_squared,
    k_constant,
    make_l,
    make_lambda,
    measured_displacement,
    transform_metric,
)

speeds = st.floats(min_value=-0.9999, max_value=0.9999, allow_nan=False)
w_magnitudes = st.floats(min_value=1.0001, max_value=1e4, allow_nan=False)
signs = st.sampled_from([1.0, -1.0])
coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
#: One length unit per example, 1e-100 to 1e100, so both coordinates share a scale.
units = st.integers(min_value=-100, max_value=100).map(lambda e: 10.0 ** e)


@given(k=st.floats(0.25, 1.0), v=st.floats(0.01, 0.9))
def test_gamma_symmetric_is_exactly_even(k, v):
    assert gamma_symmetric(k, v) == gamma_symmetric(k, -v)


@given(k=st.floats(0.25, 1.0), magnitude=w_magnitudes, sign=signs)
def test_gamma_antisymmetric_is_exactly_odd(k, magnitude, sign):
    w = magnitude * sign
    assume(k * w * w > 1.0)
    assert gamma_antisymmetric(k, -w) == -gamma_antisymmetric(k, w)


@given(k=st.sampled_from([-1.0, -0.5, 0.5, 1.0]), v=st.floats(0.05, 0.9))
def test_k_recovery_from_symmetric_pair(k, v):
    recovered = k_constant(gamma_symmetric(k, v), gamma_symmetric(k, -v), v)
    assert abs(recovered - k) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(v=speeds, c1=coords, c2=coords)
def test_interval_invariance_symmetric_branch(v, c1, c2):
    d = TwoVector(c1, c2)
    t = make_lambda(1, 1.0, v)
    before = interval_squared(d, STANDARD_METRIC)
    after = interval_squared(apply(t, d), transform_metric(t, STANDARD_METRIC))
    assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


@settings(max_examples=200, deadline=None)
@given(magnitude=w_magnitudes, sign=signs, c1=coords, c2=coords)
def test_interval_invariance_antisymmetric_branch(magnitude, sign, c1, c2):
    d = TwoVector(c1, c2)
    t = make_l(-1, 1.0, magnitude * sign)
    before = interval_squared(d, STANDARD_METRIC)
    after = interval_squared(apply(t, d), transform_metric(t, STANDARD_METRIC))
    assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


@given(v=speeds, a=st.floats(min_value=0.01, max_value=10.0), sign=signs, cone=signs)
def test_light_cone_preserved_by_symmetric_branch(v, a, sign, cone):
    d = TwoVector(a * sign, a * sign * cone)
    out = apply(make_lambda(1, 1.0, v), d)
    assert abs(abs(out.c1) - abs(out.c2)) <= 1e-12


@given(magnitude=w_magnitudes, sign=signs, a=st.floats(min_value=0.01, max_value=10.0), cone=signs)
def test_light_cone_preserved_by_antisymmetric_branch(magnitude, sign, a, cone):
    d = TwoVector(a, a * cone)
    out = apply(make_l(-1, 1.0, magnitude * sign), d)
    assert abs(abs(out.c1) - abs(out.c2)) <= 1e-12


@given(v=speeds, magnitude=w_magnitudes, sign=signs)
def test_measured_speed_stays_subluminal(v, magnitude, sign):
    t = make_l(-1, 1.0, magnitude * sign)
    raw = apply(t, TwoVector(1.0, v))
    measured = measured_displacement(raw)
    assert classify_coordinate(measured).value < 1.0


@settings(max_examples=200, deadline=None)
@given(c1=coords, c2=coords, unit=units, magnitude=w_magnitudes, sign=signs)
def test_causal_class_is_absolute(c1, c2, unit, magnitude, sign):
    d = TwoVector(c1 * unit, c2 * unit)
    size = d.c1 * d.c1 + d.c2 * d.c2
    assume(size > 1e-290)  # squares stay normal floats: the stated domain ends at 1e-150
    s = interval_squared(d, STANDARD_METRIC)
    assume(abs(s) > 1e-6 * size)  # stay clear of the lightlike tolerance band
    t = make_l(-1, 1.0, magnitude * sign)
    before = classify_geometric(d, STANDARD_METRIC)
    after = classify_geometric(apply(t, d), transform_metric(t, STANDARD_METRIC))
    assert before.causal_class is after.causal_class


# The absolute 1e-12 gap grows like gamma**2 as |w| -> 1, so these stop at 1.01.
@given(magnitude=st.floats(min_value=1.01, max_value=1e4), sign=signs)
def test_swap_decomposition_identity(magnitude, sign):
    w = magnitude * sign
    lam = np.asarray(make_lambda(1, 1.0, 1.0 / w).m)
    ell = np.asarray(make_l(-1, 1.0, w).m)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(swap @ lam - ell)) <= 1e-12


@given(magnitude=st.floats(min_value=1.01, max_value=1e4), sign=signs)
def test_inverse_law_identity(magnitude, sign):
    w = magnitude * sign
    prod = np.asarray(make_l(-1, 1.0, w).m) @ np.asarray(make_l(-1, 1.0, -w).m)
    assert np.max(np.abs(prod - np.eye(2))) <= 1e-12
