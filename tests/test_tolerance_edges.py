"""Edges of the zero-up-to-roundoff rule, checked against a 50-digit mpmath oracle.

The causal class must not depend on the unit of length, and refit must find
a product's family right up to the light cone, where the fitted velocity
rounds onto the edge of the family's domain.
"""

import math

import mpmath
import pytest

from bilorentz import (
    STANDARD_METRIC,
    BranchKind,
    NotDecomposableError,
    Transform,
    TwoVector,
    apply,
    classify_geometric,
    compose,
    make_l,
    make_lambda,
    refit,
    transform_metric,
)

SCALES = [10.0 ** e for e in (-150, -100, -7, 0, 7, 100, 150)]
FRAMES = {
    "identity": None,
    "l(-1,1,2)": make_l(-1, 1.0, 2.0),
    "boost-rapidity-4": make_lambda(1, 1.0, math.tanh(4.0)),
    # to u = c1 + c2, w = c1 - c2, where the metric is purely off-diagonal
    "null-coordinates": Transform(m=((1.0, 1.0), (1.0, -1.0)), branch=BranchKind.DERIVED),
}


def oracle_class(c1: float, c2: float) -> str:
    with mpmath.workdps(50):
        s2 = mpmath.mpf(c1) ** 2 - mpmath.mpf(c2) ** 2
    return "timelike" if s2 > 0 else "spacelike" if s2 < 0 else "lightlike"


def class_in_frame(frame: str, c1: float, c2: float) -> str:
    """Causal class of (c1, c2) as classified in the coordinates of FRAMES[frame]."""
    d, metric, t = TwoVector(c1, c2), STANDARD_METRIC, FRAMES[frame]
    if t is not None:
        d, metric = apply(t, d), transform_metric(t, STANDARD_METRIC)
    return classify_geometric(d, metric).causal_class.value


def oracle_velocity_sum(u1: float, u2: float) -> float:
    with mpmath.workdps(50):
        u1, u2 = mpmath.mpf(u1), mpmath.mpf(u2)
        return float((u1 + u2) / (1 + u1 * u2))


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("shape", [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (3.0, -3.0)],
                         ids=["timelike", "spacelike", "lightlike", "lightlike-minus"])
@pytest.mark.parametrize("scale", SCALES)
def test_causal_class_does_not_depend_on_the_unit_of_length(scale, shape, frame):
    c1, c2 = shape[0] * scale, shape[1] * scale
    assert class_in_frame(frame, c1, c2) == oracle_class(c1, c2)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("scale", SCALES)
def test_one_ulp_off_the_light_cone_is_lightlike(scale, frame):
    # s2 is then roundoff against the terms it was summed from.
    c2 = math.nextafter(scale, math.inf)
    assert oracle_class(scale, c2) == "spacelike"
    assert class_in_frame(frame, scale, c2) == "lightlike"


def _pairs(v: float):
    """The four family pairings at speed v, with the branch the product must fit."""
    w = 1.0 / v
    return [(make_lambda(1, 1.0, v), make_lambda(-1, 1.0, v), BranchKind.SYMMETRIC_LAMBDA, -1),
            (make_l(1, 1.0, w), make_l(1, 1.0, w), BranchKind.SYMMETRIC_LAMBDA, 1),
            (make_lambda(1, 1.0, v), make_l(-1, 1.0, w), BranchKind.ANTISYMMETRIC_L, -1),
            (make_l(1, 1.0, -w), make_lambda(-1, 1.0, -v), BranchKind.ANTISYMMETRIC_L, -1)]


@pytest.mark.parametrize("v", [1.0 - 1e-3, 1.0 - 1e-6])
def test_refit_near_the_light_cone_matches_the_velocity_sum(v):
    for a, b, branch, tau in _pairs(v):
        fitted = refit(compose(a, b), k=1.0)
        want = oracle_velocity_sum(a.vel, b.vel)
        assert (fitted.branch, fitted.tau, fitted.k) == (branch, tau, 1.0)
        assert abs(fitted.vel - want) <= 1e-9 * abs(want), (a.vel, b.vel)


def test_refit_rejects_a_product_whose_velocity_rounds_to_light_speed():
    for a, b, _, _ in _pairs(1.0 - 1e-9):
        assert abs(oracle_velocity_sum(a.vel, b.vel)) == 1.0
        with pytest.raises(NotDecomposableError):
            refit(compose(a, b), k=1.0)


@pytest.mark.parametrize("k", [-1.0, -1e3, -1e6, -1e12])
@pytest.mark.parametrize("v", [1e-7, 0.5, -3.0, 1e3, -1e6])
@pytest.mark.parametrize("tau", [1, -1])
def test_refit_recovers_symmetric_family_at_large_negative_k(k, v, tau):
    t = make_lambda(tau, k, v)
    fitted = refit(Transform(m=t.m, branch=BranchKind.DERIVED), k=k)
    assert (fitted.branch, fitted.tau, fitted.k) == (t.branch, tau, k)
    assert abs(fitted.vel - v) <= 1e-12 * abs(v)
