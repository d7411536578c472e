"""Gamma factors for the two transformation families."""

import math

import pytest

from bilorentz import (
    DomainError,
    gamma_antisymmetric,
    gamma_symmetric,
    k_constant,
    make_l,
    make_lambda,
)

# frozen from 50-digit arithmetic: 2/sqrt(3) and 1/sqrt(3)
TWO_OVER_SQRT3 = 1.1547005383792515
ONE_OVER_SQRT3 = 0.5773502691896257


def test_symmetric_rest_value():
    assert gamma_symmetric(1.0, 0.0) == 1.0


def test_symmetric_half_c():
    assert gamma_symmetric(1.0, 0.5) == pytest.approx(TWO_OVER_SQRT3, abs=1e-15)


@pytest.mark.parametrize("make, k, u", [
    (make_lambda, 1.0, 0.5), (make_lambda, 1.0, -0.3), (make_lambda, 0.25, 1.9),
    (make_lambda, 4.0, 0.0), (make_lambda, -1.0, 10.0), (make_lambda, -4.0, -0.7),
    (make_l, 1.0, 2.0), (make_l, 1.0, -1.5), (make_l, 0.25, 3.0), (make_l, 4.0, -0.6),
])
def test_tau_negates_every_entry(make, k, u):
    # tau lives in the constructors alone: tau = -1 is tau = +1 with each entry negated.
    plus, minus = make(1, k, u).m, make(-1, k, u).m
    assert [[(-x).hex() for x in row] for row in plus] == [[x.hex() for x in row] for row in minus]


def test_symmetric_domain_boundary_excluded():
    with pytest.raises(DomainError):
        gamma_symmetric(1.0, 1.0)


def test_symmetric_rejects_infinite_velocity():
    # the analytic limit has its own constructor; gamma itself refuses inf
    with pytest.raises(DomainError):
        gamma_symmetric(-1.0, math.inf)


def test_symmetric_is_exactly_even():
    for v in (0.1, 0.37, 0.99):
        assert gamma_symmetric(1.0, v) == gamma_symmetric(1.0, -v)


def test_symmetric_negative_k_has_no_speed_limit():
    assert gamma_symmetric(-1.0, 10.0) == pytest.approx(1.0 / math.sqrt(101.0), abs=1e-15)


def test_antisymmetric_value():
    assert gamma_antisymmetric(1.0, 2.0) == pytest.approx(ONE_OVER_SQRT3, abs=1e-15)


def test_antisymmetric_is_exactly_odd():
    for w in (1.5, 2.0, 40.0):
        assert gamma_antisymmetric(1.0, -w) == -gamma_antisymmetric(1.0, w)


def test_antisymmetric_domain():
    with pytest.raises(DomainError):
        gamma_antisymmetric(1.0, 1.0)  # k*w**2 - 1 = 0
    for k, w in ((1.0, 0.0), (1.0, -0.0), (-1.0, 0.0)):  # k*0**2 = 0 for any finite k
        with pytest.raises(DomainError, match=r"k\*w\*\*2 = -?0\.0 <= 1"):
            gamma_antisymmetric(k, w)
    with pytest.raises(DomainError):
        gamma_antisymmetric(-1.0, 2.0)  # negative k never satisfies k*w**2 > 1


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_gammas_reject_non_finite_k(k):
    # An infinite k would give gamma = 0, hence an all-zero transform.
    with pytest.raises(DomainError, match="k must be finite"):
        gamma_symmetric(k, 0.5)
    with pytest.raises(DomainError, match="k must be finite"):
        gamma_antisymmetric(k, 2.0)


@pytest.mark.parametrize("gamma, k, v", [
    (gamma_symmetric, -1.0, 1e300), (gamma_symmetric, -1e300, 1e10),
    (gamma_antisymmetric, 1.0, 1e200), (gamma_antisymmetric, 0.25, -1e300),
    (gamma_antisymmetric, 1.0, math.inf), (gamma_symmetric, 0.0, math.nan),
])
def test_gammas_reject_a_non_finite_k_v2(gamma, k, v):
    # An overflowing k*v**2 would give gamma = 0, hence an all-zero transform.
    with pytest.raises(DomainError, match=r"k\*[vw]\*\*2 must be finite"):
        gamma(k, v)


def test_k_constant_recovers_unity_from_symmetric_pair():
    pair = (gamma_symmetric(1.0, 0.5), gamma_symmetric(1.0, -0.5))
    assert k_constant(pair[0], pair[1], 0.5) == pytest.approx(1.0, abs=1e-12)


def test_k_constant_recovers_unity_from_antisymmetric_pair():
    pair = (gamma_antisymmetric(1.0, 2.0), gamma_antisymmetric(1.0, -2.0))
    assert k_constant(pair[0], pair[1], 2.0) == pytest.approx(1.0, abs=1e-12)


def test_k_constant_galilean_case():
    assert k_constant(1.0, 1.0, 0.5) == 0.0


def test_k_constant_rejects_degenerate_inputs():
    with pytest.raises(DomainError):
        k_constant(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        k_constant(0.0, 1.0, 0.5)
