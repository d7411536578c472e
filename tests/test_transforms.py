"""Family constructors and matrix-level operations.

numpy is used throughout as the independent brute-force route: products,
inverses and conjugations computed here must agree with the hand-rolled
arithmetic inside the package.
"""

import math
import re

import numpy as np
import pytest

from bilorentz import (
    BranchKind,
    DomainError,
    NotDecomposableError,
    SingularMatrixError,
    Transform,
    TwoVector,
    apply,
    compose,
    inverse,
    make_l,
    make_lambda,
    make_lambda_infinite_limit,
    make_transform,
    parity_conjugate,
    refit,
    swap_decompose,
)

SQRT3 = 1.7320508075688772  # frozen from 50-digit arithmetic


def mat(t):
    return np.asarray(t.m)


def test_lambda_rest_is_identity():
    assert make_lambda(1, 1.0, 0.0).m == ((1.0, 0.0), (0.0, 1.0))


def test_lambda_half_c_entries():
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / SQRT3
    np.testing.assert_allclose(mat(make_lambda(1, 1.0, 0.5)), expected, atol=1e-15)


def test_lambda_tau_flip_negates():
    np.testing.assert_allclose(mat(make_lambda(-1, 1.0, 0.5)),
                               -mat(make_lambda(1, 1.0, 0.5)), atol=0)


def test_lambda_metadata():
    t = make_lambda(1, 1.0, 0.5)
    assert t.branch is BranchKind.SYMMETRIC_LAMBDA
    assert (t.tau, t.k, t.vel) == (1, 1.0, 0.5)


def test_lambda_rejects_boundary():
    with pytest.raises(DomainError):
        make_lambda(1, 1.0, 1.0)


def test_lambda_rejects_bad_tau():
    with pytest.raises(DomainError):
        make_lambda(0, 1.0, 0.5)


@pytest.mark.parametrize("tau", [True, 1.0, -1.0, "1", None], ids=repr)
@pytest.mark.parametrize("make", [
    lambda tau: make_lambda(tau, 1.0, 0.5),
    lambda tau: make_l(tau, 1.0, 2.0),
    lambda tau: make_lambda_infinite_limit(tau, -1.0),
], ids=["lambda", "l", "infinite-limit"])
def test_tau_must_be_the_int_one_or_minus_one(make, tau):
    # True and 1.0 equal 1, but a transform would keep them and write them back.
    with pytest.raises(DomainError, match=f"got {re.escape(repr(tau))}$"):
        make(tau)


def test_lambda_det_is_one_at_k1():
    for v in (-0.9, -0.3, 0.0, 0.5, 0.99):
        assert abs(np.linalg.det(mat(make_lambda(1, 1.0, v))) - 1.0) < 1e-12


def test_l_entries_at_w2():
    expected = np.array([[-1.0, 2.0], [2.0, -1.0]]) / SQRT3
    np.testing.assert_allclose(mat(make_l(-1, 1.0, 2.0)), expected, atol=1e-15)


def test_l_entries_at_negative_w2():
    expected = np.array([[1.0, 2.0], [2.0, 1.0]]) / SQRT3
    np.testing.assert_allclose(mat(make_l(-1, 1.0, -2.0)), expected, atol=1e-15)


def test_l_rejects_subluminal_parameter():
    with pytest.raises(DomainError):
        make_l(-1, 1.0, 0.5)


def test_l_det_is_minus_one_at_k1():
    for w in (-5.0, -1.5, 1.2, 3.0, 80.0):
        assert abs(np.linalg.det(mat(make_l(-1, 1.0, w))) + 1.0) < 1e-12


def test_family_matrices_are_symmetric_toeplitz():
    for t in (make_lambda(-1, 0.5, 0.7), make_l(1, 2.0, 3.0)):
        (a, b), (c, d) = t.m
        assert a == d and b == c


def test_infinite_limit_exact():
    t = make_lambda_infinite_limit(1, -1.0)
    assert t.m == ((0.0, -1.0), (-1.0, 0.0))
    assert math.isinf(t.vel)
    assert t.branch is BranchKind.SYMMETRIC_LAMBDA


def test_infinite_limit_sign_flip():
    assert make_lambda_infinite_limit(-1, -1.0).m == ((0.0, 1.0), (1.0, 0.0))


def test_infinite_limit_general_k():
    np.testing.assert_allclose(mat(make_lambda_infinite_limit(1, -4.0)),
                               [[0.0, -0.5], [-0.5, 0.0]], atol=0)


def test_infinite_limit_matches_large_velocity_construction():
    big = mat(make_lambda(1, -4.0, 1e6))
    np.testing.assert_allclose(big, mat(make_lambda_infinite_limit(1, -4.0)), atol=1e-6)


def test_infinite_limit_rejects_nonnegative_k():
    for k in (1.0, 0.0):
        with pytest.raises(DomainError):
            make_lambda_infinite_limit(1, k)


@pytest.mark.parametrize("k", [math.inf, -math.inf])
def test_constructors_reject_infinite_k(k):
    with pytest.raises(DomainError, match="k must be finite"):
        make_lambda(1, k, 0.5)
    with pytest.raises(DomainError, match="k must be finite"):
        make_l(-1, k, 2.0)
    with pytest.raises(DomainError, match="k must be finite"):
        make_lambda_infinite_limit(1, k)


@pytest.mark.parametrize("make, family, letter, k", [
    (make_lambda, "symmetric", "v", 0.5),
    (make_lambda, "symmetric", "v", -2.0),
    (make_l, "antisymmetric", "w", 2.0),
], ids=["lambda", "lambda-negative-k", "l"])
@pytest.mark.parametrize("u", [1.0, -1.0])
@pytest.mark.parametrize("tau", [1, -1])
def test_family_members_at_unit_velocity_are_refused(make, family, letter, k, u, tau):
    # The gammas accept |u| = 1 for k != 1, where tau * gamma * [[1, -u], [-u, 1]] has det 0.
    with pytest.raises(DomainError, match=rf"^{family} family singular at \|{letter}\| = 1, "
                                          rf"got {letter} = {u} for k = {k}$"):
        make(tau, k, u)


@pytest.mark.parametrize("make, u", [(make_lambda, 1 - 1e-9), (make_lambda, -1 + 1e-9),
                                     (make_l, 1 + 1e-9), (make_l, -1 - 1e-9)])
def test_family_members_next_to_unit_velocity_stay(make, u):
    k = 0.5 if make is make_lambda else 2.0
    (a, b), (c, d) = make(1, k, u).m
    assert a * d - b * c != 0.0


@pytest.mark.parametrize("branch", ["lambda", "l"])
def test_unit_velocity_at_k_one_keeps_the_gammas_refusal(branch):
    with pytest.raises(DomainError, match="family undefined for k"):
        make_transform(branch, 1, 1.0, 1.0)


def test_apply_identity():
    assert apply(make_lambda(1, 1.0, 0.0), TwoVector(3.0, 4.0)) == TwoVector(3.0, 4.0)


def test_apply_keeps_light_ray_on_cone():
    out = apply(make_l(-1, 1.0, 2.0), TwoVector(1.0, 1.0))
    assert out.c1 == pytest.approx(1.0 / SQRT3, abs=1e-15)
    assert out.c1 == out.c2


def test_apply_worked_displacement():
    out = apply(make_l(-1, 1.0, 2.0), TwoVector(2.0, 1.0))
    assert out.c1 == 0.0
    assert out.c2 == pytest.approx(SQRT3, abs=1e-14)


def test_compose_identity():
    ident = make_lambda(1, 1.0, 0.0)
    assert compose(ident, ident).m == ident.m


def test_compose_matches_numpy_product():
    a, b = make_lambda(1, 1.0, 0.3), make_l(-1, 1.0, 2.0)
    np.testing.assert_allclose(mat(compose(a, b)), mat(a) @ mat(b), atol=0)


def test_compose_is_derived_without_metadata():
    prod = compose(make_lambda(1, 1.0, 0.5), make_lambda(1, 1.0, 0.5))
    assert prod.branch is BranchKind.DERIVED
    assert prod.tau is None and prod.k is None and prod.vel is None


def test_compose_adds_velocities_relativistically():
    prod = compose(make_lambda(1, 1.0, 0.5), make_lambda(1, 1.0, 0.5))
    fitted = refit(prod, k=1.0)
    assert fitted.branch is BranchKind.SYMMETRIC_LAMBDA
    assert fitted.vel == pytest.approx(0.8, abs=1e-14)


def test_compose_two_antisymmetric_lands_in_symmetric():
    prod = compose(make_l(-1, 1.0, 2.0), make_l(-1, 1.0, 3.0))
    fitted = refit(prod, k=1.0)
    assert fitted.branch is BranchKind.SYMMETRIC_LAMBDA
    assert fitted.vel == pytest.approx(5.0 / 7.0, abs=1e-14)


def test_inverse_identity():
    ident = make_lambda(1, 1.0, 0.0)
    assert inverse(ident).m == ident.m


def test_inverse_of_l_is_velocity_reversal():
    got = mat(inverse(make_l(-1, 1.0, 2.0)))
    np.testing.assert_allclose(got, mat(make_l(-1, 1.0, -2.0)), atol=1e-12)


def test_inverse_of_lambda_is_velocity_reversal():
    got = mat(inverse(make_lambda(1, 1.0, 0.5)))
    np.testing.assert_allclose(got, mat(make_lambda(1, 1.0, -0.5)), atol=1e-12)


def test_inverse_matches_numpy():
    t = make_l(-1, 1.0, 3.7)
    np.testing.assert_allclose(mat(inverse(t)), np.linalg.inv(mat(t)), atol=1e-14)


def test_inverse_rejects_singular_matrix():
    degenerate = Transform(m=((1.0, 1.0), (1.0, 1.0)), branch=BranchKind.DERIVED)
    with pytest.raises(SingularMatrixError):
        inverse(degenerate)


def test_inverse_accepts_well_conditioned_small_scale_matrix():
    # det is about 3e-13, but the rows are far from parallel
    t = make_lambda(1, -1e13, 0.5)
    np.testing.assert_allclose(mat(inverse(t)), np.linalg.inv(mat(t)), rtol=1e-12)


def test_parity_conjugate_reverses_symmetric_velocity():
    got = mat(parity_conjugate(make_lambda(1, 1.0, 0.5)))
    np.testing.assert_allclose(got, mat(make_lambda(1, 1.0, -0.5)), atol=0)


def test_parity_conjugate_identity():
    ident = make_lambda(1, 1.0, 0.0)
    assert parity_conjugate(ident).m == ident.m


def test_parity_conjugate_breaks_antisymmetric_covariance():
    got = mat(parity_conjugate(make_l(-1, 1.0, 2.0)))
    np.testing.assert_allclose(got, -mat(make_l(-1, 1.0, -2.0)), atol=0)
    # the unsigned covariance rule fails outright for this branch
    assert np.max(np.abs(got - mat(make_l(-1, 1.0, -2.0)))) > 1.0


def test_parity_conjugate_matches_numpy():
    p = np.diag([1.0, -1.0])
    t = make_l(-1, 1.0, 2.5)
    np.testing.assert_allclose(mat(parity_conjugate(t)), p @ mat(t) @ p, atol=0)


def test_swap_decompose_positive_w():
    lam = swap_decompose(make_l(-1, 1.0, 2.0))
    assert lam.branch is BranchKind.SYMMETRIC_LAMBDA
    assert lam.vel == 0.5
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(swap @ mat(lam), mat(make_l(-1, 1.0, 2.0)), atol=1e-14)


def test_swap_decompose_negative_w():
    lam = swap_decompose(make_l(-1, 1.0, -2.0))
    assert lam.vel == -0.5


def test_swap_decompose_rejects_symmetric_branch():
    with pytest.raises(NotDecomposableError):
        swap_decompose(make_lambda(1, 1.0, 0.5))


def test_swap_decompose_rejects_wrong_family_parameters():
    with pytest.raises(NotDecomposableError):
        swap_decompose(make_l(1, 1.0, 2.0))  # tau = +1
    with pytest.raises(NotDecomposableError):
        swap_decompose(make_l(-1, 2.0, 2.0))  # k = 2


def test_refit_recovers_antisymmetric_family():
    bare = Transform(m=make_l(-1, 1.0, 2.0).m, branch=BranchKind.DERIVED)
    fitted = refit(bare, k=1.0)
    assert fitted.branch is BranchKind.ANTISYMMETRIC_L
    assert fitted.tau == -1
    assert fitted.vel == pytest.approx(2.0, abs=1e-12)


def test_refit_rejects_non_family_matrix():
    with pytest.raises(NotDecomposableError):
        refit(Transform(m=((2.0, 0.0), (0.0, 1.0)), branch=BranchKind.DERIVED))


@pytest.mark.parametrize("m", [((2.0, 0.0), (0.0, 2.0)), ((1.0, -1.0), (-1.0, 1.0))],
                         ids=["in-no-family", "k-vel2-is-1"])
def test_refit_rejects_family_form_outside_both_families(m):
    # [[2, 0], [0, 2]] has vel 0 but is not the identity; [[1, -1], [-1, 1]] has
    # k*vel**2 = 1, on the boundary of both domains.
    with pytest.raises(NotDecomposableError, match="does not fit either family at k = 1.0"):
        refit(Transform(m=m, branch=BranchKind.DERIVED), k=1.0)


@pytest.mark.parametrize("make, vel", [(make_lambda, 0.5), (make_lambda, -0.5),
                                       (make_l, 2.0), (make_l, -2.0)])
@pytest.mark.parametrize("tau", [1, -1])
def test_refit_recovers_each_family_tau_and_velocity_sign(make, tau, vel):
    t = make(tau, 1.0, vel)
    assert refit(Transform(m=t.m, branch=BranchKind.DERIVED), k=1.0) == t


@pytest.mark.parametrize("branch, make, vel", [("lambda", make_lambda, 0.5),
                                               ("l", make_l, 2.0)])
@pytest.mark.parametrize("tau", [1, -1])
def test_make_transform_dispatches_on_branch(branch, make, vel, tau):
    assert make_transform(branch, tau, 1.0, vel) == make(tau, 1.0, vel)


def test_make_transform_infinite_velocity():
    assert make_transform("lambda", -1, -4.0, math.inf) == make_lambda_infinite_limit(-1, -4.0)
    with pytest.raises(DomainError):
        make_transform("l", 1, 1.0, math.inf)


def test_make_transform_rejects_unknown_branch():
    with pytest.raises(DomainError, match="got 'L'"):
        make_transform("L", 1, 1.0, 0.5)


def test_two_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        TwoVector(math.nan, 0.0)
    with pytest.raises(ValueError):
        TwoVector(0.0, math.inf)
