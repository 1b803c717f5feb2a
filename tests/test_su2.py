"""
Tests for the quaternion realization of SU(2): group arithmetic, Euler
coordinates, geodesic distance, mid-points, square roots and the squaring
jacobian of the hemisphere grids.  Expected values come from independent constructions built in this
file: the literal 4x4 left-multiplication matrix of quaternion algebra, 2x2
matrix exponentials of the Pauli generators, and one-dimensional radial
integrals of the round 3-sphere measure.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import expm

from groupwigner import grids, su2
from groupwigner.errors import AntipodalPair, DomainError

RNG_SEED = 20240811

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _left_matrix(a):
    """Left multiplication by the quaternion ``a`` as a literal 4x4 matrix."""
    a0, a1, a2, a3 = a
    return np.array(
        [
            [a0, -a1, -a2, -a3],
            [a1, a0, -a3, a2],
            [a2, a3, a0, -a1],
            [a3, -a2, a1, a0],
        ]
    )


def _matrix_from_euler(alpha, beta, gamma):
    """zyz Euler product built from Pauli-matrix exponentials."""
    return (
        expm(-0.5j * alpha * SIGMA_Z)
        @ expm(-0.5j * beta * SIGMA_Y)
        @ expm(-0.5j * gamma * SIGMA_Z)
    )


def test_identity_is_neutral():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 5)
    e = su2.identity()
    assert_allclose(su2.mul(e, a), a, atol=1e-15)
    assert_allclose(su2.mul(a, e), a, atol=1e-15)


def test_mul_matches_left_matrix_frozen():
    a = np.array([0.5, 0.5, 0.5, 0.5])
    b = np.array([0.6, -0.8, 0.0, 0.0])
    assert_allclose(su2.mul(a, b), _left_matrix(a) @ b, atol=1e-15)
    assert_allclose(su2.mul(b, a), _left_matrix(b) @ a, atol=1e-15)


def test_mul_matches_left_matrix_random():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 50)
    b = su2.random_elements(rng, 50)
    prod = su2.mul(a, b)
    for i in range(50):
        assert_allclose(prod[i], _left_matrix(a[i]) @ b[i], atol=1e-14)


def test_to_matrix_is_homomorphism():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 20)
    b = su2.random_elements(rng, 20)
    assert_allclose(
        su2.to_matrix(su2.mul(a, b)),
        su2.to_matrix(a) @ su2.to_matrix(b),
        atol=1e-14,
    )


def test_to_matrix_special_unitary():
    rng = np.random.default_rng(RNG_SEED)
    u = su2.to_matrix(su2.random_elements(rng, 20))
    eye = np.broadcast_to(np.eye(2), u.shape)
    assert_allclose(u @ np.conj(u).transpose(0, 2, 1), eye, atol=1e-14)
    assert_allclose(np.linalg.det(u), np.ones(20), atol=1e-14)


def test_inverse():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 20)
    e = np.broadcast_to(su2.identity(), a.shape)
    assert_allclose(su2.mul(a, su2.inverse(a)), e, atol=1e-14)
    assert_allclose(su2.mul(su2.inverse(a), a), e, atol=1e-14)


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [
        (0.0, 0.0, 0.0),
        (0.3, 0.7, 1.1),
        (2.9, 3.1, 5.2),
        (5.5, 0.05, 11.9),
        (1.0, np.pi, 2.0),
    ],
)
def test_from_euler_matches_pauli_exponentials(alpha, beta, gamma):
    got = su2.to_matrix(su2.from_euler(alpha, beta, gamma))
    assert_allclose(got, _matrix_from_euler(alpha, beta, gamma), atol=1e-13)


def test_euler_round_trip_random():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 200)
    eul = su2.to_euler(a)
    assert np.all(eul[:, 0] >= 0) and np.all(eul[:, 0] < 2 * np.pi)
    assert np.all(eul[:, 1] >= 0) and np.all(eul[:, 1] <= np.pi)
    assert np.all(eul[:, 2] >= 0) and np.all(eul[:, 2] < 4 * np.pi)
    back = su2.from_euler(eul[:, 0], eul[:, 1], eul[:, 2])
    assert_allclose(back, a, atol=1e-12)


@pytest.mark.parametrize(
    "a",
    [
        [1.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -1.0],
        [np.cos(1.2), 0.0, 0.0, np.sin(1.2)],
        [-np.cos(0.4), 0.0, 0.0, np.sin(0.4)],
    ],
)
def test_euler_round_trip_gimbal_circles(a):
    a = np.asarray(a, dtype=float)
    eul = su2.to_euler(a)
    back = su2.from_euler(eul[0], eul[1], eul[2])
    assert_allclose(back, a, atol=1e-12)


def test_distance_bi_invariant():
    rng = np.random.default_rng(RNG_SEED)
    a, b, g = su2.random_elements(rng, 3)
    d = su2.distance(a, b)
    assert_allclose(su2.distance(su2.mul(g, a), su2.mul(g, b)), d, atol=1e-13)
    assert_allclose(su2.distance(su2.mul(a, g), su2.mul(b, g)), d, atol=1e-13)


def test_midpoint_halves_the_geodesic():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 100)
    b = su2.random_elements(rng, 100)
    s = su2.midpoint(a, b)
    assert_allclose(np.linalg.norm(s, axis=-1), np.ones(100), atol=1e-14)
    half = su2.distance(a, b) / 2.0
    assert_allclose(su2.distance(a, s), half, atol=1e-12)
    assert_allclose(su2.distance(s, b), half, atol=1e-12)


def test_midpoint_symmetry_and_idempotence():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 50)
    b = su2.random_elements(rng, 50)
    assert_allclose(su2.midpoint(a, b), su2.midpoint(b, a), atol=1e-15)
    assert_allclose(su2.midpoint(a, a), a, atol=1e-15)


def test_midpoint_two_sided_equivariance():
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 30)
    b = su2.random_elements(rng, 30)
    g = su2.random_elements(rng, 1)[0]
    s = su2.midpoint(a, b)
    assert_allclose(
        su2.midpoint(su2.mul(g, a), su2.mul(g, b)), su2.mul(g, s), atol=1e-13
    )
    assert_allclose(
        su2.midpoint(su2.mul(a, g), su2.mul(b, g)), su2.mul(s, g), atol=1e-13
    )


def test_half_element_commutes_with_its_argument():
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 50)
    e = np.broadcast_to(su2.identity(), g.shape)
    s0 = su2.midpoint(e, g)
    assert_allclose(su2.mul(s0, g), su2.mul(g, s0), atol=1e-14)


def test_midpoint_antipodal_raises():
    a = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(AntipodalPair):
        su2.midpoint(a, -a)
    with pytest.raises(AntipodalPair):
        su2.group_sqrt(np.array([-1.0, 0.0, 0.0, 0.0]))


def test_group_sqrt_frozen():
    h = math.sqrt(0.5)
    assert_allclose(
        su2.group_sqrt(np.array([0.0, 1.0, 0.0, 0.0])),
        np.array([h, h, 0.0, 0.0]),
        atol=1e-15,
    )


def test_group_sqrt_squares_back():
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 100)
    k = su2.group_sqrt(g)
    assert np.all(k[:, 0] > 0)
    assert_allclose(su2.mul(k, k), g, atol=1e-12)
    # k halves the geodesic angle from the identity
    e = su2.identity()
    assert_allclose(su2.distance(e, k), su2.distance(e, g) / 2, atol=1e-6)


@pytest.mark.parametrize(
    "profile",
    [
        lambda chi: np.cos(chi),
        lambda chi: np.cos(chi) ** 3,
        lambda chi: np.exp(np.cos(chi)),
        lambda chi: 1.0 / (2.0 + np.cos(chi)),
    ],
)
def test_squaring_jacobian_radial_pushforward(profile):
    # For a class function f with radial profile F (chord angle chi from the
    # identity), the normalized round measure gives
    #     int f dg = (2/pi) int_0^pi sin(chi)^2 F(chi) dchi.
    # Substituting chi -> 2 chi shows the jacobian 8*cos(chi)^2 = 8*k0^2
    # converts the half-range integral of F(2 chi) into the full one.
    lhs = quad(
        lambda chi: (2 / np.pi)
        * np.sin(chi) ** 2
        * 8.0
        * np.cos(chi) ** 2
        * profile(2 * chi),
        0.0,
        np.pi / 2,
        epsabs=1e-13,
        epsrel=1e-12,
    )[0]
    rhs = quad(
        lambda chi: (2 / np.pi) * np.sin(chi) ** 2 * profile(chi),
        0.0,
        np.pi,
        epsabs=1e-13,
        epsrel=1e-12,
    )[0]
    assert_allclose(lhs, rhs, atol=1e-10)
    # and the pointwise jacobian used in that derivation is what a hemisphere
    # grid carries: 8*k0^2 at a node with chord angle chi has k0 = cos(chi)
    grid = grids.hemisphere_grid(7, 4, 8)
    chi = su2.distance(su2.identity(), grid.nodes)
    assert_allclose(grid.jacobian, 8.0 * np.cos(chi) ** 2, atol=1e-14)


def test_random_elements_deterministic_and_uniform():
    a = su2.random_elements(np.random.default_rng(11), 1000)
    b = su2.random_elements(np.random.default_rng(11), 1000)
    assert np.array_equal(a, b)
    assert a.shape == (1000, 4)
    assert_allclose(np.linalg.norm(a, axis=-1), np.ones(1000), atol=1e-14)
    c = su2.random_elements(np.random.default_rng(12), 1000)
    assert not np.array_equal(a, c)
    # componentwise means vanish for the round measure
    assert np.max(np.abs(a.mean(axis=0))) < 0.1


def test_as_elements_accepts_unit_and_rejects_the_rest():
    g = su2.random_elements(np.random.default_rng(3), 5)
    assert_allclose(su2._as_elements(g.tolist()), g, atol=0)
    su2._as_elements((1.0 + 0.9 * su2._UNIT_TOL) * g)
    for bad in (
        (1.0 + 1.1 * su2._UNIT_TOL) * g,
        np.where(np.arange(4) == 2, np.nan, g),
        np.where(np.arange(4) == 0, -np.inf, g),
        g[:, :3],
    ):
        with pytest.raises(DomainError):
            su2._as_elements(bad)
