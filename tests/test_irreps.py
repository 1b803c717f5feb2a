"""
Tests for the irreducible representation matrices and Clebsch-Gordan algebra.
Independent references built in this file: matrix exponentials of literal
angular-momentum ladder matrices, hand-written spin-1/2 and spin-1 rotation
matrices, the standard coupling tables for 1/2 x 1/2 and 1 x 1/2 and 1 x 1,
and the closed-form little-d on scipy's Jacobi polynomials, against which
the production little-d matrices are property-tested at large labels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.special import eval_jacobi

from groupwigner import irreps, su2
from groupwigner.errors import DomainError

RNG_SEED = 20240812


def _ladder_jy(two_j):
    """The angular-momentum generator J_y in the descending-m basis, built
    from the raising-operator matrix elements sqrt(j(j+1) - m(m+1))."""
    j = two_j / 2.0
    dim = two_j + 1
    jp = np.zeros((dim, dim))
    for col, two_m in enumerate(irreps.two_m_values(two_j)):
        m = two_m / 2.0
        if m + 1.0 <= j:
            jp[col - 1, col] = math.sqrt(j * (j + 1) - m * (m + 1))
    return (jp - jp.T) / 2j


def test_irrep_dim_and_two_m_values():
    assert irreps.irrep_dim(0) == 1
    assert irreps.irrep_dim(5) == 6
    assert np.array_equal(irreps.two_m_values(3), [3, 1, -1, -3])
    assert np.array_equal(irreps.two_m_values(0), [0])


def test_little_d_half_frozen():
    beta = 0.8
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    expected = np.array([[c, -s], [s, c]])
    assert_allclose(irreps.little_d_matrix(1, beta), expected, atol=1e-15)


def test_little_d_one_frozen():
    beta = 1.3
    cb, sb = np.cos(beta), np.sin(beta)
    r = 1.0 / math.sqrt(2.0)
    expected = np.array(
        [
            [(1 + cb) / 2, -r * sb, (1 - cb) / 2],
            [r * sb, cb, -r * sb],
            [(1 - cb) / 2, r * sb, (1 + cb) / 2],
        ]
    )
    assert_allclose(irreps.little_d_matrix(2, beta), expected, atol=1e-14)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("beta", [0.0, 0.4, 1.7, 2.9, np.pi])
def test_little_d_matches_generator_exponential(two_j, beta):
    got = irreps.little_d_matrix(two_j, beta)
    reference = expm(-1j * beta * _ladder_jy(two_j))
    assert_allclose(got, reference.real, atol=1e-12)
    assert np.max(np.abs(reference.imag)) < 1e-12


def test_little_d_symmetries():
    beta = 0.9
    for two_j in (2, 3, 5):
        d = irreps.little_d_matrix(two_j, beta)
        tm = irreps.two_m_values(two_j)
        for i, two_m in enumerate(tm):
            for k, two_mp in enumerate(tm):
                sign = (-1.0) ** ((two_m - two_mp) // 2)
                assert_allclose(d[i, k], sign * d[k, i], atol=1e-13)


def _little_d(two_j, two_m, two_mp, beta):
    """Closed-form ``d^j_{m m'}(beta)``.  In the sector ``m' >= |m|`` it is

    ``sqrt[(j+m')!(j-m')! / ((j+m)!(j-m)!)] (sin b/2)^(m'-m) (cos b/2)^(m'+m)
    P^{(m'-m, m'+m)}_{j-m'}(cos b)``,

    and the symmetries ``d_{m m'} = (-1)^{m - m'} d_{m' m} = d_{-m', -m}``
    carry every other entry into it."""
    sign = (-1.0) ** ((two_m - two_mp) // 2)
    for m, mp, s in (
        (two_m, two_mp, 1.0), (-two_mp, -two_m, 1.0),
        (two_mp, two_m, sign), (-two_m, -two_mp, sign),
    ):
        if mp >= abs(m):
            break
    ln_fac = 0.5 * (
        math.lgamma((two_j + mp) // 2 + 1) + math.lgamma((two_j - mp) // 2 + 1)
        - math.lgamma((two_j + m) // 2 + 1) - math.lgamma((two_j - m) // 2 + 1)
    )
    a, b = (mp - m) // 2, (mp + m) // 2
    beta = np.asarray(beta, dtype=float)
    jacobi = eval_jacobi((two_j - mp) // 2, a, b, np.cos(beta))
    return s * math.exp(ln_fac) * np.sin(beta / 2) ** a * np.cos(beta / 2) ** b * jacobi


# beta anywhere in [0, pi], with extra weight on the ends, where the
# closed form's sin/cos powers and the eigenphases are most delicate
BETAS = st.one_of(
    st.sampled_from([0.0, np.pi]),
    st.floats(0.0, 1e-7),
    st.floats(np.pi - 1e-7, np.pi),
    st.floats(0.0, np.pi),
)


def _unit(q):
    q = np.asarray(q)
    return q / np.linalg.norm(q)


# unit quaternions, including the gimbal circles beta = 0 and beta = pi
ELEMENTS = st.one_of(
    st.sampled_from(
        [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
         (0.0, 0.0, 1.0, 0.0), (-1.0, 0.0, 0.0, 0.0)]
    ),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 1e-3
    ),
).map(_unit)


@settings(max_examples=30, deadline=None)
@given(
    two_j=st.integers(0, 160),
    betas=st.lists(BETAS, min_size=1, max_size=4),
    data=st.data(),
)
def test_little_d_matrix_matches_closed_form(two_j, betas, data):
    # one drawn row and one drawn column against the closed form
    d = irreps.little_d_matrix(two_j, betas)
    tm = irreps.two_m_values(two_j)
    i = data.draw(st.integers(0, two_j), label="row")
    k = data.draw(st.integers(0, two_j), label="column")
    for n in range(two_j + 1):
        for row, col in ((i, n), (n, k)):
            want = _little_d(two_j, int(tm[row]), int(tm[col]), betas)
            assert_allclose(d[:, row, col], want, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(two_j=st.integers(0, 160), betas=st.lists(BETAS, min_size=1, max_size=4))
def test_little_d_matrix_orthogonal(two_j, betas):
    d = irreps.little_d_matrix(two_j, betas)
    eye = np.broadcast_to(np.eye(two_j + 1), d.shape)
    assert_allclose(d @ d.transpose(0, 2, 1), eye, rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(two_j=st.integers(80, 120), g1=ELEMENTS, g2=ELEMENTS)
def test_dmatrix_unitary_homomorphism_at_large_labels(two_j, g1, g2):
    d1, d2 = irreps.dmatrix(two_j, g1), irreps.dmatrix(two_j, g2)
    eye = np.eye(two_j + 1)
    assert_allclose(d1 @ d1.conj().T, eye, rtol=0, atol=1e-11)
    assert_allclose(
        irreps.dmatrix(two_j, su2.mul(g1, g2)), d1 @ d2, rtol=0, atol=1e-11
    )


@pytest.mark.parametrize("two_j", [-1, -2])
def test_negative_two_j_raises_domain_error(two_j):
    with pytest.raises(DomainError):
        irreps.dmatrix(two_j, su2.identity())
    with pytest.raises(DomainError):
        irreps.little_d_matrix(two_j, 0.5)
    with pytest.raises(DomainError):
        irreps.character(two_j, su2.identity())


@pytest.mark.parametrize(
    "g",
    [
        3.0 * su2.identity(),
        2.0 * su2.identity(),
        [np.nan, 0.0, 0.0, 0.0],
        [np.inf, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
    ],
    ids=["3e", "2e", "nan", "inf", "last-axis-3"],
)
def test_dmatrix_rejects_non_elements(g):
    # D^j is defined on unit quaternions only: a scaled identity used to
    # return D(e) and a NaN element a NaN matrix
    with pytest.raises(DomainError):
        irreps.dmatrix(1, g)


def test_dmatrix_half_equals_defining_matrix():
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 25)
    assert_allclose(irreps.dmatrix(1, g), su2.to_matrix(g), atol=1e-13)


def test_dmatrix_identity():
    for two_j in range(5):
        assert_allclose(
            irreps.dmatrix(two_j, su2.identity()), np.eye(two_j + 1), atol=1e-14
        )


@pytest.mark.parametrize("two_j", [1, 2, 3, 5])
def test_dmatrix_homomorphism_and_unitarity(two_j):
    rng = np.random.default_rng(RNG_SEED)
    a = su2.random_elements(rng, 10)
    b = su2.random_elements(rng, 10)
    da, db = irreps.dmatrix(two_j, a), irreps.dmatrix(two_j, b)
    assert_allclose(irreps.dmatrix(two_j, su2.mul(a, b)), da @ db, atol=1e-12)
    eye = np.broadcast_to(np.eye(two_j + 1), da.shape)
    assert_allclose(da @ np.conj(da).transpose(0, 2, 1), eye, atol=1e-12)


def test_dmatrix_matches_euler_generator_product():
    alpha, beta, gamma = 1.1, 0.6, 2.7
    g = su2.from_euler(alpha, beta, gamma)
    for two_j in (1, 2, 3, 4):
        jy = _ladder_jy(two_j)
        jz = np.diag(irreps.two_m_values(two_j) / 2.0).astype(complex)
        reference = (
            expm(-1j * alpha * jz) @ expm(-1j * beta * jy) @ expm(-1j * gamma * jz)
        )
        assert_allclose(irreps.dmatrix(two_j, g), reference, atol=1e-12)


def test_character_frozen_and_trace():
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 15)
    for two_j in range(6):
        assert_allclose(
            irreps.character(two_j, su2.identity()), two_j + 1.0, atol=1e-14
        )
        tr = np.trace(irreps.dmatrix(two_j, g), axis1=-2, axis2=-1)
        assert_allclose(irreps.character(two_j, g), tr.real, atol=1e-12)
        assert np.max(np.abs(tr.imag)) < 1e-12


def test_character_class_invariance_and_recurrence():
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 10)
    h = su2.random_elements(rng, 1)[0]
    conj = su2.mul(su2.mul(h, g), su2.inverse(h))
    for two_j in range(5):
        assert_allclose(
            irreps.character(two_j, conj), irreps.character(two_j, g), atol=1e-12
        )
    # chi_1 * chi_t = chi_{t+1} + chi_{t-1} (doubled labels)
    for t in range(1, 5):
        assert_allclose(
            irreps.character(1, g) * irreps.character(t, g),
            irreps.character(t + 1, g) + irreps.character(t - 1, g),
            atol=1e-12,
        )


HALF_HALF_TABLE = [
    # two_m1, two_m2, two_J, two_M, value
    (1, 1, 2, 2, 1.0),
    (1, -1, 2, 0, 1.0 / math.sqrt(2.0)),
    (-1, 1, 2, 0, 1.0 / math.sqrt(2.0)),
    (-1, -1, 2, -2, 1.0),
    (1, -1, 0, 0, 1.0 / math.sqrt(2.0)),
    (-1, 1, 0, 0, -1.0 / math.sqrt(2.0)),
]


@pytest.mark.parametrize("two_m1,two_m2,two_J,two_M,value", HALF_HALF_TABLE)
def test_clebsch_gordan_half_half(two_m1, two_m2, two_J, two_M, value):
    got = irreps.clebsch_gordan(1, two_m1, 1, two_m2, two_J, two_M)
    assert_allclose(got, value, atol=1e-14)


def test_clebsch_gordan_one_half():
    # |3/2 1/2> = sqrt(2/3)|m1=0, up> + sqrt(1/3)|m1=1, down>
    assert_allclose(
        irreps.clebsch_gordan(2, 0, 1, 1, 3, 1), math.sqrt(2.0 / 3.0), atol=1e-14
    )
    assert_allclose(
        irreps.clebsch_gordan(2, 2, 1, -1, 3, 1), math.sqrt(1.0 / 3.0), atol=1e-14
    )
    # |1/2 1/2> = -sqrt(1/3)|m1=0, up> + sqrt(2/3)|m1=1, down>
    assert_allclose(
        irreps.clebsch_gordan(2, 0, 1, 1, 1, 1), -math.sqrt(1.0 / 3.0), atol=1e-14
    )
    assert_allclose(
        irreps.clebsch_gordan(2, 2, 1, -1, 1, 1), math.sqrt(2.0 / 3.0), atol=1e-14
    )


def test_clebsch_gordan_one_one():
    r = irreps.clebsch_gordan
    assert_allclose(r(2, 0, 2, 0, 4, 0), math.sqrt(2.0 / 3.0), atol=1e-14)
    assert_allclose(r(2, 2, 2, -2, 4, 0), math.sqrt(1.0 / 6.0), atol=1e-14)
    assert_allclose(r(2, 2, 2, -2, 2, 0), math.sqrt(1.0 / 2.0), atol=1e-14)
    assert_allclose(r(2, 0, 2, 0, 2, 0), 0.0, atol=1e-14)
    assert_allclose(r(2, 2, 2, -2, 0, 0), math.sqrt(1.0 / 3.0), atol=1e-14)
    assert_allclose(r(2, 0, 2, 0, 0, 0), -math.sqrt(1.0 / 3.0), atol=1e-14)
    assert_allclose(r(2, 2, 2, 0, 4, 2), math.sqrt(1.0 / 2.0), atol=1e-14)
    assert_allclose(r(2, 2, 2, 0, 2, 2), math.sqrt(1.0 / 2.0), atol=1e-14)


def test_clebsch_gordan_selection_rules_and_errors():
    assert irreps.clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0          # M != m1+m2
    assert irreps.clebsch_gordan(2, 0, 2, 0, 8, 0) == 0.0          # triangle
    assert irreps.clebsch_gordan(2, 2, 2, 2, 2, 4) == 0.0          # |M| > J
    assert irreps.clebsch_gordan(1, 3, 1, -1, 2, 2) == 0.0         # |m| > j
    with pytest.raises(IndexError):
        irreps.clebsch_gordan(-2, 0, 1, 1, 1, 1)
    with pytest.raises(IndexError):
        irreps.clebsch_gordan(2, 1, 1, 1, 3, 2)
    with pytest.raises(IndexError):
        # J/M of mismatched parity is malformed, not merely zero
        irreps.clebsch_gordan(1, 1, 1, 1, 1, 2)


@pytest.mark.parametrize("two_j1,two_j2", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_clebsch_gordan_orthogonality(two_j1, two_j2):
    ms1 = irreps.two_m_values(two_j1)
    ms2 = irreps.two_m_values(two_j2)
    jays = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 2, 2)
    # rows of the coupling matrix are orthonormal across (J, M)
    for two_J in jays:
        for two_Jp in jays:
            for two_M in irreps.two_m_values(two_J):
                for two_Mp in irreps.two_m_values(two_Jp):
                    acc = sum(
                        irreps.clebsch_gordan(
                            two_j1, int(m1), two_j2, int(m2), two_J, two_M
                        )
                        * irreps.clebsch_gordan(
                            two_j1, int(m1), two_j2, int(m2), two_Jp, two_Mp
                        )
                        for m1 in ms1
                        for m2 in ms2
                    )
                    want = 1.0 if (two_J, two_M) == (two_Jp, two_Mp) else 0.0
                    assert_allclose(acc, want, atol=1e-13)


def test_clebsch_gordan_completeness():
    two_j1, two_j2 = 2, 2
    ms = irreps.two_m_values(two_j1)
    for m1 in ms:
        for m2 in ms:
            for m1p in ms:
                for m2p in ms:
                    acc = 0.0
                    for two_J in range(0, two_j1 + two_j2 + 2, 2):
                        for two_M in irreps.two_m_values(two_J):
                            acc += irreps.clebsch_gordan(
                                two_j1, int(m1), two_j2, int(m2), two_J, int(two_M)
                            ) * irreps.clebsch_gordan(
                                two_j1, int(m1p), two_j2, int(m2p), two_J, int(two_M)
                            )
                    want = 1.0 if (m1, m2) == (m1p, m2p) else 0.0
                    assert_allclose(acc, want, atol=1e-13)


def test_dd_product_decompose_matches_direct_product():
    # the Clebsch-Gordan series D^j1 (x) D^j2 = C (+)_J D^J C^T, entrywise
    # D^j1_mn D^j2_m'n' = sum_J <j1 m; j2 m'|J M> <j1 n; j2 n'|J N> D^J_MN
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 8)
    for two_j1, two_j2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        labels = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
        c = np.array([
            [irreps.clebsch_gordan(two_j1, m1, two_j2, m2, t, m)
             for t in labels for m in irreps.two_m_values(t).tolist()]
            for m1 in irreps.two_m_values(two_j1).tolist()
            for m2 in irreps.two_m_values(two_j2).tolist()
        ])
        coupled, lo = np.zeros((len(g),) + c.shape, dtype=complex), 0
        for t in labels:
            coupled[:, lo : lo + t + 1, lo : lo + t + 1] = irreps.dmatrix(t, g)
            lo += t + 1
        d1, d2 = irreps.dmatrix(two_j1, g), irreps.dmatrix(two_j2, g)
        product = np.einsum("gab,gcd->gacbd", d1, d2).reshape(coupled.shape)
        assert_allclose(c @ coupled @ c.T, product, rtol=0, atol=1e-12)
