"""Irreducible representation matrices of SU(2) and Clebsch-Gordan algebra.

All angular-momentum indices are passed doubled (``two_j = 2j``,
``two_m = 2m``, ...), so that half-integer representations use exact integer
arithmetic.  Matrix blocks are indexed with ``m`` descending: row ``i`` of a
spin-``j`` block carries ``two_m = two_j - 2*i``.

Conventions: ``D^j_{mn}(g) = exp(-i*m*alpha) d^j_{mn}(beta) exp(-i*n*gamma)``
in the zyz Euler angles of :mod:`.su2`, with real little-d matrices and
Condon-Shortley phases, so that ``D^{1/2}(a)`` equals the defining 2x2
matrix ``su2.to_matrix(a)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import su2
from .errors import DomainError, GroupWignerError

__all__ = [
    "irrep_dim",
    "two_m_values",
    "jacobi_polynomial",
    "little_d",
    "little_d_matrix",
    "dmatrix",
    "character",
    "clebsch_gordan",
    "dd_product_decompose",
]


def irrep_dim(two_j: int) -> int:
    """Dimension ``2j + 1`` of the spin-``j`` representation."""
    return two_j + 1


def two_m_values(two_j: int) -> np.ndarray:
    """Doubled magnetic numbers in row order: ``two_j, two_j - 2, ..., -two_j``."""
    return np.arange(two_j, -two_j - 2, -2)


def jacobi_polynomial(n: int, a: int, b: int, x):
    """Jacobi polynomial ``P_n^{(a,b)}(x)`` by the three-term recurrence.

    Parameters are restricted to integers ``n >= 0``, ``a, b >= 0`` (all that
    the little-d formula needs), ``x`` is a scalar or array.
    """
    if n < 0 or a < 0 or b < 0:
        raise ValueError("jacobi_polynomial requires n, a, b >= 0")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = (a - b) / 2 + (a + b + 2) / 2 * x
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a * a - b * b)
        c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p


def _little_d_direct(two_j: int, two_m: int, two_mp: int, beta):
    """Little-d in the sector ``m' >= |m|`` where the closed form is regular:

    ``d^j_{m m'} = sqrt[(j+m')!(j-m')! / ((j+m)!(j-m)!)] * (sin b/2)^(m'-m)
    * (cos b/2)^(m'+m) * P^{(m'-m, m'+m)}_{j-m'}(cos b)``.
    """
    jp_mp = (two_j + two_mp) // 2
    jm_mp = (two_j - two_mp) // 2
    jp_m = (two_j + two_m) // 2
    jm_m = (two_j - two_m) // 2
    a = (two_mp - two_m) // 2
    b = (two_mp + two_m) // 2
    ln_fac = 0.5 * (
        math.lgamma(jp_mp + 1)
        + math.lgamma(jm_mp + 1)
        - math.lgamma(jp_m + 1)
        - math.lgamma(jm_m + 1)
    )
    beta = np.asarray(beta, dtype=float)
    half = beta / 2
    return (
        math.exp(ln_fac)
        * np.sin(half) ** a
        * np.cos(half) ** b
        * jacobi_polynomial(jm_mp, a, b, np.cos(beta))
    )


def little_d(two_j: int, two_m: int, two_mp: int, beta):
    """Wigner little-d ``d^j_{m m'}(beta)``; ``beta`` scalar or array.

    The closed form is evaluated in the sector ``m' >= |m|`` and extended by
    the exact symmetries ``d_{m m'} = (-1)^{m - m'} d_{m' m} = d_{-m', -m}``.
    """
    for two_x in (two_m, two_mp):
        if abs(two_x) > two_j or (two_j - two_x) % 2 != 0:
            raise IndexError(
                f"invalid magnetic index two_m={two_x} for two_j={two_j}"
            )
    sign = 1.0 if (two_m - two_mp) % 4 == 0 else -1.0
    if two_mp >= abs(two_m):
        return _little_d_direct(two_j, two_m, two_mp, beta)
    if -two_m >= abs(two_mp):
        return _little_d_direct(two_j, -two_mp, -two_m, beta)
    if two_m >= abs(two_mp):
        return sign * _little_d_direct(two_j, two_mp, two_m, beta)
    return sign * _little_d_direct(two_j, -two_m, -two_mp, beta)


@lru_cache(maxsize=None)
def _jy_eigenvectors(two_j: int) -> np.ndarray:
    """Eigenvectors of ``J_y`` in the descending-m basis, as columns in the
    order of its eigenvalues ``mu = -j, ..., j``."""
    m = two_m_values(two_j)[1:] / 2.0
    jp = np.diag(np.sqrt((two_j / 2.0 - m) * (two_j / 2.0 + m + 1.0)), 1)
    return np.linalg.eigh((jp - jp.T) / 2j)[1]


def little_d_matrix(two_j: int, beta):
    """Full little-d matrix, shape ``(..., 2j+1, 2j+1)``, rows/cols ``m`` desc:
    ``d^j(beta) = exp(-i beta J_y) = Re sum_mu P_mu exp(-i beta mu)`` over the
    eigenprojectors of ``J_y`` (Feng et al., PRE 92, 043307 (2015))."""
    if two_j < 0:
        raise DomainError(f"two_j must be non-negative, got {two_j}")
    beta = np.asarray(beta, dtype=float)
    dim = irrep_dim(two_j)
    v = _jy_eigenvectors(two_j)
    proj = (v.T[:, :, None] * v.T.conj()[:, None, :]).reshape(dim, dim * dim)
    mu = np.arange(-two_j, two_j + 1, 2) / 2.0
    d = (np.exp(-1j * beta[..., None] * mu) @ proj).real
    return np.ascontiguousarray(d).reshape(beta.shape + (dim, dim))


def dmatrix(two_j: int, g):
    """Representation matrix ``D^j(g)``, shape ``(..., 2j+1, 2j+1)`` complex.

    Continuous through the gimbal circles because it depends only on the group
    element, not on the Euler representative chosen for it.  Raises
    :class:`DomainError` unless ``g`` holds finite unit quaternions.
    """
    eul = su2.to_euler(su2._as_elements(g))
    alpha, beta, gamma = eul[..., 0], eul[..., 1], eul[..., 2]
    d = little_d_matrix(two_j, beta)
    half_m = two_m_values(two_j) / 2.0
    row = np.exp(-1j * alpha[..., None] * half_m)
    col = np.exp(-1j * gamma[..., None] * half_m)
    return row[..., :, None] * d * col[..., None, :]


def character(two_j: int, g):
    """Group character ``chi^j(g) = U_{2j}(a0)`` (Chebyshev, 2nd kind).

    Evaluated by the recurrence ``U_n = 2 a0 U_{n-1} - U_{n-2}``, which is
    regular at the identity and the antipode.
    """
    if two_j < 0:
        raise DomainError(f"two_j must be non-negative, got {two_j}")
    g = np.asarray(g, dtype=float)
    a0 = g[..., 0]
    u_prev = np.ones_like(a0)
    if two_j == 0:
        return u_prev
    u = 2.0 * a0
    for _ in range(2, two_j + 1):
        u, u_prev = 2.0 * a0 * u - u_prev, u
    return u


def _triangle_ok(two_j1: int, two_j2: int, two_J: int) -> bool:
    return (
        abs(two_j1 - two_j2) <= two_J <= two_j1 + two_j2
        and (two_j1 + two_j2 + two_J) % 2 == 0
    )


def clebsch_gordan(
    two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_J: int, two_M: int
) -> float:
    """Clebsch-Gordan coefficient ``<j1 m1; j2 m2 | J M>`` (Condon-Shortley).

    Returns 0.0 whenever a selection rule fails (including ``|m| > j``, which
    sums over the coupled range produce naturally); raises ``IndexError`` for
    malformed indices (negative ``two_j`` or mismatched ``j``/``m`` parity).
    """
    for two_j, two_m in ((two_j1, two_m1), (two_j2, two_m2), (two_J, two_M)):
        if two_j < 0 or (two_j - two_m) % 2 != 0:
            raise IndexError(
                f"invalid (two_j, two_m) = ({two_j}, {two_m})"
            )
    if (
        two_M != two_m1 + two_m2
        or not _triangle_ok(two_j1, two_j2, two_J)
        or abs(two_m1) > two_j1
        or abs(two_m2) > two_j2
        or abs(two_M) > two_J
    ):
        return 0.0

    def f(two_x: int) -> int:
        # halved non-negative integer
        return two_x // 2

    # all arguments below are plain integers
    jjJ = f(two_j1 + two_j2 - two_J)
    jJj = f(two_j1 - two_j2 + two_J)
    Jjj = f(-two_j1 + two_j2 + two_J)
    ln_delta = 0.5 * (
        math.lgamma(jjJ + 1)
        + math.lgamma(jJj + 1)
        + math.lgamma(Jjj + 1)
        - math.lgamma(f(two_j1 + two_j2 + two_J) + 2)
    )
    ln_norm = 0.5 * (
        math.log(two_J + 1)
        + math.lgamma(f(two_J + two_M) + 1)
        + math.lgamma(f(two_J - two_M) + 1)
        + math.lgamma(f(two_j1 + two_m1) + 1)
        + math.lgamma(f(two_j1 - two_m1) + 1)
        + math.lgamma(f(two_j2 + two_m2) + 1)
        + math.lgamma(f(two_j2 - two_m2) + 1)
    )
    t1 = jjJ                      # j1 + j2 - J
    t2 = f(two_j1 - two_m1)       # j1 - m1
    t3 = f(two_j2 + two_m2)       # j2 + m2
    t4 = f(two_J - two_j2 + two_m1)   # J - j2 + m1 (may be negative)
    t5 = f(two_J - two_j1 - two_m2)   # J - j1 - m2 (may be negative)
    k_min = max(0, -t4, -t5)
    k_max = min(t1, t2, t3)
    total = 0.0
    for k in range(k_min, k_max + 1):
        ln_term = (
            math.lgamma(k + 1)
            + math.lgamma(t1 - k + 1)
            + math.lgamma(t2 - k + 1)
            + math.lgamma(t3 - k + 1)
            + math.lgamma(t4 + k + 1)
            + math.lgamma(t5 + k + 1)
        )
        total += (-1.0) ** k * math.exp(ln_delta + ln_norm - ln_term)
    return total


def dd_product_decompose(
    two_j: int,
    two_m: int,
    two_n: int,
    two_jp: int,
    two_mp: int,
    two_np: int,
    g,
    tol: float = 1e-8,
):
    """Decompose ``D^j_{mn}(g) * D^{j'}_{m'n'}(g)`` through the Clebsch-Gordan
    series and return the recombined sum
    ``sum_{J''} C^{j j' J''}_{m m' m''} C^{j j' J''}_{n n' n''} D^{J''}_{m'' n''}(g)``
    with ``m'' = m + m'`` and ``n'' = n + n'``.

    The sum is checked against the direct product before returning; a
    discrepancy beyond ``tol`` raises :class:`GroupWignerError`.
    """
    g = np.asarray(g, dtype=float)
    two_mpp = two_m + two_mp
    two_npp = two_n + two_np
    total = np.zeros(g.shape[:-1], dtype=complex)
    for two_jpp in range(abs(two_j - two_jp), two_j + two_jp + 2, 2):
        if abs(two_mpp) > two_jpp or abs(two_npp) > two_jpp:
            continue
        cm = clebsch_gordan(two_j, two_m, two_jp, two_mp, two_jpp, two_mpp)
        cn = clebsch_gordan(two_j, two_n, two_jp, two_np, two_jpp, two_npp)
        if cm == 0.0 or cn == 0.0:
            continue
        i = (two_jpp - two_mpp) // 2
        k = (two_jpp - two_npp) // 2
        total = total + cm * cn * dmatrix(two_jpp, g)[..., i, k]
    im = (two_j - two_m) // 2
    kn = (two_j - two_n) // 2
    imp = (two_jp - two_mp) // 2
    knp = (two_jp - two_np) // 2
    direct = (
        dmatrix(two_j, g)[..., im, kn] * dmatrix(two_jp, g)[..., imp, knp]
    )
    defect = float(np.max(np.abs(total - direct)))
    if defect > tol:
        raise GroupWignerError(
            f"product decomposition inconsistent (defect {defect:.3e})"
        )
    return total
