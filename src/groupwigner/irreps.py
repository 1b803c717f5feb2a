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
from .errors import DomainError

__all__ = [
    "irrep_dim",
    "two_m_values",
    "little_d_matrix",
    "dmatrix",
    "character",
    "clebsch_gordan",
]


def irrep_dim(two_j: int) -> int:
    """Dimension ``2j + 1`` of the spin-``j`` representation."""
    return two_j + 1


def two_m_values(two_j: int) -> np.ndarray:
    """Doubled magnetic numbers in row order: ``two_j, two_j - 2, ..., -two_j``."""
    return np.arange(two_j, -two_j - 2, -2)


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


def _little_d_moment(two_j: int, beta, weights) -> np.ndarray:
    """The beta sum first: ``sum_b w_b d^j(beta_b) = Re V diag(c) V^H`` over the
    ``J_y`` eigenvectors ``V``, with ``c_mu = sum_b w_b e^{-i beta_b mu}``."""
    v, mu = _jy_eigenvectors(two_j), np.arange(-two_j, two_j + 1, 2) / 2.0
    return ((v * (np.exp(-1j * np.outer(mu, beta)) @ weights)) @ v.conj().T).real


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

