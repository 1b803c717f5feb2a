"""Group operations on SU(2) realized as the unit 3-sphere.

A group element is stored as a real 4-vector ``a = (a0, a1, a2, a3)`` with
``|a| = 1``, corresponding to the unitary matrix

    u(a) = a0*I - i*(a1*sx + a2*sy + a3*sz)
         = [[a0 - i*a3,  -(a2 + i*a1)],
            [a2 - i*a1,    a0 + i*a3 ]]

where ``sx, sy, sz`` are the Pauli matrices.  All functions accept arrays of
shape ``(..., 4)`` and broadcast; the last axis is the component axis.

Euler angles ``(alpha, beta, gamma)`` follow the zyz convention with ranges
``alpha in [0, 2*pi)``, ``beta in [0, pi]``, ``gamma in [0, 4*pi)``:

    a0 - i*a3 = cos(beta/2) * exp(-i*(alpha + gamma)/2)
    a2 + i*a1 = sin(beta/2) * exp( i*(gamma - alpha)/2)

Normalized Haar measure in these coordinates is
``dg = dalpha * sin(beta) dbeta * dgamma / (16*pi**2)``.
"""

from __future__ import annotations

import numpy as np

from .errors import AntipodalPair, DomainError

__all__ = [
    "identity",
    "normalize",
    "mul",
    "inverse",
    "to_matrix",
    "from_euler",
    "to_euler",
    "distance",
    "midpoint",
    "group_sqrt",
    "random_elements",
]

#: dot-product threshold below which two elements count as antipodal
ANTIPODAL_EPS = 1e-9

#: largest distance of ``|g|`` from 1 that :func:`_as_elements` accepts
_UNIT_TOL = 1e-10


def identity() -> np.ndarray:
    """Return the identity element ``(1, 0, 0, 0)``."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def normalize(a):
    """Rescale 4-vectors to unit norm (projection onto the group manifold)."""
    a = np.asarray(a, dtype=float)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _as_elements(g) -> np.ndarray:
    """``g`` as a float array of group elements, shape ``(..., 4)``.

    Raises
    ------
    DomainError
        If the last axis is not of length 4, or an entry is non-finite, or
        some ``| |g| - 1 |`` exceeds ``_UNIT_TOL``.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[-1:] != (4,):
        raise DomainError(f"group elements need a last axis of 4, got shape {g.shape}")
    off = np.abs(np.sqrt(np.einsum("...i,...i->...", g, g)) - 1.0)
    # NaN compares false, so non-finite entries fail the check too
    if not np.all(off <= _UNIT_TOL):
        raise DomainError(
            "group elements must be finite unit quaternions: "
            f"max | |g| - 1 | = {np.max(off):.3e} > {_UNIT_TOL:g}"
        )
    return g


def mul(a, b):
    """Group product ``c`` with ``u(c) = u(a) u(b)``.

    This is the Hamilton quaternion product of the 4-vectors.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, av = a[..., 0], a[..., 1:]
    b0, bv = b[..., 0], b[..., 1:]
    c0 = a0 * b0 - np.sum(av * bv, axis=-1)
    cv = (a0[..., None] * bv + b0[..., None] * av + np.cross(av, bv))
    return np.concatenate([c0[..., None], cv], axis=-1)


def inverse(a):
    """Group inverse: negate the spatial components."""
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def to_matrix(a):
    """The 2x2 unitary matrix ``u(a)``; shape ``(..., 2, 2)`` complex."""
    a = np.asarray(a, dtype=float)
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    out = np.empty(a.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = a0 - 1j * a3
    out[..., 0, 1] = -(a2 + 1j * a1)
    out[..., 1, 0] = a2 - 1j * a1
    out[..., 1, 1] = a0 + 1j * a3
    return out


def from_euler(alpha, beta, gamma):
    """Group element for zyz Euler angles; scalars or broadcastable arrays,
    whose trig is taken before they are broadcast."""
    alpha, beta, gamma = (np.asarray(x, dtype=float) for x in (alpha, beta, gamma))
    cb, sb = np.cos(beta / 2), np.sin(beta / 2)
    sp, dp = (alpha + gamma) / 2, (gamma - alpha) / 2
    parts = cb * np.cos(sp), sb * np.sin(dp), sb * np.cos(dp), cb * np.sin(sp)
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def to_euler(a):
    """Euler angles ``(alpha, beta, gamma)`` of ``a``; shape ``(..., 3)``.

    Round trips exactly: ``from_euler(*to_euler(a).T)`` reproduces ``a`` up to
    rounding for every input, including the gimbal circles ``beta in {0, pi}``.
    On those circles the pair ``(alpha, gamma)`` is only defined up to a shared
    shift; the representative chosen here is ``gamma = alpha`` at ``beta = 0``
    and ``alpha + gamma = 2*arg`` with ``alpha = (-arg mod 2*pi)`` at
    ``beta = pi`` (a ``gamma = 0`` convention could not represent elements with
    ``alpha + gamma >= 2*pi``).
    """
    a = np.asarray(a, dtype=float)
    lam = a[..., 0] - 1j * a[..., 3]      # cos(b/2) * exp(-i(alpha+gamma)/2)
    w = a[..., 2] + 1j * a[..., 1]        # sin(b/2) * exp( i(gamma-alpha)/2)
    beta = 2.0 * np.arctan2(np.abs(w), np.abs(lam))
    u = -np.angle(lam)                    # (alpha + gamma)/2 in (-pi, pi]
    v = np.angle(w)                       # (gamma - alpha)/2 in (-pi, pi]
    alpha = u - v
    gamma = u + v
    # Reducing alpha into [0, 2*pi) must shift gamma by the same amount,
    # because (alpha, gamma) -> (alpha + 2*pi, gamma + 2*pi) is the identity
    # on the group.
    shift = np.where(alpha < 0, 2 * np.pi, 0.0)
    alpha = alpha + shift
    gamma = np.mod(gamma + shift, 4 * np.pi)
    return np.stack([alpha, beta, gamma], axis=-1)


def distance(a, b):
    """Bi-invariant geodesic distance ``arccos(a . b) in [0, pi]``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.arccos(np.clip(np.sum(a * b, axis=-1), -1.0, 1.0))


def midpoint(a, b):
    """Mid-point of the minimizing geodesic between ``a`` and ``b``.

    Computed by normalizing the chord average:
    ``s = (a + b) / sqrt(2*(1 + a.b))``.

    Raises
    ------
    AntipodalPair
        If ``1 + a.b <= ANTIPODAL_EPS`` for any input pair, in which case the
        minimizing geodesic is not unique.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = np.sum(a * b, axis=-1)
    denom = 2.0 * (1.0 + dot)
    if np.any(denom <= 2.0 * ANTIPODAL_EPS):
        raise AntipodalPair(
            "mid-point undefined: inputs are numerically antipodal "
            f"(min(1 + a.b) = {np.min(1.0 + dot):.3e})"
        )
    return (a + b) / np.sqrt(denom)[..., None]


def group_sqrt(g):
    """Principal square root: the mid-point of identity and ``g``.

    The result ``k`` satisfies ``mul(k, k) == g`` and ``k0 > 0``; it halves
    the rotation angle.  Raises :class:`AntipodalPair` when ``g`` is
    numerically at the antipode ``(-1, 0, 0, 0)``.
    """
    g = np.asarray(g, dtype=float)
    e = np.broadcast_to(identity(), g.shape)
    return midpoint(e, g)


def random_elements(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` Haar-distributed elements, shape ``(n, 4)``.

    Normalized 4-dimensional standard Gaussians are uniform on the 3-sphere,
    and the uniform (round) measure on the sphere is the Haar measure.
    """
    return normalize(rng.standard_normal((n, 4)))
