"""Quadrature grids: Haar sampling of the group and the squaring-map
hemisphere used by the geodesic mid-point integrals.

Both constructors validate their claimed exactness at build time and raise
:class:`~groupwigner.errors.InvalidGrid` loudly on failure, so a grid in hand
certifies its advertised band to ``_TOL``.  Both certificates are the moment
test of :func:`_certify` on the 1-D rules, the Haar one beta sum first:
``sum_b w_b d^t(beta_b) = Re V diag(c) V^H``, ``c_mu = sum_b w_b e^{-i beta_b mu}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import irreps, su2
from .errors import AntipodalNode, GridTooCoarse, InvalidGrid

__all__ = [
    "QuadratureGrid",
    "HemisphereGrid",
    "haar_grid",
    "haar_grid_for_degree",
    "hemisphere_grid",
    "hemisphere_grid_for",
]


def _check_lengths(grid, **rules) -> None:
    """Raise unless each named 1-D rule has one weight per value."""
    for name, (values, weights) in rules.items():
        if len(values) != len(weights):
            raise InvalidGrid(
                f"{type(grid).__name__}: {name} rule has {len(values)} values "
                f"but {len(weights)} weights"
            )


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature for normalized Haar measure in Euler angles.

    ``exactness_degree`` is the band limit ``B`` (in units of ``j``, always an
    integer here) such that every product ``D^J_{MN} * conj(D^{J'}_{M'N'})``
    with ``J, J' <= B`` is integrated exactly.  In doubled-index terms the
    guarantee covers all Gram products with ``two_j <= 2 * exactness_degree``.
    """

    alpha: np.ndarray         # (n_alpha,), each of weight 1 / n_alpha
    beta: np.ndarray          # (n_beta,)
    beta_weights: np.ndarray  # (n_beta,), sums to 1
    n_gamma: int              # uniform gamma over [0, 4 pi)
    exactness_degree: int
    # derived from the 1-D rules above when the grid is built
    shape: tuple[int, int, int] = field(init=False)
    n_nodes: int = field(init=False)
    euler: np.ndarray = field(init=False)    # (n, 3) columns alpha, beta, gamma
    nodes: np.ndarray = field(init=False)    # (n, 4)
    weights: np.ndarray = field(init=False)  # (n,), sums to 1
    # the defect its builder's certificate measured; None on a replace copy
    certified_defect: float | None = field(default=None, init=False, compare=False)
    # D^t on the gamma = 0 plane for wigner's overlap, keyed by two_t and
    # each built by the first call that needs it; a dataclasses.replace copy
    # starts empty, since its rules may differ
    _plane_dmatrices: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_lengths(self, beta=(self.beta, self.beta_weights))
        shape = (len(self.alpha), len(self.beta), int(self.n_gamma))
        gamma = 4 * np.pi * np.arange(self.n_gamma) / self.n_gamma
        angles = self.alpha[:, None, None], self.beta[:, None], gamma
        euler = np.stack(np.broadcast_arrays(*angles), axis=-1).reshape(-1, 3)
        w = np.repeat(self.beta_weights, self.n_gamma) / (shape[0] * shape[2])
        vars(self).update(
            shape=shape, n_nodes=math.prod(shape), weights=np.tile(w, shape[0]),
            euler=euler, nodes=su2.from_euler(*angles).reshape(-1, 4),
        )

    def _require_band(self, band: int, what: str) -> None:
        """Raise :class:`GridTooCoarse` unless the grid integrates an integrand
        of irrep band ``band`` (whole-j units) exactly: degree B covers 2B."""
        if 2 * self.exactness_degree < band:
            raise GridTooCoarse(
                f"{what} integrand has irrep band {band}, but the group grid "
                f"{'x'.join(map(str, self.shape))} is exact only to band "
                f"{2 * self.exactness_degree}"
            )


@dataclass(frozen=True)
class HemisphereGrid:
    """Quadrature for the open hemisphere ``a0 > 0`` (range of the principal
    group square root), with the squaring-map jacobian precomputed.

    ``weights`` are plain normalized-Haar weights (sum 1/2); the pushforward
    weights ``weights * jacobian`` sum to 1 and turn integrals of
    ``f(k^2)``-type integrands into Haar integrals over the whole group.
    ``exactness_twice`` is the largest value of ``2*j_max + 2*J``
    (doubled-index sum) for which the mid-point Wigner integrand — jacobian
    x state-pair kernel x two ``D^J`` factors — is a polynomial in the node
    components that the grid integrates exactly.  Building the grid checks
    that its node set is closed under inversion, which makes Hermiticity of
    computed blocks exact.
    """

    axial: np.ndarray          # (n_axial,) values of a0, all > 0
    axial_weights: np.ndarray  # (n_axial,)
    cos_theta: np.ndarray      # (n_theta,), mirror-symmetric about 0
    theta_weights: np.ndarray  # (n_theta,), mirror-symmetric
    n_phi: int                 # even, uniform phi over [0, 2 pi)
    exactness_twice: int
    # derived from the 1-D rules above when the grid is built
    shape: tuple[int, int, int] = field(init=False)
    n_nodes: int = field(init=False)
    nodes: np.ndarray = field(init=False)     # (K, 4)
    weights: np.ndarray = field(init=False)   # (K,), sums to 1/2
    jacobian: np.ndarray = field(init=False)  # (K,) = 8 * a0**2
    squared: np.ndarray = field(init=False)   # (K, 4) the nodes squared in the group
    # the defect its builder's certificate measured; None on a replace copy
    certified_defect: float | None = field(default=None, init=False, compare=False)
    # the state-independent tensor of wigner's label sums, the labels of the
    # last label sum that fitted stacked in its U(1) blocks, keyed by the
    # state band and holding one tensor at a time (at most
    # wigner._TENSOR_BYTES), read again only for exactly its labels; a
    # dataclasses.replace copy starts empty, since its rules may differ
    _overlap_tensors: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        ct, wth = self.cos_theta, self.theta_weights
        _check_lengths(self, axial=(self.axial, self.axial_weights), theta=(ct, wth))
        shape = (len(self.axial), len(ct), int(self.n_phi))
        mirrored = np.allclose(ct[::-1], -ct, rtol=0, atol=1e-12)
        mirrored &= np.allclose(wth[::-1], wth, rtol=1e-12, atol=0)
        if self.n_phi % 2 or not mirrored:
            raise InvalidGrid(f"HemisphereGrid {shape}: not closed under inversion")
        if not np.all(self.axial > 0.0):
            raise AntipodalNode("hemisphere node on the singular equator a0 = 0")
        phi = 2 * np.pi * np.arange(self.n_phi) / self.n_phi
        tt, cth = self.axial[:, None, None], ct[:, None]
        r, sth = np.sqrt(1.0 - tt**2), np.sqrt(1.0 - cth**2)
        parts = tt, r * sth * np.cos(phi), r * sth * np.sin(phi), r * cth
        nodes = np.stack(np.broadcast_arrays(*parts), axis=-1).reshape(-1, 4)
        a0, v = nodes[:, :1], nodes[:, 1:]  # k^2 = (a0^2 - |v|^2, 2 a0 v)
        squared = np.hstack([a0 * a0 - np.sum(v * v, -1, keepdims=True), 2 * a0 * v])
        w = np.repeat(np.outer(self.axial_weights, wth).reshape(-1), self.n_phi)
        vars(self).update(
            shape=shape, n_nodes=math.prod(shape), weights=w / (np.pi * shape[2]),
            nodes=nodes, squared=squared,
            jacobian=np.repeat(8.0 * self.axial**2, shape[1] * shape[2]),
        )

    @property
    def pushforward_weights(self) -> np.ndarray:
        return self.weights * self.jacobian


def _haar_exactness_degree(n_alpha: int, n_beta: int, n_gamma: int) -> int:
    # floor(min(n_alpha, n_gamma / 2, 2 * n_beta) / 2 - 1), in integer math
    quartered = min(2 * n_alpha, n_gamma, 4 * n_beta)
    return max((quartered - 4) // 4, 0)


#: largest moment defect a grid certificate accepts
_TOL = 1e-10


def _certify(grid, moment, top: int) -> float:
    """Check ``sum_x w_x D^t(x) = delta_{t0}`` for ``two_t <= top``, where
    ``moment(two_t, two_m)`` is that sum over the grid's 1-D rules, ``two_m``
    its row labels (Kostelec & Rockmore, 2008)."""
    defect = 0.0
    for two_t in range(top + 1):
        moment_t = moment(two_t, irreps.two_m_values(two_t))
        defect = max(defect, float(np.max(np.abs(moment_t - (two_t == 0)))))
    if defect > _TOL:
        raise InvalidGrid(
            f"{type(grid).__name__} {grid.shape} failed its exactness "
            f"validation through two_t={top}: moment defect {defect:.3e}"
        )
    return defect


def _verify_haar(grid: QuadratureGrid) -> float:
    """Certify ``two_t <= 4B``, iff every ``D^J conj(D^J')``, ``J, J' <= B``, is
    exact; on the beta line ``D^t = d^t``, summed beta first: ``Re V diag(c) V^H``."""
    top = 4 * grid.exactness_degree
    half_m = np.arange(-top, top + 1) / 2.0
    gamma = 4 * np.pi * np.arange(grid.n_gamma) / grid.n_gamma
    # moments sum_b w_b d^t(beta_b)_{mn} <e^{-i m alpha}> <e^{-i n gamma}>
    ea, eg = (np.exp(-1j * np.outer(half_m, x)).mean(1) for x in (grid.alpha, gamma))

    def moment(two_t, two_m):
        d = irreps._little_d_moment(two_t, grid.beta, grid.beta_weights)
        return d * np.outer(ea[top + two_m], eg[top + two_m])

    return _certify(grid, moment, top)


@lru_cache(maxsize=None)
def haar_grid(n_alpha: int, n_beta: int, n_gamma: int) -> QuadratureGrid:
    """Build the ``n_alpha x n_beta x n_gamma`` Euler-angle product grid:
    uniform in alpha over [0, 2 pi), Gauss-Legendre in cos(beta), uniform in
    gamma over [0, 4 pi); weights sum to 1 (normalized Haar).
    """
    if n_alpha < 1 or n_beta < 1 or n_gamma < 1:
        raise InvalidGrid(
            f"grid shape must be positive, got {(n_alpha, n_beta, n_gamma)}"
        )
    alpha = 2 * np.pi * np.arange(n_alpha) / n_alpha
    x, wb = leggauss(n_beta)
    degree = _haar_exactness_degree(n_alpha, n_beta, n_gamma)
    grid = QuadratureGrid(
        alpha=alpha, beta=np.arccos(x), beta_weights=wb / 2.0, n_gamma=n_gamma,
        exactness_degree=degree,
    )
    vars(grid)["certified_defect"] = _verify_haar(grid)
    return grid


def _whole(value, name: str) -> int:
    if not float(value).is_integer():  # NaN and infinities are not
        raise InvalidGrid(f"{name} must be a whole number, got {value!r}")
    return int(value)


def haar_grid_for_degree(degree: int) -> QuadratureGrid:
    """Smallest product grid of the standard shape with exactness >= degree."""
    degree = max(_whole(degree, "degree"), 0)
    return haar_grid(2 * degree + 2, degree + 1, 4 * degree + 4)


@lru_cache(maxsize=None)
def _axial_rule(n_axial: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on t in (0, 1) with ``sum w_r q(t_r) =
    int_0^1 q(t) sqrt(1 - t^2) dt`` exact for all polynomials of degree
    < n_axial.

    The weights solve the square moment system in the shifted-Chebyshev
    basis T_n(2t - 1) at the nodes ``2t_r - 1 = cos((r + 1/2) pi / n)``,
    where the system matrix is the perfectly conditioned DCT matrix
    ``cos(n * v_r)``.  With ``2t - 1 = cos(u)`` the exact Chebyshev moments
    are ``int_0^pi cos(n u) f(u) du`` for ``f(u) = sin(u) sqrt(1 - t^2) / 2
    = sin(u) sin(u/2) sqrt(2 (3 + cos u)) / 4``, analytic on [0, pi], so
    Gauss-Legendre with ``n_axial + 40`` nodes gives them to rounding.
    """
    v = (np.arange(n_axial) + 0.5) * np.pi / n_axial
    t = (1.0 + np.cos(v)) / 2.0
    a = np.cos(np.outer(np.arange(n_axial), v))
    x, wx = leggauss(n_axial + 40)
    u = 0.5 * np.pi * (x + 1.0)
    f = np.sin(u) * np.sin(0.5 * u) * np.sqrt(2.0 * (3.0 + np.cos(u))) / 4.0
    b = np.cos(np.outer(np.arange(n_axial), u)) @ (0.5 * np.pi * wx * f)
    w = np.linalg.solve(a, b)
    return t, w


def _verify_hemisphere(grid: HemisphereGrid) -> float:
    """Certify ``sum_k w_k J_k D^t(k^2) = delta_{t0}`` for ``two_t <=
    exactness_twice``, with ``D^t(k^2)_{mn} = e^{-i (m - n) phi} [d^t(theta)
    diag(e^{-2i two_l psi}) d^t(theta)^T]_{mn}`` and ``cos psi = a0``."""
    top, w = grid.exactness_twice, grid.pushforward_weights.reshape(grid.shape).T
    phi = 2 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    # f[k, c, a] = sum_phi w[a, c, phi] e^{-i k phi} at m - n = k - top
    f = np.tensordot(np.exp(-1j * np.outer(np.arange(-top, top + 1), phi)), w, 1)
    psi, theta = np.arccos(grid.axial), np.arccos(grid.cos_theta)

    def moment(two_t, two_m):
        # g[k, c, l] = sum_a f[k, c, a] e^{-2i two_l psi_a} at m - n = k - two_t
        g = f[top - two_t:top + two_t + 1] @ np.exp(-2j * np.outer(psi, two_m))
        d, q = irreps.little_d_matrix(two_t, theta), (two_m[:, None] - two_m) // 2
        return np.einsum("cml,cnl,mncl->mn", d, d, g[q + two_t])

    defect = _certify(grid, moment, top)
    mass, push = float(np.sum(grid.weights)), float(np.sum(w))
    if abs(mass - 0.5) > 1e-12 or abs(push - 1.0) > 1e-12:
        raise InvalidGrid(f"hemisphere {grid.shape} weight sums {mass}, {push}")
    return defect


@lru_cache(maxsize=None)
def hemisphere_grid(n_axial: int, n_theta: int, n_phi: int) -> HemisphereGrid:
    """Quadrature on the hemisphere ``a0 > 0`` exact for polynomial integrands.

    Product of an exact half-range rule in ``t = a0`` (see ``_axial_rule``;
    ``n_axial`` nodes, polynomial degree ``n_axial - 1``), Gauss-Legendre in
    ``cos(theta)`` and uniform ``phi`` for the spatial direction.  The
    angular rule integrates every spherical monomial it meets exactly — in
    particular it annihilates all odd-degree monomials, so the composite rule
    is exact for arbitrary 4-component polynomials up to degree
    ``min(n_axial - 1, 2*n_theta - 1, n_phi - 1)``, with no symmetrization of
    the integrand.  ``n_phi`` must be even so the node set is closed under
    group inversion (``phi -> phi + pi`` stays on the grid).
    """
    if n_axial < 1 or n_theta < 1 or n_phi < 2:
        raise InvalidGrid(
            f"hemisphere shape must be >= (1,1,2), got {(n_axial, n_theta, n_phi)}"
        )
    if n_axial == 2:  # exact to degree 1; one node (t = 1/2) is exact on 8 a0^2
        raise InvalidGrid(f"hemisphere shape {(n_axial, n_theta, n_phi)}: the axial "
                          "rule needs n_axial >= 3 for the degree-2 squaring jacobian")
    p_exact = min(n_axial - 1, 2 * n_theta - 1, n_phi - 1)
    t, wt = _axial_rule(n_axial)
    ct, wth = leggauss(n_theta)
    grid = HemisphereGrid(
        axial=t, axial_weights=wt, cos_theta=ct, theta_weights=wth, n_phi=n_phi,
        exactness_twice=max((p_exact - 2) // 2, 0),
    )
    vars(grid)["certified_defect"] = _verify_hemisphere(grid)
    return grid


def hemisphere_grid_for(two_band: int) -> HemisphereGrid:
    """Smallest standard hemisphere grid with ``exactness_twice >= two_band``,
    where ``two_band`` is the required ``2*j_max + 2*J`` of the integrands."""
    p = 2 * max(_whole(two_band, "two_band"), 0) + 2
    n_theta = (p + 2) // 2
    n_phi = p + 1 + (p + 1) % 2
    return hemisphere_grid(p + 1, n_theta, n_phi)
