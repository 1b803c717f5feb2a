"""Closed-form Wigner baselines: Cartesian line and planar rotor.

Independent reference implementations used as regression oracles for the
general group machinery:

* the standard Wigner function of a wavefunction sampled on a uniform
  position grid (partial Fourier transform of the two-point kernel), and
* the angle--angular-momentum distribution of a rotor state, a function of
  an angle ``theta`` and an **integer** label ``m``, built with wrap-around
  shifts of +-2pi.

Both are real-valued; ``hbar = 1`` throughout so phase-space prefactors are
``1/(2 pi)``.  The rotor case is also rebuilt from the generic mid-point
pattern (half-period shift integral with exact trigonometric-moment weights)
to cross-check the general construction on an Abelian group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OutOfDomain, SchemaError
from .states import _is_count, _number_array

__all__ = [
    "CartesianState",
    "cartesian_grid",
    "cartesian_p_grid",
    "cartesian_wigner",
    "cartesian_wigner_table",
    "cartesian_momentum_amplitude",
    "oscillator_state",
    "delta_state",
    "plane_wave_state",
    "AngleState",
    "angle_amplitude",
    "angle_wigner",
    "angle_wigner_table",
    "weyl_expectation",
    "so2_midpoint",
    "so2_wigner_general",
    "cartesian_to_payload",
    "cartesian_from_payload",
    "angle_to_payload",
    "angle_from_payload",
]


# ---------------------------------------------------------------------------
# Cartesian line


@dataclass(frozen=True)
class CartesianState:
    """Wavefunction samples on the uniform grid ``q_i = -L + i * dq``,
    ``dq = 2 L / n`` (right endpoint excluded).

    The norm, by the trapezoid rule (the rectangle rule, over one period,
    if ``periodic`` is set), must be 1 within 1e-8.  Unless ``periodic`` is
    set, the samples must decay below 1e-8 absolute at the domain edge.
    """

    values: np.ndarray
    half_width: float
    periodic: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("values must be a 1-d array with at least 4 samples")
        if not 0 < self.half_width < np.inf:
            raise ValueError("half_width must be positive and finite")
        object.__setattr__(self, "values", values)
        density = np.abs(values) ** 2
        if self.periodic:
            norm2 = float(np.sum(density) * self.dq)
        else:
            norm2 = float(np.trapezoid(density, dx=self.dq))
        if not abs(norm2 - 1.0) <= 1e-8:
            raise ValueError(f"state norm^2 = {norm2!r}, must be 1 within 1e-8")
        if not self.periodic:
            edge = max(abs(values[0]), abs(values[-1]))
            if edge > 1e-8:
                raise ValueError(
                    f"samples must decay below 1e-8 at the domain edge, "
                    f"got {edge:.3e}"
                )

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dq(self) -> float:
        return 2.0 * self.half_width / self.values.size

    @property
    def q(self) -> np.ndarray:
        return cartesian_grid(self.n, self.half_width)


def cartesian_grid(n: int, half_width: float) -> np.ndarray:
    return -half_width + (2.0 * half_width / n) * np.arange(n)


def cartesian_p_grid(state: CartesianState) -> np.ndarray:
    """Conjugate momentum grid: ``p_l = pi (l - n//2) / (n dq)``.

    On this grid the momentum sum of the Wigner table recovers the position
    density exactly (the ``p``-period of the discrete transform is
    ``pi / dq``).
    """
    n = state.n
    return np.pi * (np.arange(n) - n // 2) / (n * state.dq)


# q nodes whose two-point products are formed at once: bounds the
# (nodes x shifts) arrays of a whole-grid table to a few MB
_Q_CHUNK = 256


def cartesian_wigner(state: CartesianState, q, p) -> np.ndarray:
    """Wigner values ``W(q, p)``: the discrete partial Fourier transform

        W = (dq / pi) sum_j psi(q - j dq) psi*(q + j dq) exp(2 i p j dq)

    evaluated at the grid node nearest each ``q``.  ``q`` and ``p`` may be
    arrays; the result has shape ``q.shape + p.shape``.  A ``q`` outside
    ``[-L, L]``, or one that rounds to the excluded node at ``+L``, raises
    :class:`OutOfDomain`.

    Non-periodic states are zero-padded outside the grid; periodic states
    wrap indices over one period of shifts, ``|j| <= n // 2``, the two ends
    of an even window half-weighted as aliases of one sample.  The phase
    matrix is built once; the products are formed ``_Q_CHUNK`` nodes at a
    time.  Real up to roundoff; the real part is returned.
    """
    q = np.asarray(q, dtype=float)
    outside = ~(np.abs(q) <= state.half_width)
    if outside.any():
        raise OutOfDomain(
            f"q = {float(q[outside][0])!r} outside the domain "
            f"[-{state.half_width}, {state.half_width})"
        )
    nodes = np.rint((q + state.half_width) / state.dq).astype(int)
    if (nodes >= state.n).any():
        raise OutOfDomain(f"q = {float(q[nodes >= state.n][0])!r} has no grid node")
    p = np.asarray(p, dtype=float)
    n = state.n
    psi = state.values
    jmax = n // 2 if state.periodic else n - 1
    j = np.arange(-jmax, jmax + 1)
    phases = np.exp(2j * state.dq * np.multiply.outer(j, p.ravel()))
    rows = nodes.ravel()
    out = np.empty((rows.size, p.size))
    for lo in range(0, rows.size, _Q_CHUNK):
        i = rows[lo : lo + _Q_CHUNK, None]
        prods = psi[(i - j) % n] * np.conj(psi[(i + j) % n])
        if not state.periodic:
            prods[np.abs(j) > np.minimum(i, n - 1 - i)] = 0.0
        elif n % 2 == 0:
            prods[:, [0, -1]] *= 0.5
        out[lo : lo + _Q_CHUNK] = (state.dq / np.pi) * (prods @ phases).real
    return out.reshape(q.shape + p.shape)


def cartesian_wigner_table(state: CartesianState, p=None) -> np.ndarray:
    """Wigner values on the full (q-grid) x (p-grid) product; ``p`` defaults
    to :func:`cartesian_p_grid`.  Shape ``(n_q, n_p)``: :func:`cartesian_wigner`
    at every grid node."""
    return cartesian_wigner(state, state.q, cartesian_p_grid(state) if p is None else p)


def cartesian_momentum_amplitude(state: CartesianState, p) -> np.ndarray:
    """Discretized momentum wavefunction
    ``(2 pi)^{-1/2} dq sum_i psi(q_i) exp(-i p q_i)``."""
    p = np.asarray(p, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(p, state.q))
    return state.dq / np.sqrt(2.0 * np.pi) * (phases @ state.values)


def oscillator_state(level: int, n: int = 1024, half_width: float = 8.0) -> CartesianState:
    """Unit-frequency oscillator eigenstate (``level`` 0 or 1) sampled on the
    standard grid."""
    q = cartesian_grid(n, half_width)
    if level == 0:
        psi = np.pi**-0.25 * np.exp(-(q**2) / 2.0)
    elif level == 1:
        psi = np.sqrt(2.0) * np.pi**-0.25 * q * np.exp(-(q**2) / 2.0)
    else:
        raise ValueError("only levels 0 and 1 are provided")
    return CartesianState(psi.astype(complex), half_width)


def delta_state(n: int, half_width: float, q0: float) -> CartesianState:
    """Sharpest grid-representable position bump: one node carries all the
    probability (the discrete mollified position eigenstate)."""
    values = np.zeros(n, dtype=complex)
    i = int(round((q0 + half_width) / (2.0 * half_width / n)))
    if not 0 < i < n - 1:
        raise OutOfDomain("q0 too close to the domain edge")
    dq = 2.0 * half_width / n
    values[i] = 1.0 / np.sqrt(dq)
    return CartesianState(values, half_width)


def plane_wave_state(n: int, half_width: float, p0: float) -> CartesianState:
    """Periodic plane wave ``exp(i p0 q) / sqrt(2 L)``; ``p0`` is snapped to
    the nearest exactly periodic momentum ``pi k / L``."""
    k = round(p0 * half_width / np.pi)
    p0 = np.pi * k / half_width
    q = cartesian_grid(n, half_width)
    values = np.exp(1j * p0 * q) / np.sqrt(2.0 * half_width)
    return CartesianState(values, half_width, periodic=True)


# ---------------------------------------------------------------------------
# planar rotor


@dataclass(frozen=True)
class AngleState:
    """Angular-momentum coefficients ``c_m`` for consecutive integers
    ``m = m_min .. m_min + len(coeffs) - 1``; unit norm within 1e-12."""

    coeffs: np.ndarray
    m_min: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d array")
        norm2 = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm2 - 1.0) <= 1e-12:
            raise ValueError(f"sum |c_m|^2 = {norm2!r}, must be 1 within 1e-12")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def m_values(self) -> np.ndarray:
        return self.m_min + np.arange(self.coeffs.size)


def angle_amplitude(state: AngleState, theta) -> np.ndarray:
    """``psi(theta) = (2 pi)^{-1/2} sum_m c_m exp(i m theta)``."""
    theta = np.asarray(theta, dtype=float)
    phases = np.exp(1j * np.multiply.outer(theta, state.m_values))
    return (phases @ state.coeffs) / np.sqrt(2.0 * np.pi)


def _angle_kernel(q):
    """Shift-integral kernel by cross-frequency ``q = mu + nu - 2m``:
    ``1/(2 pi)`` at q = 0, ``(-1)^((q-1)/2) / (pi^2 q)`` for odd q, else 0."""
    q = np.asarray(q)
    out = np.zeros(q.shape, dtype=float)
    out[q == 0] = 1.0 / (2.0 * np.pi)
    odd = (q % 2) != 0
    qo = q[odd]
    out[odd] = np.where(qo % 4 == 1, 1.0, -1.0) / (np.pi**2 * qo)
    return out


def angle_wigner_table(state: AngleState, thetas, ms) -> np.ndarray:
    """Rotor Wigner values on ``thetas x ms`` (``ms`` integers), shape
    ``(len(thetas), len(ms))``."""
    thetas = np.asarray(thetas, dtype=float)
    ms = np.asarray(ms, dtype=int)
    c = state.coeffs
    n = c.size
    # a coefficient pair (mu, nu) enters with the phase exp(i (mu - nu)
    # theta) and the kernel at q = mu + nu - 2m, so the pairs are summed by
    # s = mu + nu first, leaving one kernel matrix over (s, m); the phase
    # columns run over mu - nu = n-1 .. 1-n, so a pure mode stays exact
    phase = np.exp(1j * np.multiply.outer(thetas, np.arange(n - 1, -n, -1)))
    a = np.zeros(phase.shape, dtype=complex)
    for i in range(n):
        a[..., i : i + n] += c[i] * np.conj(c) * phase[..., n - 1 - i : 2 * n - 1 - i]
    s = 2 * state.m_min + np.arange(2 * n - 1)
    return a.real @ _angle_kernel(s[:, None] - 2 * ms[None, :])


def angle_wigner(state: AngleState, theta: float, m: int) -> float:
    """Rotor Wigner value at one point; ``m`` must be an integer."""
    if m != int(m):
        raise ValueError("the angular-momentum argument must be an integer")
    return float(angle_wigner_table(state, [theta], [int(m)])[0, 0])


def weyl_expectation(
    state: AngleState, n: int, tau: float, side: str = "operator"
):
    """Both sides of the rotor Weyl-pair expectation identity.

    ``side='operator'`` (default): coefficient-space value
    ``exp(-i n tau / 2) sum_m c*_{m+n} c_m exp(-i tau m)``.

    ``side='phase_space'``: the independent evaluation
    ``int dtheta sum_m W(theta, m) exp(i (n theta - tau m))`` from Wigner
    values — exact trigonometric quadrature in ``theta``, and the infinite
    ``m``-sum handled by window-averaged partial sums (the tail alternates
    with a 1/|m| envelope for odd ``n``).

    Requires ``|tau| < pi``.
    """
    if not abs(tau) < np.pi:
        raise DomainError(f"tau must satisfy |tau| < pi, got {tau!r}")
    n = int(n)
    if side == "operator":
        c = state.coeffs
        mv = state.m_values
        total = 0.0 + 0.0j
        for i, m in enumerate(mv):
            k = m + n - state.m_min
            if 0 <= k < c.size:
                total += np.conj(c[k]) * c[i] * np.exp(-1j * tau * m)
        return complex(np.exp(-1j * n * tau / 2.0) * total)
    if side != "phase_space":
        raise ValueError(f"side must be 'operator' or 'phase_space', got {side!r}")
    mv = state.m_values
    n_theta = 4 * (int(np.max(np.abs(mv))) + abs(n)) + 8
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta - np.pi
    dtheta = 2.0 * np.pi / n_theta
    m_center = int(round(np.mean(mv)))
    q_cut, window = 8192, 1024
    ms = np.arange(m_center - q_cut, m_center + q_cut + 1)
    table = angle_wigner_table(state, thetas, ms)
    theta_int = (np.exp(1j * n * thetas) * dtheta) @ table
    terms = theta_int * np.exp(-1j * tau * ms)
    # symmetric partial sums S_M over m-shells, smoothed by two passes of a
    # sliding mean to damp the oscillatory 1/|m| tail
    half = q_cut
    base = terms[half]
    ring = terms[half + 1 :][:half] + terms[:half][::-1][:half]
    csum = base + np.concatenate(([0.0], np.cumsum(ring)))
    kernel = np.ones(window) / window
    smooth = np.convolve(np.convolve(csum, kernel, "valid"), kernel, "valid")
    return complex(smooth[-1])


def so2_midpoint(theta1: float, theta2: float) -> float:
    """Shorter-arc geodesic mid-point of two angles, in ``(-pi, pi]``.

    Translation-covariant: shifting both arguments shifts the mid-point.
    Antipodal arguments (separation pi) have no unique shorter arc.
    """
    from .errors import AntipodalPair

    def wrap(x):
        return np.pi - np.mod(np.pi - x, 2.0 * np.pi)

    t1 = wrap(theta1)
    delta = wrap(theta2 - t1)
    if abs(abs(delta) - np.pi) < 1e-9:
        raise AntipodalPair(
            f"angles {theta1!r}, {theta2!r} are antipodal; mid-point undefined"
        )
    return float(wrap(t1 + 0.5 * delta))


@lru_cache(maxsize=64)
def _half_period_rule(n_nodes: int, nu_max: int):
    """Quadrature nodes/weights on (-pi/2, pi/2) integrating exp(i nu k)
    exactly for all |nu| <= nu_max."""
    k = -np.pi / 2.0 + np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    nu = np.arange(-nu_max, nu_max + 1)
    a = np.exp(1j * np.outer(nu, k))
    b = np.where(nu == 0, np.pi, 2.0 * np.sin(nu * np.pi / 2.0) / np.where(nu == 0, 1, nu))
    w, *_ = np.linalg.lstsq(a, b.astype(complex), rcond=None)
    w = w.real
    return k, w


def so2_wigner_general(state: AngleState, theta: float, m: int) -> float:
    """Rotor Wigner value from the generic mid-point pattern: the half-period
    shift integral

        W(theta, m) = (1/pi) int_{-pi/2}^{pi/2} dk
                      psi(theta + k) psi*(theta - k) exp(-2 i m k)

    evaluated with a trigonometric-moment-matched rule (exact for this
    state's cross-frequency content)."""
    if m != int(m):
        raise ValueError("the angular-momentum argument must be an integer")
    m = int(m)
    mv = state.m_values
    nu_max = int(2 * np.max(np.abs(mv)) + 2 * abs(m))
    n_nodes = 2 * nu_max + 9
    k, w = _half_period_rule(n_nodes, nu_max)
    vals = (
        angle_amplitude(state, theta + k)
        * np.conj(angle_amplitude(state, theta - k))
        * np.exp(-2j * m * k)
    )
    return float((w @ vals).real / np.pi)


# ---------------------------------------------------------------------------
# payloads


def cartesian_to_payload(state: CartesianState) -> dict:
    return {
        "group": "cartesian",
        "half_width": float(state.half_width),
        "periodic": bool(state.periodic),
        "re": np.real(state.values).tolist(),
        "im": np.imag(state.values).tolist(),
    }


def _payload_samples(payload, group: str) -> np.ndarray:
    """The complex samples ``re + i im`` of an so2 or cartesian payload."""
    if not isinstance(payload, dict) or payload.get("group") != group:
        raise SchemaError(f"expected a payload with group {group!r}")
    try:
        real, imag = (
            _number_array(payload[k], f"{group} field {k!r}") for k in ("re", "im")
        )
    except KeyError as exc:
        raise SchemaError(f"missing {group} field {exc}") from None
    if real.ndim != 1 or real.shape != imag.shape:
        raise SchemaError(f"{group} fields 're' and 'im' must be equal-length lists")
    return real + 1j * imag


def cartesian_from_payload(payload) -> CartesianState:
    values = _payload_samples(payload, "cartesian")
    what = "cartesian field 'half_width'"
    half_width = _number_array(payload.get("half_width"), what)
    periodic = payload.get("periodic", False)
    if half_width.ndim != 0:
        raise SchemaError(f"{what} must be a number")
    if not isinstance(periodic, bool):
        raise SchemaError("cartesian field 'periodic' must be true or false")
    try:
        return CartesianState(values, float(half_width), periodic)
    except ValueError as exc:
        raise SchemaError(f"invalid cartesian state: {exc}") from None


def angle_to_payload(state: AngleState) -> dict:
    return {
        "group": "so2",
        "m_min": int(state.m_min),
        "re": np.real(state.coeffs).tolist(),
        "im": np.imag(state.coeffs).tolist(),
    }


def angle_from_payload(payload) -> AngleState:
    coeffs = _payload_samples(payload, "so2")
    m_min = payload.get("m_min")
    if not _is_count(m_min):
        raise SchemaError("so2 field 'm_min' must be an integer")
    try:
        return AngleState(coeffs, m_min)
    except ValueError as exc:
        raise SchemaError(f"invalid so2 state: {exc}") from None
