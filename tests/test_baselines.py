"""
Tests for the two flat-space reference constructions: the Cartesian line
(discretized standard Wigner transform) and the planar rotor (angle and
integer angular momentum).  References are textbook closed forms (oscillator
Wigner functions, the pure-mode rotor distribution), exact marginal and
flatness identities, and agreement between independent evaluation routes.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupwigner import baselines
from groupwigner.errors import AntipodalPair, DomainError, OutOfDomain, SchemaError

RNG_SEED = 20240815


# ---------------------------------------------------------------------------
# Cartesian line


def test_cartesian_state_validation():
    q = baselines.cartesian_grid(256, 8.0)
    psi = np.pi**-0.25 * np.exp(-(q**2) / 2.0)
    ok = baselines.CartesianState(psi.astype(complex), 8.0)
    assert ok.n == 256
    assert_allclose(ok.dq, 16.0 / 256)
    assert_allclose(ok.q, q)
    with pytest.raises(ValueError):
        baselines.CartesianState(2.0 * psi.astype(complex), 8.0)  # norm
    with pytest.raises(ValueError):
        baselines.CartesianState(np.ones(3, complex), 8.0)  # too few samples
    with pytest.raises(ValueError):
        baselines.CartesianState(psi.astype(complex), -1.0)
    flat = np.full(256, 1.0 / 4.0, dtype=complex)  # no edge decay
    with pytest.raises(ValueError):
        baselines.CartesianState(flat, 8.0)
    # the same profile is valid as a periodic state
    per = baselines.CartesianState(flat, 8.0, periodic=True)
    assert per.periodic


def test_cartesian_state_norm_rule():
    # non-periodic states are normed by the trapezoid rule, periodic ones by
    # the rectangle rule over one period; the two differ by the edge samples
    n, half_width = 8, 2.0
    dq = 2.0 * half_width / n
    edged = np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0], dtype=complex)
    rect = edged / np.sqrt(2.0 * dq)
    trap = edged / np.sqrt(dq)
    assert baselines.CartesianState(rect, half_width, periodic=True).periodic
    with pytest.raises(ValueError, match="norm"):
        baselines.CartesianState(trap, half_width, periodic=True)
    inner = np.array([0, 1.0, 0, 0, 0, 0, 1.0, 0], dtype=complex) / np.sqrt(2.0 * dq)
    assert not baselines.CartesianState(inner, half_width).periodic


def test_cartesian_grid_frozen():
    assert_allclose(baselines.cartesian_grid(4, 2.0), [-2.0, -1.0, 0.0, 1.0])
    # conjugate grid for n = 4, L = 2 (dq = 1): pi (l - 2) / 4
    psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    s = baselines.CartesianState(psi, 2.0)
    assert_allclose(
        baselines.cartesian_p_grid(s),
        [-np.pi / 2, -np.pi / 4, 0.0, np.pi / 4],
        atol=1e-15,
    )


@pytest.mark.parametrize("level", [0, 1])
def test_oscillator_wigner_closed_form(level):
    state = baselines.oscillator_state(level)
    q = state.q
    table = baselines.cartesian_wigner_table(state, q)
    qq, pp = q[:, None], q[None, :]
    r2 = qq**2 + pp**2
    if level == 0:
        target = np.exp(-r2) / np.pi
    else:
        target = (2.0 / np.pi) * (r2 - 0.5) * np.exp(-r2)
    assert np.max(np.abs(table - target)) < 1e-9


def test_oscillator_ground_state_nonnegative():
    table = baselines.cartesian_wigner_table(baselines.oscillator_state(0))
    assert table.min() > -1e-12


def test_cartesian_wigner_single_point_matches_table():
    state = baselines.oscillator_state(1)
    ps = np.array([-0.7, 0.0, 1.3])
    got = baselines.cartesian_wigner(state, 0.5, ps)
    i = int(round((0.5 + 8.0) / state.dq))
    table = baselines.cartesian_wigner_table(state, ps)
    assert_allclose(got, table[i], atol=1e-13)


@pytest.mark.parametrize("periodic", [False, True], ids=["padded", "periodic"])
def test_cartesian_wigner_array_q_matches_table_rows(periodic):
    if periodic:
        state = baselines.plane_wave_state(255, 8.0, 2.0)
    else:
        state = baselines.oscillator_state(1, n=256)
    qs = np.array([[-8.0, -3.26, 0.5], [0.03, 2.0, 7.9]])
    ps = np.array([-0.7, 0.0, 1.3, 4.0])
    got = baselines.cartesian_wigner(state, qs, ps)
    assert got.shape == (2, 3, 4)
    nodes = np.rint((qs + 8.0) / state.dq).astype(int)
    table = baselines.cartesian_wigner_table(state, ps)
    # the same transform on other row blocks: equal up to the BLAS summation
    assert_allclose(got, table[nodes], rtol=0, atol=1e-15)
    assert baselines.cartesian_wigner(state, 0.5, 0.0).shape == ()
    assert baselines.cartesian_wigner(state, qs, 0.0).shape == (2, 3)
    assert baselines.cartesian_wigner(state, [], ps).shape == (0, 4)


def test_cartesian_marginals():
    state = baselines.oscillator_state(1)
    table = baselines.cartesian_wigner_table(state)
    dp = np.pi / (state.n * state.dq)
    assert np.max(np.abs(table.sum(axis=1) * dp - np.abs(state.values) ** 2)) < 1e-12
    pgrid = baselines.cartesian_p_grid(state)
    amp = baselines.cartesian_momentum_amplitude(state, pgrid)
    assert np.max(np.abs(table.sum(axis=0) * state.dq - np.abs(amp) ** 2)) < 1e-6


def test_momentum_amplitude_gaussian_closed_form():
    state = baselines.oscillator_state(0)
    p = np.linspace(-3.0, 3.0, 13)
    amp = baselines.cartesian_momentum_amplitude(state, p)
    target = np.pi**-0.25 * np.exp(-(p**2) / 2.0)
    assert_allclose(amp, target, atol=1e-10)


def test_delta_state_flat_in_momentum():
    state = baselines.delta_state(256, 8.0, 1.5)
    ps = baselines.cartesian_p_grid(state)
    w = baselines.cartesian_wigner(state, 1.5, ps)
    assert_allclose(w, np.full_like(w, 1.0 / np.pi), atol=1e-13)
    with pytest.raises(OutOfDomain):
        baselines.delta_state(256, 8.0, 7.999)


def test_plane_wave_flat_in_position():
    state = baselines.plane_wave_state(256, 8.0, 2.0)
    p0 = np.pi * round(2.0 * 8.0 / np.pi) / 8.0
    w = baselines.cartesian_wigner_table(state, np.array([p0]))[:, 0]
    assert_allclose(w, np.full_like(w, 1.0 / np.pi), atol=1e-13)
    # every other conjugate-grid momentum carries exactly zero
    ps = baselines.cartesian_p_grid(state)
    off = ps[np.abs(ps - p0) > 1e-9]
    table = baselines.cartesian_wigner_table(state, off)
    assert np.max(np.abs(table)) < 1e-12


def test_cartesian_out_of_domain():
    state = baselines.oscillator_state(0)
    with pytest.raises(OutOfDomain):
        baselines.cartesian_wigner(state, 8.5, 0.0)
    # the left endpoint is a grid node and must be accepted
    w = baselines.cartesian_wigner(state, -8.0, 0.0)
    assert abs(float(w)) < 1e-12
    ps = np.array([0.0, 1.0])
    for state in (
        baselines.oscillator_state(0, n=256),
        baselines.plane_wave_state(256, 8.0, 2.0),
    ):
        # +L is the excluded right endpoint, and a q just below it rounds to
        # its node n; a periodic state must not wrap either onto node 0
        edges = (8.0, 8.0 - 0.4 * state.dq, 8.0 + 1e-9, 9.0, -8.0 - 1e-9, -9.0, np.nan)
        for q in edges:
            with pytest.raises(OutOfDomain):
                baselines.cartesian_wigner(state, q, 0.0)
            with pytest.raises(OutOfDomain):
                baselines.cartesian_wigner(state, np.array([0.0, q]), ps)
        # the left endpoint is node 0, as is a q rounding down to it
        left = baselines.cartesian_wigner(state, [-8.0, -8.0 + 0.4 * state.dq], ps)
        row = baselines.cartesian_wigner_table(state, ps)[0]
        assert_allclose(left, [row, row], rtol=0, atol=1e-15)
        assert_allclose(baselines.cartesian_wigner(state, -8.0, ps), row, rtol=0, atol=1e-15)


def test_cartesian_payload_round_trip():
    state = baselines.oscillator_state(1, n=64, half_width=8.0)
    payload = baselines.cartesian_to_payload(state)
    assert payload["group"] == "cartesian"
    back = baselines.cartesian_from_payload(payload)
    assert back.half_width == state.half_width
    assert back.periodic == state.periodic
    assert_allclose(back.values, state.values, atol=1e-15)
    with pytest.raises(SchemaError):
        baselines.cartesian_from_payload({"group": "su2"})
    with pytest.raises(SchemaError):
        baselines.cartesian_from_payload(
            {"group": "cartesian", "half_width": 1.0, "re": [1.0]}
        )


# ---------------------------------------------------------------------------
# planar rotor


def test_angle_state_validation():
    with pytest.raises(ValueError):
        baselines.AngleState(np.array([]), 0)
    with pytest.raises(ValueError):
        baselines.AngleState(np.array([0.5, 0.5]), 0)  # norm
    s = baselines.AngleState(np.array([0.6, 0.8j]), -1)
    assert np.array_equal(s.m_values, [-1, 0])


def test_angle_amplitude_pure_mode():
    m0 = 3
    state = baselines.AngleState(np.array([1.0 + 0.0j]), m0)
    thetas = np.linspace(-np.pi, np.pi, 7)
    amp = baselines.angle_amplitude(state, thetas)
    assert_allclose(
        amp, np.exp(1j * m0 * thetas) / np.sqrt(2.0 * np.pi), atol=1e-14
    )


@pytest.mark.parametrize("m0", [-2, 0, 1])
def test_pure_mode_wigner_frozen(m0):
    state = baselines.AngleState(np.eye(5)[m0 + 2].astype(complex), -2)
    thetas = np.linspace(-np.pi, np.pi, 9)
    ms = np.arange(-5, 6)
    table = baselines.angle_wigner_table(state, thetas, ms)
    target = np.where(ms == m0, 1.0 / (2.0 * np.pi), 0.0)
    assert np.max(np.abs(table - target[None, :])) < 1e-14


def test_angle_wigner_integer_argument():
    state = baselines.AngleState(np.array([1.0 + 0.0j]), 0)
    with pytest.raises(ValueError):
        baselines.angle_wigner(state, 0.3, 0.5)


def _random_angle_state(seed, m_max):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    return baselines.AngleState(c / np.linalg.norm(c), -m_max)


def _pairwise_angle_table(state, thetas, ms):
    # the defining double sum over coefficient pairs (mu, nu): phase
    # exp(i (mu - nu) theta), kernel at q = mu + nu - 2m
    mu, nu = np.meshgrid(state.m_values, state.m_values, indexing="ij")
    amp = np.outer(state.coeffs, np.conj(state.coeffs)).ravel()
    kern = baselines._angle_kernel((mu + nu).ravel()[:, None] - 2 * ms) * amp[:, None]
    return (np.exp(1j * np.multiply.outer(thetas, (mu - nu).ravel())) @ kern).real


@pytest.mark.parametrize("m_min, size", [(0, 1), (-3, 7), (2, 6), (-11, 15)])
def test_angle_wigner_table_matches_pairwise_sum(m_min, size):
    rng = np.random.default_rng(RNG_SEED + size)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    state = baselines.AngleState(c / np.linalg.norm(c), m_min)
    thetas = rng.uniform(-np.pi, np.pi, 13)
    ms = np.arange(m_min - 9, m_min + size + 9)
    assert_allclose(
        baselines.angle_wigner_table(state, thetas, ms),
        _pairwise_angle_table(state, thetas, ms),
        rtol=0,
        atol=1e-14,
    )


def test_angle_wigner_table_forms_no_pair_arrays():
    # the default export nodes of a 201-coefficient state: 64 angles and
    # |m| <= 200; the (mu, nu, m) pair arrays would take 40 401 x 401
    # entries, over 500 MB
    state = _random_angle_state(RNG_SEED, 100)
    thetas = 2.0 * np.pi * np.arange(64) / 64 - np.pi
    ms = np.arange(-200, 201)
    tracemalloc.start()
    try:
        table = baselines.angle_wigner_table(state, thetas, ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (64, 401)
    assert peak < 16 * 2**20


def test_angle_wigner_momentum_marginal():
    state = _random_angle_state(RNG_SEED, 3)
    n_theta = 64
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta - np.pi
    ms = np.arange(-8, 9)
    table = baselines.angle_wigner_table(state, thetas, ms)
    got = table.sum(axis=0) * (2.0 * np.pi / n_theta)
    target = np.zeros(ms.size)
    target[5:12] = np.abs(state.coeffs) ** 2
    assert_allclose(got, target, atol=1e-12)


def test_angle_wigner_position_marginal_parity_matched():
    # states supported on a single parity class of m recover the angular
    # density from a finite m-sum
    rng = np.random.default_rng(RNG_SEED)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeffs = np.zeros(5, complex)
    coeffs[[0, 2, 4]] = c / np.linalg.norm(c)
    state = baselines.AngleState(coeffs, -2)
    thetas = np.linspace(-np.pi, np.pi, 33)
    ms = np.arange(-8, 9)
    table = baselines.angle_wigner_table(state, thetas, ms)
    dens = np.abs(baselines.angle_amplitude(state, thetas)) ** 2
    assert_allclose(table.sum(axis=1), dens, atol=1e-12)


def test_weyl_expectation_pure_mode_frozen():
    m0 = 2
    state = baselines.AngleState(np.eye(5)[m0 + 2].astype(complex), -2)
    tau = 0.9
    assert_allclose(
        baselines.weyl_expectation(state, 0, tau),
        np.exp(-1j * tau * m0),
        atol=1e-14,
    )
    assert baselines.weyl_expectation(state, 1, tau) == 0.0
    assert baselines.weyl_expectation(state, -2, tau) == 0.0


@pytest.mark.parametrize("n,tau", [(0, 0.7), (1, -1.1), (-2, 2.5), (2, -0.3)])
def test_weyl_expectation_duality(n, tau):
    state = _random_angle_state(RNG_SEED + 1, 2)
    op = baselines.weyl_expectation(state, n, tau)
    ps = baselines.weyl_expectation(state, n, tau, side="phase_space")
    assert abs(op - ps) < 1e-6


def test_weyl_expectation_domain_and_side():
    state = _random_angle_state(RNG_SEED, 1)
    with pytest.raises(DomainError):
        baselines.weyl_expectation(state, 0, np.pi)
    with pytest.raises(DomainError):
        baselines.weyl_expectation(state, 0, -3.5)
    with pytest.raises(ValueError):
        baselines.weyl_expectation(state, 0, 0.5, side="both")


def test_so2_midpoint_frozen():
    assert_allclose(baselines.so2_midpoint(0.7, 0.7), 0.7, atol=1e-15)
    assert_allclose(baselines.so2_midpoint(0.0, np.pi / 2), np.pi / 4, atol=1e-15)
    # the shorter arc between 3.0 and -3.0 crosses the cut at pi
    assert_allclose(baselines.so2_midpoint(3.0, -3.0), np.pi, atol=1e-12)


def test_so2_midpoint_translation_covariant():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        t1, t2, phi = rng.uniform(-np.pi, np.pi, 3)
        try:
            s = baselines.so2_midpoint(t1, t2)
            s_shift = baselines.so2_midpoint(t1 + phi, t2 + phi)
        except AntipodalPair:
            continue
        wrapped = np.angle(np.exp(1j * (s_shift - s - phi)))
        assert abs(wrapped) < 1e-12


def test_so2_midpoint_antipodal_raises():
    with pytest.raises(AntipodalPair):
        baselines.so2_midpoint(0.0, np.pi)
    with pytest.raises(AntipodalPair):
        baselines.so2_midpoint(1.0, 1.0 - np.pi)


def test_half_period_rule_trigonometric_moments():
    from groupwigner.baselines import _half_period_rule

    nu_max = 6
    k, w = _half_period_rule(2 * nu_max + 9, nu_max)
    for nu in range(-nu_max, nu_max + 1):
        got = np.sum(w * np.exp(1j * nu * k))
        want = np.pi if nu == 0 else 2.0 * np.sin(nu * np.pi / 2.0) / nu
        assert_allclose(got, want, atol=1e-12)


def test_so2_general_matches_closed_form():
    state = _random_angle_state(RNG_SEED + 2, 2)
    for theta in (-2.8, -0.4, 0.0, 1.9):
        for m in range(-4, 5):
            assert_allclose(
                baselines.so2_wigner_general(state, theta, m),
                baselines.angle_wigner(state, theta, m),
                atol=1e-12,
            )
    with pytest.raises(ValueError):
        baselines.so2_wigner_general(state, 0.0, 0.5)


def test_angle_payload_round_trip():
    state = _random_angle_state(RNG_SEED, 2)
    payload = baselines.angle_to_payload(state)
    assert payload["group"] == "so2"
    back = baselines.angle_from_payload(payload)
    assert back.m_min == state.m_min
    assert_allclose(back.coeffs, state.coeffs, atol=1e-15)
    with pytest.raises(SchemaError):
        baselines.angle_from_payload({"group": "cartesian"})
    with pytest.raises(SchemaError):
        baselines.angle_from_payload({"group": "so2", "m_min": 0, "re": [1.0]})


def _cartesian_payload(**fields):
    q = baselines.cartesian_grid(64, 8.0)
    psi = np.pi**-0.25 * np.exp(-(q**2) / 2.0)
    payload = baselines.cartesian_to_payload(baselines.CartesianState(psi, 8.0))
    return {**payload, **fields}


def _angle_payload(**fields):
    payload = baselines.angle_to_payload(_random_angle_state(RNG_SEED, 2))
    return {**payload, **fields}


def test_cartesian_payload_rejects_string_periodic():
    # bool("false") is True: the string used to make a periodic state
    with pytest.raises(SchemaError):
        baselines.cartesian_from_payload(_cartesian_payload(periodic="false"))


@pytest.mark.parametrize("m_min", [2.7, True], ids=["float", "bool"])
def test_angle_payload_rejects_non_integer_m_min(m_min):
    # int(2.7) and int(True) used to read as 2 and 1
    with pytest.raises(SchemaError):
        baselines.angle_from_payload(_angle_payload(m_min=m_min))


def test_cartesian_rejects_nan_samples():
    # abs(nan - 1) > tol is false, so a NaN norm used to pass the norm check
    payload = _cartesian_payload()
    payload["re"][30] = float("nan")
    values = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    with pytest.raises(ValueError):
        baselines.CartesianState(values, 8.0)
    with pytest.raises(SchemaError):
        baselines.cartesian_from_payload(payload)
    # an infinite half-width made the norm NaN in the same way
    with pytest.raises(SchemaError):
        baselines.cartesian_from_payload(_cartesian_payload(half_width=np.inf))


def test_angle_rejects_nan_samples():
    payload = _angle_payload()
    payload["im"][1] = float("nan")
    coeffs = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    with pytest.raises(ValueError):
        baselines.AngleState(coeffs, -2)
    with pytest.raises(SchemaError):
        baselines.angle_from_payload(payload)
