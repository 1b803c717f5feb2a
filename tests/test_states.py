"""
Tests for block-coefficient states: synthesis/analysis, translations,
pointwise multiplication by matrix elements, harmonic projectors, ensembles
and the JSON payload schema.  The main independent reference is pointwise
evaluation: every operator identity is checked by comparing wavefunction
values at random group elements, with the spin-1/2 values tied to the
literal defining 2x2 matrices.
"""

import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupwigner import grids, irreps, states, su2
from groupwigner.errors import DomainError, GridTooCoarse, SchemaError

RNG_SEED = 20240813

GRID = grids.haar_grid(10, 5, 20)


def test_block_state_validation():
    with pytest.raises(ValueError):
        states.BlockState(())
    with pytest.raises(ValueError):
        states.BlockState((np.zeros((2, 2)),))  # two_j = 0 block must be 1x1
    s = states.BlockState((np.array([[1.0]]), np.eye(2)))
    assert s.two_jmax == 1
    assert s.blocks[1].dtype == complex


def test_basis_state_entries_and_orthonormality():
    s = states.basis_state(2, 2, -2)
    assert s.two_jmax == 2
    assert s.blocks[2][0, 2] == 1.0
    assert np.count_nonzero(s.blocks[2]) == 1
    labels = [
        (two_j, int(m), int(n))
        for two_j in range(3)
        for m in irreps.two_m_values(two_j)
        for n in irreps.two_m_values(two_j)
    ]
    for la in labels:
        for lb in labels:
            ip = states.inner_product(
                states.basis_state(*la, two_jmax=2), states.basis_state(*lb, two_jmax=2)
            )
            assert_allclose(ip, 1.0 if la == lb else 0.0, atol=1e-15)


def test_synthesize_constant_block():
    # the two_j = 0 component is the constant function
    s = states.BlockState((np.array([[0.3 + 0.4j]]),))
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 7)
    assert_allclose(states.synthesize(s, g), np.full(7, 0.3 + 0.4j), atol=1e-15)


def test_synthesize_spin_half_frozen():
    # psi = sqrt(2) D^{1/2}_{mn} ties directly to the defining matrix entries
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 9)
    u = su2.to_matrix(g)
    for i in range(2):
        for k in range(2):
            block = np.zeros((2, 2), dtype=complex)
            block[i, k] = 1.0
            s = states.BlockState((np.zeros((1, 1)), block))
            assert_allclose(
                states.synthesize(s, g), np.sqrt(2.0) * u[:, i, k], atol=1e-13
            )


def test_norm_and_parseval_on_grid():
    rng = np.random.default_rng(RNG_SEED)
    for two_jmax in (0, 1, 2, 3):
        s = states.random_state(rng, two_jmax)
        assert_allclose(states.norm(s), 1.0, atol=1e-13)
        vals = states.synthesize(s, GRID.nodes)
        quad_norm2 = float(GRID.weights @ (np.abs(vals) ** 2))
        assert_allclose(quad_norm2, 1.0, atol=1e-11)


@pytest.mark.parametrize("two_jmax", [0, 1, 2, 3])
def test_analyze_inverts_synthesize(two_jmax):
    rng = np.random.default_rng(RNG_SEED + two_jmax)
    s = states.random_state(rng, two_jmax)
    back = states.analyze(states.synthesize(s, GRID.nodes), two_jmax, GRID)
    for b1, b2 in zip(back.blocks, s.blocks):
        assert_allclose(b1, b2, atol=1e-11)


def test_analyze_accepts_callable_and_band_limits():
    # a pure two_j = 2 function has no content below; analysis to band 1
    # returns (numerically) zero blocks
    s = states.basis_state(2, 0, 0)
    low = states.analyze(lambda g: states.synthesize(s, g), 1, GRID)
    for b in low.blocks:
        assert np.max(np.abs(b)) < 1e-11


def test_analyze_raises_on_coarse_grid():
    tiny = grids.haar_grid(2, 1, 4)
    with pytest.raises(GridTooCoarse):
        states.analyze(np.zeros(tiny.n_nodes), 2, tiny)
    with pytest.raises(ValueError):
        states.analyze(np.zeros(3), 1, GRID)


def test_translations_pointwise():
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 2)
    g1, g2 = su2.random_elements(rng, 2)
    probes = su2.random_elements(rng, 11)
    left = states.left_translate(s, g1)
    assert_allclose(
        states.synthesize(left, probes),
        states.synthesize(s, su2.mul(su2.inverse(g1), probes)),
        atol=1e-12,
    )
    right = states.right_translate(s, g2)
    assert_allclose(
        states.synthesize(right, probes),
        states.synthesize(s, su2.mul(probes, g2)),
        atol=1e-12,
    )


def test_translations_compose_and_preserve_norm():
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 2)
    g1, g2 = su2.random_elements(rng, 2)
    twice = states.left_translate(states.left_translate(s, g1), g2)
    combined = states.left_translate(s, su2.mul(g2, g1))
    for b1, b2 in zip(twice.blocks, combined.blocks):
        assert_allclose(b1, b2, atol=1e-13)
    assert_allclose(states.norm(twice), 1.0, atol=1e-13)
    assert_allclose(
        states.norm(states.right_translate(s, g2)), 1.0, atol=1e-13
    )


# ---------------------------------------------------------------------------
# the operator algebra of the canonical momentum (multiplication by D^j_mn,
# translated multipliers, harmonic projectors), which no package path runs;
# kept here as references over the package's Clebsch-Gordan data, d-matrices,
# translations and Haar grids


def _u_multiply(state, two_j, two_m, two_n):
    """Multiply the wavefunction pointwise by ``D^j_{mn}(g)``: the
    Clebsch-Gordan coupled sum, band ``two_jmax + two_j``."""
    out = states.zero_state(state.two_jmax + two_j)
    for two_jp, block in enumerate(state.blocks):
        labels = irreps.two_m_values(two_jp).tolist()
        for two_jpp in range(abs(two_j - two_jp), two_j + two_jp + 1, 2):
            scale = np.sqrt((two_jp + 1.0) / (two_jpp + 1.0))
            for (ip, mp), (kp, np_) in itertools.product(enumerate(labels), repeat=2):
                mpp, npp = two_m + mp, two_n + np_
                if abs(mpp) > two_jpp or abs(npp) > two_jpp:
                    continue
                cm = irreps.clebsch_gordan(two_j, two_m, two_jp, mp, two_jpp, mpp)
                cn = irreps.clebsch_gordan(two_j, two_n, two_jp, np_, two_jpp, npp)
                out.blocks[two_jpp][(two_jpp - mpp) // 2, (two_jpp - npp) // 2] += (
                    scale * cm * cn * block[ip, kp]
                )
    return out


def _dhat_apply(state, g, two_j, two_m, two_n, side="left"):
    """Multiply by ``D^j_{mn}``, then translate by ``g`` (``side='left'``:
    ``psi -> psi(g^{-1} .)``; ``side='right'``: ``psi -> psi(. g)``)."""
    translate = {"left": states.left_translate, "right": states.right_translate}
    if side not in translate:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return translate[side](_u_multiply(state, two_j, two_m, two_n), g)


def _fourier_projector(state, two_j, two_m, two_n, grid, side="left"):
    """The harmonic projector ``N_J int dg D^J_{MN}(g) x (translation by g)``
    as a quadrature over ``grid``; ``side='right'`` translates on the right,
    with ``D^J_{MN}(g^{-1})`` under the integral."""
    grid._require_band(max(state.two_jmax, two_j), "projector")
    i, k = (two_j - two_m) // 2, (two_j - two_n) // 2
    at = grid.nodes if side == "left" else su2.inverse(grid.nodes)
    wsc = (two_j + 1.0) * grid.weights * irreps.dmatrix(two_j, at)[:, i, k]
    blocks = []
    for two_jp, block in enumerate(state.blocks):
        d = irreps.dmatrix(two_jp, grid.nodes)
        if side == "left":
            blocks.append(np.einsum("x,xab->ab", wsc, np.conj(d)) @ block)
        else:
            # right translation by node g uses D^{J'}(g).T on the right
            blocks.append(block @ np.einsum("x,xba->ab", wsc, d))
    return states.BlockState(tuple(blocks))


@pytest.mark.parametrize(
    "two_j,two_m,two_n", [(1, 1, -1), (1, -1, 1), (2, 0, 2), (2, -2, 0)]
)
def test_u_multiply_pointwise(two_j, two_m, two_n):
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 2)
    probes = su2.random_elements(rng, 13)
    lifted = _u_multiply(s, two_j, two_m, two_n)
    assert lifted.two_jmax == s.two_jmax + two_j
    i = (two_j - two_m) // 2
    k = (two_j - two_n) // 2
    factor = irreps.dmatrix(two_j, probes)[:, i, k]
    assert_allclose(
        states.synthesize(lifted, probes),
        factor * states.synthesize(s, probes),
        atol=1e-12,
    )


@pytest.mark.parametrize("side", ["left", "right"])
def test_dhat_apply_pointwise(side):
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 1)
    g = su2.random_elements(rng, 1)[0]
    probes = su2.random_elements(rng, 9)
    moved = _dhat_apply(s, g, 1, 1, -1, side=side)
    arg = (
        su2.mul(su2.inverse(g), probes) if side == "left" else su2.mul(probes, g)
    )
    factor = irreps.dmatrix(1, arg)[:, 0, 1]
    assert_allclose(
        states.synthesize(moved, probes),
        factor * states.synthesize(s, arg),
        atol=1e-12,
    )
    with pytest.raises(ValueError):
        _dhat_apply(s, g, 1, 1, -1, side="middle")


def test_fourier_projector_on_basis_states():
    # left: |J' M' N'> -> delta_{J J'} delta_{N M'} |J M N'>
    # right: |J' M' N'> -> delta_{J J'} delta_{M N'} |J' M' N>
    two_j, two_m, two_n = 1, 1, -1
    for two_jp in (0, 1):
        for two_mp in irreps.two_m_values(two_jp):
            for two_np in irreps.two_m_values(two_jp):
                basis = states.basis_state(
                    two_jp, int(two_mp), int(two_np), two_jmax=1
                )
                out_l = _fourier_projector(
                    basis, two_j, two_m, two_n, GRID, side="left"
                )
                want_l = states.zero_state(1)
                if two_jp == two_j and int(two_mp) == two_n:
                    want_l = states.basis_state(
                        two_j, two_m, int(two_np), two_jmax=1
                    )
                for b1, b2 in zip(out_l.blocks, want_l.blocks):
                    assert_allclose(b1, b2, atol=1e-11)
                out_r = _fourier_projector(
                    basis, two_j, two_m, two_n, GRID, side="right"
                )
                want_r = states.zero_state(1)
                if two_jp == two_j and int(two_np) == two_m:
                    want_r = states.basis_state(
                        two_j, int(two_mp), two_n, two_jmax=1
                    )
                for b1, b2 in zip(out_r.blocks, want_r.blocks):
                    assert_allclose(b1, b2, atol=1e-11)


def test_fourier_projector_composition():
    # E_{MN} E_{PQ} = delta_{NP} E_{MQ} on a generic state
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 1)
    first = _fourier_projector(s, 1, -1, 1, GRID, side="left")
    second = _fourier_projector(first, 1, 1, -1, GRID, side="left")
    direct = _fourier_projector(s, 1, 1, 1, GRID, side="left")
    for b1, b2 in zip(second.blocks, direct.blocks):
        assert_allclose(b1, b2, atol=1e-10)


def test_fourier_projector_coarse_grid_raises():
    tiny = grids.haar_grid(2, 1, 4)
    s = states.basis_state(1, 1, 1)
    with pytest.raises(GridTooCoarse):
        _fourier_projector(s, 1, 1, 1, tiny)


def test_density_ensemble_validation():
    s = states.basis_state(0, 0, 0)
    with pytest.raises(ValueError):
        states.DensityEnsemble((0.5, 0.6), (s, s))  # weights must sum to 1
    with pytest.raises(ValueError):
        states.DensityEnsemble((1.0, -0.0), (s, s))
    with pytest.raises(ValueError):
        states.DensityEnsemble((1.0,), ())
    with pytest.raises(ValueError):
        states.DensityEnsemble((float("nan"), 1.0), (s, s))
    rho = states.DensityEnsemble((0.25, 0.75), (s, states.basis_state(1, 1, 1)))
    assert rho.two_jmax == 1


def test_trace_product_frozen_and_symmetry():
    a = states.basis_state(1, 1, 1)
    b = states.basis_state(1, 1, -1)
    assert_allclose(states.trace_product(a, a), 1.0, atol=1e-14)
    assert_allclose(states.trace_product(a, b), 0.0, atol=1e-14)
    rng = np.random.default_rng(RNG_SEED)
    s1 = states.random_state(rng, 2)
    s2 = states.random_state(rng, 2)
    assert_allclose(
        states.trace_product(s1, s2),
        abs(states.inner_product(s1, s2)) ** 2,
        atol=1e-13,
    )
    rho = states.DensityEnsemble((0.4, 0.6), (s1, s2))
    assert_allclose(
        states.trace_product(rho, s1),
        states.trace_product(s1, rho),
        atol=1e-13,
    )


def test_ensemble_kernel_matches_sum():
    rng = np.random.default_rng(RNG_SEED)
    s1 = states.random_state(rng, 1)
    s2 = states.random_state(rng, 2)
    rho = states.DensityEnsemble((0.3, 0.7), (s1, s2))
    g1 = su2.random_elements(rng, 5)
    g2 = su2.random_elements(rng, 5)
    want = 0.3 * states.synthesize(s1, g1) * np.conj(
        states.synthesize(s1, g2)
    ) + 0.7 * states.synthesize(s2, g1) * np.conj(states.synthesize(s2, g2))
    assert_allclose(states.ensemble_kernel(rho, g1, g2), want, atol=1e-13)
    # hermiticity of the kernel
    assert_allclose(
        states.ensemble_kernel(rho, g2, g1),
        np.conj(states.ensemble_kernel(rho, g1, g2)),
        atol=1e-13,
    )


_E = su2.identity()
BAD_ELEMENTS = {
    "3e": 3.0 * _E,
    "nan": np.array([np.nan, 0.0, 0.0, 0.0]),
    "inf": np.array([np.inf, 0.0, 0.0, 0.0]),
}
ELEMENT_ENTRY_POINTS = {
    "synthesize": states.synthesize,
    "synthesize batch": lambda s, g: states.synthesize(s, [_E, g]),
    "left_translate": states.left_translate,
    "right_translate": states.right_translate,
    "ensemble_kernel row": lambda s, g: states.ensemble_kernel(s, g, _E),
    "ensemble_kernel col": lambda s, g: states.ensemble_kernel(s, _E, g),
}


@pytest.mark.parametrize("bad", sorted(BAD_ELEMENTS))
@pytest.mark.parametrize("entry", sorted(ELEMENT_ENTRY_POINTS))
def test_non_unit_group_elements_raise(entry, bad):
    s = states.random_state(np.random.default_rng(RNG_SEED), 2)
    with pytest.raises(DomainError):
        ELEMENT_ENTRY_POINTS[entry](s, BAD_ELEMENTS[bad])


def test_density_coefficients_outer_products():
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 2)
    for two_j in range(3):
        got = states.density_coefficients(s, two_j)
        block = s.blocks[two_j]
        want = np.einsum("mn,pq->mnpq", np.conj(block), block)
        assert_allclose(got, want, atol=1e-14)
    assert_allclose(
        states.density_coefficients(s, 4), np.zeros((5, 5, 5, 5)), atol=1e-15
    )


def test_mollified_state_peaks_at_center():
    center = su2.from_euler(0.8, 1.2, 0.5)
    s = states.mollified_state(center, 0.45, 4, grids.haar_grid(14, 7, 28))
    assert_allclose(states.norm(s), 1.0, atol=1e-12)
    peak = abs(states.synthesize(s, center))
    rng = np.random.default_rng(RNG_SEED)
    far = su2.random_elements(rng, 50)
    keep = su2.distance(far, center) > 1.0
    assert np.all(abs(states.synthesize(s, far[keep])) < peak)


def test_payload_round_trip_pure():
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 2)
    payload = states.state_to_payload(s)
    assert payload["group"] == "su2"
    assert payload["jmax_twice"] == 2
    assert payload["normalized"] is True
    back = states.state_from_payload(payload)
    assert len(back.states) == 1
    for b1, b2 in zip(back.states[0].blocks, s.blocks):
        assert_allclose(b1, b2, atol=1e-15)


def test_payload_round_trip_ensemble():
    rng = np.random.default_rng(RNG_SEED)
    rho = states.DensityEnsemble(
        (0.2, 0.8),
        (states.random_state(rng, 1), states.random_state(rng, 2)),
    )
    back = states.state_from_payload(states.state_to_payload(rho))
    assert back.weights == rho.weights
    for sa, sb in zip(back.states, rho.states):
        assert sa.two_jmax == 2  # payload pads every component to jmax_twice
        for two_j in range(sb.two_jmax + 1):
            assert_allclose(sa.blocks[two_j], sb.blocks[two_j], atol=1e-15)


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"group": "so2"},
        {"group": "su2", "jmax_twice": -1, "blocks": []},
        {"group": "su2", "jmax_twice": 1},
        {"group": "su2", "jmax_twice": 0, "blocks": [{"two_j": 0}]},
        {
            "group": "su2",
            "jmax_twice": 0,
            "blocks": [{"two_j": 0, "re": [[1.0, 2.0]], "im": [[0.0]]}],
        },
        {
            "group": "su2",
            "jmax_twice": 0,
            "blocks": [
                {"two_j": 0, "re": [[1.0]], "im": [[0.0]]},
                {"two_j": 0, "re": [[1.0]], "im": [[0.0]]},
            ],
        },
        {"group": "su2", "jmax_twice": 0, "weights": [1.0], "components": [{}]},
        {"group": "su2", "jmax_twice": 0, "weights": [0.7], "components": []},
        {"group": "su2", "jmax_twice": True, "blocks": []},
        {
            "group": "su2",
            "jmax_twice": 1,
            "blocks": [
                {"two_j": True, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0]] * 2}
            ],
        },
        {
            "group": "su2",
            "jmax_twice": 0,
            "blocks": [{"two_j": 0, "re": [[float("nan")]], "im": [[0.0]]}],
        },
        {
            "group": "su2",
            "jmax_twice": 0,
            "blocks": [{"two_j": 0, "re": [[1.0]], "im": [[float("inf")]]}],
        },
        {
            "group": "su2",
            "jmax_twice": 0,
            "weights": [float("nan"), 1.0],
            "components": [
                {"blocks": [{"two_j": 0, "re": [[1.0]], "im": [[0.0]]}]},
                {"blocks": [{"two_j": 0, "re": [[1.0]], "im": [[0.0]]}]},
            ],
        },
    ],
)
def test_payload_schema_errors(payload):
    with pytest.raises(SchemaError):
        states.state_from_payload(payload)


def test_save_and_load_state(tmp_path):
    rng = np.random.default_rng(RNG_SEED)
    s = states.random_state(rng, 1)
    path = tmp_path / "state.json"
    states.save_state(s, path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    assert raw["group"] == "su2"
    back = states.load_state(path)
    for b1, b2 in zip(back.states[0].blocks, s.blocks):
        assert_allclose(b1, b2, atol=1e-15)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        states.load_state(bad)
    with pytest.raises(SchemaError, match="cannot read"):
        states.load_state(tmp_path / "missing.json")
