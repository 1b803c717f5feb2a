"""
Tests for the mid-point phase-space distribution: full and traced blocks,
Hermiticity, covariance, both marginals, the overlap functional, kernel
reconstruction, and the brute-force mollified evaluation of the defining
pair integral.  References are structural identities (trace consistency,
covariance recomputation), coefficient-space quantities computed without any
phase-space machinery, and the constant state whose traced blocks are known
in closed form.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from groupwigner import grids, irreps, states, su2, wigner
from groupwigner.errors import AntipodalPair, DomainError, GridTooCoarse

RNG_SEED = 20240814

GGRID = grids.haar_grid(14, 7, 28)


def _kgrid(two_jmax, two_j):
    return grids.hemisphere_grid_for(two_jmax + two_j)


def _random_pure(seed, two_jmax):
    return states.random_state(np.random.default_rng(seed), two_jmax)


def _random_ensemble(seed, two_jmax):
    rng = np.random.default_rng(seed)
    return states.DensityEnsemble(
        (0.35, 0.65),
        (states.random_state(rng, two_jmax), states.random_state(rng, two_jmax)),
    )


def test_constant_state_traced_blocks_frozen():
    # the constant wavefunction has traced blocks 1 at two_j = 0 and exactly
    # zero for every two_j >= 1, in both variants
    uni = states.BlockState((np.array([[1.0]]),))
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 4)
    for variant in ("left", "right"):
        t0 = wigner.wigner_tilde_batch(uni, g, 0, _kgrid(0, 2), variant)
        assert_allclose(t0, np.ones_like(t0), atol=1e-13)
        for two_j in (1, 2):
            t = wigner.wigner_tilde_batch(uni, g, two_j, _kgrid(0, two_j), variant)
            assert np.max(np.abs(t)) < 1e-13


def test_full_block_scalar_and_batch_agree():
    rho = _random_pure(RNG_SEED, 2)
    rng = np.random.default_rng(RNG_SEED)
    gs = su2.random_elements(rng, 3)
    kg = _kgrid(2, 1)
    batch = wigner.wigner_full_batch(rho, gs, 1, kg)
    for i, g in enumerate(gs):
        single = wigner.wigner_full(rho, g, 1, kg)
        assert single.two_j == 1
        assert_allclose(single.values, batch[i], atol=1e-15)
        for variant in ("left", "right"):
            tb = wigner.wigner_tilde_batch(rho, gs, 1, kg, variant)
            ts = wigner.wigner_tilde(rho, g, 1, kg, variant)
            assert ts.variant == variant
            assert_allclose(ts.values, tb[i], atol=1e-15)


@pytest.mark.parametrize("two_j", [0, 1, 2, 3])
def test_hermiticity(two_j):
    rho = _random_ensemble(RNG_SEED + two_j, 2)
    rng = np.random.default_rng(RNG_SEED)
    gs = su2.random_elements(rng, 6)
    for vals in wigner.wigner_full_batch(rho, gs, two_j, _kgrid(2, two_j)):
        assert wigner.hermiticity_defect(vals) < 1e-11
    # the defect function itself reports asymmetry
    broken = np.zeros((2, 2, 2, 2), dtype=complex)
    broken[0, 0, 1, 1] = 1.0
    assert wigner.hermiticity_defect(broken) == 1.0


@pytest.mark.parametrize("two_j", [1, 2])
def test_partial_traces_match_tilde(two_j):
    rho = _random_pure(RNG_SEED, 2)
    rng = np.random.default_rng(RNG_SEED + 1)
    gs = su2.random_elements(rng, 4)
    kg = _kgrid(2, two_j)
    full = wigner.wigner_full_batch(rho, gs, two_j, kg)
    left = wigner.wigner_tilde_batch(rho, gs, two_j, kg, "left")
    right = wigner.wigner_tilde_batch(rho, gs, two_j, kg, "right")
    assert_allclose(np.einsum("gmnpn->gmp", full), left, atol=1e-12)
    assert_allclose(np.einsum("gmnmq->gnq", full), right, atol=1e-12)


def test_momentum_marginal_recovers_coefficients():
    rho = _random_ensemble(RNG_SEED, 2)
    for two_j in range(4):
        got = wigner.marginal_momentum(rho, two_j, GGRID, _kgrid(2, two_j))
        want = states.density_coefficients(rho, two_j)
        assert_allclose(got, want, atol=1e-10)


def test_momentum_marginal_vanishes_above_band():
    rho = _random_pure(RNG_SEED, 1)
    got = wigner.marginal_momentum(rho, 2, GGRID, _kgrid(1, 2))
    assert np.max(np.abs(got)) < 1e-11


def test_position_marginal_definite_parity_terminates():
    # even-parity state: only blocks with even two_j populated
    rng = np.random.default_rng(RNG_SEED)
    blocks = [
        np.zeros((1, 1), complex),
        np.zeros((2, 2), complex),
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
    ]
    blocks[0][0, 0] = rng.standard_normal() + 1j * rng.standard_normal()
    even = states.normalize_state(states.BlockState(tuple(blocks)))
    gs = su2.random_elements(rng, 6)
    vals, inc = wigner.marginal_position(even, gs, 8, _kgrid(2, 8))
    dens = np.abs(states.synthesize(even, gs)) ** 2
    assert_allclose(vals, dens, atol=1e-11)
    # increments above the state band vanish identically
    assert np.max(np.abs(inc[:, 3:])) < 1e-12
    assert_allclose(inc.sum(axis=-1), vals, atol=1e-13)


def test_position_marginal_ensemble_and_shapes():
    rho = _random_ensemble(RNG_SEED, 1)
    rng = np.random.default_rng(RNG_SEED)
    g = su2.random_elements(rng, 6).reshape(2, 3, 4)
    vals, inc = wigner.marginal_position(rho, g, 2, _kgrid(1, 2))
    assert vals.shape == (2, 3)
    assert inc.shape == (2, 3, 3)
    agg = np.zeros((2, 3))
    for w, s in zip(rho.weights, rho.states):
        one, _ = wigner.marginal_position(s, g, 2, _kgrid(1, 2))
        agg += w * one
    assert_allclose(vals, agg, atol=1e-13)


@pytest.mark.parametrize("two_j", [1, 2])
def test_covariance_left_and_right(two_j):
    rho = _random_pure(RNG_SEED, 1)
    rng = np.random.default_rng(RNG_SEED + 2)
    g, h = su2.random_elements(rng, 2)
    kg = _kgrid(1, two_j)
    block = wigner.wigner_full(rho, g, two_j, kg)

    moved = wigner.transform_left(block, h)
    assert_allclose(moved.g, su2.mul(h, g), atol=1e-15)
    rho_l = states.left_translate(rho, h)
    direct = wigner.wigner_full(rho_l, moved.g, two_j, kg)
    assert_allclose(moved.values, direct.values, atol=1e-10)

    moved_r = wigner.transform_right(block, h)
    assert_allclose(moved_r.g, su2.mul(g, su2.inverse(h)), atol=1e-15)
    rho_r = states.right_translate(rho, h)
    direct_r = wigner.wigner_full(rho_r, moved_r.g, two_j, kg)
    assert_allclose(moved_r.values, direct_r.values, atol=1e-10)


def test_overlap_matches_trace_for_low_band_pairs():
    # pure states meeting in a single irrep: the label series reproduces the
    # coefficient-space trace closely at a modest cutoff for localized states;
    # here just the exact structural identities
    a = _random_pure(21, 2)
    b = _random_pure(22, 2)
    gg = grids.haar_grid_for_degree(2)
    kg = _kgrid(2, 6)
    val_ab, inc_ab = wigner.overlap_trace(a, b, 6, gg, kg, "left")
    val_ba, _ = wigner.overlap_trace(b, a, 6, gg, kg, "left")
    val_r, inc_r = wigner.overlap_trace(a, b, 6, gg, kg, "right")
    assert_allclose(val_ab, val_ba, atol=1e-12)
    assert_allclose(val_ab, val_r, atol=1e-12)
    assert_allclose(inc_ab, inc_r, atol=1e-12)
    assert_allclose(inc_ab.sum(), val_ab, atol=1e-13)


def test_overlap_matches_left_variant_reference():
    # the left-variant formula the functional used to evaluate: conjugated
    # traced blocks, integrated over the Haar grid, one term per label
    a = _random_pure(21, 2)
    b = _random_ensemble(23, 1)
    gg = grids.haar_grid_for_degree(2)
    kg = _kgrid(2, 4)
    _, inc = wigner.overlap_trace(a, b, 4, gg, kg)
    for two_j in range(5):
        w1 = wigner.wigner_tilde_batch(a, gg.nodes, two_j, kg, "left")
        w2 = wigner.wigner_tilde_batch(b, gg.nodes, two_j, kg, "left")
        ref = np.einsum("g,gab,gba->", gg.weights, w1, w2).real / (two_j + 1.0)
        assert abs(inc[two_j] - ref) < 1e-12


def _pair_kernel(rho, gs, kgrid):
    """``w_k <g k| rho |g k^{-1}>`` at every pair of group and hemisphere
    nodes, shape ``(G, K)``, from ``states.synthesize`` at ``g k`` and ``g
    k^{-1}``: no coefficient vectors, tensor, ring rule or frequency split."""
    rho = states.as_ensemble(rho)
    gk = su2.mul(gs[:, None], kgrid.nodes)
    gk_inv = su2.mul(gs[:, None], su2.inverse(kgrid.nodes))
    c = sum(
        w * states.synthesize(s, gk) * np.conj(states.synthesize(s, gk_inv))
        for w, s in zip(rho.weights, rho.states)
    )
    return c * kgrid.pushforward_weights


def _right_blocks(c, two_j, kgrid):
    """Right traced blocks ``Y^T`` from a :func:`_pair_kernel`: summing the
    full block over ``M = M'`` leaves ``N_J sum_k w c D^J(k^{-2})^T``."""
    d = irreps.dmatrix(two_j, su2.inverse(kgrid.squared))
    return (two_j + 1.0) * np.einsum("gk,kab->gba", c, d)


def _full_direct(rho, gs, two_j, kgrid):
    """Full blocks from the definition, ``N_J sum_k w c D^J_{MN}(g k^{-1})
    conj(D^J_{M'N'}(g k))`` at every pair of nodes."""
    d_inv = irreps.dmatrix(two_j, su2.mul(gs[:, None], su2.inverse(kgrid.nodes)))
    d = irreps.dmatrix(two_j, su2.mul(gs[:, None], kgrid.nodes))
    c = _pair_kernel(rho, gs, kgrid)
    return (two_j + 1.0) * np.einsum("gk,gkmn,gkpq->gmnpq", c, d_inv, np.conj(d))


def _overlap_direct(rho1, rho2, two_jsum, ggrid, kgrid):
    # the G x K formula: the right values Y^T of both states at every group
    # node, paired by Re tr(Y_1^T Y_2^T) for every label
    c1, c2 = (_pair_kernel(r, ggrid.nodes, kgrid) for r in (rho1, rho2))
    inc = []
    for two_j in range(two_jsum + 1):
        y1, y2 = (_right_blocks(c, two_j, kgrid) for c in (c1, c2))
        inc.append(np.einsum("g,gab,gba->", ggrid.weights, y1, y2).real / (two_j + 1.0))
    return np.array(inc)


#: the weights of each 1-D rule a sub-grid thins (alpha has equal weights)
_RULE_WEIGHTS = {
    "alpha": None, "beta": "beta_weights", "axial": "axial_weights",
    "cos_theta": "theta_weights",
}


def _product_subgrid(grid, **index):
    """The grid whose named 1-D rules keep the values ``index`` picks, each
    rule's weights scaled by the fraction kept.  With whole gamma and phi
    rings the ring rules hold on it node by node, though its exactness
    claim does not."""
    rules = {}
    for name, pick in index.items():
        rules[name] = getattr(grid, name)[pick]
        if _RULE_WEIGHTS[name]:
            w = getattr(grid, _RULE_WEIGHTS[name])
            rules[_RULE_WEIGHTS[name]] = w[pick] * (len(w) / len(rules[name]))
    return dataclasses.replace(grid, **rules)


def _ref_grids(two_jmax, two_jsum):
    """Product sub-grids of the standard grids of a band and cutoff, small
    enough for the G x K reference: alpha indices 1, 4, ... and even beta
    indices on whole gamma rings, and every third axial value and the two
    outermost theta values, mirror images, on whole phi rings."""
    gg = grids.haar_grid_for_degree(two_jmax)
    kg = _kgrid(two_jmax, two_jsum)
    return (
        _product_subgrid(gg, alpha=np.s_[1::3], beta=np.s_[::2]),
        _product_subgrid(kg, axial=np.s_[::3], cos_theta=[0, -1]),
    )


# one pair of grids for every drawn case, so the cached tensors are reused:
# one whole gamma ring (24 nodes), and 3 of 29 axial and 3 of 15 theta
# values on whole phi rings (270 nodes; theta indices 0, 7, 14, so the node
# set stays closed under inversion)
REF_BAND = 5
REF_JSUM = 8
REF_GGRID = _product_subgrid(
    grids.haar_grid_for_degree(REF_BAND), alpha=np.s_[5:6], beta=np.s_[1:2]
)
REF_KGRID = _product_subgrid(
    grids.hemisphere_grid_for(REF_BAND + REF_JSUM), axial=np.s_[3::12], cos_theta=np.s_[::7]
)


@st.composite
def _states(draw, top=REF_BAND):
    """A pure state, or an ensemble of 2-3 members, each of band 0 to ``top``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    bands = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    members = tuple(states.random_state(rng, b) for b in bands)
    if len(members) == 1:
        return members[0]
    w = rng.uniform(0.1, 1.0, len(members))
    return states.DensityEnsemble(tuple(w / w.sum()), members)


@settings(max_examples=25, deadline=None)
@given(
    rho1=_states(), rho2=_states(), two_j=st.integers(0, 4),
    two_jsum=st.integers(0, REF_JSUM),
)
def test_consumers_match_gxk_reference(rho1, rho2, two_j, two_jsum):
    _assert_consumers_match_gxk(rho1, rho2, two_j, two_jsum, REF_GGRID, REF_KGRID)


def _assert_consumers_match_gxk(rho1, rho2, two_j, two_jsum, ggrid, kgrid):
    _, inc = wigner.overlap_trace(rho1, rho2, two_jsum, ggrid, kgrid)
    ref = _overlap_direct(rho1, rho2, two_jsum, ggrid, kgrid)
    assert np.max(np.abs(inc - ref)) < 1e-13
    # the pointwise values at every 8th node of the gamma ring, the
    # reconstruction at the first: it is the mid-point of s h and s h^{-1},
    # with g2^{-1} g1 = h^2
    gs = ggrid.nodes[::8]
    full = _full_direct(rho1, gs, two_j, kgrid)
    got = wigner.wigner_full_batch(rho1, gs, two_j, kgrid)
    assert np.max(np.abs(got - full)) < 1e-13
    for variant, trace in (("left", "gmnpn->gmp"), ("right", "gmnmq->gnq")):
        got = wigner.wigner_tilde_batch(rho1, gs, two_j, kgrid, variant)
        assert np.max(np.abs(got - np.einsum(trace, full))) < 1e-13
    c = _pair_kernel(rho1, gs, kgrid)
    right = [_right_blocks(c, t, kgrid) for t in range(two_jsum + 1)]
    _, inc = wigner.marginal_position(rho1, gs, two_jsum, kgrid)
    ref = np.stack([np.einsum("gaa->g", y).real for y in right], axis=-1)
    assert np.max(np.abs(inc - ref)) < 1e-13
    h = su2.from_euler(0.3, 0.8, -0.5)
    g1, g2 = su2.mul(gs[0], h), su2.mul(gs[0], su2.inverse(h))
    _, inc = wigner.reconstruct_kernel(rho1, g1, g2, two_jsum, kgrid)
    h2 = su2.mul(h, h)
    ref = [np.sum(y[0] * irreps.dmatrix(t, h2)) for t, y in enumerate(right)]
    assert np.max(np.abs(inc - ref)) < 1e-13


def test_consumers_match_gxk_reference_at_band_6():
    # one case past the drawn bands: an ensemble with a band-6 member against
    # a band-6 state, on one gamma ring of haar_grid_for_degree(6) and 4 x 2
    # plane nodes (axial values 2, 10, 18, 26, the outermost theta pair) of
    # hemisphere_grid_for(6 + 6) on whole phi rings
    rng = np.random.default_rng(62)
    rho1 = states.DensityEnsemble(
        (0.4, 0.6), (states.random_state(rng, 6), states.random_state(rng, 3))
    )
    rho2 = states.random_state(rng, 6)
    gg = _product_subgrid(grids.haar_grid_for_degree(6), alpha=np.s_[3:4], beta=np.s_[2:3])
    kg = _product_subgrid(grids.hemisphere_grid_for(12), axial=np.s_[2::8], cos_theta=[0, -1])
    assert rho1.two_jmax == rho2.two_jmax == 6
    _assert_consumers_match_gxk(rho1, rho2, 4, 6, gg, kg)


def test_consumers_match_gxk_reference_at_band_8():
    # an ensemble with a band-8 member against a band-8 state, on one gamma
    # ring of haar_grid_for_degree(8) and 4 x 2 plane nodes of
    # hemisphere_grid_for(8 + 4) on whole phi rings
    rng = np.random.default_rng(82)
    rho1 = states.DensityEnsemble(
        (0.3, 0.7), (states.random_state(rng, 8), states.random_state(rng, 5))
    )
    rho2 = states.random_state(rng, 8)
    gg = _product_subgrid(grids.haar_grid_for_degree(8), alpha=np.s_[4:5], beta=np.s_[3:4])
    kg = _product_subgrid(grids.hemisphere_grid_for(12), axial=np.s_[1::8], cos_theta=[0, -1])
    _assert_consumers_match_gxk(rho1, rho2, 2, 4, gg, kg)


# one pair of grids for the overlap drawn to band 8: one whole gamma ring
# (36 nodes), and 4 of 27 axial and 2 of 14 theta values on whole phi rings
# (224 nodes)
REF8_JSUM = 4
REF8_GGRID = _product_subgrid(grids.haar_grid_for_degree(8), alpha=np.s_[7:8], beta=np.s_[5:6])
REF8_KGRID = _product_subgrid(
    grids.hemisphere_grid_for(8 + REF8_JSUM), axial=np.s_[2::8], cos_theta=[0, -1]
)


@settings(max_examples=15, deadline=None)
@given(rho1=_states(8), rho2=_states(8), two_jsum=st.integers(0, REF8_JSUM))
def test_overlap_matches_gxk_reference_to_band_8(rho1, rho2, two_jsum):
    _, inc = wigner.overlap_trace(rho1, rho2, two_jsum, REF8_GGRID, REF8_KGRID)
    ref = _overlap_direct(rho1, rho2, two_jsum, REF8_GGRID, REF8_KGRID)
    assert np.max(np.abs(inc - ref)) < 1e-13


def _all_node_tensor(kgrid, two_jmax, two_jsum):
    """The overlap tensor summed over every hemisphere node, in the rows of
    ``wigner._pair_rows``."""
    ia, ib = wigner._pair_rows(two_jmax)[:2]
    dk = wigner._k_matrices(kgrid.nodes, two_jmax)
    dk2 = np.conj(wigner._k_matrices(kgrid.squared, two_jsum))
    return (dk[:, ia] * dk[:, ib] * kgrid.pushforward_weights[:, None]).T @ dk2


def _delta(two_jmax):
    """``m_a - m_c`` (doubled) of every entry ``(t, a, c)`` of ``D(k)``."""
    ms = map(irreps.two_m_values, range(two_jmax + 1))
    return np.concatenate([np.subtract.outer(m, m).ravel() for m in ms])


def _rule(two_jmax, two_jsum):
    """Where ``delta(alpha) + delta(beta)`` of a row of ``wigner._pair_rows``
    equals ``delta`` of an overlap tensor column: the entries the phi rule
    keeps, shape ``(rows, columns)``."""
    ia, ib = wigner._pair_rows(two_jmax)[:2]
    delta = _delta(two_jmax)
    return (delta[ia] + delta[ib])[:, None] == _delta(two_jsum)


def _dense_plane_tensor(kgrid, two_jmax, factor, col_delta):
    """The plane tensor stored dense and complex: every (row, column)
    product on the phi = 0 plane, weighted by the rings, then set to zero
    where the row and column deltas differ, rows as in
    ``wigner._pair_rows``; ``factor(sl)`` is the factor at plane nodes
    ``sl``."""
    ks = kgrid.nodes[:: kgrid.n_phi]
    wj = kgrid.pushforward_weights.reshape(-1, kgrid.n_phi).sum(axis=1)
    ia, ib = wigner._pair_rows(two_jmax)[:2]
    delta = _delta(two_jmax)
    dk = wigner._k_matrices(ks, two_jmax)
    tensor = (dk[:, ia] * dk[:, ib] * wj[:, None]).T @ factor(slice(0, len(ks)))
    tensor[(delta[ia] + delta[ib])[:, None] != col_delta] = 0
    return tensor


def _dense(tensor, two_jmax):
    """A blocked plane tensor with the zeros of the phi rule filled in, and
    the mask of the entries its blocks hold."""
    shape = (len(wigner._pair_rows(two_jmax)[0]), tensor.n_columns)
    dense, held = np.zeros(shape), np.zeros(shape, dtype=bool)
    for lo, hi, cols, block in zip(tensor.lo, tensor.hi, tensor.cols, tensor.data):
        dense[lo:hi, cols] = block
        held[lo:hi, cols] = True
    return dense, held


def _held_bytes(held) -> int:
    """Bytes of a blocked tensor that holds ``held`` entries (a count or a
    mask), each a float64."""
    return np.dtype(np.float64).itemsize * int(np.sum(held))


def _squared_dmatrix(kgrid, two_jsum):
    """``conj(D^t(k^2))`` for ``t <= two_jsum`` from ``dmatrix`` on the
    squared plane nodes, as a ``factor(sl)`` of the dense reference."""
    k2 = kgrid.squared[:: kgrid.n_phi]
    return lambda sl: np.conj(wigner._k_matrices(k2[sl], two_jsum))


@pytest.mark.parametrize("two_jmax,two_jsum", [(1, 4), (2, 6), (3, 4)])
def test_plane_tensor_is_the_all_node_sum(two_jmax, two_jsum):
    kg = dataclasses.replace(_kgrid(two_jmax, two_jsum))
    tensor = wigner._overlap_tensor(kg, two_jmax, range(two_jsum + 1), keep=False)
    want = _dense_plane_tensor(kg, two_jmax, _squared_dmatrix(kg, two_jsum), _delta(two_jsum))
    assert np.max(np.abs(want - _all_node_tensor(kg, two_jmax, two_jsum))) < 1e-14
    # the blocks hold exactly the entries where delta(alpha) + delta(beta)
    # = delta(column), agree with the dense tensor there, and skip only its
    # exact zeros; where the deltas agree it is not identically zero
    got, held = _dense(tensor, two_jmax)
    rule = _rule(two_jmax, two_jsum)
    assert np.array_equal(held, rule)
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.all(want[~held] == 0)
    assert np.count_nonzero(want[rule]) > rule.sum() // 2
    assert all(x.dtype == np.float64 for x in tensor.data)
    assert sum(x.nbytes for x in tensor.data) == _held_bytes(rule)
    assert not kg._overlap_tensors


def test_pair_rows_are_blocks_of_one_frequency_and_delta():
    # rows sorted by (delta, f), each block one (delta, f), every pair with
    # f >= 0 once
    two_jmax = 3
    ia, ib, starts, freq, block_delta = wigner._pair_rows(two_jmax)
    ms = [irreps.two_m_values(t) for t in range(two_jmax + 1)]
    first = np.concatenate([np.repeat(m, len(m)) for m in ms])
    last = np.concatenate([np.tile(m, len(m)) for m in ms])
    f, delta = first[ia] - last[ib], _delta(two_jmax)[ia] + _delta(two_jmax)[ib]
    assert np.array_equal(np.repeat(freq, np.diff(starts)), f)
    assert np.array_equal(np.repeat(block_delta, np.diff(starts)), delta)
    assert len(set(zip(freq, block_delta))) == len(freq)
    assert np.all(np.diff(delta * 1000 + f) >= 0)
    n = len(first)
    assert sorted(ia * n + ib) == [a * n + b for a in range(n) for b in range(n)
                                   if first[a] - last[b] >= 0]


def test_frequency_split_matches_full_grid_contraction():
    # at every node of a small Haar grid, R(g) @ T over the kept rows equals
    # the plane's frequency parts turned by e^{-i gamma f / 2}
    rho = _random_ensemble(56, 2)
    gg = grids.haar_grid_for_degree(2)
    kg = dataclasses.replace(_kgrid(2, 3))
    tensor = wigner._overlap_tensor(kg, 2, range(4), keep=False)
    n_gamma = gg.shape[2]
    compact = wigner._traced_kernels(rho, gg.nodes[::n_gamma], tensor, 2)
    split = np.zeros((5, compact.shape[1], tensor.n_columns), dtype=complex)
    for f, s, span in zip(tensor.blocks.freq, tensor.blocks.stripe, tensor.spans):
        split[f][:, tensor.cols[s]] += compact[span].T
    ia, ib = wigner._pair_rows(2)[:2]
    dg = [irreps.dmatrix(t, gg.nodes) for t in range(3)]
    r = 0
    for w, state in zip(rho.weights, rho.states):
        u, v = wigner._coefficients(state, dg, 2)
        r = r + w * u[:, ia] * v[:, ib]
    full = r @ _dense(tensor, 2)[0]
    phase = np.exp(-0.5j * np.outer(gg.euler[:, 2], np.arange(len(split))))
    turned = np.einsum("gf,fgc->gc", phase, np.repeat(split, n_gamma, axis=1))
    assert np.max(np.abs(full - turned)) < 1e-13


def _count_kgrid_dmatrix(monkeypatch, kgrid):
    """Count ``irreps.dmatrix`` calls on (chunks of) the kgrid node arrays."""
    calls = []
    original = irreps.dmatrix

    def counting(two_j, g):
        if np.may_share_memory(g, kgrid.nodes) or np.may_share_memory(g, kgrid.squared):
            calls.append(two_j)
        return original(two_j, g)

    monkeypatch.setattr(irreps, "dmatrix", counting)
    return calls


def test_overlap_tensors_cached_on_kgrid(monkeypatch):
    gg, kg = _ref_grids(2, 6)
    calls = _count_kgrid_dmatrix(monkeypatch, kg)
    _, inc6 = wigner.overlap_trace(_random_pure(31, 2), _random_pure(32, 1), 6, gg, kg)
    assert calls
    calls.clear()
    # other states, the same band: no kgrid D-matrix is built again
    a, b = _random_ensemble(33, 2), _random_pure(34, 2)
    _, inc = wigner.overlap_trace(a, b, 6, gg, kg)
    assert not calls
    assert_allclose(inc, _overlap_direct(a, b, 6, gg, kg), rtol=0, atol=1e-13)
    calls.clear()
    # a smaller cutoff reuses the cached labels: the leading columns of each
    # kept block, as views (a narrower product may round differently)
    _, inc4 = wigner.overlap_trace(_random_pure(31, 2), _random_pure(32, 1), 4, gg, kg)
    assert not calls
    assert_allclose(inc4, inc6[:5], rtol=0, atol=1e-15)
    kept, leading = kg._overlap_tensors[2], wigner._overlap_tensor(kg, 2, range(5), False)
    assert all(np.shares_memory(x, y) for x, y in zip(kept.data, leading.data))


def test_warm_overlap_builds_no_dmatrix(monkeypatch):
    # D^t of the Haar plane stays on the group grid and the tensor on the
    # hemisphere grid, so a warm call with other states of the band builds
    # no D-matrix at all; neither cache is filled when a grid is built, and
    # a replace copy starts empty
    assert not grids.haar_grid.__wrapped__(6, 3, 12)._plane_dmatrices
    assert not grids.hemisphere_grid.__wrapped__(7, 4, 8)._overlap_tensors
    gg, kg = _ref_grids(2, 6)
    wigner.overlap_trace(_random_pure(67, 2), _random_pure(68, 1), 6, gg, kg)
    assert sorted(gg._plane_dmatrices) == [0, 1, 2]
    calls = []
    original = irreps.dmatrix

    def counting(two_j, g):
        calls.append(two_j)
        return original(two_j, g)

    monkeypatch.setattr(irreps, "dmatrix", counting)
    a, b = _random_ensemble(69, 2), _random_pure(70, 2)
    _, inc = wigner.overlap_trace(a, b, 6, gg, kg)
    assert not calls
    assert not dataclasses.replace(gg)._plane_dmatrices
    monkeypatch.undo()
    assert_allclose(inc, _overlap_direct(a, b, 6, gg, kg), rtol=0, atol=1e-13)


def test_band_6_cutoff_12_tensor_is_kept_within_budget(monkeypatch):
    # dense, the (6, 12) tensor would take 133 MiB, over _TENSOR_BYTES; its
    # blocks take 10 MiB and stay on the grid, so a second call builds no
    # tensor.  One gamma ring of haar_grid_for_degree(6), and 3 x 2 plane
    # nodes of hemisphere_grid_for(6 + 12) on whole phi rings
    gg = _product_subgrid(grids.haar_grid_for_degree(6), alpha=np.s_[3:4], beta=np.s_[2:3])
    kg = _product_subgrid(grids.hemisphere_grid_for(18), axial=np.s_[2::16], cos_theta=[0, -1])
    a, b = _random_pure(71, 6), _random_ensemble(72, 6)
    _, inc = wigner.overlap_trace(a, b, 12, gg, kg)
    rows = len(wigner._pair_rows(6)[0])
    assert _held_bytes(rows * wigner._coefficient_count(12)) > wigner._TENSOR_BYTES
    assert _cached_bytes(kg) == _held_bytes(_rule(6, 12)) <= wigner._TENSOR_BYTES
    builds = []
    monkeypatch.setattr(wigner, "_plane_tensor", lambda *args: builds.append(args))
    _, again = wigner.overlap_trace(b, a, 12, gg, kg)
    assert not builds
    assert_allclose(again, inc, rtol=0, atol=1e-13)
    assert_allclose(inc, _overlap_direct(a, b, 12, gg, kg), rtol=0, atol=1e-13)


def test_overlap_tensors_not_shared_with_replaced_grid(monkeypatch):
    gg = grids.haar_grid_for_degree(2)
    kg = _kgrid(2, 4)
    a, b = _random_pure(35, 2), _random_pure(36, 2)
    _, inc = wigner.overlap_trace(a, b, 4, gg, kg)
    # doubled weights double both traced kernels, so every increment is 4x;
    # tensors reused from the original grid (same shape, same nodes) would
    # leave them unchanged
    doubled = dataclasses.replace(kg, theta_weights=2.0 * kg.theta_weights)
    calls = _count_kgrid_dmatrix(monkeypatch, doubled)
    _, inc2 = wigner.overlap_trace(a, b, 4, gg, doubled)
    assert calls
    assert_allclose(inc2, 4.0 * inc, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("two_jmax", [3, 4])
def test_overlap_tensor_path_where_pairs_outnumber_nodes(two_jmax):
    # n^2 coefficient pairs (900, 3025) against 792 and 1274 hemisphere
    # nodes, of which the reference's sub-grids keep 96 and 140
    gg, kg = _ref_grids(two_jmax, 1)
    n = wigner._coefficient_count(two_jmax)
    assert n * n > _kgrid(two_jmax, 1).n_nodes
    a, b = _random_ensemble(37, two_jmax), _random_pure(38, two_jmax - 1)
    _, inc = wigner.overlap_trace(a, b, 1, gg, kg)
    assert kg._overlap_tensors
    assert_allclose(inc, _overlap_direct(a, b, 1, gg, kg), rtol=0, atol=1e-13)


def _cached_bytes(kgrid):
    return sum(x.nbytes for t in kgrid._overlap_tensors.values() for x in t.data)


def test_overlap_over_budget_streams_and_keeps_nothing(monkeypatch):
    gg = grids.haar_grid_for_degree(2)
    kg = dataclasses.replace(_kgrid(2, 4))
    a, b = _random_pure(39, 2), _random_pure(40, 1)
    _, inc = wigner.overlap_trace(a, b, 4, gg, kg)
    # the entries of the kept blocks, of sum_{t <= 4} (t+1)^2 columns
    rule = _rule(2, 4)
    assert _cached_bytes(kg) == _held_bytes(rule)
    # a budget of the blocks of 30 columns: labels 0-3, then 4 alone
    monkeypatch.setattr(wigner, "_TENSOR_BYTES", _held_bytes(rule[:, :30]))
    blocks = []
    build = wigner._overlap_tensor

    def recording(kgrid, two_jmax, labels, keep):
        blocks.append((labels, keep))
        return build(kgrid, two_jmax, labels, keep)

    monkeypatch.setattr(wigner, "_overlap_tensor", recording)
    fresh = dataclasses.replace(kg)
    _, inc2 = wigner.overlap_trace(a, b, 4, gg, fresh)
    assert blocks == [(range(0, 4), False), (range(4, 5), False)]
    assert _cached_bytes(fresh) == 0
    assert_allclose(inc2, inc, rtol=0, atol=1e-13)
    # the same runs read from the tensor kept on the first grid, the second
    # from its label 4 on
    blocks.clear()
    _, inc3 = wigner.overlap_trace(a, b, 4, gg, kg)
    assert blocks == [(range(0, 4), False), (range(4, 5), False)]
    assert wigner._overlap_tensor(kg, 2, range(4, 5), False).labels == range(4, 5)
    assert_allclose(inc3, inc, rtol=0, atol=1e-13)


def _pair_kernel_consumers():
    """Every value computed from the pair kernel, at G = 1 000 > _CHUNK
    group nodes, on a fresh copy of the hemisphere grid; the overlap
    streamed one label at a time."""
    rho = _random_ensemble(45, 2)
    gg = grids.haar_grid_for_degree(4)
    kg = dataclasses.replace(_kgrid(2, 2))
    g1, g2 = su2.random_elements(np.random.default_rng(46), 2)
    with mock.patch.object(wigner, "_TENSOR_BYTES", 0):
        overlap = wigner.overlap_trace(rho, _random_pure(47, 2), 2, gg, kg)[1]
    return [
        wigner.wigner_full_batch(rho, gg.nodes, 1, kg),
        wigner.wigner_tilde_batch(rho, gg.nodes, 2, kg, "left"),
        wigner.wigner_tilde_batch(rho, gg.nodes, 2, kg, "right"),
        wigner.marginal_position(rho, gg.nodes, 2, kg)[1],
        wigner.reconstruct_kernel(rho, g1, g2, 2, kg)[1],
        overlap,
    ]


def test_k_chunks_that_do_not_divide_the_grid(monkeypatch):
    # a 9 472-byte budget splits the 66 plane nodes of the hemisphere into
    # chunks of 37 + 29 for the full block's 16 columns, and of 42, 65 or
    # more for the traced tensors; every (g, pair) block is one row, and
    # the group nodes split 512 + 488
    want = _pair_kernel_consumers()
    kg = _kgrid(2, 2)
    assert kg.shape[0] * kg.shape[1] == 66
    monkeypatch.setattr(wigner, "_PAIR_BYTES", 16 * 16 * 37)
    sizes = []
    original = irreps.dmatrix

    def recording(two_j, g):
        sizes.append(len(np.atleast_2d(g)))
        return original(two_j, g)

    monkeypatch.setattr(irreps, "dmatrix", recording)
    got = _pair_kernel_consumers()
    assert {37, 29} <= set(sizes)
    for w, g in zip(want, got):
        assert np.max(np.abs(g - w)) < 1e-13


def test_full_block_column_runs_match_one_tensor(monkeypatch):
    # with no byte budget each column of a full block is a run of its own;
    # at band 1 the rows' deltas reach only 4, so most columns of a J = 3
    # block meet no row and their tensors have no stripe at all
    rho, kg = _random_ensemble(73, 1), _kgrid(1, 3)
    gs = su2.random_elements(np.random.default_rng(74), 3)
    want = wigner.wigner_full_batch(rho, gs, 3, kg)
    monkeypatch.setattr(wigner, "_TENSOR_BYTES", 0)
    assert np.max(np.abs(wigner.wigner_full_batch(rho, gs, 3, kg) - want)) < 1e-15


def test_streamed_overlap_memory_is_bounded_by_one_block(monkeypatch):
    # at band 4 and cutoff 8 the blocks of the whole tensor take 0.41 MB;
    # streamed in runs of labels within the blocks of label 8 alone (0.10
    # MB), a call stays below that.  One group node and 3 x 2 plane nodes
    # keep the traced kernels and the D(k) of a build small beside a run,
    # and a 32 KiB pair budget keeps its (g, pair) arrays small too
    gg = _product_subgrid(grids.haar_grid_for_degree(4), alpha=[0], beta=[0])
    kg = _product_subgrid(_kgrid(4, 8), axial=np.s_[::9], cos_theta=[0, -1])
    a, b = _random_pure(48, 4), _random_ensemble(49, 4)
    _, want = wigner.overlap_trace(a, b, 8, gg, dataclasses.replace(kg))
    rule = _rule(4, 8)
    block = _held_bytes(rule[:, -81:])
    monkeypatch.setattr(wigner, "_TENSOR_BYTES", block)
    monkeypatch.setattr(wigner, "_PAIR_BYTES", 2**15)
    tracemalloc.start()
    try:
        _, inc = wigner.overlap_trace(a, b, 8, gg, kg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not kg._overlap_tensors
    assert peak < 2 * block + 4 * wigner._PAIR_BYTES < _held_bytes(rule)
    assert_allclose(inc, want, rtol=0, atol=1e-13)


def test_overlap_tensor_evaluates_d_on_the_plane_only(monkeypatch):
    # the build visits the n_axial x n_theta nodes at phi = 0, as views of
    # the grid's arrays, and D(k) of the band there; conj(D(k^2)) of the
    # cutoff comes from the class angles, with no D-matrix of a node
    kg = dataclasses.replace(_kgrid(2, 4))
    sizes = []
    original = irreps.dmatrix

    def counting(two_j, g):
        if np.may_share_memory(g, kg.nodes) or np.may_share_memory(g, kg.squared):
            sizes.append(len(g))
        return original(two_j, g)

    monkeypatch.setattr(irreps, "dmatrix", counting)
    gg = grids.haar_grid_for_degree(2)
    wigner.overlap_trace(_random_pure(50, 1), _random_ensemble(51, 2), 4, gg, kg)
    plane = kg.shape[0] * kg.shape[1]
    assert sizes == [plane] * 3


def test_cold_overlap_builds_no_dmatrix_of_a_squared_node(monkeypatch):
    # conj(D^t(k^2)) comes from little_d_matrix at the n_theta angles, so no
    # row of kgrid.squared reaches dmatrix, as a view or as a copy
    kg = dataclasses.replace(_ref_grids(2, 6)[1])
    squared = {tuple(x) for x in kg.squared}
    original = irreps.dmatrix

    def guarded(two_j, g):
        if any(tuple(x) in squared for x in np.reshape(g, (-1, 4))):
            raise AssertionError(f"dmatrix({two_j}) ran on a squared node")
        return original(two_j, g)

    monkeypatch.setattr(irreps, "dmatrix", guarded)
    gg = _ref_grids(2, 6)[0]
    a, b = _random_pure(75, 2), _random_ensemble(76, 2)
    _, inc = wigner.overlap_trace(a, b, 6, gg, kg)
    assert kg._overlap_tensors
    monkeypatch.undo()
    assert_allclose(inc, _overlap_direct(a, b, 6, gg, kg), rtol=0, atol=1e-13)


def test_class_angle_factor_matches_dmatrix_of_the_squared_nodes():
    # d^t(theta) Lambda_t d^t(theta)^T against dmatrix on k^2 = R_y(theta)
    # e^{-2i psi sigma_z} R_y(theta)^{-1}, for every label to 32 at a few
    # axial rows of the grid that cutoff needs (ending on a partial row);
    # a label run that starts above 0 reads the same columns
    kg = _kgrid(2, 32)
    n_theta = len(kg.cos_theta)
    for sl in (slice(0, 2 * n_theta), slice(len(kg.axial) * n_theta - 50, len(kg.axial) * n_theta),
               slice(7 * n_theta + 3, 9 * n_theta - 5)):
        want = _squared_dmatrix(kg, 32)(sl)
        got = wigner._squared_factor(kg, range(33))(sl)
        assert np.max(np.abs(got - want)) < 1e-13
        lo = wigner._coefficient_count(19)
        assert np.array_equal(wigner._squared_factor(kg, range(20, 26))(sl),
                              got[:, lo : wigner._coefficient_count(25)])


_REALITY_GRIDS = [
    (grids.hemisphere_grid(7, 4, 8), 1, 1), (grids.hemisphere_grid(9, 5, 10), 1, 2),
    (grids.hemisphere_grid(11, 7, 12), 2, 2), (grids.hemisphere_grid(13, 6, 14), 2, 2),
    (grids.hemisphere_grid(15, 8, 16), 2, 3), (grids.hemisphere_grid_for(14), 2, 2),
]


@pytest.mark.parametrize("kgrid,two_jmax,two_j", _REALITY_GRIDS)
def test_plane_tensor_is_real(monkeypatch, kgrid, two_jmax, two_j):
    # the dense complex reference of both tensor kinds, the overlap columns
    # conj(D^t(k^2)) and the full block's pair factor, has no imaginary
    # part beyond rounding, on grids of odd and even n_theta, and the
    # stored float64 blocks are its real part
    kg = dataclasses.replace(kgrid)
    two_jsum = kg.exactness_twice - two_jmax
    built = []
    original = wigner._plane_tensor

    def recording(*args):
        built.append((args, original(*args)))
        return built[-1][1]

    monkeypatch.setattr(wigner, "_plane_tensor", recording)
    wigner._overlap_tensor(kg, two_jmax, range(two_jsum + 1), keep=False)
    wigner.wigner_full_batch(_random_pure(77, two_jmax), su2.identity()[None], two_j, kg)
    overlap, full = built
    cases = [
        (overlap[1], _squared_dmatrix(kg, two_jsum), _delta(two_jsum)),
        (full[1], full[0][2], full[0][3]),
    ]
    for tensor, factor, col_delta in cases:
        want = _dense_plane_tensor(kg, two_jmax, factor, col_delta)
        scale = np.max(np.abs(want.real))
        assert np.max(np.abs(want.imag)) <= 1e-14 * scale
        got, held = _dense(tensor, two_jmax)
        assert all(x.dtype == np.float64 for x in tensor.data)
        assert np.max(np.abs(got - want.real)) < 1e-14


def test_full_blocks_evaluate_d_on_the_plane_only(monkeypatch):
    # the pair factor conj(D(k)) conj(D(k)) of a full block is built on the
    # n_axial x n_theta nodes at phi = 0, as views of the grid's nodes, and
    # no D-matrix anywhere spans the whole hemisphere grid
    kg = _kgrid(2, 3)
    plane = kg.shape[0] * kg.shape[1]
    on_grid, sizes = [], []
    original = irreps.dmatrix

    def recording(two_j, g):
        sizes.append(len(np.atleast_2d(g)))
        if np.may_share_memory(g, kg.nodes) or np.may_share_memory(g, kg.squared):
            on_grid.append((len(g), g.base is not None))
        return original(two_j, g)

    monkeypatch.setattr(irreps, "dmatrix", recording)
    gs = su2.random_elements(np.random.default_rng(59), 5)
    wigner.wigner_full_batch(_random_ensemble(60, 2), gs, 3, kg)
    assert on_grid and set(on_grid) == {(plane, True)}
    assert max(sizes) == plane < kg.n_nodes


def test_overlap_tensors_keep_one_band_per_grid():
    gg = grids.haar_grid_for_degree(2)
    kg = dataclasses.replace(_kgrid(2, 4))
    wigner.overlap_trace(_random_pure(41, 2), _random_pure(42, 2), 4, gg, kg)
    wigner.overlap_trace(_random_pure(43, 1), _random_pure(44, 0), 4, gg, kg)
    assert sorted(kg._overlap_tensors) == [1]
    assert _cached_bytes(kg) <= wigner._TENSOR_BYTES


def test_overlap_tensor_rebuilt_for_a_larger_cutoff():
    gg, kg = _ref_grids(2, 4)
    a, b = _random_pure(54, 2), _random_ensemble(55, 1)
    _, inc2 = wigner.overlap_trace(a, b, 2, gg, kg)
    assert kg._overlap_tensors[2].n_columns == 14
    _, inc4 = wigner.overlap_trace(a, b, 4, gg, kg)
    assert [t.n_columns for t in kg._overlap_tensors.values()] == [55]
    assert_allclose(inc4[:3], inc2, rtol=0, atol=1e-15)
    assert_allclose(inc4, _overlap_direct(a, b, 4, gg, kg), rtol=0, atol=1e-13)


def test_traced_kernels_respect_pair_bytes(monkeypatch):
    # at band 4, R(g) of 512 group nodes (24.8 MB) is over the 2 MiB
    # budget, so v(g) meets the tensor a few columns at a time; the top
    # label's 25 columns at once would make an 11 MB (g, column, alpha)
    # array
    monkeypatch.setattr(wigner, "_PAIR_BYTES", 2 * 2**20)
    gg = grids.haar_grid_for_degree(4)
    kg = dataclasses.replace(_kgrid(4, 4))
    a, b = _random_pure(52, 4), _random_ensemble(53, 4)
    _, inc = wigner.overlap_trace(a, b, 4, gg, kg)
    tracemalloc.start()
    try:
        _, warm = wigner.overlap_trace(a, b, 4, gg, kg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(warm, inc)
    assert peak < 3 * wigner._PAIR_BYTES


def test_overlap_converges_to_coefficient_trace():
    a = _random_pure(5, 2)
    b = _random_pure(6, 2)
    coeff = states.trace_product(a, b)
    gg = grids.haar_grid_for_degree(2)
    val, inc = wigner.overlap_trace(a, b, 12, gg, _kgrid(2, 12))
    partial = np.cumsum(inc)
    gap_low = abs(partial[4] - coeff)
    gap_high = abs(partial[12] - coeff)
    assert gap_high < 1e-3
    assert gap_high < gap_low


def test_overlap_variant_validation():
    a = _random_pure(5, 1)
    with pytest.raises(ValueError):
        wigner.overlap_trace(a, a, 2, GGRID, _kgrid(1, 2), variant="center")


def test_reconstruction_variants_agree():
    s = _random_pure(7, 2)
    g1 = su2.from_euler(0.4, 0.9, 1.3)
    g2 = su2.mul(g1, su2.from_euler(0.0, 0.35, 0.0))
    kg = _kgrid(2, 8)
    vl, il = wigner.reconstruct_kernel(s, g1, g2, 8, kg, "left")
    vr, ir = wigner.reconstruct_kernel(s, g1, g2, 8, kg, "right")
    assert_allclose(vl, vr, atol=1e-12)
    assert_allclose(il, ir, atol=1e-12)
    assert_allclose(il.sum(), vl, atol=1e-13)
    with pytest.raises(ValueError):
        wigner.reconstruct_kernel(s, g1, g2, 2, kg, "middle")


def test_reconstruction_matches_left_variant_reference():
    # the left-variant formula evaluated directly from traced blocks at the
    # mid-point: tr( tilde-W(s; J) D^J(g1 g2^{-1}) ) per label
    rho = _random_ensemble(9, 2)
    g1 = su2.from_euler(1.1, 0.6, -0.4)
    g2 = su2.from_euler(0.2, 1.4, 0.9)
    kg = _kgrid(2, 6)
    s = su2.midpoint(g1, g2)
    rel = su2.mul(g1, su2.inverse(g2))
    for variant in ("left", "right"):
        _, inc = wigner.reconstruct_kernel(rho, g1, g2, 6, kg, variant)
        for two_j in range(7):
            tilde = wigner.wigner_tilde(rho, s, two_j, kg, "left").values
            ref = np.trace(tilde @ irreps.dmatrix(two_j, rel))
            assert abs(inc[two_j] - ref) < 1e-12


def test_reconstruction_converges_for_localized_state():
    center = su2.from_euler(0.8, 1.2, 0.5)
    s = states.mollified_state(center, 0.6, 4, GGRID)
    g1 = su2.mul(center, su2.from_euler(0.0, 0.25, 0.0))
    g2 = su2.mul(center, su2.from_euler(0.3, 0.15, 0.1))
    kern = states.ensemble_kernel(states.pure_ensemble(s), g1, g2)
    val, _ = wigner.reconstruct_kernel(s, g1, g2, 8, _kgrid(4, 8), "left")
    assert abs(val - kern) / abs(kern) < 1e-4


def test_reconstruction_antipodal_raises():
    s = _random_pure(7, 1)
    g1 = su2.identity()
    g2 = np.array([-1.0, 0.0, 0.0, 0.0])
    with pytest.raises(AntipodalPair):
        wigner.reconstruct_kernel(s, g1, g2, 2, _kgrid(1, 2))


def test_grid_preconditions_raise():
    rho = _random_pure(RNG_SEED, 2)
    tiny_k = grids.hemisphere_grid(3, 2, 4)
    with pytest.raises(GridTooCoarse):
        wigner.wigner_full(rho, su2.identity(), 2, tiny_k)
    coarse_g = grids.haar_grid(2, 1, 4)
    with pytest.raises(GridTooCoarse):
        wigner.marginal_momentum(rho, 2, coarse_g, _kgrid(2, 2))
    with pytest.raises(GridTooCoarse):
        wigner.overlap_trace(rho, rho, 2, coarse_g, _kgrid(2, 2))
    with pytest.raises(GridTooCoarse):
        wigner.marginal_position(rho, su2.identity(), 40, _kgrid(2, 2))


E = su2.identity()
BAD_ELEMENTS = {
    "scaled": 3.0 * E,
    "doubled": 2.0 * E,
    "nan": np.array([np.nan, 0.0, 0.0, 0.0]),
    "inf": np.array([np.inf, 0.0, 0.0, 0.0]),
    "off-by-1e-9": (1.0 + 1e-9) * E,
}
ELEMENT_ENTRY_POINTS = {
    "wigner_full_batch": lambda s, g, kg: wigner.wigner_full_batch(s, [E, g], 0, kg),
    "wigner_full": lambda s, g, kg: wigner.wigner_full(s, g, 0, kg),
    "wigner_tilde_batch": lambda s, g, kg: wigner.wigner_tilde_batch(s, [g], 0, kg),
    "wigner_tilde": lambda s, g, kg: wigner.wigner_tilde(s, g, 0, kg, "right"),
    "transform_left": lambda s, g, kg: wigner.transform_left(
        wigner.wigner_full(s, E, 0, kg), g
    ),
    "transform_right": lambda s, g, kg: wigner.transform_right(
        wigner.wigner_full(s, E, 0, kg), g
    ),
    "marginal_position": lambda s, g, kg: wigner.marginal_position(s, g, 1, kg),
    "reconstruct_kernel g1": lambda s, g, kg: wigner.reconstruct_kernel(s, g, E, 1, kg),
    "reconstruct_kernel g2": lambda s, g, kg: wigner.reconstruct_kernel(s, E, g, 1, kg),
    "wigner_bruteforce_mollified": lambda s, g, kg: wigner.wigner_bruteforce_mollified(
        s, g, 0, 0.3, grids.haar_grid(2, 1, 4)
    ),
}


@pytest.mark.parametrize("bad", sorted(BAD_ELEMENTS))
@pytest.mark.parametrize("entry", sorted(ELEMENT_ENTRY_POINTS))
def test_non_unit_group_elements_raise(entry, bad):
    s = _random_pure(41, 1)
    with pytest.raises(DomainError):
        ELEMENT_ENTRY_POINTS[entry](s, BAD_ELEMENTS[bad], _kgrid(1, 1))


@pytest.mark.parametrize("entry", sorted(ELEMENT_ENTRY_POINTS))
def test_unit_group_elements_within_tolerance_pass(entry):
    s = _random_pure(41, 1)
    ELEMENT_ENTRY_POINTS[entry](s, (1.0 + 1e-12) * su2.from_euler(0.3, 0.8, 1.9), _kgrid(1, 1))


def test_group_element_shape_checked():
    with pytest.raises(DomainError):
        wigner.wigner_full_batch(_random_pure(41, 1), [[1.0, 0.0, 0.0]], 0, _kgrid(1, 0))


LABEL_ENTRY_POINTS = {
    "wigner_full_batch": lambda s, t, kg: wigner.wigner_full_batch(s, [E], t, kg),
    "wigner_tilde_batch": lambda s, t, kg: wigner.wigner_tilde_batch(s, [E], t, kg),
    "marginal_momentum": lambda s, t, kg: wigner.marginal_momentum(s, t, GGRID, kg),
    "marginal_position": lambda s, t, kg: wigner.marginal_position(s, E, t, kg),
    "overlap_trace": lambda s, t, kg: wigner.overlap_trace(s, s, t, GGRID, kg),
    "reconstruct_kernel": lambda s, t, kg: wigner.reconstruct_kernel(s, E, E, t, kg),
}


@pytest.mark.parametrize(
    "label", [-1, 2.0, True, np.float64(1.0), "1"], ids=["-1", "2.0", "True", "float64", "str"]
)
@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
def test_labels_that_are_not_counts_raise(entry, label):
    # checked once, in _require_kgrid, before anything is built for the label
    with pytest.raises(DomainError, match="non-negative integers"):
        LABEL_ENTRY_POINTS[entry](_random_pure(41, 1), label, _kgrid(1, 2))


@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
def test_numpy_integer_labels_pass(entry):
    LABEL_ENTRY_POINTS[entry](_random_pure(41, 1), np.int64(1), _kgrid(1, 2))


def test_bruteforce_mollified_tracks_exact_block():
    # coarse sanity tier of the pair-integral evaluation: one width on the
    # small grid; the resolved accuracy ladder lives in the acceptance suite
    rng = np.random.default_rng(3)
    state = states.normalize_state(
        states.BlockState(
            (
                np.zeros((1, 1), complex),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            )
        )
    )
    g = su2.from_euler(0.9, 1.1, 2.3)
    exact = wigner.wigner_full(state, g, 1, _kgrid(1, 1)).values
    pair_grid = grids.haar_grid(10, 6, 20)
    approx = wigner.wigner_bruteforce_mollified(state, g, 1, 0.2, pair_grid)
    scale = float(np.max(np.abs(exact)))
    assert float(np.max(np.abs(approx - exact))) / scale < 0.2


def test_bruteforce_mollified_stacks_widths():
    state = _random_pure(11, 1)
    g = su2.identity()
    pair_grid = grids.haar_grid(10, 6, 20)
    stacked = wigner.wigner_bruteforce_mollified(
        state, g, 1, [0.3, 0.2], pair_grid
    )
    assert stacked.shape == (2, 2, 2, 2, 2)
    single = wigner.wigner_bruteforce_mollified(state, g, 1, 0.2, pair_grid)
    assert_allclose(stacked[1], single, atol=1e-13)


def _mollified_delta_mass(eps, grid):
    """Mass of the geodesic Gaussian ``exp(-(d / eps)^2)`` about the identity,
    ``(on_grid, analytic)`` with the analytic value ``(2/pi) int_0^pi
    sin^2(chi) exp(-(chi / eps)^2) dchi``: they agree when ``grid`` resolves
    a mollifier of width ``eps``."""
    dist = su2.distance(su2.identity(), grid.nodes)
    on_grid = float(np.sum(grid.weights * np.exp(-((dist / eps) ** 2))))
    analytic = (2.0 / np.pi) * quad(
        lambda chi: np.sin(chi) ** 2 * np.exp(-((chi / eps) ** 2)),
        0.0, np.pi, epsabs=1e-14, epsrel=1e-13,
    )[0]
    return on_grid, analytic


def test_mollified_delta_mass_agreement():
    on_grid, analytic = _mollified_delta_mass(0.3, GGRID)
    assert analytic > 0
    assert abs(on_grid - analytic) / analytic < 5e-3
    # a width below the grid resolution must be flagged by a visible mismatch
    on_coarse, analytic_fine = _mollified_delta_mass(0.01, grids.haar_grid(4, 2, 8))
    assert abs(on_coarse - analytic_fine) / analytic_fine > 0.5
