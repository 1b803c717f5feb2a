"""
Tests for the Haar and hemisphere quadrature grids.  Expected values come
from closed-form moments of the measures involved (Beta-function integrals
for the axial rule, representation-orthogonality integrals for the group
rules), from adaptive quadrature of the axial Chebyshev moments, and from
structural invariants such as inversion closure.
"""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from groupwigner import cli, grids, irreps, states, su2, wigner
from groupwigner.errors import AntipodalNode, GridTooCoarse, InvalidGrid
from groupwigner.grids import _axial_rule


@pytest.mark.parametrize(
    "shape,degree",
    [((14, 7, 28), 6), ((10, 5, 20), 4), ((4, 2, 8), 1), ((2, 1, 4), 0)],
)
def test_haar_grid_exactness_degree(shape, degree):
    grid = grids.haar_grid(*shape)
    assert grid.exactness_degree == degree
    assert grid.n_nodes == shape[0] * shape[1] * shape[2]
    assert_allclose(grid.weights.sum(), 1.0, atol=1e-13)
    assert_allclose(
        np.linalg.norm(grid.nodes, axis=-1), np.ones(grid.n_nodes), atol=1e-13
    )


def test_haar_grid_rejects_bad_shapes():
    with pytest.raises(InvalidGrid):
        grids.haar_grid(0, 5, 20)
    with pytest.raises(InvalidGrid):
        grids.haar_grid(10, -1, 20)


def test_haar_grid_integrates_single_matrix_elements():
    # int D^j_{mn} dg = 0 for j >= 1/2, and int |D^j_{mn}|^2 dg = 1/(2j+1)
    grid = grids.haar_grid(10, 5, 20)
    for two_j in (1, 2, 3, 4):
        d = irreps.dmatrix(two_j, grid.nodes)
        mean = np.einsum("x,xmn->mn", grid.weights, d)
        assert_allclose(mean, np.zeros_like(mean), atol=1e-12)
        sq = np.einsum("x,xmn->mn", grid.weights, np.abs(d) ** 2)
        assert_allclose(sq, np.full_like(sq, 1.0 / (two_j + 1.0)), atol=1e-12)


def test_haar_grid_gram_identity():
    grid = grids.haar_grid(10, 5, 20)
    cols = []
    for two_j in range(2 * grid.exactness_degree + 1):
        d = irreps.dmatrix(two_j, grid.nodes)
        cols.append(
            np.sqrt(two_j + 1.0) * d.reshape(grid.n_nodes, (two_j + 1) ** 2)
        )
    f = np.concatenate(cols, axis=1)
    gram = (f.conj().T * grid.weights) @ f
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-11


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_haar_grid_for_degree(degree):
    grid = grids.haar_grid_for_degree(degree)
    assert grid.exactness_degree >= degree


AXIAL_MOMENTS = [
    # int_0^1 t^k sqrt(1 - t^2) dt, closed Beta-function values
    (0, np.pi / 4.0),
    (1, 1.0 / 3.0),
    (2, np.pi / 16.0),
    (3, 2.0 / 15.0),
    (4, np.pi / 32.0),
    (5, 8.0 / 105.0),
    (6, 5.0 * np.pi / 256.0),
]


@pytest.mark.parametrize("k,moment", AXIAL_MOMENTS)
def test_axial_rule_moments(k, moment):
    t, w = _axial_rule(8)
    assert_allclose(np.sum(w * t**k), moment, atol=1e-13)


@pytest.mark.parametrize("n_axial", [1, 2, 8, 43, 163])
def test_axial_rule_chebyshev_moments_match_adaptive_quadrature(n_axial):
    # reference: the shifted-Chebyshev moments int_0^1 T_n(2t - 1)
    # sqrt(1 - t^2) dt by adaptive quadrature, with 2t - 1 = cos(u)
    t, w = _axial_rule(n_axial)
    ref = [
        quad(
            lambda u, n=n: 0.25
            * np.cos(n * u)
            * np.sin(u)
            * np.sqrt((1.0 - np.cos(u)) * (3.0 + np.cos(u))),
            0.0,
            np.pi,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=200,
        )[0]
        for n in range(n_axial)
    ]
    moments = np.cos(np.outer(np.arange(n_axial), np.arccos(2.0 * t - 1.0))) @ w
    assert np.max(np.abs(moments - ref)) <= 1e-14


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only: the package runs on numpy alone
    for path in sorted(Path(grids.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "scipy" not in {n.split(".")[0] for n in names}, (
                f"{path.name}:{node.lineno} imports scipy"
            )


def _package_modules():
    """``(name, syntax tree)`` of every module in the package."""
    for path in sorted(Path(grids.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_operator_algebra_is_not_in_the_package():
    # the operator algebra and two duplicate su2 formulas left the package:
    # no module defines or exports them, and every exported name resolves
    gone = {"u_multiply", "dhat_apply", "fourier_projector", "squaring_jacobian",
            "rotation_angle"}
    for name, tree in _package_modules():
        defined = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        module = importlib.import_module(f"groupwigner.{name}")
        exported = set(getattr(module, "__all__", ()))
        assert not (defined | exported) & gone, f"{name}.py: {(defined | exported) & gone}"
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}, which do not resolve"


def test_haar_band_rule_is_one_grids_function():
    # 2 * exactness_degree >= band is compared only in grids, in
    # QuadratureGrid._require_band, and every consumer's failure names the
    # integrand, the grid and the band it is exact to
    compares = [
        f"{name}.{fn.name}"
        for name, tree in _package_modules()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Compare)
        if any(getattr(n, "attr", None) == "exactness_degree" for n in ast.walk(node))
    ]
    assert compares == ["grids._require_band"]
    coarse = grids.haar_grid(2, 1, 4)
    rho = states.random_state(np.random.default_rng(0), 2)
    kgrid = grids.hemisphere_grid_for(4)
    config = cli.RunConfig(grid_shape=coarse.shape, jmax_twice=2)
    for what, band, call in [
        ("analysis", 2, lambda: states.analyze(np.zeros(coarse.n_nodes), 2, coarse)),
        ("momentum marginal", 4, lambda: wigner.marginal_momentum(rho, 2, coarse, kgrid)),
        ("overlap", 4, lambda: wigner.overlap_trace(rho, rho, 2, coarse, kgrid)),
        ("orthogonality", 2, lambda: cli._check_orthogonality(config, None)),
    ]:
        with pytest.raises(GridTooCoarse) as info:
            call()
        assert str(info.value) == (
            f"{what} integrand has irrep band {band}, but the group grid 2x1x4 "
            "is exact only to band 0"
        )


def test_package_import_leaves_scipy_unloaded():
    # nothing that the package imports, numpy included, loads scipy
    code = "import sys, groupwigner.cli; print('scipy' in sys.modules)"
    src = str(Path(grids.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_hemisphere_grid_structure():
    grid = grids.hemisphere_grid(7, 4, 8)
    assert np.all(grid.nodes[:, 0] > 0)
    assert_allclose(grid.weights.sum(), 0.5, atol=1e-13)
    assert_allclose(grid.pushforward_weights.sum(), 1.0, atol=1e-13)
    assert_allclose(grid.jacobian, 8.0 * grid.nodes[:, 0] ** 2, atol=1e-14)
    assert_allclose(grid.squared, su2.mul(grid.nodes, grid.nodes), atol=1e-14)


def test_hemisphere_grid_inversion_closed():
    # every inverted node coincides with some node carrying the same weight
    grid = grids.hemisphere_grid(7, 4, 8)
    inv = su2.inverse(grid.nodes)
    dots = inv @ grid.nodes.T
    partner = np.argmax(dots, axis=1)
    assert_allclose(
        inv, grid.nodes[partner], atol=1e-12
    )
    assert_allclose(grid.weights, grid.weights[partner], atol=1e-15)
    assert np.array_equal(np.sort(partner), np.arange(grid.n_nodes))


def _node_by_node_defect(weights, elements, top):
    """Largest ``|sum_x w_x D^t(x) - delta_t0|`` over ``two_t <= top``,
    summed one node at a time: the reference for the factored certificates."""
    defect = abs(np.sum(weights) - 1.0)
    for two_t in range(1, top + 1):
        moment = np.einsum("k,kmn->mn", weights, irreps.dmatrix(two_t, elements))
        defect = max(defect, np.max(np.abs(moment)))
    return defect


@pytest.mark.parametrize(
    "shape", [(7, 4, 8), (15, 8, 16), (31, 16, 32), (9, 3, 10)],
    ids=["7x4x8", "for6", "for14", "9x3x10"],
)
def test_hemisphere_grid_pushforward_annihilates_irreps(shape):
    # sum_k w_k jac_k D^t(k^2) must equal the Haar integral of D^t over the
    # whole group: the identity for t = 0 and zero for every t >= 1
    grid = grids.hemisphere_grid(*shape)
    per_node = _node_by_node_defect(
        grid.pushforward_weights, grid.squared, grid.exactness_twice
    )
    assert per_node < 1e-10
    assert abs(grids._verify_hemisphere(grid) - per_node) <= 1e-13


def _zero_sum_noise(rng, rule, *keep):
    """Noise of scale 1e-6 on the weights of a 1-D rule, orthogonal to
    ``1`` and to every array in ``keep``, so those weighted sums stay."""
    basis = np.stack([np.ones_like(rule), *keep], axis=1)
    noise = rng.normal(scale=1e-6, size=len(rule))
    return noise - basis @ np.linalg.lstsq(basis, noise, rcond=None)[0]


@pytest.mark.parametrize("kind", ["haar", "hemisphere"])
def test_certificates_match_node_by_node_sums_on_noisy_weights(kind, monkeypatch):
    # zero-sum noise on the weights of the 1-D rules keeps the weight sums
    # (the axial noise keeps sum w t^2 too, so the pushforward weights still
    # sum to 1, and the theta noise is mirror-symmetric), and every moment
    # it leaves must be the one summed node by node
    monkeypatch.setattr(grids, "_TOL", np.inf)
    rng = np.random.default_rng(3)
    if kind == "haar":
        grid = grids.haar_grid_for_degree(2)
        noise = _zero_sum_noise(rng, grid.beta)
        grid = dataclasses.replace(grid, beta_weights=grid.beta_weights + noise)
    else:
        grid = grids.hemisphere_grid(15, 8, 16)
        axial = _zero_sum_noise(rng, grid.axial, grid.axial**2)
        theta = _zero_sum_noise(rng, grid.cos_theta)
        grid = dataclasses.replace(
            grid, axial_weights=grid.axial_weights + axial,
            theta_weights=grid.theta_weights + (theta + theta[::-1]),
        )
    if kind == "haar":
        factored = grids._verify_haar(grid)
        want = _node_by_node_defect(grid.weights, grid.nodes, 4 * grid.exactness_degree)
    else:
        factored = grids._verify_hemisphere(grid)
        want = _node_by_node_defect(
            grid.pushforward_weights, grid.squared, grid.exactness_twice
        )
    assert want > 1e-8
    assert abs(factored - want) <= 1e-13


@pytest.mark.parametrize("shift", [[1e-8, 0.0], [1e-8, -1e-8]], ids=["one", "moved"])
def test_verify_hemisphere_rejects_a_perturbed_weight(shift):
    # "one" shifts one axial weight; "moved" moves weight between two axial
    # values and keeps the weight sum of the rule and of the grid
    grid = grids.hemisphere_grid_for(14)
    weights = grid.axial_weights.copy()
    weights[[3, 4]] += shift
    with pytest.raises(InvalidGrid, match="moment defect"):
        grids._verify_hemisphere(dataclasses.replace(grid, axial_weights=weights))


def test_certificates_evaluate_little_d_on_their_angle_rules(monkeypatch):
    # the hemisphere certificate evaluates d^t once per label on its n_theta
    # polar angles and builds no group elements or D-matrices; the Haar
    # certificate evaluates no d^t at all (see the beta-first test below)
    hemisphere = grids.hemisphere_grid_for(14)
    seen = []
    little_d = irreps.little_d_matrix

    def counting(two_j, beta):
        seen.append(np.shape(beta))
        return little_d(two_j, beta)

    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate called irreps.dmatrix")

    monkeypatch.setattr(irreps, "little_d_matrix", counting)
    monkeypatch.setattr(irreps, "dmatrix", forbidden)
    monkeypatch.setattr(grids, "su2", None)
    assert grids._verify_hemisphere(hemisphere) == hemisphere.certified_defect
    assert seen == [(hemisphere.shape[1],)] * (hemisphere.exactness_twice + 1)


def test_haar_certificate_sums_beta_first(monkeypatch):
    # sum_b w_b d^t(beta_b) = Re V diag(c) V^H with c_mu = sum_b w_b e^{-i beta_b mu}:
    # the Haar certificate takes its beta moments as one dim x dim product per
    # label, calls neither little_d_matrix, dmatrix nor su2, and its moments
    # are those of the weighted little-d sum
    haar = [grids.haar_grid_for_degree(degree) for degree in range(17)]
    little_d, moment = irreps.little_d_matrix, irreps._little_d_moment
    moments = []

    def recording(two_t, beta, weights):
        moments.append((two_t, beta, weights, moment(two_t, beta, weights)))
        return moments[-1][-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("the Haar certificate evaluated a d-matrix")

    monkeypatch.setattr(irreps, "_little_d_moment", recording)
    monkeypatch.setattr(irreps, "little_d_matrix", forbidden)
    monkeypatch.setattr(irreps, "dmatrix", forbidden)
    monkeypatch.setattr(grids, "su2", None)
    for degree, grid in enumerate(haar):
        moments.clear()
        assert grids._verify_haar(grid) == grid.certified_defect
        assert [m[0] for m in moments] == list(range(4 * degree + 1))
        for two_t, beta, weights, got in moments:
            assert beta is grid.beta and weights is grid.beta_weights
            want = np.tensordot(weights, little_d(two_t, beta), 1)
            assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("two_band", [6, 14, 20])
def test_class_angle_factorisation_matches_the_squared_nodes(two_band):
    # a node at phi = 0 is R_y(theta) e^{-i psi sz} R_y(theta)^-1 with
    # cos psi = a0, so D^t(k^2) = d^t(theta) diag(e^{-2i two_l psi}) d^t(theta)^T:
    # the form the hemisphere certificate sums, against the nodes themselves
    grid = grids.hemisphere_grid_for(two_band)
    psi, theta = np.arccos(grid.axial), np.arccos(grid.cos_theta)
    for two_t in range(grid.exactness_twice + 1):
        d = irreps.little_d_matrix(two_t, theta)
        phase = np.exp(-2j * np.outer(psi, irreps.two_m_values(two_t)))
        factored = np.einsum("cml,al,cnl->acmn", d, phase, d).reshape(
            -1, two_t + 1, two_t + 1
        )
        direct = irreps.dmatrix(two_t, grid.squared[:: grid.n_phi])
        assert np.max(np.abs(factored - direct)) <= 1e-12


def test_grids_keep_their_certified_defect():
    # the builders store the defect their certificate measured; a copy made
    # with dataclasses.replace is not certified again and reads None
    for grid, verify, rule in (
        (grids.haar_grid(14, 7, 28), grids._verify_haar, "beta_weights"),
        (grids.hemisphere_grid_for(14), grids._verify_hemisphere, "axial_weights"),
    ):
        assert grid.certified_defect == verify(grid)
        assert 0.0 <= grid.certified_defect <= grids._TOL
        copy = dataclasses.replace(grid, **{rule: getattr(grid, rule).copy()})
        assert copy.certified_defect is None
        (spec,) = (f for f in dataclasses.fields(grid) if f.name == "certified_defect")
        assert not spec.init and not spec.compare


def test_hemisphere_grid_pushforward_squared_moments():
    # int |sqrt(2t+1) D^t_{mn}(g)|^2 dg = 1 carried through the squaring map
    grid = grids.hemisphere_grid_for(4)
    w = grid.pushforward_weights
    for two_t in (1, 2):
        d = irreps.dmatrix(two_t, grid.squared)
        sq = (two_t + 1.0) * np.einsum("k,kmn->mn", w, np.abs(d) ** 2)
        assert_allclose(sq, np.ones_like(sq.real), atol=1e-11)


@pytest.mark.parametrize("two_band", [0, 1, 2, 4, 8])
def test_hemisphere_grid_for_band(two_band):
    grid = grids.hemisphere_grid_for(two_band)
    assert grid.exactness_twice >= two_band


def test_hemisphere_grid_rejects_bad_shapes():
    with pytest.raises(InvalidGrid):
        grids.hemisphere_grid(0, 4, 8)
    with pytest.raises(InvalidGrid):
        grids.hemisphere_grid(7, 4, 7)  # odd n_phi breaks inversion closure


@pytest.mark.parametrize("shape", [(2, 1, 2), (2, 5, 6), (2, 8, 8)])
def test_hemisphere_grid_rejects_two_axial_nodes(shape):
    # two axial nodes are exact only to degree 1, below the degree-2 squaring
    # jacobian that even the band-0 claim integrates
    with pytest.raises(InvalidGrid, match=r"\(2, \d, \d\).*n_axial >= 3"):
        grids.hemisphere_grid(*shape)


@pytest.mark.parametrize("shape", [(1, 1, 2), (3, 1, 2), (3, 2, 4)])
def test_smallest_hemisphere_grids_claim_band_0(shape):
    assert grids.hemisphere_grid(*shape).exactness_twice == 0


@pytest.mark.parametrize("value", [2.7, -0.5, np.nan, np.inf, -np.inf])
def test_grid_for_rejects_values_that_are_not_whole(value):
    for build in (grids.haar_grid_for_degree, grids.hemisphere_grid_for):
        with pytest.raises(InvalidGrid, match="must be a whole number"):
            build(value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), -2, -2.0])
def test_grid_for_accepts_whole_numbers(value):
    # a whole number of any numeric type; a negative one counts as 0
    want = max(int(value), 0)
    assert grids.haar_grid_for_degree(value) is grids.haar_grid_for_degree(want)
    assert grids.hemisphere_grid_for(value) is grids.hemisphere_grid_for(want)


@pytest.mark.parametrize(
    "build",
    [
        lambda: grids.hemisphere_grid(3, 2, 4),
        lambda: grids.hemisphere_grid(7, 4, 8),
        lambda: grids.hemisphere_grid_for(14),
        lambda: grids.haar_grid_for_degree(8),
        lambda: grids.haar_grid(14, 7, 28),
    ],
    ids=["hemisphere(3,2,4)", "hemisphere(7,4,8)", "hemisphere_for(14)",
         "haar_for(8)", "haar(14,7,28)"],
)
def test_derived_arrays_match_the_node_formulas_bit_for_bit(build):
    # the node arrays made from the 1-D rules by broadcasting are those of
    # the formulas on the full node set: meshgrid trig for the nodes,
    # su2.mul for the squares, 8*a0^2 per node, meshgrid Euler angles and
    # su2.from_euler per node
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    grid = build()
    if isinstance(grid, grids.QuadratureGrid):
        gamma = 4 * np.pi * np.arange(grid.n_gamma) / grid.n_gamma
        euler = np.meshgrid(grid.alpha, grid.beta, gamma, indexing="ij")
        assert same(grid.euler, np.stack(euler, axis=-1).reshape(-1, 3))
        assert same(grid.nodes, su2.from_euler(*grid.euler.T))
        return
    phi = 2 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    tt, cth, ph = np.meshgrid(grid.axial, grid.cos_theta, phi, indexing="ij")
    r, sth = np.sqrt(1.0 - tt**2), np.sqrt(1.0 - cth**2)
    nodes = np.stack(
        [tt, r * sth * np.cos(ph), r * sth * np.sin(ph), r * cth], axis=-1
    ).reshape(-1, 4)
    assert same(grid.nodes, nodes)
    assert same(grid.squared, su2.mul(nodes, nodes))
    assert same(grid.jacobian, 8.0 * nodes[:, 0] ** 2)


@pytest.mark.parametrize("degree", range(7))
def test_haar_certificate_agrees_with_full_gram(degree):
    # the factored moment test and the full Gram matrix on the quaternion
    # nodes (the orthogonality check of verify) both certify the grid
    grid = grids.haar_grid_for_degree(degree)
    assert grids._verify_haar(grid) < 1e-10
    config = cli.RunConfig(grid_shape=grid.shape, jmax_twice=2 * degree)
    entry = cli._check_orthogonality(config, np.random.default_rng(0))
    assert entry["error"] < 1e-10


def test_verify_haar_rejects_overclaimed_degree():
    # a grid exact to degree B misses some moment with two_t <= 4 (B + 1)
    for degree in range(13):
        grid = grids.haar_grid_for_degree(degree)
        with pytest.raises(InvalidGrid):
            grids._verify_haar(
                dataclasses.replace(grid, exactness_degree=degree + 1)
            )


@pytest.mark.parametrize("shift", [[1e-8, 0.0], [1e-8, -1e-8]], ids=["one", "moved"])
def test_verify_haar_rejects_a_perturbed_weight(shift):
    # "one" shifts one beta weight; "moved" moves weight between two beta
    # values and keeps the weight sum
    grid = grids.haar_grid(14, 7, 28)
    weights = grid.beta_weights.copy()
    weights[[2, 3]] += shift
    with pytest.raises(InvalidGrid):
        grids._verify_haar(dataclasses.replace(grid, beta_weights=weights))


def test_verify_su2_builds_its_grid_once(tmp_path, monkeypatch):
    grids.haar_grid.cache_clear()
    built = []
    build = grids.QuadratureGrid

    def counting(*rules, **fields):
        grid = build(*rules, **fields)
        built.append(grid.shape)
        return grid

    monkeypatch.setattr(grids, "QuadratureGrid", counting)
    out = str(tmp_path / "report.json")
    assert cli.main(["verify", "--group", "su2", "--out", out]) == 0
    assert built.count((14, 7, 28)) == 1


def test_verify_hemisphere_rejects_overclaimed_band():
    grid = grids.hemisphere_grid_for(6)
    grids._verify_hemisphere(grid)
    overclaimed = dataclasses.replace(
        grid, exactness_twice=grid.exactness_twice + 1
    )
    with pytest.raises(InvalidGrid):
        grids._verify_hemisphere(overclaimed)


def _rules(grid):
    """The constructor fields of a grid: its 1-D rules and exactness claim."""
    return {f.name: getattr(grid, f.name) for f in dataclasses.fields(grid) if f.init}


def test_grids_are_built_from_their_rules():
    # the node arrays, shape and n_nodes are derived from the rules, as plain
    # Python ints even from NumPy integers, and cannot be set apart from them;
    # a rule needs one weight per value, also where a single weight would
    # broadcast over the values
    for grid, ring, rules in (
        (grids.haar_grid(14, 7, 28), "n_gamma", [("beta", "beta_weights")]),
        (grids.hemisphere_grid(7, 4, 8), "n_phi",
         [("axial", "axial_weights"), ("cos_theta", "theta_weights")]),
    ):
        for values, weights in rules:
            for bad in (
                {values: getattr(grid, values)[::2]},
                {weights: getattr(grid, weights)[:1]},
            ):
                with pytest.raises(InvalidGrid, match="values but"):
                    dataclasses.replace(grid, **bad)
                with pytest.raises(InvalidGrid, match="values but"):
                    type(grid)(**{**_rules(grid), **bad})
        rebuilt = type(grid)(**{**_rules(grid), ring: np.int64(getattr(grid, ring))})
        assert np.array_equal(rebuilt.nodes, grid.nodes)
        assert np.array_equal(rebuilt.weights, grid.weights)
        for g in (grid, rebuilt):
            assert type(g.shape) is tuple and {type(n) for n in g.shape} == {int}
            assert type(g.n_nodes) is int
            assert g.n_nodes == np.prod(g.shape) == len(g.nodes) == len(g.weights)
        for derived in ("nodes", "weights", "shape", "n_nodes"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(grid, **{derived: getattr(grid, derived)})


def test_hemisphere_grids_not_closed_under_inversion_cannot_be_built():
    # wigner's kernels are Hermitian only on a hemisphere grid closed under
    # inversion (theta -> pi - theta, phi -> phi + pi), so rules that break
    # it raise when the grid is built, by the constructor or by replace:
    # theta values 1, 5, 9, 13 of 16 have no mirror images, an odd phi ring
    # has no antipodes, and weights tilted along z differ between mirror
    # images; an axial value a0 <= 0 puts a node on the singular equator
    kg = grids.hemisphere_grid_for(14)
    ct, wth = kg.cos_theta, kg.theta_weights
    for bad in (
        dict(cos_theta=ct[1::4], theta_weights=wth[1::4]),
        dict(n_phi=kg.n_phi - 1),
        dict(theta_weights=wth * (1.0 + 1e-3 * ct)),
    ):
        with pytest.raises(InvalidGrid, match="not closed under inversion"):
            dataclasses.replace(kg, **bad)
        with pytest.raises(InvalidGrid, match="not closed under inversion"):
            grids.HemisphereGrid(**{**_rules(kg), **bad})
    for a0 in (0.0, -0.1):
        axial = np.r_[a0, kg.axial[1:]]
        with pytest.raises(AntipodalNode):
            dataclasses.replace(kg, axial=axial)
        with pytest.raises(AntipodalNode):
            grids.HemisphereGrid(**{**_rules(kg), "axial": axial})


def test_grids_are_cached():
    assert grids.haar_grid(10, 5, 20) is grids.haar_grid(10, 5, 20)
    assert grids.hemisphere_grid(7, 4, 8) is grids.hemisphere_grid(7, 4, 8)
