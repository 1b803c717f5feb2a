"""
Acceptance battery: twelve release criteria, one test per criterion, each
printing a single ``[criterion NN] ... PASS/FAIL`` line (visible under
``pytest -s``).  The criteria pin down irrep orthogonality, Parseval,
marginal recovery, Hermiticity, covariance, agreement with a brute-force
mollified oracle, position-marginal convergence, trace-overlap and kernel
reconstruction, the Cartesian and SO(2) closed forms, and the geodesic
mid-point / squaring-jacobian axioms, at the tolerances asserted below.
"""

import time

import numpy as np
from scipy.integrate import quad
from scipy.special import iv

from groupwigner import baselines, grids, irreps, states, su2, wigner


def _verdict(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status} ({detail})")
    return passed


def _random_pure(seed, two_jmax):
    rng = np.random.default_rng(seed)
    return states.pure_ensemble(states.random_state(rng, two_jmax))


def test_criterion_01_irrep_orthogonality():
    t0 = time.perf_counter()
    grid = grids.haar_grid(14, 7, 28)
    cols = []
    for two_j in range(7):
        d = irreps.dmatrix(two_j, grid.nodes)
        cols.append(
            np.sqrt(two_j + 1.0) * d.reshape(grid.n_nodes, (two_j + 1) ** 2)
        )
    f = np.concatenate(cols, axis=1)
    gram = (f.conj().T * grid.weights) @ f
    defect = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    elapsed = time.perf_counter() - t0
    ok = defect < 1e-10 and elapsed < 5.0
    assert _verdict(
        1,
        "irrep orthogonality through two_j=6",
        ok,
        f"gram defect {defect:.2e} < 1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_parseval():
    rng = np.random.default_rng(20240816)
    grid = grids.haar_grid(14, 7, 28)
    worst = 0.0
    for i in range(20):
        state = states.random_state(rng, i % 5)
        coeff_sum = sum(float(np.sum(np.abs(b) ** 2)) for b in state.blocks)
        vals = states.synthesize(state, grid.nodes)
        quad_sum = float(grid.weights @ (np.abs(vals) ** 2))
        worst = max(worst, abs(coeff_sum - quad_sum))
    ok = worst < 1e-10
    assert _verdict(
        2,
        "Parseval, 20 random states through two_jmax=4",
        ok,
        f"worst |coefficient sum - quadrature| {worst:.2e} < 1e-10",
    )


def test_criterion_03_momentum_marginal():
    grid = grids.haar_grid(14, 7, 28)
    worst = worst_diag = 0.0
    for seed in range(5):
        rho = _random_pure(100 + seed, 2)
        block = rho.states[0].blocks[2]
        for two_j in range(5):
            kgrid = grids.hemisphere_grid_for(2 + two_j)
            marg = wigner.marginal_momentum(rho, two_j, grid, kgrid)
            ref = (
                states.density_coefficients(rho, two_j)
                if two_j <= 2
                else np.zeros_like(marg)
            )
            worst = max(worst, float(np.max(np.abs(marg - ref))))
        diag = np.einsum("mnmn->mn", wigner.marginal_momentum(rho, 2, grid, kgrid))
        worst_diag = max(
            worst_diag, float(np.max(np.abs(diag - np.abs(block) ** 2)))
        )
    ok = worst < 1e-8 and worst_diag < 1e-8
    assert _verdict(
        3,
        "momentum marginal equals density coefficients",
        ok,
        f"worst block error {worst:.2e}, worst |psi|^2 diagonal "
        f"{worst_diag:.2e}, both < 1e-8",
    )


def test_criterion_04_hermiticity():
    rng = np.random.default_rng(20240817)
    gs = su2.random_elements(rng, 6)
    worst = 0.0
    pure = _random_pure(7, 2)
    mixed = states.DensityEnsemble(
        (0.35, 0.65),
        (states.random_state(rng, 2), states.random_state(rng, 1)),
    )
    for rho in (pure, mixed):
        for two_j in range(4):
            kgrid = grids.hemisphere_grid_for(2 + two_j)
            for vals in wigner.wigner_full_batch(rho, gs, two_j, kgrid):
                worst = max(worst, wigner.hermiticity_defect(vals))
    ok = worst < 1e-10
    assert _verdict(
        4,
        "hermiticity of every computed block",
        ok,
        f"worst defect {worst:.2e} < 1e-10",
    )


def test_criterion_05_covariance():
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(20):
        state = states.random_state(rng, 1)
        rho = states.pure_ensemble(state)
        h, g = su2.random_elements(rng, 2)
        for two_j in (1, 2):
            kgrid = grids.hemisphere_grid_for(1 + two_j)
            blk = wigner.wigner_full(rho, g, two_j, kgrid)
            moved = wigner.transform_left(blk, h)
            direct = wigner.wigner_full(
                states.pure_ensemble(states.left_translate(state, h)),
                moved.g,
                two_j,
                kgrid,
            )
            worst = max(worst, float(np.max(np.abs(moved.values - direct.values))))
            moved = wigner.transform_right(blk, h)
            direct = wigner.wigner_full(
                states.pure_ensemble(states.right_translate(state, h)),
                moved.g,
                two_j,
                kgrid,
            )
            worst = max(worst, float(np.max(np.abs(moved.values - direct.values))))
    ok = worst < 1e-8
    assert _verdict(
        5,
        "left/right covariance, 20 random (state, h) pairs",
        ok,
        f"worst transform-vs-recompute error {worst:.2e} < 1e-8",
    )


def test_criterion_06_bruteforce_oracle():
    rng = np.random.default_rng(3)
    state = states.normalize_state(
        states.BlockState(
            (
                np.zeros((1, 1), dtype=complex),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            )
        )
    )
    g = su2.from_euler(0.9, 1.1, 2.3)
    kgrid = grids.hemisphere_grid_for(3)
    widths = [0.2, 0.1, 0.05]
    pair_grid = grids.haar_grid(20, 12, 40)
    monotone = True
    final = 0.0
    for two_j in (1, 2):
        exact = wigner.wigner_full(state, g, two_j, kgrid).values
        scale = float(np.max(np.abs(exact)))
        approx = wigner.wigner_bruteforce_mollified(
            state, g, two_j, widths, pair_grid
        )
        errs = [float(np.max(np.abs(a - exact))) / scale for a in approx]
        monotone = monotone and errs[0] > errs[1] > errs[2]
        final = max(final, errs[2])
    t0 = time.perf_counter()
    coarse = grids.haar_grid(10, 6, 20)
    for two_j in (1, 2):
        wigner.wigner_bruteforce_mollified(state, g, two_j, widths, coarse)
    elapsed = time.perf_counter() - t0
    ok = monotone and final <= 0.02 and elapsed < 60.0
    assert _verdict(
        6,
        "brute-force mollified oracle agreement",
        ok,
        f"monotone in the width ladder: {monotone}, final relative error "
        f"{final:.4f} <= 2%, coarse-grid ladder {elapsed:.2f}s < 60s",
    )


def test_criterion_07_position_marginal_convergence():
    kgrid = grids.hemisphere_grid_for(2 + 8)
    worst_high = 0.0
    monotone = True
    eps = np.finfo(float).eps
    for seed in (21, 22, 23):
        rng = np.random.default_rng(seed)
        full = states.random_state(rng, 2)
        state = states.normalize_state(
            states.BlockState(
                (full.blocks[0], np.zeros((2, 2), dtype=complex), full.blocks[2])
            )
        )
        gs = su2.random_elements(rng, 8)
        dens = np.abs(states.synthesize(state, gs)) ** 2
        low, _ = wigner.marginal_position(state, gs, 4, kgrid)
        high, _ = wigner.marginal_position(state, gs, 8, kgrid)
        err_low = np.abs(low - dens)
        err_high = np.abs(high - dens)
        # the label sum terminates at twice the state band for
        # definite-parity states, so both cutoffs can land on the
        # quadrature rounding floor; strict per-node improvement is only
        # meaningful above that floor (worst-case linear rounding
        # accumulation over the quadrature nodes)
        floor = kgrid.n_nodes * eps * max(1.0, float(np.max(dens)))
        monotone = monotone and bool(
            np.all((err_high < err_low) | (err_high < floor))
        )
        worst_high = max(worst_high, float(np.max(err_high)))
    ok = monotone and worst_high < 1e-2
    assert _verdict(
        7,
        "position-marginal convergence for integer-parity states",
        ok,
        f"per-node improvement doubling the label cutoff: {monotone}, "
        f"worst error at the doubled cutoff {worst_high:.2e} < 1e-2",
    )


def test_criterion_08_trace_overlap():
    a = _random_pure(5, 2)
    b = _random_pure(6, 2)
    grid = grids.haar_grid_for_degree(2)
    kgrid = grids.hemisphere_grid_for(2 + 12)
    coeff = states.trace_product(a, b)
    val, increments = wigner.overlap_trace(a, b, 12, grid, kgrid, "left")
    partial = np.cumsum(increments)
    gap = abs(val - coeff)
    gap_early = abs(partial[4] - coeff)
    val_r, _ = wigner.overlap_trace(a, b, 12, grid, kgrid, "right")
    val_ba, _ = wigner.overlap_trace(b, a, 12, grid, kgrid, "left")
    variants = max(abs(val - val_r), abs(val - val_ba))
    ok = gap < 1e-3 and gap < gap_early and variants < 1e-8
    assert _verdict(
        8,
        "trace overlap vs coefficient trace",
        ok,
        f"gap {gap:.2e} < 1e-3 (down from {gap_early:.2e} at the early "
        f"cutoff), variant spread {variants:.2e} < 1e-8",
    )


def test_criterion_09_kernel_reconstruction():
    grid = grids.haar_grid(14, 7, 28)
    center = su2.from_euler(0.8, 1.2, 0.5)
    state = states.mollified_state(center, 0.6, 4, grid)
    g1 = su2.mul(center, su2.from_euler(0.0, 0.25, 0.0))
    g2 = su2.mul(center, su2.from_euler(0.3, 0.15, 0.1))
    kgrid = grids.hemisphere_grid_for(4 + 8)
    target = complex(
        states.synthesize(state, g1) * np.conj(states.synthesize(state, g2))
    )
    val_l, _ = wigner.reconstruct_kernel(state, g1, g2, 8, kgrid, "left")
    val_r, _ = wigner.reconstruct_kernel(state, g1, g2, 8, kgrid, "right")
    rel = abs(val_l - target) / abs(target)
    variants = abs(val_l - val_r)
    ok = rel < 1e-2 and variants < 1e-6
    assert _verdict(
        9,
        "kernel reconstruction for a mollified state",
        ok,
        f"relative error {rel:.2e} < 1e-2, variant gap {variants:.2e} < 1e-6",
    )


def test_criterion_10_cartesian_closed_forms():
    excited = baselines.oscillator_state(1, n=1024, half_width=8.0)
    q = excited.q
    qq, pp = q[:, None], q[None, :]
    table = baselines.cartesian_wigner_table(excited, q)
    target = (2.0 / np.pi) * (qq**2 + pp**2 - 0.5) * np.exp(-(qq**2) - pp**2)
    closed = float(np.max(np.abs(table - target)))

    ground = baselines.oscillator_state(0, n=1024, half_width=8.0)
    hudson = float(max(0.0, -np.min(baselines.cartesian_wigner_table(ground))))

    full = baselines.cartesian_wigner_table(excited)
    dp = np.pi / (excited.n * excited.dq)
    pos = float(
        np.max(np.abs(full.sum(axis=1) * dp - np.abs(excited.values) ** 2))
    )
    pgrid = baselines.cartesian_p_grid(excited)
    amp = baselines.cartesian_momentum_amplitude(excited, pgrid)
    mom = float(
        np.max(np.abs(full.sum(axis=0) * excited.dq - np.abs(amp) ** 2))
    )
    ok = closed < 1e-6 and hudson < 1e-12 and pos < 1e-6 and mom < 1e-6
    assert _verdict(
        10,
        "Cartesian oscillator closed form, Hudson, marginals",
        ok,
        f"closed-form error {closed:.2e} < 1e-6, Gaussian negativity "
        f"{hudson:.1e}, marginal errors {pos:.2e}/{mom:.2e} < 1e-6",
    )


def test_criterion_11_so2_closed_forms():
    thetas = np.linspace(-np.pi, np.pi, 17)
    ms = np.arange(-5, 6)
    exact = 0.0
    for m0 in (-2, 0, 1):
        coeff = np.zeros(5)
        coeff[m0 + 2] = 1.0
        table = baselines.angle_wigner_table(
            baselines.AngleState(coeff, -2), thetas, ms
        )
        target = np.where(ms == m0, 1.0 / (2.0 * np.pi), 0.0)
        exact = max(exact, float(np.max(np.abs(table - target[None, :]))))

    rng = np.random.default_rng(20240819)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    state = baselines.AngleState(c / np.linalg.norm(c), -3)
    weyl = 0.0
    for n in range(-3, 4):
        for tau in (-2.9, -1.1, 0.7, 2.5):
            weyl = max(
                weyl,
                abs(
                    baselines.weyl_expectation(state, n, tau)
                    - baselines.weyl_expectation(state, n, tau, side="phase_space")
                ),
            )
    recovery = 0.0
    for theta in (-2.8, -0.4, 0.0, 1.9):
        for m in range(-5, 6):
            recovery = max(
                recovery,
                abs(
                    baselines.so2_wigner_general(state, theta, m)
                    - baselines.angle_wigner(state, theta, m)
                ),
            )
    ok = exact == 0.0 and weyl < 1e-6 and recovery < 1e-10
    assert _verdict(
        11,
        "SO(2) pure-mode form, Weyl duality, baseline recovery",
        ok,
        f"pure-mode error {exact:.1e} (exact), Weyl gap {weyl:.2e} < 1e-6, "
        f"general-vs-baseline {recovery:.2e} < 1e-10",
    )


def test_criterion_12_midpoint_and_jacobian():
    rng = np.random.default_rng(20240820)
    n = 1000
    g1 = su2.random_elements(rng, n)
    g2 = su2.random_elements(rng, n)
    h = su2.random_elements(rng, n)
    s = su2.midpoint(g1, g2)
    worst = float(
        np.max(np.abs(su2.distance(g1, s) - 0.5 * su2.distance(g1, g2)))
    )
    worst = max(worst, float(np.max(np.abs(su2.distance(s, g2) - su2.distance(g1, s)))))
    worst = max(worst, float(np.max(np.abs(s - su2.midpoint(g2, g1)))))
    worst = max(worst, float(np.max(np.abs(su2.midpoint(g1, g1) - g1))))
    worst = max(
        worst,
        float(
            np.max(np.abs(su2.midpoint(su2.mul(h, g1), su2.mul(h, g2)) - su2.mul(h, s)))
        ),
    )
    worst = max(
        worst,
        float(
            np.max(np.abs(su2.midpoint(su2.mul(g1, h), su2.mul(g2, h)) - su2.mul(s, h)))
        ),
    )
    s0 = su2.group_sqrt(g1)
    worst = max(
        worst, float(np.max(np.abs(su2.mul(s0, g1) - su2.mul(g1, s0))))
    )

    kgrid = grids.hemisphere_grid_for(8)
    push = kgrid.weights * kgrid.jacobian
    squared = kgrid.squared
    a0 = squared[:, 0]
    rational_target = quad(
        lambda x: (2.0 / np.pi) * np.sin(x) ** 2 / (2.0 + np.cos(x)), 0.0, np.pi
    )[0]
    cases = [
        (np.ones(kgrid.n_nodes), 1.0),
        (irreps.character(1, squared), 0.0),
        (irreps.character(2, squared), 0.0),
        (np.exp(a0), 2.0 * iv(1, 1.0)),
        (1.0 / (2.0 + a0), rational_target),
    ]
    jac = max(abs(float(np.sum(push * f)) - target) for f, target in cases)
    ok = worst < 1e-12 and jac < 1e-6
    assert _verdict(
        12,
        "mid-point axioms and squaring-jacobian pushforward",
        ok,
        f"worst axiom defect over {n} samples {worst:.2e} < 1e-12, "
        f"worst pushforward error over 5 integrands {jac:.2e} < 1e-6",
    )
