"""Command-line front end.

Three subcommands:

``verify``
    runs the invariant battery for the selected group (orthogonality,
    Parseval, marginals, Hermiticity, covariance, overlap/reconstruction
    consistency, baseline recoveries) and writes a structured report with
    one entry per check: name, measured error, tolerance, pass/fail, and —
    when a check aborts — the exception class as provenance.

``wigner``
    evaluates Wigner tables for a state file at requested nodes (default:
    the quadrature grid) and exports them in the documented row schema.

``overlap``
    compares the coefficient-space trace of two states against the
    phase-space partial sums over irrep labels and reports the gap.

Exit codes: 0 all checks pass, 1 a check or gap failed its tolerance,
2 usage, configuration, schema or memory errors.  Every command is deterministic
given (config, seed), and the resolved configuration is echoed verbatim in
the output metadata so a run can be reproduced bit-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, baselines, grids, irreps, states, su2, wigner
from .errors import (
    ConfigError,
    GridTooCoarse,
    GroupWignerError,
    SchemaError,
)

__all__ = ["RunConfig", "main", "cmd_verify", "cmd_wigner", "cmd_overlap"]

_GROUPS = ("su2", "so2", "cartesian")
_FORMATS = ("json", "csv")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (defaults < config file < flags)."""

    group: str = "su2"
    jmax_twice: int = 2
    grid_shape: tuple = (14, 7, 28)
    jsum_twice: int = 6
    tolerance: float | None = None
    out: str | None = None
    fmt: str = "json"
    seed: int = 7
    oracle: bool = False

    def metadata(self) -> dict:
        echo = dataclasses.asdict(self)
        echo["grid_shape"] = list(echo["grid_shape"])
        return echo


def _parse_grid(value) -> tuple:
    if isinstance(value, (list, tuple)):
        shape = tuple(value)
    else:
        try:
            shape = tuple(int(p) for p in str(value).lower().replace("x", " ").split())
        except ValueError:
            raise ConfigError(f"grid must be three integers 'AxBxC', got {value!r}")
    if len(shape) != 3 or not all(states._is_count(s) and s >= 1 for s in shape):
        raise ConfigError(f"grid must be three positive integers, got {value!r}")
    return shape


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, an optional JSON config file, and flags (flags win)."""
    merged = dataclasses.asdict(RunConfig())
    if args.config is not None:
        try:
            file_cfg = states._read_json(args.config)
        except SchemaError as exc:
            raise ConfigError(f"config file: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        aliases = {
            "jmax": "jmax_twice",
            "jsum": "jsum_twice",
            "grid": "grid_shape",
            "tol": "tolerance",
            "format": "fmt",
        }
        for key, value in file_cfg.items():
            field = aliases.get(key, key)
            if field not in merged:
                raise ConfigError(f"unknown config key {key!r}")
            merged[field] = value
    flag_map = {
        "group": args.group,
        "jmax_twice": args.jmax,
        "grid_shape": args.grid,
        "jsum_twice": args.jsum,
        "tolerance": args.tol,
        "out": args.out,
        "fmt": args.format,
        "seed": args.seed,
        "oracle": True if args.oracle else None,
    }
    for field, value in flag_map.items():
        if value is not None:
            merged[field] = value
    merged["grid_shape"] = _parse_grid(merged["grid_shape"])
    config = RunConfig(**merged)
    if config.group not in _GROUPS:
        raise ConfigError(f"group must be one of {_GROUPS}, got {config.group!r}")
    if config.fmt not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS}, got {config.fmt!r}")
    top = states._MAX_TWO_J
    for name, value in (("jmax", config.jmax_twice), ("jsum", config.jsum_twice)):
        if not states._is_count(value) or not 0 <= value <= top:
            raise ConfigError(f"{name} must be an integer in 0..{top} (doubled units)")
    if not states._is_count(config.seed) or config.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    tol = config.tolerance
    if tol is not None and (
        isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf
    ):
        raise ConfigError(f"tol must be a positive finite number, got {tol!r}")
    if not isinstance(config.oracle, bool):
        raise ConfigError(f"oracle must be true or false, got {config.oracle!r}")
    if not isinstance(config.out, (str, type(None))):
        raise ConfigError(f"out must be a path, got {config.out!r}")
    return config


# ---------------------------------------------------------------------------
# output plumbing


def _write_report(report, config, columns, rows=(), footer=None, table=None) -> None:
    """Write ``report`` to ``config.out`` (stdout when unset).

    JSON is the whole report, with the bytes of ``json.dump(report,
    sort_keys=True, indent=2)``.  CSV is the metadata as ``# key=value``
    comment lines, the ``columns`` header, one line per entry of ``rows``
    and, when given, a closing ``footer`` comment line.

    ``table``, when given, is streamed as the report's ``"rows"`` (in CSV,
    as the lines after the header), in the bytes the whole report would
    have: see :func:`_write_table`.  A report that fails while it is written
    to a file leaves no partial file behind.
    """
    if config.out is None:
        _write_body(sys.stdout, report, config.fmt, columns, rows, footer, table)
        return
    try:
        fh = open(config.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None
    with fh:
        try:
            _write_body(fh, report, config.fmt, columns, rows, footer, table)
        except BaseException:
            fh.close()
            # a device such as /dev/null is not ours to remove
            if os.path.isfile(config.out):
                os.remove(config.out)
            raise


def _write_body(fh, report, fmt, columns, rows, footer, table) -> None:
    if fmt == "json":
        if table is None:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
            return
        # only the report's own keys sit at indent 2, so the split is unique
        head, _, tail = json.dumps(
            dict(report, rows=[]), sort_keys=True, indent=2
        ).partition('\n  "rows": []')
        fh.write(head + '\n  "rows": [')
        wrote = _write_table(fh, table, _JSON_ROW)
        fh.write(("\n  ]" if wrote else "]") + tail + "\n")
        return
    meta = report["metadata"]
    for key in sorted(meta):
        fh.write(f"# {key}={json.dumps(meta[key], sort_keys=True)}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(map(_csv_cell, row)) + "\n")
    if table is not None:
        _write_table(fh, table, _CSV_ROW)
    if footer is not None:
        fh.write(footer + "\n")


# (row prefix, cell separator, row suffix, row separator) of a table row in
# ``json.dump(..., indent=2)`` at list depth 2, and in CSV
_JSON_ROW = ("\n    [\n      ", ",\n      ", "\n    ]", ",")
_CSV_ROW = ("", ",", "\n", "")


def _write_table(fh, table, style) -> bool:
    """Write the rows of ``table`` in ``style``; return whether there were any.

    ``table`` yields product chunks ``(outer, inner, values)``: the rows
    ``[*outer[i], *inner[k], values[i, k].real, values[i, k].imag]`` in
    row-major order over ``(i, k)``.  The cells of ``outer`` and ``inner``
    are Python ints and floats, formatted once per entry; only the two value
    cells are formatted per row.  JSON and CSV both write ints and finite
    floats with ``repr``, so a non-finite value, which JSON would write as
    ``NaN`` and CSV as ``nan``, raises instead.
    """
    prefix, sep, suffix, between = style
    wrote = False
    mids = inner_seen = None
    for outer, inner, values in table:
        if not np.all(np.isfinite(values)):
            raise GroupWignerError(
                "the wigner table holds a non-finite value (NaN or inf)"
            )
        if inner is not inner_seen:
            mids = [sep.join(map(repr, cells)) + sep for cells in inner]
            inner_seen = inner
        for cells, vals in zip(outer, values):
            head = prefix + sep.join(map(repr, cells)) + sep
            batch = between.join([
                f"{head}{mid}{re!r}{sep}{im!r}{suffix}"
                for mid, re, im in zip(mids, vals.real.tolist(), vals.imag.tolist())
            ])
            if batch:
                fh.write(between + batch if wrote else batch)
                wrote = True
    return wrote


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _base_metadata(command: str, config: RunConfig) -> dict:
    return {
        "command": command,
        "config": config.metadata(),
        "haar_normalized": True,
        "package": "groupwigner",
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# verify battery


def _definite_parity_state(rng, two_jmax: int) -> states.BlockState:
    """Random state restricted to blocks with ``two_j`` of the same parity
    as ``two_jmax`` (needed by checks that rely on terminating label sums)."""
    full = states.random_state(rng, two_jmax)
    blocks = [
        b if (two_j - two_jmax) % 2 == 0 else np.zeros_like(b)
        for two_j, b in enumerate(full.blocks)
    ]
    return states.normalize_state(states.BlockState(tuple(blocks)))


def _ggrid(config: RunConfig) -> grids.QuadratureGrid:
    return grids.haar_grid(*config.grid_shape)


def _check_orthogonality(config, rng):
    grid = _ggrid(config)
    grid._require_band(config.jmax_twice, "orthogonality")
    f = np.concatenate(
        [np.sqrt(t + 1.0) * irreps.dmatrix(t, grid.nodes).reshape(grid.n_nodes, -1)
         for t in range(config.jmax_twice + 1)],
        axis=1,
    )
    # one weighted copy of f, not two: the Gram product sets the peak memory
    fw = np.conj(f)
    fw *= grid.weights[:, None]
    gram = fw.T @ f
    gram.flat[:: len(gram) + 1] -= 1.0
    defect = float(np.max(np.abs(gram)))
    return {"name": "orthogonality", "error": defect, "tolerance": 1e-10}


def _check_parseval(config, rng):
    grid = _ggrid(config)
    worst = 0.0
    for _ in range(3):
        state = states.random_state(rng, config.jmax_twice)
        vals = states.synthesize(state, grid.nodes)
        norm2 = float(grid.weights @ (np.abs(vals) ** 2))
        worst = max(worst, abs(norm2 - states.norm(state) ** 2))
        back = states.analyze(vals, config.jmax_twice, grid)
        for b1, b2 in zip(back.blocks, state.blocks):
            worst = max(worst, float(np.max(np.abs(b1 - b2))))
    return {"name": "parseval", "error": worst, "tolerance": 1e-10}


def _check_momentum_marginal(config, rng):
    grid = _ggrid(config)
    rho = states.pure_ensemble(states.random_state(rng, config.jmax_twice))
    worst = 0.0
    for two_j in range(config.jmax_twice + 2):
        kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_j)
        marg = wigner.marginal_momentum(rho, two_j, grid, kgrid)
        ref = (
            states.density_coefficients(rho, two_j)
            if two_j <= config.jmax_twice
            else np.zeros_like(marg)
        )
        worst = max(worst, float(np.max(np.abs(marg - ref))))
    return {"name": "momentum-marginal", "error": worst, "tolerance": 1e-8}


def _check_hermiticity(config, rng):
    # the blocks add their adjoint, so they are Hermitian whatever their
    # tensors hold: they are compared with the G x K sum of their definition
    rho = states.pure_ensemble(states.random_state(rng, config.jmax_twice))
    gs = su2.random_elements(rng, 12)
    worst = 0.0
    for two_j in range(config.jmax_twice + 2):
        kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_j)
        w, dim = (two_j + 1.0) * kgrid.pushforward_weights, (two_j + 1) ** 2
        blocks = wigner.wigner_full_batch(rho, gs, two_j, kgrid)
        for g, vals in zip(gs, blocks):
            ref = np.zeros((dim, dim), dtype=complex)
            for sl in wigner._chunks(kgrid.n_nodes):
                ks = kgrid.nodes[sl]
                gk, gk_inv = su2.mul(g, ks), su2.mul(g, su2.inverse(ks))
                c = w[sl] * states.ensemble_kernel(rho, gk, gk_inv)
                d_inv, d = (irreps.dmatrix(two_j, h).reshape(-1, dim) for h in (gk_inv, gk))
                ref += (c[:, None] * d_inv).T @ np.conj(d)
            ref = ref.reshape(vals.shape)
            worst = max(
                worst, wigner.hermiticity_defect(ref), float(np.max(np.abs(vals - ref)))
            )
    return {"name": "hermiticity", "error": worst, "tolerance": 1e-10}


def _check_covariance(config, rng):
    worst = 0.0
    for _ in range(5):
        rho = states.pure_ensemble(states.random_state(rng, config.jmax_twice))
        h = su2.random_elements(rng, 1)[0]
        g = su2.random_elements(rng, 1)[0]
        for two_j in range(1, config.jmax_twice + 2):
            kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_j)
            blk = wigner.wigner_full(rho, g, two_j, kgrid)
            moved_l = wigner.transform_left(blk, h)
            rho_l = states.pure_ensemble(
                states.left_translate(rho.states[0], h)
            )
            direct_l = wigner.wigner_full(rho_l, moved_l.g, two_j, kgrid)
            worst = max(
                worst, float(np.max(np.abs(moved_l.values - direct_l.values)))
            )
            moved_r = wigner.transform_right(blk, h)
            rho_r = states.pure_ensemble(
                states.right_translate(rho.states[0], h)
            )
            direct_r = wigner.wigner_full(rho_r, moved_r.g, two_j, kgrid)
            worst = max(
                worst, float(np.max(np.abs(moved_r.values - direct_r.values)))
            )
    return {"name": "covariance", "error": worst, "tolerance": 1e-8}


def _check_position_marginal(config, rng):
    state = _definite_parity_state(rng, config.jmax_twice)
    two_jsum = 2 * config.jmax_twice
    kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_jsum)
    gs = su2.random_elements(rng, 8)
    vals, _ = wigner.marginal_position(state, gs, two_jsum, kgrid)
    dens = np.abs(states.synthesize(state, gs)) ** 2
    err = float(np.max(np.abs(vals - dens)))
    return {"name": "position-marginal", "error": err, "tolerance": 1e-8}


def _check_overlap(config, rng):
    # symmetry, variant agreement and the left-variant formula (traced
    # blocks paired at every Haar node, no gamma rule) are exact identities
    # at any label cutoff; convergence of the absolute gap is the overlap
    # command's job
    grid = _ggrid(config)
    a = states.pure_ensemble(states.random_state(rng, config.jmax_twice))
    b = states.pure_ensemble(states.random_state(rng, config.jmax_twice))
    two_jsum = min(config.jsum_twice, 2 * config.jmax_twice)
    kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_jsum)
    val_ab, inc = wigner.overlap_trace(a, b, two_jsum, grid, kgrid, "left")
    val_ba, _ = wigner.overlap_trace(b, a, two_jsum, grid, kgrid, "left")
    val_r, _ = wigner.overlap_trace(a, b, two_jsum, grid, kgrid, "right")
    err = max(abs(val_ab - val_ba), abs(val_ab - val_r))
    for two_j in range(two_jsum + 1):
        w1, w2 = (wigner.wigner_tilde_batch(r, grid.nodes, two_j, kgrid) for r in (a, b))
        ref = np.einsum("g,gab,gba->", grid.weights, w1, w2).real / (two_j + 1.0)
        err = max(err, abs(inc[two_j] - ref))
    return {"name": "overlap-symmetry", "error": float(err), "tolerance": 1e-10}


def _check_reconstruction(config, rng):
    state = states.random_state(rng, config.jmax_twice)
    two_jsum = config.jsum_twice
    kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_jsum)
    g1, g2 = su2.random_elements(rng, 2)
    val_l, inc = wigner.reconstruct_kernel(state, g1, g2, two_jsum, kgrid, "left")
    val_r, _ = wigner.reconstruct_kernel(state, g1, g2, two_jsum, kgrid, "right")
    # each label against the left form, tr(tilde-W(s; J) D^J(g1 g2^{-1}))
    s, rel = su2.midpoint(g1, g2), su2.mul(g1, su2.inverse(g2))
    err = abs(val_l - val_r)
    for two_j in range(two_jsum + 1):
        tilde = wigner.wigner_tilde(state, s, two_j, kgrid, "left").values
        err = max(err, abs(inc[two_j] - np.trace(tilde @ irreps.dmatrix(two_j, rel))))
    return {
        "name": "reconstruction-variants",
        "error": float(err),
        "tolerance": 1e-6,
    }


def _check_traced_consistency(config, rng):
    rho = states.pure_ensemble(states.random_state(rng, config.jmax_twice))
    gs = su2.random_elements(rng, 4)
    worst = 0.0
    for two_j in range(1, config.jmax_twice + 2):
        kgrid = grids.hemisphere_grid_for(config.jmax_twice + two_j)
        for g in gs:
            full = wigner.wigner_full(rho, g, two_j, kgrid).values
            tl = wigner.wigner_tilde(rho, g, two_j, kgrid, "left").values
            tr_ = wigner.wigner_tilde(rho, g, two_j, kgrid, "right").values
            worst = max(
                worst,
                float(np.max(np.abs(np.einsum("mnpn->mp", full) - tl))),
                float(np.max(np.abs(np.einsum("mnmq->nq", full) - tr_))),
            )
    return {"name": "traced-consistency", "error": worst, "tolerance": 1e-10}


def _check_oracle(config, rng):
    # the brute-force mollified cross-check is qualified on spin-1/2 content
    state = states.normalize_state(
        states.BlockState(
            (
                np.zeros((1, 1), complex),
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            )
        )
    )
    g = su2.random_elements(rng, 1)[0]
    pair_grid = grids.haar_grid(20, 12, 40)
    kgrid = grids.hemisphere_grid_for(3)
    worst_final = 0.0
    for two_j in (1, 2):
        exact = wigner.wigner_full(state, g, two_j, kgrid).values
        scale = float(np.max(np.abs(exact)))
        approx = wigner.wigner_bruteforce_mollified(
            state, g, two_j, [0.2, 0.1, 0.05], pair_grid
        )
        errs = [float(np.max(np.abs(a - exact))) / scale for a in approx]
        if not (errs[0] > errs[1] > errs[2]):
            return {
                "name": "oracle-equivalence",
                "error": float("inf"),
                "tolerance": 0.02,
            }
        worst_final = max(worst_final, errs[2])
    return {"name": "oracle-equivalence", "error": worst_final, "tolerance": 0.02}


def _check_so2_pure(config, rng):
    m0 = 1
    state = baselines.AngleState(np.eye(5)[m0 + 2], -2)
    thetas = np.linspace(-np.pi, np.pi, 17)
    ms = np.arange(-5, 6)
    table = baselines.angle_wigner_table(state, thetas, ms)
    target = np.where(ms == m0, 1.0 / (2.0 * np.pi), 0.0)
    err = float(np.max(np.abs(table - target[None, :])))
    return {"name": "so2-pure-mode", "error": err, "tolerance": 1e-12}


def _random_angle_state(rng, m_max: int) -> baselines.AngleState:
    c = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    return baselines.AngleState(c / np.linalg.norm(c), -m_max)


def _check_so2_weyl(config, rng):
    state = _random_angle_state(rng, 3)
    worst = 0.0
    for n in range(-3, 4):
        for tau in (-2.9, -1.1, 0.7, 2.5):
            op = baselines.weyl_expectation(state, n, tau)
            ps = baselines.weyl_expectation(state, n, tau, side="phase_space")
            worst = max(worst, abs(op - ps))
    return {"name": "so2-weyl-duality", "error": worst, "tolerance": 1e-6}


def _check_so2_general(config, rng):
    state = _random_angle_state(rng, 2)
    worst = 0.0
    for theta in (-2.8, -0.4, 0.0, 1.9):
        for m in range(-4, 5):
            worst = max(
                worst,
                abs(
                    baselines.so2_wigner_general(state, theta, m)
                    - baselines.angle_wigner(state, theta, m)
                ),
            )
    return {"name": "so2-general-recovery", "error": worst, "tolerance": 1e-10}


def _check_so2_midpoint(config, rng):
    worst = max(
        abs(baselines.so2_midpoint(0.7, 0.7) - 0.7),
        abs(baselines.so2_midpoint(0.0, np.pi / 2) - np.pi / 4),
    )
    for _ in range(200):
        t1, t2, phi = rng.uniform(-np.pi, np.pi, 3)
        try:
            s = baselines.so2_midpoint(t1, t2)
            s_shift = baselines.so2_midpoint(t1 + phi, t2 + phi)
        except GroupWignerError:
            continue
        worst = max(worst, abs(np.angle(np.exp(1j * (s_shift - s - phi)))))
    return {"name": "so2-midpoint-covariance", "error": float(worst), "tolerance": 1e-12}


def _check_so2_marginals(config, rng):
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeffs = np.zeros(5, complex)
    coeffs[[0, 2, 4]] = c / np.linalg.norm(c)
    state = baselines.AngleState(coeffs, -2)
    n_theta = 64
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta - np.pi
    ms = np.arange(-8, 9)
    table = baselines.angle_wigner_table(state, thetas, ms)
    dens = np.abs(baselines.angle_amplitude(state, thetas)) ** 2
    err = float(np.max(np.abs(table.sum(axis=1) - dens)))
    weights = np.abs(coeffs) ** 2
    target = np.zeros(ms.size)
    target[6:11] = weights
    err = max(
        err,
        float(np.max(np.abs(table.sum(axis=0) * (2 * np.pi / n_theta) - target))),
    )
    return {"name": "so2-marginals", "error": err, "tolerance": 1e-8}


def _check_cartesian_oscillator(config, rng):
    state = baselines.oscillator_state(1)
    q = state.q
    table = baselines.cartesian_wigner_table(state, q)
    qq, pp = q[:, None], q[None, :]
    target = (2.0 / np.pi) * (qq**2 + pp**2 - 0.5) * np.exp(-(qq**2) - pp**2)
    err = float(np.max(np.abs(table - target)))
    ground = baselines.oscillator_state(0)
    table0 = baselines.cartesian_wigner_table(ground, q)
    target0 = np.exp(-(qq**2) - pp**2) / np.pi
    err = max(err, float(np.max(np.abs(table0 - target0))))
    return {"name": "cartesian-oscillator", "error": err, "tolerance": 1e-6}


def _check_cartesian_hudson(config, rng):
    ground = baselines.oscillator_state(0)
    table = baselines.cartesian_wigner_table(ground)
    err = float(max(0.0, -table.min()))
    return {"name": "cartesian-hudson", "error": err, "tolerance": 1e-12}


def _check_cartesian_marginals(config, rng):
    state = baselines.oscillator_state(1)
    table = baselines.cartesian_wigner_table(state)
    dp = np.pi / (state.n * state.dq)
    err = float(
        np.max(np.abs(table.sum(axis=1) * dp - np.abs(state.values) ** 2))
    )
    pgrid = baselines.cartesian_p_grid(state)
    amp = baselines.cartesian_momentum_amplitude(state, pgrid)
    err = max(
        err,
        float(np.max(np.abs(table.sum(axis=0) * state.dq - np.abs(amp) ** 2))),
    )
    return {"name": "cartesian-marginals", "error": err, "tolerance": 1e-6}


def _check_cartesian_limits(config, rng):
    delta = baselines.delta_state(256, 8.0, 1.5)
    wd = baselines.cartesian_wigner(delta, 1.5, baselines.cartesian_p_grid(delta))
    err = float(np.var(wd))
    wave = baselines.plane_wave_state(256, 8.0, 2.0)
    pgrid = baselines.cartesian_p_grid(wave)
    l0 = int(np.argmin(np.abs(pgrid - np.pi * round(2.0 * 8.0 / np.pi) / 8.0)))
    wp = baselines.cartesian_wigner_table(wave, pgrid[l0 : l0 + 1])[:, 0]
    err = max(err, float(np.var(wp)))
    return {"name": "cartesian-eigenstate-limits", "error": err, "tolerance": 1e-6}


_SU2_CHECKS = [
    _check_orthogonality,
    _check_parseval,
    _check_momentum_marginal,
    _check_hermiticity,
    _check_covariance,
    _check_position_marginal,
    _check_overlap,
    _check_reconstruction,
    _check_traced_consistency,
]
_SO2_CHECKS = [
    _check_so2_pure,
    _check_so2_weyl,
    _check_so2_general,
    _check_so2_midpoint,
    _check_so2_marginals,
]
_CARTESIAN_CHECKS = [
    _check_cartesian_oscillator,
    _check_cartesian_hudson,
    _check_cartesian_marginals,
    _check_cartesian_limits,
]


def cmd_verify(config: RunConfig) -> int:
    """Run the invariant battery for ``config.group`` and emit the report."""
    battery = {
        "su2": list(_SU2_CHECKS),
        "so2": list(_SO2_CHECKS),
        "cartesian": list(_CARTESIAN_CHECKS),
    }[config.group]
    if config.group == "su2" and config.oracle:
        battery.append(_check_oracle)
    rng = np.random.default_rng(config.seed)
    results = []
    for check in battery:
        try:
            entry = check(config, rng)
        except GroupWignerError as exc:
            entry = {
                "name": check.__name__.removeprefix("_check_").replace("_", "-"),
                "error": None,
                "tolerance": None,
                "passed": False,
                "provenance": type(exc).__name__,
                "detail": str(exc),
            }
        else:
            if config.tolerance is not None:
                entry["tolerance"] = max(entry["tolerance"], config.tolerance)
            entry["passed"] = bool(entry["error"] <= entry["tolerance"])
            entry.setdefault("provenance", "")
            entry.setdefault("detail", "")
        results.append(entry)
    passed = all(r["passed"] for r in results)
    report = {
        "metadata": _base_metadata("verify", config),
        "checks": results,
        "passed": passed,
    }
    columns = ["name", "error", "tolerance", "passed", "provenance", "detail"]
    _write_report(
        report, config, columns, ([r[c] for c in columns] for r in results)
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# wigner tables


def _nodes_array(payload, key, dtype=float, row=()):
    """``payload[key]`` as an array of shape ``(n, *row)``."""
    if not isinstance(payload, dict) or key not in payload:
        raise SchemaError(f"nodes file must be a JSON object with {key!r}")
    arr = states._number_array(payload[key], f"nodes entry {key!r}", dtype)
    if arr.size == 0:
        arr = arr.reshape((0, *row))
    if arr.ndim == 0 or arr.shape[1:] != row:
        layout = f"rows of length {row[0]}" if row else "numbers"
        raise SchemaError(f"nodes entry {key!r} must be a flat list of {layout}")
    return arr


def _su2_table(config, state_file, nodes_file):
    rho = states.load_state(state_file)
    if nodes_file is None:
        euler = _ggrid(config).euler
    else:
        euler = _nodes_array(states._read_json(nodes_file), "euler", row=(3,))
    gs = su2.from_euler(euler[:, 0], euler[:, 1], euler[:, 2])
    j_list = list(range(config.jsum_twice + 1))
    kgrid = grids.hemisphere_grid_for(rho.two_jmax + config.jsum_twice)
    columns = ["alpha", "beta", "gamma", "two_j", "two_m", "two_n", "two_mp",
               "two_np", "re", "im"]

    def chunks():
        # rows run over two_j, then nodes, then the block entries [M, N, M', N']
        for two_j in j_list:
            labels = irreps.two_m_values(two_j).tolist()
            entries = [(two_j, *e) for e in itertools.product(labels, repeat=4)]
            for lo in range(0, gs.shape[0], wigner._CHUNK):
                sl = slice(lo, lo + wigner._CHUNK)
                vals = wigner.wigner_full_batch(rho, gs[sl], two_j, kgrid)
                yield euler[sl].tolist(), entries, vals.reshape(len(vals), -1)

    return chunks(), columns, {"j_list_twice": j_list}


def _so2_table(config, state_file, nodes_file):
    state = baselines.angle_from_payload(states._read_json(state_file))
    m_max = int(np.max(np.abs(state.m_values)))
    if nodes_file is None:
        thetas = 2.0 * np.pi * np.arange(64) / 64 - np.pi
        ms = np.arange(-2 * m_max, 2 * m_max + 1)
    else:
        payload = states._read_json(nodes_file)
        thetas = _nodes_array(payload, "theta")
        ms = _nodes_array(payload, "m", dtype=int)
    table = baselines.angle_wigner_table(state, thetas, ms)
    chunk = ([[t] for t in thetas.tolist()], [[m] for m in ms.tolist()], table)
    return [chunk], ["theta", "m", "re", "im"], {"m_list": ms.tolist()}


def _cartesian_table(config, state_file, nodes_file):
    state = baselines.cartesian_from_payload(states._read_json(state_file))
    if nodes_file is None:
        qs = state.q
        ps = baselines.cartesian_p_grid(state)
    else:
        payload = states._read_json(nodes_file)
        qs = _nodes_array(payload, "q")
        ps = _nodes_array(payload, "p")
    table = baselines.cartesian_wigner(state, qs, ps)
    chunk = ([[q] for q in qs.tolist()], [[p] for p in ps.tolist()], table)
    return [chunk], ["q", "p", "re", "im"], {}


def cmd_wigner(config: RunConfig, state_file: str, nodes_file=None) -> int:
    """Evaluate the Wigner table for a state file and stream it out."""
    builder = {
        "su2": _su2_table,
        "so2": _so2_table,
        "cartesian": _cartesian_table,
    }[config.group]
    table, columns, extra = builder(config, state_file, nodes_file)
    metadata = _base_metadata("wigner", config)
    metadata["jsum_twice"] = config.jsum_twice
    metadata["columns"] = columns
    metadata.update(extra)
    _write_report({"metadata": metadata}, config, columns, table=table)
    return 0


# ---------------------------------------------------------------------------
# overlaps


def cmd_overlap(config: RunConfig, state_file_a: str, state_file_b: str) -> int:
    """Compare coefficient-space and phase-space overlaps of two states."""
    if config.group != "su2":
        raise ConfigError("overlap requires --group su2")
    rho_a = states.load_state(state_file_a)
    rho_b = states.load_state(state_file_b)
    grid = _ggrid(config)
    band = rho_a.two_jmax + rho_b.two_jmax
    try:
        grid._require_band(band, "the overlap")
    except GridTooCoarse:
        # the hemisphere grid is sized from the states, the group grid is not
        need = grids.haar_grid_for_degree((band + 1) // 2).shape
        raise GridTooCoarse(
            f"the overlap integrand has irrep band {band}, but --grid "
            f"{'x'.join(map(str, grid.shape))} is exact only to band "
            f"{2 * grid.exactness_degree}; use --grid {'x'.join(map(str, need))} or finer"
        ) from None
    kgrid = grids.hemisphere_grid_for(
        max(rho_a.two_jmax, rho_b.two_jmax) + config.jsum_twice
    )
    coefficient = states.trace_product(rho_a, rho_b)
    value, increments = wigner.overlap_trace(
        rho_a, rho_b, config.jsum_twice, grid, kgrid
    )
    partial = np.cumsum(increments)
    gap = abs(value - coefficient)
    tolerance = config.tolerance if config.tolerance is not None else 1e-3
    passed = bool(gap <= tolerance)
    metadata = _base_metadata("overlap", config)
    report = {
        "metadata": metadata,
        "coefficient_trace": float(coefficient),
        "partial_sums": [float(x) for x in partial],
        "increments": [float(x) for x in increments],
        "wigner_sum": float(value),
        "gap": float(gap),
        "tolerance": float(tolerance),
        "passed": passed,
    }
    _write_report(
        report,
        config,
        ["two_jsum", "partial_sum", "increment"],
        zip(range(len(partial)), report["partial_sums"], report["increments"]),
        f"# coefficient_trace={coefficient!r} gap={gap!r} "
        f"tolerance={tolerance!r} passed={'true' if passed else 'false'}",
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring the flags")
    parser.add_argument(
        "--group", choices=_GROUPS, help="group to operate on (default su2)"
    )
    parser.add_argument(
        "--jmax",
        type=int,
        metavar="TWO_J",
        help="doubled maximal irrep label of random states (default 2)",
    )
    parser.add_argument(
        "--grid",
        metavar="AxBxC",
        help="Euler-angle quadrature sizes, e.g. 14x7x28",
    )
    parser.add_argument(
        "--jsum",
        type=int,
        metavar="TWO_J",
        help="doubled irrep-label cutoff for label sums (default 6)",
    )
    parser.add_argument("--tol", type=float, help="override tolerance")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=_FORMATS, help="output format")
    parser.add_argument("--seed", type=int, help="seed for randomized suites")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also run the slow brute-force mollified cross-check",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupwigner",
        description="Wigner distributions on compact groups: verification "
        "suites, tables, and overlaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    _add_common_flags(p_verify)

    p_wigner = sub.add_parser("wigner", help="export a Wigner table")
    _add_common_flags(p_wigner)
    p_wigner.add_argument("state_file", help="JSON state file")
    p_wigner.add_argument(
        "nodes_file",
        nargs="?",
        default=None,
        help="optional JSON nodes file (default: the quadrature grid)",
    )

    p_overlap = sub.add_parser(
        "overlap", help="coefficient vs phase-space overlap of two states"
    )
    _add_common_flags(p_overlap)
    p_overlap.add_argument("state_file_a", help="first JSON state file")
    p_overlap.add_argument("state_file_b", help="second JSON state file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "wigner":
            return cmd_wigner(config, args.state_file, args.nodes_file)
        return cmd_overlap(config, args.state_file_a, args.state_file_b)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupWignerError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
