"""The benchmark workloads: set-up, one operation, and a correctness gate.

Problem sizes are constants here; the seed only changes values, never the
amount of work.  ``gw`` is a namespace holding the layer modules (or, in a
traced operation, their recording proxies); operations reach the program
only through it.  Gates run outside the timed region against the real
modules and return ``None`` on success or the reason for failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import groupwigner.cli  # noqa: F401  (makes groupwigner.cli a layer)
from groupwigner import grids, states, su2, wigner

HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    """Inputs built during set-up, a directory for files an operation writes,
    and counts a gate measured from the last result (kept for traced
    operations)."""

    data: dict
    workdir: Path
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# overlap-gram: the trace-overlap functional at criterion-8 sizes

OVERLAP_BAND = 2
OVERLAP_JSUM = 12
OVERLAP_POOL = 4
OVERLAP_TOL = 5e-3


def overlap_setup(gw, rng, workdir):
    ggrid = gw.grids.haar_grid_for_degree(OVERLAP_BAND)
    kgrid = gw.grids.hemisphere_grid_for(OVERLAP_BAND + OVERLAP_JSUM)
    pool = [gw.states.random_state(rng, OVERLAP_BAND) for _ in range(OVERLAP_POOL)]
    pairs = [(a, b) for a in range(OVERLAP_POOL) for b in range(a, OVERLAP_POOL)]
    return Context(dict(ggrid=ggrid, kgrid=kgrid, pool=pool, pairs=pairs), workdir)


def _overlap_pair(ctx, i):
    a, b = ctx.data["pairs"][i % len(ctx.data["pairs"])]
    return ctx.data["pool"][a], ctx.data["pool"][b]


def overlap_op(ctx, i, gw):
    a, b = _overlap_pair(ctx, i)
    d = ctx.data
    return gw.wigner.overlap_trace(a, b, OVERLAP_JSUM, d["ggrid"], d["kgrid"])


def overlap_gate(ctx, i, result):
    value, increments = result
    if not np.all(np.isfinite(increments)) or not np.isfinite(value):
        return "non-finite overlap increments"
    gap = abs(value - states.trace_product(*_overlap_pair(ctx, i)))
    if not gap <= OVERLAP_TOL:
        return f"overlap gap {gap:.3e} > {OVERLAP_TOL}"
    return None


# ---------------------------------------------------------------------------
# grid-cold: grid construction and self-validation from empty caches, the
# private axial-rule cache included, as in a fresh process

GRID_HAAR_DEGREE = 8
GRID_HEMISPHERE_BAND = 14


def grid_setup(gw, rng, workdir):
    return Context({}, workdir)


def grid_op(ctx, i, gw):
    gw.grids.haar_grid.cache_clear()
    gw.grids.hemisphere_grid.cache_clear()
    gw.grids._axial_rule.cache_clear()
    return (
        gw.grids.haar_grid_for_degree(GRID_HAAR_DEGREE),
        gw.grids.hemisphere_grid_for(GRID_HEMISPHERE_BAND),
    )


def grid_gate(ctx, i, result):
    ggrid, kgrid = result
    if ggrid.exactness_degree < GRID_HAAR_DEGREE:
        return f"haar exactness {ggrid.exactness_degree} < {GRID_HAAR_DEGREE}"
    if kgrid.exactness_twice < GRID_HEMISPHERE_BAND:
        return f"hemisphere exactness {kgrid.exactness_twice} < {GRID_HEMISPHERE_BAND}"
    for name, weights, total in (
        ("haar", ggrid.weights, 1.0),
        ("hemisphere", kgrid.weights, 0.5),
    ):
        s = float(np.sum(weights))
        if not abs(s - total) <= 1e-12:
            return f"{name} weights sum to {s!r}, not {total}"
    return None


# ---------------------------------------------------------------------------
# cli-table: the `groupwigner wigner` export, one fresh process per operation

TABLE_BAND = 2
TABLE_JSUM = 2
# the CLI's default grid, passed explicitly so that the work stays fixed
TABLE_GRID = "14x7x28"
# nodes x sum_{t<=2} (t+1)^4 block entries
TABLE_ROWS = 14 * 7 * 28 * (1 + 16 + 81)
TABLE_COLUMNS = [
    "alpha", "beta", "gamma", "two_j", "two_m", "two_n", "two_mp", "two_np",
    "re", "im",
]
TABLE_CHECKED_ROWS = 6
TABLE_TOL = 1e-12


def table_setup(gw, rng, workdir):
    state = gw.states.random_state(rng, TABLE_BAND)
    path = workdir / "state.json"
    gw.states.save_state(state, path)
    rows = rng.choice(TABLE_ROWS, TABLE_CHECKED_ROWS, replace=False)
    return Context(dict(state=state, state_file=path, rows=sorted(rows)), workdir)


def table_op(ctx, i, gw):
    """Run the CLI in a child process; returns (exit code, output path).  A
    traced child records its spans to a file."""
    out = ctx.workdir / "table.json"
    spans = ctx.workdir / "spans.json" if gw.recorder is not None else None
    argv = [
        sys.executable, str(HERE / "cli_child.py"), str(spans or "-"),
        "wigner", str(ctx.data["state_file"]), "--jsum", str(TABLE_JSUM),
        "--grid", TABLE_GRID, "--out", str(out),
    ]
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    proc.wait()
    if spans is not None:
        gw.recorder.absorb(json.loads(spans.read_text()), gw.recorder.op)
        spans.unlink()
    return proc.returncode, out


def table_gate(ctx, i, result):
    code, out = result
    try:
        if code != 0:
            return f"cli exited with {code}"
        try:
            size = out.stat().st_size
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return f"cli output does not parse: {exc}"
        rows = report.get("rows")
        if isinstance(rows, list):
            ctx.counts.update({"cli.rows": len(rows), "cli.bytes_out": size})
        if not isinstance(rows, list) or len(rows) != TABLE_ROWS:
            return f"cli wrote {len(rows) if isinstance(rows, list) else rows!r} rows, not {TABLE_ROWS}"
        columns = report.get("metadata", {}).get("columns")
        if columns != TABLE_COLUMNS:
            return f"cli columns {columns!r} differ from the documented schema"
        kgrid = grids.hemisphere_grid_for(TABLE_BAND + TABLE_JSUM)
        for r in ctx.data["rows"]:
            alpha, beta, gamma, two_j, two_m, two_n, two_mp, two_np, re, im = rows[r]
            g = su2.from_euler(alpha, beta, gamma)
            block = wigner.wigner_full_batch(ctx.data["state"], g[None, :], two_j, kgrid)[0]
            idx = tuple((two_j - t) // 2 for t in (two_m, two_n, two_mp, two_np))
            err = abs(complex(re, im) - block[idx])
            if not err <= TABLE_TOL:
                return f"row {r} differs from wigner_full_batch by {err:.3e}"
        return None
    finally:
        out.unlink(missing_ok=True)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    op: object
    gate: object
    # the work runs in child processes, so peak RSS is the largest child's
    in_children: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("overlap-gram", overlap_setup, overlap_op, overlap_gate),
        Workload("grid-cold", grid_setup, grid_op, grid_gate),
        Workload("cli-table", table_setup, table_op, table_gate, in_children=True),
    )
}
