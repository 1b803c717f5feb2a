"""Show that every correctness gate of the benchmark rejects a wrong result.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

For each workload, one operation runs through the benchmark's own loop and
must pass its gate.  Then each deliberate corruption below is applied to a
fresh result before the gate sees it, and the loop must count the operation
as failed, giving a non-zero error rate.  Exits 1 if any check does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checkout

package = checkout.use_source_tree()

import workloads  # noqa: E402  (needs the source tree on the path)
from worker import layer_namespace, run_ops  # noqa: E402

SEED = 12345


def _rewrite_table(result, edit):
    code, out = result
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    edit(report)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code, out


def _truncate(result):
    code, out = result
    data = out.read_bytes()
    out.write_bytes(data[: len(data) // 2])
    return code, out


def _perturb_checked_row(rows):
    def edit(report):
        report["rows"][rows[0]][8] += 1e-9
    return edit


def _scale_weights(ggrid, factor):
    return dataclasses.replace(ggrid, weights=ggrid.weights * factor)


# workload -> [(description, function of the context returning a corruption)]
CORRUPTIONS = {
    "overlap-gram": [
        ("overlap value off by 1e-2", lambda ctx: lambda r: (r[0] + 1e-2, r[1])),
        ("NaN increment", lambda ctx: lambda r: (r[0], np.r_[r[1][:-1], np.nan])),
    ],
    "grid-cold": [
        ("haar exactness below 8",
         lambda ctx: lambda r: (dataclasses.replace(r[0], exactness_degree=7), r[1])),
        ("haar weights off by 1e-9",
         lambda ctx: lambda r: (_scale_weights(r[0], 1 + 1e-9), r[1])),
    ],
    "cli-table": [
        ("non-zero exit", lambda ctx: lambda r: (1, r[1])),
        ("truncated table file", lambda ctx: _truncate),
        ("missing rows", lambda ctx: lambda r: _rewrite_table(
            r, lambda rep: rep.__setitem__("rows", rep["rows"][:-1]))),
        ("one checked value off by 1e-9", lambda ctx: lambda r: _rewrite_table(
            r, _perturb_checked_row(ctx.data["rows"]))),
    ],
}


def main() -> int:
    untraced = layer_namespace(package)
    checkout.OUT.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=checkout.OUT) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            ctx = workload.setup(untraced, np.random.default_rng(SEED), Path(tmp))
            ops = run_ops(workload, ctx, 0.0, untraced, min_ops=1)
            clean = all(op["error"] is None for op in ops)
            ok &= clean
            print(f"{name}: correct result {'passes' if clean else 'FAILS'} "
                  f"its gate {[op['error'] for op in ops if op['error']]}")
            for what, make in CORRUPTIONS[name]:
                ops = run_ops(workload, ctx, 0.0, untraced, corrupt=make(ctx), min_ops=1)
                rate = sum(op["error"] is not None for op in ops) / len(ops)
                ok &= rate > 0
                verdict = "rejected" if rate > 0 else "NOT REJECTED"
                print(f"{name}: {what}: {verdict}, error_rate {rate:.2f} "
                      f"({ops[0]['error']})")
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
