"""One benchmark worker process: set up a workload, then run it closed-loop.

Usage: ``python3 worker.py WORKLOAD SEED SECONDS TRACE WORKDIR``.  The
worker keeps the files an operation writes in ``WORKDIR``.  It sets up,
writes a ``{"ready": ...}`` line, and waits for one line on stdin: ``run``
starts the timed loop, anything else ends the process.  Each
operation starts after the previous one and its gate have finished.  With
``TRACE`` 1 every second operation is traced.  The result is one JSON line
on stdout; whatever the program prints goes to stderr.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checkout
from recorder import LAYERS, Recorder, op_metrics

# at least one untraced and one traced operation, and a median of three
MIN_OPS = 3


def layer_namespace(package):
    return SimpleNamespace(recorder=None, **{k: getattr(package, k) for k in LAYERS})


def run_ops(workload, ctx, seconds, untraced, recorder=None, corrupt=None,
            min_ops=MIN_OPS):
    """Run at least ``min_ops`` operations, and more until the next one
    would take the summed operation time past ``seconds``.  Gates run
    between operations and are not counted.

    Returns one ``{"seconds", "traced", "error"}`` record per operation;
    ``corrupt``, if given, alters each result before its gate sees it.
    """
    ops = []
    busy = 0.0
    while True:
        i = len(ops)
        traced = recorder is not None and i % 2 == 1
        error = None
        if traced:
            recorder.begin_op(i)
        t0 = perf_counter()
        try:
            result = workload.op(ctx, i, recorder.layers if traced else untraced)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"op raised {type(exc).__name__}: {exc}"
        finally:
            t1 = perf_counter()
            if traced:
                recorder.end_op()
        if error is None:
            ctx.counts = {}
            try:
                if corrupt is not None:
                    result = corrupt(result)
                error = workload.gate(ctx, i, result)
            except Exception as exc:
                error = f"gate raised {type(exc).__name__}: {exc}"
            if traced:
                recorder.op_counts[i] = ctx.counts
        ops.append({"seconds": t1 - t0, "traced": traced, "error": error})
        busy += t1 - t0
        if len(ops) >= min_ops and busy * (len(ops) + 1) / len(ops) > seconds:
            return ops


def layer_metrics(recorder, ops) -> dict:
    """Medians over traced operations of each per-layer metric."""
    per_op = [
        op_metrics(recorder, i, op["seconds"])
        for i, op in enumerate(ops)
        if op["traced"]
    ]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    # the first operation pays one-time costs (private caches, first-touch
    # page faults) and is left out of the comparison
    traced = statistics.median(op["seconds"] for op in ops[1:] if op["traced"])
    untraced = statistics.median(op["seconds"] for op in ops[1:] if not op["traced"])
    out["trace.overhead_frac"] = traced / untraced - 1.0
    return out


def main(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    package = checkout.use_source_tree()
    import workloads

    workload = workloads.WORKLOADS[name]
    untraced = layer_namespace(package)
    ctx = workload.setup(untraced, np.random.default_rng(seed), workdir)
    protocol.write(json.dumps({"ready": True}) + "\n")
    protocol.flush()
    if sys.stdin.readline().strip() != "run":
        return 0
    recorder = Recorder(package) if trace else None
    ops = run_ops(workload, ctx, seconds, untraced, recorder)
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    report = {"ops": ops, "peak_rss_kib": resource.getrusage(who).ru_maxrss}
    if recorder is not None:
        report["layers"] = layer_metrics(recorder, ops)
        spans_file = checkout.OUT / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(recorder.spans))
    protocol.write(json.dumps(report) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
                  sys.argv[4] == "1", Path(sys.argv[5])))
