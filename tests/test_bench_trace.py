"""
Tier-1 guard for the benchmark's traced path: the operations that
``perfbench/run.py --trace 1`` runs in its worker, in process.  A traced
operation routes every cross-layer call through the span recorder, and the
worker writes the spans and the per-layer metrics as JSON; a counter that
reads a NumPy integer from the program, or a recorder name that no longer
resolves, fails here rather than only in a benchmark run.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import recorder  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import groupwigner  # noqa: E402


def test_recorder_names_are_public_functions_of_their_layers():
    # a counter or entry point whose target was renamed would read 0
    names = set(recorder.COUNTERS)
    names.update(n for span_names in recorder.ENTRY_POINTS.values() for n in span_names)
    for name in sorted(names):
        layer, function = name.split(".", 1)
        module = getattr(groupwigner, layer)
        assert layer in recorder.LAYERS and function in module.__all__, name
        assert callable(getattr(module, function)), name


@pytest.mark.parametrize("name", ["overlap-gram", "grid-cold"])
def test_traced_operations_serialize(name, tmp_path):
    # three operations, the second one traced, as in a --trace 1 run
    workload = workloads.WORKLOADS[name]
    untraced = worker.layer_namespace(groupwigner)
    ctx = workload.setup(untraced, np.random.default_rng(1), tmp_path)
    rec = recorder.Recorder(groupwigner)
    ops = worker.run_ops(workload, ctx, 0.0, untraced, rec, min_ops=3)
    assert [op["traced"] for op in ops] == [False, True, False]
    assert [op["error"] for op in ops] == [None] * 3
    assert any(span[0] == 1 for span in rec.spans)
    json.loads(json.dumps(rec.spans))
    metrics = json.loads(json.dumps(worker.layer_metrics(rec, ops)))
    assert metrics["grids.calls" if name == "grid-cold" else "wigner.calls"] > 0


@pytest.mark.parametrize(
    "which, rule", [(0, "beta_weights"), (1, "axial_weights")], ids=["haar", "hemisphere"]
)
def test_grid_gate_rejects_weights_off_by_1e9(which, rule, tmp_path):
    # grids are built from their 1-D rules, so a grid whose weights sum is
    # off by 1e-9 is made by scaling one rule, and the weight-sum gate of
    # the grid-cold workload must name it
    workload = workloads.WORKLOADS["grid-cold"]
    untraced = worker.layer_namespace(groupwigner)
    ctx = workload.setup(untraced, np.random.default_rng(1), tmp_path)

    def corrupt(result):
        result = list(result)
        grid = result[which]
        result[which] = dataclasses.replace(grid, **{rule: getattr(grid, rule) * (1 + 1e-9)})
        return tuple(result)

    ops = worker.run_ops(workload, ctx, 0.0, untraced, corrupt=corrupt, min_ops=1)
    name = ("haar", "hemisphere")[which]
    assert ops[0]["error"].startswith(f"{name} weights sum to"), ops[0]["error"]
