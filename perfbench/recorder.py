"""Span recorder for the traced run.

Every public function (the functions named in a layer module's ``__all__``)
gets a timing wrapper.  Wrappers are reached only through layer proxies: the
benchmark calls through them, and each layer module's references to *other*
layers are pointed at them while an operation is traced.  A layer's calls to
its own functions keep going to the originals, so per-matrix-element helpers
such as ``irreps.little_d`` carry no overhead, and every span marks a call
that crossed a layer boundary or came from the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import math
from time import perf_counter
from types import SimpleNamespace

import numpy as np

LAYERS = ("su2", "irreps", "grids", "states", "wigner", "cli")

# inclusive-time metrics: metric name -> span names it sums
ENTRY_POINTS = {
    "wigner.overlap_trace.s": ("wigner.overlap_trace",),
    "wigner.wigner_full_batch.s": ("wigner.wigner_full_batch",),
    "grids.haar.s": ("grids.haar_grid", "grids.haar_grid_for_degree"),
    "grids.hemisphere.s": ("grids.hemisphere_grid", "grids.hemisphere_grid_for"),
}


def _n_points(g) -> int:
    """Group elements in an array of unit quaternions, shape ``(..., 4)``."""
    return math.prod(np.shape(g)[:-1])


def _n_states(rho) -> int:
    return len(getattr(rho, "states", (rho,)))


def _d_elements(a) -> int:
    points = _n_points(a["g"]) if "g" in a else math.prod(np.shape(a["beta"]))
    return points * (a["two_j"] + 1) ** 2


def _pair_evals(points, kgrid, *rhos) -> int:
    return points * kgrid.n_nodes * sum(_n_states(r) for r in rhos)


# work counts, computed from the arguments of a boundary call, for the entry
# points the workloads reach: span name -> (counter name, function of the
# bound arguments)
COUNTERS = {
    "irreps.dmatrix": ("irreps.d_elements", _d_elements),
    "irreps.little_d_matrix": ("irreps.d_elements", _d_elements),
    "wigner.wigner_full_batch": (
        "wigner.pair_evals",
        lambda a: _pair_evals(_n_points(a["gs"]), a["kgrid"], a["rho"]),
    ),
    "wigner.overlap_trace": (
        "wigner.pair_evals",
        lambda a: _pair_evals(a["ggrid"].n_nodes, a["kgrid"], a["rho1"], a["rho2"]),
    ),
}


class _LayerProxy:
    """A layer module as seen from outside: wrapped public functions, and
    every other attribute straight from the module."""

    def __init__(self, module, wrappers: dict):
        self._module = module
        self.__dict__.update(wrappers)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Recorder:
    """Keeps spans ``[op, name, start, end, parent, counts]`` in memory."""

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.spans: list = []
        # operation -> counts measured outside any span (the CLI's output)
        self.op_counts: dict = {}
        self.op = None
        self._open: list = []
        wrappers = {}
        by_id = {}
        for layer, module in self.modules.items():
            wrappers[layer] = {}
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                wrappers[layer][name] = wrapper
                by_id[id(fn)] = (layer, wrapper)
        proxies = {
            layer: _LayerProxy(module, wrappers[layer])
            for layer, module in self.modules.items()
        }
        # (module namespace, key, traced value) for every cross-layer reference
        self._reroutes = []
        for layer, module in self.modules.items():
            for key, value in vars(module).items():
                for other, other_module in self.modules.items():
                    if other != layer and value is other_module:
                        self._reroutes.append((vars(module), key, proxies[other]))
                owner = by_id.get(id(value))
                if owner is not None and owner[0] != layer:
                    self._reroutes.append((vars(module), key, owner[1]))
        self._saved = None
        self.layers = SimpleNamespace(recorder=self, **proxies)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counts = {counter[0]: counter[1](bound)}
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        functools.update_wrapper(wrapper, fn)
        # update_wrapper does not carry over an lru_cache's methods, and the
        # grid-cold workload clears the grid caches through the proxy
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def begin_op(self, op) -> None:
        """Route cross-layer calls through the wrappers and tag spans with ``op``."""
        self.op = op
        self._saved = [(ns, key, ns[key]) for ns, key, _ in self._reroutes]
        for ns, key, traced in self._reroutes:
            ns[key] = traced

    def end_op(self) -> None:
        for ns, key, original in self._saved:
            ns[key] = original
        self._saved = None
        self.op = None

    def absorb(self, spans: list, op) -> None:
        """Append spans recorded in a child process under operation ``op``."""
        base = len(self.spans)
        for _, name, start, end, parent, counts in spans:
            self.spans.append(
                [op, name, start, end, parent + base if parent >= 0 else -1, counts]
            )


def op_metrics(recorder: Recorder, op, op_seconds: float) -> dict:
    """Per-layer metrics of one traced operation of ``op_seconds`` wall time."""
    mine = [(i, s) for i, s in enumerate(recorder.spans) if s[0] == op]
    child_time = {}
    for _, s in mine:
        if s[4] >= 0:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "calls")}
    out.update({name: 0.0 for name in ENTRY_POINTS})
    out.update({"irreps.d_elements": 0.0, "wigner.pair_evals": 0.0,
                "cli.rows": 0.0, "cli.bytes_out": 0.0})
    out.update(recorder.op_counts.get(op, {}))
    for i, s in mine:
        layer, duration = s[1].split(".", 1)[0], s[3] - s[2]
        out[f"{layer}.self_s"] += duration - child_time.get(i, 0.0)
        out[f"{layer}.calls"] += 1
        for metric, names in ENTRY_POINTS.items():
            if s[1] in names:
                out[metric] += duration
        for key, value in (s[5] or {}).items():
            out[key] += value
    # wigner spans never nest: the layer reaches itself without a proxy
    wigner_inclusive = sum(s[3] - s[2] for _, s in mine if s[1].startswith("wigner."))
    out["wigner.pair_evals_per_s"] = (
        out["wigner.pair_evals"] / wigner_inclusive if wigner_inclusive > 0 else 0.0
    )
    layer_self = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.coverage_frac"] = layer_self / op_seconds
    return out
