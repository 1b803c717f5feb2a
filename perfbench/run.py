"""Benchmark of the groupwigner stack: su2 -> irreps -> grids -> wigner -> cli.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
One worker process serves a single caller closed-loop.  ``--trace 0`` sets
up ``SETUP_REPS`` fresh workers, reports the median set-up time, and runs
the timed loop in the last one; it prints the end-to-end metrics.
``--trace 1`` runs one worker that traces every second operation and prints
the per-layer metrics.  The last line of stdout is the JSON result; the
lines before it are a readable report, and ``.perfbench_out/`` keeps the
full result with run metadata and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checkout import OUT, ROOT, SRC

HERE = Path(__file__).resolve().parent
WORKLOADS = ("overlap-gram", "grid-cold", "cli-table")
SETUP_REPS = 3
# a worker that has not answered by then is killed and the run fails
SETUP_TIMEOUT_S = 45.0
RUN_GRACE_S = 60.0


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process and the line protocol to it."""

    def __init__(self, workload, seed, seconds, trace, workdir):
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             repr(seconds), "1" if trace else "0", str(workdir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def read_line(self, timeout: float) -> dict:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise WorkerFailed(f"worker gave no answer within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerFailed(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def setup_seconds(self) -> float:
        self.read_line(SETUP_TIMEOUT_S)
        return perf_counter() - self.started

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()

    def close(self, timeout: float = 0.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def metadata(args, n_ops) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "machine": {
            "nproc": os.cpu_count(),
            "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
            "cpu": cpu or platform.processor(),
        },
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def run(args) -> tuple[dict, list]:
    """Returns the worker's report and the set-up times in seconds."""
    setups = []
    worker = None
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        for _ in range(1 if args.trace else SETUP_REPS):
            if worker is not None:
                worker.send("exit")
                worker.close(SETUP_TIMEOUT_S)
            worker = Worker(args.workload, args.seed, args.seconds, args.trace, workdir)
            setups.append(worker.setup_seconds())
        worker.send("run")
        report = worker.read_line(args.seconds + RUN_GRACE_S)
        if worker.proc.wait(timeout=RUN_GRACE_S) != 0:
            raise WorkerFailed(f"worker exited with code {worker.proc.returncode}")
        return report, setups
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groupwigner" / "__init__.py").is_file():
        print(f"error: no groupwigner source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        report, setups = run(args)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    ops = report["ops"]
    failed = [op for op in ops if op["error"] is not None]
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    if args.trace:
        values, listed = report["layers"], "per_layer"
    else:
        values, listed = {
            "op_p50_s": statistics.median(untraced),
            "ops_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": report["peak_rss_kib"] / 1024.0,
            "setup_s": statistics.median(setups),
        }, "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[listed]}
    meta = metadata(args, len(ops))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops ({len(untraced)} untraced), set-up samples "
          f"{[round(s, 3) for s in setups]}")
    blas = {k: meta["blas"].get(k) for k in ("name", "version")} if meta["blas"] else None
    print(f"# machine {json.dumps(meta['machine'])}; blas {json.dumps(blas)} "
          f"threads {json.dumps(meta['thread_env'])}; "
          f"python {meta['python']} numpy {meta['numpy']} scipy {meta['scipy']}; "
          f"git {meta['git_sha']} dirty={meta['git_dirty']}")
    print(f"# gates: {len(ops) - len(failed)} passed, {len(failed)} failed; "
          f"error_rate {len(failed) / len(ops):.4f}")
    for op in failed[:5]:
        print(f"#   gate failure: {op['error']}")
    if not args.trace:
        print(f"# op_p50_s is the median of {len(untraced)} samples")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(result, metadata=meta, setup_samples=setups, ops=ops)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
