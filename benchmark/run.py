"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload u13 --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``u13``, ``t10-general``, ``posets-10``.

Every measured run is a fresh process (``child.py``) with a fresh
``EngineContext`` per problem, and every table is checked before its
time counts.  ``--trace 0`` measures the end-to-end metrics: it starts
a few set-up-only processes, then measured processes until ``--seconds``
have passed (at least one), and reports medians.  ``--trace 1`` runs the
workload once untraced and once with per-layer wrappers, and reports
the per-layer split and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every problem was correct, 1 when
some failed, and 2 when the benchmark could not run at all (then no
JSON is printed).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SRC = HERE.parent / "src"

WORKLOADS = ("u13", "t10-general", "posets-10")
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "nodes": "count", "setup_s": "s"}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio"}
SETUP_ONLY_RUNS = 5
RUN_CAP_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict | None:
    """Run one child process; None if it timed out or gave no result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode, repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# {mode} process exceeded the run cap", flush=True)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {mode} process exited with {proc.returncode}", flush=True)
        return None
    return json.loads(lines[-1])


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_CAP_S
        self.setup_samples: list[float] = []
        setup = self.setup()
        self.problems = setup["problems"]
        self.inputs = setup["inputs"]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.nodes: set[int] = set()

    def setup(self) -> dict:
        res = spawn(self.workload, self.seed, "setup", self.deadline - time.monotonic())
        if res is None:
            raise BenchError("the workload could not be set up")
        self.setup_samples.append(res["setup_s"])
        return res

    def measure(self, mode: str) -> dict | None:
        """One process computing every problem; None if any problem failed."""
        res = spawn(self.workload, self.seed, mode, self.deadline - time.monotonic())
        self.attempted += self.problems
        if res is None:
            # no problem of a process without a result was checked
            self.failed += self.problems
            self.errors.append(f"{mode} process gave no result")
            return None
        self.failed += len(res["failures"])
        self.errors += res["failures"]
        self.setup_samples.append(res["setup_s"])
        if res["failures"]:
            return None
        self.nodes.add(res["nodes"])
        return res

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        if len(self.nodes) > 1:
            self.errors.append(f"node counts differ between runs: {sorted(self.nodes)}")
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def end_to_end(run: Run, seconds: float) -> dict:
    for _ in range(SETUP_ONLY_RUNS - 1):
        run.setup()
    measured = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res = run.measure("plain")
        if res is not None:
            measured.append(res)
        now = time.monotonic()
        # stop after --seconds, or before a measurement that would overrun the cap
        if res is None or now - start >= seconds or now + (now - t0) > run.deadline:
            break
    metrics = {}
    if measured:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
            "nodes": measured[0]["nodes"],
            "setup_s": statistics.median(run.setup_samples),
        }
    print(f"# {len(measured)} measurements, {len(run.setup_samples)} set-up samples",
          flush=True)
    return run.result(metrics, END_TO_END)


def per_layer(run: Run) -> dict:
    plain = run.measure("plain")
    traced = run.measure("trace")
    metrics = {}
    if plain is not None and traced is not None:
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {k: next((u for suffix, u in PER_LAYER_UNITS.items() if k.endswith(suffix)),
                     "count") for k in metrics}
    return run.result(metrics, units)


def report(run: Run, out: dict) -> None:
    print(f"# workload {run.workload}, seed {run.seed}, inputs {json.dumps(run.inputs)}")
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    frac = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"fail_frac = {frac:.6g} ({out['failed']} of {out['attempted']} problems)")
    for f in run.errors[:20]:
        print(f"# FAILED {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="unicount benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "unicount" / "__init__.py").is_file():
        print(f"benchmark: no unicount package under {SRC}", file=sys.stderr)
        return 2
    try:
        run = Run(args.workload, args.seed)
        out = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    report(run, out)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
