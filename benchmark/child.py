"""One measured process: set up a workload, compute its problems, check them.

    python3 benchmark/child.py WORKLOAD SEED MODE SPAWNED_AT

MODE is ``setup`` (stop at the first compute call), ``plain`` or
``trace`` (with the per-layer wrappers installed).  SPAWNED_AT is the
parent's ``time.monotonic()`` just before it started this process, so
set-up time covers interpreter start, the package import, loading the
reference tables and generating the inputs.  Prints one JSON object.

The package is imported from the ``src`` directory next to this one,
never from an installed copy, and no report cache is read or written.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def compute_all(problems, tracer) -> dict:
    """Compute and check each problem from a fresh context, in turn."""
    from unicount import engine

    wall = 0.0
    nodes = fallbacks = 0
    failures = []
    memo = dict.fromkeys(("pattern", "all", "at", "counts"), 0)
    for p in problems:
        ctx = engine.EngineContext()
        t0 = time.perf_counter()
        try:
            table = p.compute(ctx)
        except Exception as exc:  # noqa: BLE001 - any raise fails the problem
            failures.append(f"{p.name}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        budget = ctx.stats.get("budget_families", 0)
        reason = p.check(table) or (f"{budget} budget families" if budget else None)
        if reason:
            failures.append(f"{p.name}: {reason}")
        else:
            wall += dt
        nodes += ctx.nodes
        fallbacks += ctx.stats.get("pattern_fallback", 0)
        memo["pattern"] += len(ctx.memo_pattern)
        memo["all"] += len(ctx.memo_all)
        memo["at"] += len(ctx.memo_at)
        memo["counts"] += len(ctx.memo_counts)
        # each problem's memo tables are freed before the next starts
        del ctx, table
    out = {"wall_s": wall, "nodes": nodes, "failures": failures}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(memo)
        if out["layers"]["patterns.fallback_calls"] != fallbacks:
            failures.append("trace: fallback calls disagree with the "
                            f"context's pattern_fallback count {fallbacks}")
    return out


def run(workload: str, seed: int, mode: str, spawned_at: float) -> dict:
    import workloads

    problems, inputs = workloads.WORKLOADS[workload](seed)
    out = {"problems": len(problems), "inputs": inputs}
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    out["setup_s"] = time.monotonic() - spawned_at
    if mode == "setup":
        return out
    with tracer.installed() if tracer else nullcontext():
        out.update(compute_all(problems, tracer))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at = argv
    if not (SRC / "unicount" / "__init__.py").is_file():
        print(f"benchmark: no unicount package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import unicount
    if Path(unicount.__file__).resolve().parent != SRC / "unicount":
        print(f"benchmark: imported unicount from {unicount.__file__}", file=sys.stderr)
        return 2
    print(json.dumps(run(workload, int(seed), mode, float(spawned_at))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
