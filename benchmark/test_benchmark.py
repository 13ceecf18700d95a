"""Tests of the benchmark itself.

    python3 -m pytest -q benchmark/test_benchmark.py

The repository's own suite does not collect this file.  The count check
starts child processes on t10-general and posets-10 (about a minute in
all); u13 is left out for its size, but ``run.py`` compares its node
counts across processes on every run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from unicount import engine, patterns  # noqa: E402
from unicount.polyring import CountPoly  # noqa: E402


def child(workload: str, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, "5", mode,
           repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer.installed():
        pass
    layers = set(tracer.layer_metrics(dict.fromkeys(("pattern", "all", "at", "counts"), 0)))
    layers |= {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_tracer_restores_the_entry_points():
    before = [getattr(mod, attr) for mod, attr, _ in TARGETS]
    census = engine.census
    with Tracer().installed():
        assert patterns.census is engine.census is not census
    assert [getattr(mod, attr) for mod, attr, _ in TARGETS] == before


def test_tracer_splits_pair_and_fallback_calls():
    posets = workloads.poset_batch(3, 40)
    tracer = Tracer()
    fallbacks = 0
    with tracer.installed():
        for p in posets:
            ctx = engine.EngineContext()
            engine.resolve(patterns.pattern_census(p, ctx), 10, ctx)
            fallbacks += ctx.stats.get("pattern_fallback", 0)
    assert fallbacks > 0
    assert tracer.boundary_calls["fallback"] == fallbacks
    assert tracer.boundary_calls["pair"] > 0
    assert tracer.boundary_calls["direct"] == 0


def test_poset_batch_is_seeded():
    a, b = workloads.poset_batch(1, 50), workloads.poset_batch(1, 50)
    assert workloads.poset_digest(a) == workloads.poset_digest(b)
    assert workloads.poset_digest(a) != workloads.poset_digest(workloads.poset_batch(2, 50))
    for p in a:
        assert p.elems == tuple(range(1, 11))
        assert len(p.rel) == workloads.POSET_RELATIONS
        assert all(x < y for x, y in p.rel)
        patterns.Poset(p.elems, p.rel)  # checks irreflexivity and transitivity


def test_checks_reject_a_wrong_table():
    ctx = engine.EngineContext()
    table = engine.resolve(patterns.unitriangular_census(10, ctx), 10, ctx)
    (problem,), _ = workloads.t10_general_problems(0)
    assert problem.check(table) is None
    entries = dict(table.entries)
    entries[1] = entries[1] + CountPoly.one()
    assert problem.check(engine.ResolvedTable(10, entries)) is not None

    poset = workloads.poset_batch(4, 1)[0]
    problem = workloads.poset_problem(0, poset)
    ctx = engine.EngineContext()
    table = engine.resolve(patterns.pattern_census(poset, ctx), 10, ctx)
    assert problem.check(table) is None
    entries = dict(table.entries)
    entries[0] = entries[0] + CountPoly.one()
    assert problem.check(engine.ResolvedTable(10, entries)) is not None


@pytest.mark.parametrize("workload", ["t10-general", "posets-10"])
def test_counts_repeat_exactly(workload):
    first, second = child(workload, "trace"), child(workload, "trace")
    assert first["failures"] == second["failures"] == []
    assert first["nodes"] == second["nodes"]
    counts = {k for k in first["layers"] if not k.endswith("_s")}
    assert counts
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "u13",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
