"""The benchmark's workloads: inputs, the compute call, and the output check.

A workload is a list of problems.  Each problem is computed from its
own fresh ``EngineContext`` and checked afterwards; the check returns
None for a correct table or a one-line reason for a wrong one.

This module imports ``unicount``; the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from unicount import cli, engine, patterns
from unicount.polyring import CountPoly

# posets-10: 18 of the 45 pairs of a 10-element set related, i.e.
# relation density 0.4 after transitive closure.  The count is fixed
# because drawing each pair with probability 0.4 gives a heavy cost tail
# (one poset in 300 took 40 s, against a median of about 0.2 s), so the
# batch total would swing from seed to seed; with 18 pairs the slowest
# of 300 took 0.06 s.
POSET_ELEMS = 10
POSET_RELATIONS = 18
POSET_EDGE_PROB = 0.25
POSET_BATCH = 1000


@dataclass
class Problem:
    name: str
    compute: Callable[[engine.EngineContext], engine.ResolvedTable]
    check: Callable[[engine.ResolvedTable], str | None]


def _table_mismatch(table: engine.ResolvedTable, want: dict[int, CountPoly]) -> str | None:
    for e in sorted(set(want) | set(table.entries)):
        if table.entries.get(e) != want.get(e):
            return f"row e={e} differs from the vendored table"
    return None


def _unresolved(table: engine.ResolvedTable) -> str | None:
    if table.unresolved:
        return f"{len(table.unresolved)} unresolved count records"
    return None


# ---------------------------------------------------------------------------
# u13 and t10-general: the vendored tables

def u13_problems(seed: int) -> tuple[list[Problem], dict]:
    """resolve(unitriangular_census(13)): the paper's headline table."""
    golden = cli.load_golden_tables()[13]

    def compute(ctx):
        return engine.resolve(patterns.unitriangular_census(13, ctx), 13, ctx)

    def check(table):
        folded = [fam.m for fam, _ in table.exceptional]
        if folded != [16]:
            return f"folded families at t^{folded}, expected exactly one at t^16"
        if not cli.check_identities(table)["pass"]:
            return "formal identities fail"
        return _unresolved(table) or _table_mismatch(table, golden)

    return [Problem("u13", compute, check)], {}


def t10_general_problems(seed: int) -> tuple[list[Problem], dict]:
    """The general engine alone on T_10, with no pattern fast path."""
    golden = cli.load_golden_tables()[10]

    def compute(ctx):
        data = patterns.encode_pattern(patterns.chain(10))
        return engine.resolve(engine.census(data, ctx), 10, ctx)

    def check(table):
        return _unresolved(table) or _table_mismatch(table, golden)

    return [Problem("t10-general", compute, check)], {}


# ---------------------------------------------------------------------------
# posets-10: a seeded batch of small independent problems

def random_poset(rng: random.Random) -> patterns.Poset:
    """A strict partial order on 1..10 relating exactly 18 of the 45 pairs.

    Each pair i < j is drawn with probability 1/4, the draw is closed
    transitively, and it is redrawn until the closure has 18 pairs.
    """
    m = POSET_ELEMS
    while True:
        succ = [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < POSET_EDGE_PROB:
                    succ[i] |= 1 << j
        # labels extend the order, so closing from the top down suffices
        for i in reversed(range(m)):
            rest = succ[i]
            while rest:
                low = rest & -rest
                succ[i] |= succ[low.bit_length() - 1]
                rest ^= low
        if sum(bin(s).count("1") for s in succ) == POSET_RELATIONS:
            rel = [(i + 1, j + 1) for i in range(m) for j in range(i + 1, m)
                   if succ[i] >> j & 1]
            return patterns.Poset(range(1, m + 1), rel, check=False)


def cover_count(poset: patterns.Poset) -> int:
    rel = poset.rel
    return sum(1 for a, b in rel
               if not any((a, c) in rel and (c, b) in rel for c in poset.elems))


def poset_batch(seed: int, size: int = POSET_BATCH) -> list[patterns.Poset]:
    rng = random.Random(seed)
    return [random_poset(rng) for _ in range(size)]


def poset_digest(posets: list[patterns.Poset]) -> str:
    blob = json.dumps([p.to_json() for p in posets], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def poset_problem(index: int, poset: patterns.Poset) -> Problem:
    """One poset, computed as ``unicount compute --poset`` would."""
    n = len(poset.elems)
    q_rel = CountPoly({(len(poset.rel), 0): 1})
    q_cov = CountPoly({(cover_count(poset), 0): 1})

    def compute(ctx):
        return engine.resolve(patterns.pattern_census(poset, ctx), n, ctx)

    def check(table):
        if table.full_poly().weight_formal() != q_rel:
            return f"poset {index}: sum rule fails"
        if table.entries.get(0) != q_cov:
            return f"poset {index}: N_0 is not q^(cover relations)"
        return _unresolved(table)

    return Problem(f"poset-{index}", compute, check)


def posets_10_problems(seed: int, size: int = POSET_BATCH) -> tuple[list[Problem], dict]:
    posets = poset_batch(seed, size)
    info = {"posets": len(posets), "digest": poset_digest(posets)}
    return [poset_problem(i, p) for i, p in enumerate(posets)], info


# each maps a seed to the problems and a record identifying the inputs;
# u13 and t10-general have fixed inputs and ignore the seed
WORKLOADS: dict[str, Callable[[int], tuple[list[Problem], dict]]] = {
    "u13": u13_problems,
    "t10-general": t10_general_problems,
    "posets-10": posets_10_problems,
}

