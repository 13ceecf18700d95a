#!/usr/bin/env python3
"""Refusals on random orders: the reach of the pattern path, as a number.

The program refuses rather than guess, so how often it refuses on a fixed
sample of orders is its reach.  The sample is drawn from
``random.Random(SEED)``, SEED = 7: for each order, m = randint(8, 11) and
p = uniform(0.2, 0.5); each pair i < j of 1..m is related with
probability p, and the relation is closed transitively.  Each order's
census is resolved from a fresh ``EngineContext``.  One line is printed
per refusal: the order's index in the sample, then what its resolved
table keeps, ``core`` for each family that ``resolve`` leaves unfolded,
which names the core and its dimension, and ``records`` with the number
of stuck systems and of count records.  The last line is the total,
with the wall time and the engine nodes and ``memo_pattern`` entries
summed over the orders; those two counts repeat exactly from run to run
where the wall time does not.

Usage:
    python scripts/run_refusals.py [--orders 600]
"""
from __future__ import annotations

import argparse
import random
import sys
import time

from unicount.cli import _int_at_least
from unicount.engine import EngineContext, resolve
from unicount.oracle import closed_order
from unicount.patterns import Poset, pattern_census

SEED = 7


def draw(rng: random.Random) -> Poset:
    """One order of the sample."""
    m = rng.randint(8, 11)
    p = rng.uniform(0.2, 0.5)
    return closed_order(m, {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
                            if rng.random() < p})


def refusal(poset: Poset, ctx: EngineContext) -> str | None:
    """Why the table of poset is refused, or None when it resolves; ctx
    is a fresh context."""
    table = resolve(pattern_census(poset, ctx), len(poset.elems), ctx)
    why = [f"core: {fam.data!r}" for fam in table.unfolded]
    if table.unresolved:
        systems = {(r.params, r.restrictions) for r in table.unresolved}
        why.append(f"records: stuck systems {len(systems)}, "
                   f"count records {len(table.unresolved)}")
    return "; ".join(why) or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--orders", type=_int_at_least(1), default=600)
    args = ap.parse_args(argv)

    rng = random.Random(SEED)
    t0 = time.perf_counter()
    refused = nodes = entries = 0
    for i in range(args.orders):
        ctx = EngineContext()
        why = refusal(draw(rng), ctx)
        nodes += ctx.nodes
        entries += len(ctx.memo_pattern)
        if why is not None:
            refused += 1
            print(f"{i} {why}", flush=True)
    print(f"refused {refused} of {args.orders} orders (seed {SEED}) "
          f"in {time.perf_counter() - t0:.1f} s, {nodes} engine nodes, "
          f"{entries} memo_pattern entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
