#!/usr/bin/env python3
"""Randomised brute-force verification sweep.

Draws random parametrised nilpotent families, runs both engine walks on
them, and compares against conjugacy-class counts of the instantiated
groups over F_2 and F_3.  Useful for soak-testing contraction changes
far beyond what the fixed test seeds cover.

Usage:
    python scripts/run_oracle_checks.py [--cases 500] [--seed 1] [--max-dim 5]
"""
from __future__ import annotations

import argparse
import random
import sys
import time

from unicount.engine import EngineContext, census, census_at
from unicount.oracle import random_algebraic_data, verify_census


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-dim", type=int, default=5)
    ap.add_argument("--max-params", type=int, default=2)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ctx = EngineContext(debug_counts=True)
    t0 = time.perf_counter()
    bad = 0
    for i in range(args.cases):
        data = random_algebraic_data(rng, max_dim=args.max_dim,
                                     max_params=args.max_params)
        z = data.basis[-1]
        full = census(data, ctx)
        at = census_at(data, z, ctx)
        for q0 in (2, 3):
            for kind, c, zz in (("all", full, None), ("at_z", at, z)):
                rep = verify_census(data, c, q0, z=zz)
                if not rep["pass"]:
                    bad += 1
                    print(f"FAIL case {i} ({kind}, q={q0}): {rep}")
                    print(f"  data: {data.to_json()}")
        if (i + 1) % 50 == 0:
            print(f"{i + 1} cases, {time.perf_counter() - t0:.1f}s, "
                  f"{bad} failures", flush=True)
    print(f"done: {args.cases} cases, {bad} failures, "
          f"{len(ctx.count_violations)} count-audit violations")
    return 1 if bad or ctx.count_violations else 0


if __name__ == "__main__":
    sys.exit(main())
