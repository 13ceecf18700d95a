#!/usr/bin/env python3
"""Randomised brute-force verification sweep.

Each case draws a random parametrised nilpotent family, runs both engine
walks on it, and compares against conjugacy-class counts of the
instantiated groups over F_2 and F_3.  It also draws a wide random
poset, whose first peeled row, of the order or of its dual
(``patterns.choose_peel``), the pattern path splits by an antichain of
three or more columns that some row sees two of, so that its stabiliser
goes through the general engine.  It compares the pattern path with the
general engine run on the whole poset, with the pattern path on the dual
poset and on a random relabelling, and with class counts when the poset
has at most 10 relations.  Tables are compared entry by entry, or by
their totals at q = 2 and 3 when either keeps unresolved count records
or families that ``resolve`` leaves unfolded
(``oracle.census_disagreement``), so a side that refuses is still
checked.  A comparison whose records or families are too large to count
by brute force gives no verdict: it is printed as skipped, and the
summary counts those apart from the failures.  Useful for
soak-testing contraction and stabiliser changes far beyond what the
fixed test seeds cover.

``--chains`` also checks route agreement, for chains too large for the
test suite: each U_n it names is computed from a fresh context under
``choose_peel`` and under the rule of rows only, and the two resolved
tables must be equal row by row, with no count record or unfolded
family left.  Each
comparison prints its time.

Usage:
    python scripts/run_oracle_checks.py [--cases 500] [--seed 1] [--max-dim 5]
                                        [--chains 12 13]
"""
from __future__ import annotations

import argparse
import random
import sys
import time

from unicount.cli import _int_at_least
from unicount import patterns
from unicount.engine import EngineContext, ResolvedTable, census, census_at, resolve
from unicount.oracle import (TooLarge, audit_counts, census_disagreement, closed_order,
                             random_algebraic_data, verify_census)
from unicount.patterns import (Poset, _peel_candidates, _preds, _scan, antichains, chain,
                               choose_peel, encode_pattern, normal_closure, pattern_census)


def wide_poset(rng: random.Random, max_elems: int = 10) -> Poset:
    """A random order on 1..m, m >= 4, drawn until the pattern path splits
    the row it peels first by an antichain of three or more columns that
    it builds a stabiliser for in the general engine."""
    while True:
        m = rng.randint(4, max_elems)
        rel = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
               if rng.random() < 0.3}
        rel |= {(1, j) for j in rng.sample(range(2, m + 1), 3)}
        poset = closed_order(m, rel)
        # the antichains the pattern path takes are those of the row D
        # that it peels, in the order or its dual, in their normal closure
        succ, c0 = choose_peel(poset.masks())
        D = succ[c0]
        pred = _preds(succ, D)
        # the pattern path hands E to the general engine only when it is
        # not clean: some row of D sees two elements of it
        if any(E.bit_count() >= 3 and not clean
               for E, _, _, clean in antichains(D, normal_closure(succ, pred, D), pred)):
            return poset


def check_family(data, ctx) -> list[str]:
    z = data.basis[-1]
    full = census(data, ctx)
    at = census_at(data, z, ctx)
    fails = []
    for q0 in (2, 3):
        for kind, c, zz in (("all", full, None), ("at_z", at, z)):
            rep = verify_census(data, c, q0, z=zz)
            if not rep["pass"]:
                fails.append(f"family ({kind}, q={q0}): {rep}")
    return fails


def check_poset(poset: Poset, ctx, rng: random.Random,
                skipped: list[tuple[str, Exception]]) -> list[str]:
    """The failures of the comparisons of the pattern path on poset.  Each
    comparison that gives no verdict is appended to skipped as the name
    of the other side and the ``TooLarge`` raised."""
    n = len(poset.elems)
    data = encode_pattern(poset)
    out = pattern_census(poset, ctx)
    perm = dict(zip(poset.elems, rng.sample(poset.elems, n)))
    others = [("general engine", census(data, ctx)),
              ("dual poset", pattern_census(Poset(poset.elems, [(b, a) for a, b in poset.rel]),
                                            ctx)),
              ("relabelled poset", pattern_census(
                  Poset(poset.elems, [(perm[a], perm[b]) for a, b in poset.rel]), ctx))]
    fails = []
    for name, other in others:
        try:
            why = census_disagreement(out, other, n, ctx)
        except TooLarge as e:
            skipped.append((name, e))
            continue
        if why:
            fails.append(f"poset: pattern path and {name} disagree: {why}")
    if len(poset.rel) <= 10:
        for q0 in (2, 3):
            rep = verify_census(data, out, q0)
            if not rep["pass"]:
                fails.append(f"poset (q={q0}): {rep}")
    return fails


def rows_only(succ, scan=None):
    """``choose_peel`` restricted to the rows of succ: the rule before
    columns could be peeled."""
    cands = _peel_candidates(succ, scan or _scan(succ))
    return succ, cands[0][3] if cands else -1


# the two routes --chains compares
PEEL_RULES = (choose_peel, rows_only)


def chain_table(n: int, rule) -> ResolvedTable:
    """U_n's resolved table from a fresh context, the pattern path
    peeling by rule."""
    saved, patterns.choose_peel = patterns.choose_peel, rule
    try:
        ctx = EngineContext()
        return resolve(pattern_census(chain(n).masks(), ctx), n, ctx)
    finally:
        patterns.choose_peel = saved


def check_routes(n: int) -> str | None:
    """Why U_n's tables under the two peel rules disagree, or None."""
    a, b = (chain_table(n, rule) for rule in PEEL_RULES)
    if a.unresolved or b.unresolved or a.unfolded or b.unfolded:
        return (f"count records left: {len(a.unresolved)} and {len(b.unresolved)}, "
                f"unfolded families left: {len(a.unfolded)} and {len(b.unfolded)}")
    rows = [e for e in sorted(a.entries.keys() | b.entries.keys())
            if a.entries.get(e) != b.entries.get(e)]
    return f"rows e = {rows} differ" if rows else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=_int_at_least(1), default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-dim", type=_int_at_least(2), default=5)
    ap.add_argument("--max-params", type=_int_at_least(0), default=2)
    ap.add_argument("--chains", type=_int_at_least(1), nargs="+", default=[])
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    ctx = EngineContext()
    t0 = time.perf_counter()
    bad = too_large = 0
    for i in range(args.cases):
        data = random_algebraic_data(rng, max_dim=args.max_dim,
                                     max_params=args.max_params)
        poset = wide_poset(rng)
        skipped = []
        for fail, source in ([(f, data.to_json()) for f in check_family(data, ctx)]
                             + [(f, poset.to_json()) for f in
                                check_poset(poset, ctx, random.Random(f"{args.seed}:{i}"),
                                            skipped)]):
            bad += 1
            print(f"FAIL case {i} {fail}")
            print(f"  input: {source}")
        too_large += len(skipped)
        for name, e in skipped:
            print(f"SKIP case {i} poset: pattern path and {name} not compared: "
                  f"{type(e).__name__}: {e}")
            print(f"  input: {poset.to_json()}")
        if (i + 1) % 50 == 0:
            print(f"{i + 1} cases, {time.perf_counter() - t0:.1f}s, "
                  f"{bad} failures", flush=True)
    for n in args.chains:
        t = time.perf_counter()
        why = check_routes(n)
        bad += why is not None
        print(f"FAIL chain U_{n}: the two routes disagree: {why}" if why else
              f"chain U_{n}: the two routes agree", f"({time.perf_counter() - t:.1f}s)",
              flush=True)
    audit = audit_counts(ctx.memo_counts)
    print(f"done: {args.cases} cases, {bad} failures, {too_large} comparisons too "
          f"large to count, {audit.audited} systems count-audited, "
          f"{len(audit.violations)} count-audit violations")
    return 1 if bad or audit.violations else 0


if __name__ == "__main__":
    sys.exit(main())
