#!/usr/bin/env python3
"""End-to-end table experiment: compute N_{n,e}(q) for a range of n,
check the formal identities, and diff n = 10..13 against the vendored
tables.  Each n is computed from a fresh EngineContext, as
`unicount compute --n N` does, and its time and engine nodes are printed
after it, with the process's peak RSS so far.

Usage:
    python scripts/run_tables.py [--max-n 13] [--audit] [--latex-dir DIR]
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from unicount.cli import check_identities, format_table, load_golden_tables
from unicount.engine import EngineContext, resolve
from unicount.oracle import audit_counts
from unicount.patterns import unitriangular_census


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=13)
    ap.add_argument("--audit", action="store_true",
                    help="cross-check every counted system by enumeration")
    ap.add_argument("--latex-dir", default=None)
    args = ap.parse_args()

    golden = load_golden_tables()
    status = 0
    memos = []
    for n in range(1, args.max_n + 1):
        ctx = EngineContext()
        memos.append(ctx.memo_counts)
        t0 = time.perf_counter()
        table = resolve(unitriangular_census(n, ctx), n, ctx)
        dt = time.perf_counter() - t0
        idents = check_identities(table)
        # ru_maxrss is in KiB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line = (f"n={n:2d}  {dt:8.2f}s  peak_rss={rss_mb:7.1f}MB  nodes={ctx.nodes:6d}  "
                f"rows={len(table.entries):3d}  "
                f"identities={'ok' if idents['pass'] else 'FAIL'}")
        if n in golden:
            match = golden[n] == table.entries
            line += f"  golden={'ok' if match else 'MISMATCH'}"
            if not match:
                status = 3
        if table.exceptional:
            for fam, total in table.exceptional:
                line += f"  exceptional: {total!r} at degree shift {fam.m}"
        if ctx.stats:
            line += f"  stats: {ctx.stats}"
        if not idents["pass"]:
            status = 2
        print(line, flush=True)
        if args.latex_dir:
            out = Path(args.latex_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"table_n{n}.tex").write_text(format_table(table, "latex"))
    if args.audit:
        audit = audit_counts(*memos)
        print(f"count audit: {audit.audited} systems checked, {audit.skipped} skipped, "
              f"{len(audit.violations)} violations")
        if audit.violations:
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
