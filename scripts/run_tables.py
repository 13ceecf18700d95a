#!/usr/bin/env python3
"""End-to-end table experiment: compute N_{n,e}(q) for n = 1..max-n,
check the formal identities, and diff n = 10..13 against the vendored
tables.  The tables go through ``cli.run_jobs``, so each n runs on a
fresh EngineContext and is refused as `unicount compute --n N` refuses
it, with the same stderr lines; a refused table gets no line and no
LaTeX file.  Each n's line gives its time and engine nodes, with the
process's peak RSS so far; --audit adds the line of --debug-counts.
Without the vendored table file it prints one line and exits 2.

Usage:
    python scripts/run_tables.py [--max-n 13] [--audit] [--latex-dir DIR]
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from unicount.cli import (_int_at_least, check_identities, compute_table, format_table,
                          load_golden_tables, run_jobs)
from unicount.engine import DEFAULT_MAX_NODES


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=_int_at_least(1), default=13)
    ap.add_argument("--audit", action="store_true",
                    help="cross-check every counted system by enumeration")
    ap.add_argument("--latex-dir", default=None)
    args = ap.parse_args(argv)

    try:
        golden = load_golden_tables()
    except FileNotFoundError as exc:
        print(f"run_tables.py: the vendored table file is missing: {exc}", file=sys.stderr)
        return 2
    # per n: time, engine nodes and stats, kept instead of the context so
    # that run_jobs frees each table's memos
    runs = {}

    def job(n):
        def run(ctx):
            t0 = time.perf_counter()
            table = compute_table(n, ctx)
            runs[n] = (time.perf_counter() - t0, ctx.nodes, dict(ctx.stats))
            return table
        return run

    def show(table) -> int:
        n = table.n
        dt, nodes, stats = runs.pop(n)
        idents = check_identities(table)
        status = 0 if idents["pass"] else 2
        # ru_maxrss is in KiB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line = (f"n={n:2d}  {dt:8.2f}s  peak_rss={rss_mb:7.1f}MB  nodes={nodes:6d}  "
                f"rows={len(table.entries):3d}  "
                f"identities={'ok' if idents['pass'] else 'FAIL'}")
        if n in golden:
            match = golden[n] == table.entries
            line += f"  golden={'ok' if match else 'MISMATCH'}"
            if not match:
                status = 3
        for fam, total in table.exceptional:
            line += f"  exceptional: {total!r} at degree shift {fam.m}"
        if stats:
            line += f"  stats: {stats}"
        print(line, flush=True)
        if args.latex_dir:
            out = Path(args.latex_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"table_n{n}.tex").write_text(format_table(table, "latex"))
        return status

    return run_jobs([job(n) for n in range(1, args.max_n + 1)], show, DEFAULT_MAX_NODES,
                    args.audit)


if __name__ == "__main__":
    sys.exit(main())
