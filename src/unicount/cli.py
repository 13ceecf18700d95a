"""Command-line driver: compute tables, regress against vendored data,
check formal identities, run brute-force verification, and dump the
families a census leaves.

``build_parser`` is the one validator: every bad argument is a usage
error (exit 2), and each command's ``cmd_*`` takes the parsed namespace.
Every command runs its tables through ``run_jobs``, each on a fresh
``EngineContext`` with the node budget --max-nodes; it alone refuses a
table that keeps unfolded families or count records, which lacks their
rows.  Each command does only its own work on what it is passed:
compute formats it, regress compares it with the vendored table,
identities prints its identity line, verify compares its class counts,
dump-families prints its families as JSON.  Standard error gets, for
each table in turn, a coefficient overflow (it ends the run), an
exhausted node budget, one line per unfolded family and the number of
surviving count records; after the last table, --debug-counts adds one
audit line.

Exit codes: 0 all good, 2 unresolved records or unfolded families
survived, a coefficient outgrew the packed arithmetic of ``polyring``
(``CoefficientOverflow``), the node budget of a table (--max-nodes) ran
out, the count audit (--debug-counts) found violations, an identity or
a closed form failed, an argument was rejected, a verify instance is
too large to count classes of, a --poset file is missing or malformed,
regress has no vendored table file, or the run ran out of memory, 3
regression mismatch.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import resources
from pathlib import Path

from .algdata import MalformedData
from .engine import DEFAULT_MAX_NODES, Census, EngineContext, resolve, ResolvedTable
from .oracle import (AUDIT_MAX_PARAMS, CLASS_COUNT_CAP, audit_counts, class_count,
                     instantiate)
from .patterns import Poset, chain, encode_pattern, pattern_census, unitriangular_census
from .polyring import CoefficientOverflow, CountPoly, shifted_coeffs


# ---------------------------------------------------------------------------
# golden data

_TERM_RE = re.compile(r"([+-])?\s*(\d+)?\s*(q(?:\^(\d+))?)?\s*")


def parse_q_poly(text: str) -> CountPoly:
    """Parse '7q^9 - 6q^8 - q^7' style polynomials in q."""
    terms: dict[tuple[int, int], int] = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at ...{text[pos:]!r}")
        sign, coeff, qpart, exp = m.groups()
        if coeff is None and qpart is None:
            raise ValueError(f"cannot parse polynomial at ...{text[pos:]!r}")
        c = int(coeff) if coeff else 1
        if sign == "-":
            c = -c
        dq = 0
        if qpart:
            dq = int(exp) if exp else 1
        terms[(dq, 0)] = terms.get((dq, 0), 0) + c
        pos = m.end()
    return CountPoly(terms)


def load_golden_tables() -> dict[int, dict[int, CountPoly]]:
    """The vendored N_{n,e}(q) tables for 10 <= n <= 13."""
    raw = resources.files("unicount").joinpath("data/appendix_tables.json").read_text()
    data = json.loads(raw)
    return {int(n): {int(e): parse_q_poly(s) for e, s in rows.items()}
            for n, rows in data.items()}


# ---------------------------------------------------------------------------
# computing

def compute_table(n: int, ctx: EngineContext) -> ResolvedTable:
    return resolve(unitriangular_census(n, ctx), n, ctx)


# ---------------------------------------------------------------------------
# output formats

def format_table(table: ResolvedTable, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table.to_json(), indent=1, sort_keys=True)
    if fmt == "csv":
        lines = ["n,e,polynomial"]
        for e, p in table.entries.items():
            lines.append(f"{table.n},{e},{p!r}")
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = [r"\begin{tabular}{|c|l|}", r"\hline",
                 rf"\multicolumn{{2}}{{c}}{{$n={table.n}$}} \\", r"\hline",
                 r"$e$ & $N_{n,e}(q)$ \\", r"\hline"]
        for e, p in table.entries.items():
            # the polynomial as repr writes it, exponents in braces
            row = re.sub(r"\^(\d+)", r"^{\1}", repr(p))
            lines.append(rf"{e} & ${row}$ \\")
            lines.append(r"\hline")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# identities

def check_identities(table: ResolvedTable) -> dict:
    """The formal consistency checks for one completed n.

    Three identities: the sum rule, N_{n,0} = q^{n-1} and nonnegative
    shifted coefficients.  Two closed forms for n >= 3 (below it they
    read True): the degree-q row N_{n,1} = (n-3) q^{n-1} - (n-4) q^{n-2}
    - q^{n-3}, and the last row, at e = floor((n-1)^2/4), which is
    (q-1)^m for n = 2m+1 and q (q-1)^{m-1} for n = 2m.  They only ever
    refuse a table; none is derived from them.
    """
    n = table.n
    weighted = table.full_poly().weight_formal()
    sum_rule = weighted.terms == {(n * (n - 1) // 2, 0): 1} if n > 1 else \
        weighted.terms == {(0, 0): 1}
    linear_rule = table.entries.get(0, CountPoly.zero()).terms == \
        ({(n - 1, 0): 1} if n > 1 else {(0, 0): 1})
    shift_nonneg = all(c > 0 for p in table.entries.values()
                       for c in shifted_coeffs(p).values())
    degree_q_row = top_row = True
    if n >= 3:
        degree_q_row = table.entries.get(1) == CountPoly(
            {(n - 1, 0): n - 3, (n - 2, 0): 4 - n, (n - 3, 0): -1})
        m, top = n // 2, (n - 1) ** 2 // 4
        top_row = max(table.entries, default=-1) == top and table.entries[top] == (
            CountPoly.one().scale(m, 0, 0) if n % 2 else CountPoly.one().scale(m - 1, 1, 0))
    return {"n": n, "sum_rule": sum_rule, "linear_rule": linear_rule,
            "shifted_nonnegative": shift_nonneg, "degree_q_row": degree_q_row,
            "top_row": top_row,
            "pass": sum_rule and linear_rule and shift_nonneg and degree_q_row and top_row}


# ---------------------------------------------------------------------------
# commands

def run_jobs(jobs, show, max_nodes: int, debug_counts: bool) -> int:
    """Run each job on a fresh ``EngineContext`` and pass its result to show.

    A job maps a context to a ``ResolvedTable`` or a ``Census``; show
    prints the result and returns its own status.  For each job, stderr
    names a coefficient too large for ``polyring`` to read back (it ends
    the run with 2), an exhausted node budget, every unfolded family and
    the surviving count records; a table with either lacks their rows,
    so it gets 2 and is not shown.  After the last job, debug_counts
    audits the count memos of every job.  The status is the largest
    found, and a regression mismatch (3) ends the run.
    """
    status = 0
    memos = []
    for job in jobs:
        ctx = EngineContext(max_nodes=max_nodes)
        memos.append(ctx.memo_counts)
        try:
            result = job(ctx)
        except CoefficientOverflow as exc:
            print(f"coefficient overflow: {exc}", file=sys.stderr)
            return 2
        cut = ctx.stats.get("budget_families", 0)
        if cut:
            print(f"node budget of {max_nodes} exhausted: {cut} families left "
                  "uncontracted", file=sys.stderr)
            status = 2
        unfolded = getattr(result, "unfolded", ())
        for fam in unfolded:
            print(f"unfolded family at t^{fam.m}: {fam.data!r}", file=sys.stderr)
        if result.unresolved:
            print(f"{len(result.unresolved)} unresolved count records", file=sys.stderr)
        if unfolded or result.unresolved:
            status = 2
            if isinstance(result, ResolvedTable):
                continue
        status = max(status, show(result))
        if status == 3:
            break
    if debug_counts:
        audit = audit_counts(*memos)
        print(f"count audit violations: {len(audit.violations)}; systems audited: "
              f"{audit.audited}; skipped with more than {AUDIT_MAX_PARAMS} parameters: "
              f"{audit.skipped}", file=sys.stderr)
        if audit.violations:
            status = max(status, 2)
    return status


def _tables(ns):
    """One job per n: its table."""
    return [lambda ctx, n=n: compute_table(n, ctx) for n in ns]


def cmd_compute(args: argparse.Namespace) -> int:
    if args.poset is not None:
        try:
            poset = Poset.from_json(json.loads(Path(args.poset).read_text()))
        except (OSError, ValueError, KeyError, TypeError, MalformedData) as exc:
            # ValueError covers bad JSON, TypeError values of the wrong type
            print(f"bad poset file {args.poset}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
        jobs = [lambda ctx: resolve(pattern_census(poset, ctx), len(poset.elems), ctx)]
    else:
        jobs = _tables([args.n])

    def show(table: ResolvedTable) -> int:
        print(format_table(table, args.format))
        return 0
    return run_jobs(jobs, show, args.max_nodes, args.debug_counts)


def cmd_regress(args: argparse.Namespace) -> int:
    try:
        golden = load_golden_tables()
    except FileNotFoundError as exc:
        print(f"regress: the vendored table file is missing: {exc}", file=sys.stderr)
        return 2

    def show(table: ResolvedTable) -> int:
        rows = golden[table.n]
        for e in sorted(set(rows) | set(table.entries)):
            if rows.get(e) != table.entries.get(e):
                print(f"MISMATCH n={table.n} e={e}:")
                print(f"  golden:   {rows.get(e)!r}")
                print(f"  computed: {table.entries.get(e)!r}")
                return 3
        print(f"n={table.n}: {len(rows)} rows match exactly")
        return 0
    return run_jobs(_tables(sorted(golden)), show, args.max_nodes, args.debug_counts)


def cmd_identities(args: argparse.Namespace) -> int:
    def show(table: ResolvedTable) -> int:
        report = check_identities(table)
        flag = "ok" if report["pass"] else "FAIL"
        print(f"n={table.n}: sum_rule={report['sum_rule']} linear_rule={report['linear_rule']} "
              f"shifted_nonnegative={report['shifted_nonnegative']} "
              f"degree_q_row={report['degree_q_row']} top_row={report['top_row']} [{flag}]")
        return 0 if report["pass"] else 2
    return run_jobs(_tables(range(1, args.max_n + 1)), show, args.max_nodes,
                    args.debug_counts)


def cmd_verify(args: argparse.Namespace) -> int:
    """Brute-force agreement: engine totals vs conjugacy-class counts."""
    qs = sorted(set(args.q))
    for n in range(2, args.max_n + 1):
        for q0 in qs:
            if q0 ** (n * (n - 1) // 2) > CLASS_COUNT_CAP:
                print(f"U_{n}({q0}) has order {q0}^{n * (n - 1) // 2}, over the "
                      f"class-count cap of {CLASS_COUNT_CAP}", file=sys.stderr)
                return 2
    reports = []

    def show(table: ResolvedTable) -> int:
        # the cap keeps n below 10, so this order is that of the instance names
        for q0 in qs:
            expected = class_count(instantiate(encode_pattern(chain(table.n)), {}, q0))
            actual = sum(p.eval_at(q0) for p in table.entries.values())
            reports.append({"instance": f"U_{table.n}({q0})", "q": q0,
                            "expected": expected, "actual": actual,
                            "pass": expected == actual})
        return 0 if all(r["pass"] for r in reports) else 2
    status = run_jobs(_tables(range(2, args.max_n + 1)), show, args.max_nodes,
                      args.debug_counts)
    print(json.dumps(reports, indent=1))
    return status


def cmd_dump_families(args: argparse.Namespace) -> int:
    def show(c: Census) -> int:
        out = [{"core": f.data.to_json(), "z": f"e{f.z}" if f.z is not None else None,
                "kind": "all" if f.z is None else "at_z", "k": f.k, "l": f.l, "m": f.m}
               for f in c.families]
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    return run_jobs([lambda ctx: unitriangular_census(args.n, ctx)], show, args.max_nodes,
                    args.debug_counts)


def _int_at_least(low: int):
    """An argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="unicount",
                                 description="Character degree counts for U_n(q)")
    ap.add_argument("--max-nodes", type=_int_at_least(1), default=DEFAULT_MAX_NODES,
                    help="engine node budget of each table")
    ap.add_argument("--debug-counts", action="store_true",
                    help="audit the counted systems against exhaustive enumeration")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the N_{n,e}(q) table for one n")
    p.set_defaults(run=cmd_compute)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=_int_at_least(1))
    which.add_argument("--poset", help="JSON poset file instead of a chain")
    p.add_argument("--format", choices=("json", "csv", "latex"), default="json")

    p = sub.add_parser("regress", help="compare n=10..13 against the vendored tables")
    p.set_defaults(run=cmd_regress)

    p = sub.add_parser("identities", help="formal consistency checks")
    p.set_defaults(run=cmd_identities)
    p.add_argument("--max-n", type=_int_at_least(1), default=13)

    # verify starts at U_2: a smaller --max-n would check nothing
    p = sub.add_parser("verify", help="brute-force class-count agreement")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--max-n", type=_int_at_least(2), default=5)
    p.add_argument("--q", type=int, nargs="+", default=[2, 3], choices=(2, 3, 4, 5))

    p = sub.add_parser("dump-families", help="unresolved families for one n")
    p.set_defaults(run=cmd_dump_families)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    return ap


def main(argv=None) -> int:
    # the pattern recursion nests about two frames per poset element, so a
    # --poset input of more than about 500 elements passes the default limit
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except MemoryError:
        pass
    # reported outside the handler, so that the traceback, and with it the
    # memo tables its frames hold, is already released
    print(f"{args.command}: out of memory; the run did not finish", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
