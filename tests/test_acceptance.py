"""Acceptance gate: every exit criterion, at its stated tolerance.

All comparisons are exact integer / exact polynomial equality.  The
heavy computation (the n = 13 table) runs once per session and is
shared across criteria, and criterion 9 audits every system it counted;
timings are recorded against the stated runtime targets.
"""
from __future__ import annotations

import random
import time

import pytest

from unicount.cli import check_identities, load_golden_tables
from unicount.engine import EngineContext, census, census_at, resolve
from unicount.oracle import (audit_counts, class_count, instantiate, orbit_of_vector,
                             verify_census)
from unicount.patterns import Poset, chain, encode_pattern, unitriangular_census
from unicount.polyring import CountPoly

from conftest import random_algebraic_data, random_poset_pairs, top_and_closure


def report(number: int, passed: bool, text: str):
    print(f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def audit_ctx():
    return EngineContext()


@pytest.fixture(scope="module")
def tables(audit_ctx):
    out = {}
    times = {}
    for n in range(1, 14):
        t0 = time.perf_counter()
        c = unitriangular_census(n, audit_ctx)
        out[n] = (c, resolve(c, n, audit_ctx))
        times[n] = time.perf_counter() - t0
    return out, times


def test_criterion_1_appendix_reproduction(tables):
    out, times = tables
    golden = load_golden_tables()
    mismatches = []
    for n in sorted(golden):
        computed = out[n][1].entries
        for e in sorted(set(golden[n]) | set(computed)):
            if golden[n].get(e) != computed.get(e):
                mismatches.append((n, e))
    timing_ok = times[10] < 60.0 and times[13] < 7200.0
    report(1, not mismatches and timing_ok,
           f"appendix tables n=10..13 exact ({sum(len(golden[n]) for n in golden)} rows), "
           f"t(n=10)={times[10]:.2f}s t(n=13)={times[13]:.2f}s")


def test_criterion_2_full_resolution_below_13(tables):
    out, _ = tables
    bad = [n for n in range(1, 13)
           if out[n][0].unresolved or out[n][0].families]
    report(2, not bad, f"n <= 12 fully resolved (offenders: {bad or 'none'})")


def test_criterion_3_exceptional_family(tables):
    out, _ = tables
    c13, table13 = out[13]
    ok = len(table13.exceptional) == 1
    detail = []
    if ok:
        fam, total = table13.exceptional[0]
        data, z, shift = fam.data, fam.z, fam.m
        expected = CountPoly({(1, 0): 1}).scale(13, 0, 0)  # q (q-1)^13
        core_ok = (len(data.basis) == 2 and len(data.prods) == 1
                   and data.prods[0][:2] == (data.basis[0], data.basis[0])
                   and data.prods[0][2][0][0] == z == data.basis[1])
        ok = core_ok and total == expected and shift == 16
        detail = [f"core dim 2 y*y in <z>: {core_ok}",
                  f"count q(q-1)^13: {total == expected}", f"degree shift 16: {shift == 16}"]
    # every family the raw run emitted either survived as the recognised core
    # or had contradictory restrictions and was dropped by resolve
    ok = ok and len(table13.exceptional) == len(
        [f for f in c13.families]) - _contradictory_count(c13, EngineContext())
    report(3, ok, "; ".join(detail) or "family count wrong")


def _contradictory_count(c, ctx) -> int:
    n = 0
    for f in c.families:
        if ctx.count(f.data.params, f.data.restrictions) == CountPoly.zero():
            n += 1
    return n


def test_criterion_4_formal_identities(tables):
    out, _ = tables
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 14):
        rep = check_identities(out[n][1])
        if not rep["pass"]:
            failures.append((n, rep))
    dt = time.perf_counter() - t0
    report(4, not failures and dt < 13.0,
           f"sum rule, linear rule, nonnegative shifted coefficients, closed forms of "
           f"the degree-q and top rows for n <= 13 "
           f"({dt*1000:.0f}ms total)")


def test_criterion_5_oracle_agreement(tables):
    out, _ = tables
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 6):
        for q0 in (2, 3):
            alg = instantiate(encode_pattern(chain(n)), {}, q0)
            expected = class_count(alg)
            actual = sum(p.eval_at(q0) for p in out[n][1].entries.values())
            if expected != actual:
                failures.append((n, q0, expected, actual))
    dt = time.perf_counter() - t0
    report(5, not failures and dt < 120.0,
           f"class counts of U_n(q), n <= 5, q in {{2,3}} ({dt:.1f}s; failures: {failures or 'none'})")


def test_criterion_6_nontrivial_character_bijection(audit_ctx):
    rng = random.Random(20240801)
    failures = 0
    cases = 0
    while cases < 200:
        data = random_algebraic_data(rng, max_dim=5, max_params=2)
        z = data.basis[-1]
        c = census_at(data, z, audit_ctx)
        for q0 in (2, 3):
            rep = verify_census(data, c, q0, z=z)
            if not rep["pass"]:
                failures += 1
        cases += 1
    report(6, failures == 0,
           f"{cases} random families: at-z totals match k(1+J) - k(1+J/<z>) and "
           f"weighted totals match q^dim - q^(dim-1) at q in {{2,3}}")


def test_criterion_7_two_path_equivalence(audit_ctx):
    diffs = []
    for n in range(1, 9):
        fast = resolve(unitriangular_census(n, audit_ctx), n, audit_ctx)
        slow = resolve(census(encode_pattern(chain(n)), audit_ctx), n, audit_ctx)
        if fast.entries != slow.entries:
            diffs.append(n)
    report(7, not diffs, f"pattern and general paths agree on chains n <= 8 "
                         f"(disagreements: {diffs or 'none'})")


def test_criterion_8_orbit_sizes():
    rng = random.Random(987)
    cases = 0
    failures = 0
    while cases < 100:
        m, rel = random_poset_pairs(rng, max_elems=5)
        p = Poset(range(1, m + 1), rel)
        for q in (2, 3):
            u = {e: rng.randrange(q) for e in p.elems}
            orbit = orbit_of_vector(p.rel, p.elems, u, q)
            supp = {e for e, v in u.items() if v}
            top, _ = top_and_closure(supp, p.rel, p.elems)
            _, clos = top_and_closure(top, p.rel, p.elems)
            if len(orbit) != q ** len(clos - top):
                failures += 1
        cases += 1
    report(8, failures == 0,
           f"{cases} random posets x {{F_2, F_3}}: orbit sizes equal q^|closure - top|")


def test_criterion_9_counting_soundness(audit_ctx, tables):
    # runs last: every polynomial counted while computing criteria 1-8 in this
    # session is audited against exhaustive substitution counts at q = 2..5
    audit = audit_counts(audit_ctx.memo_counts)
    report(9, audit.audited > 0 and not audit.violations,
           f"{audit.audited} distinct counting systems audited at q in {{2,3,4,5}}, "
           f"{len(audit.violations)} violations")
