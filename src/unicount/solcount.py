"""Counting solutions of restriction systems over F_q.

The goal is to express |V(Q, E, q)| as a single polynomial in q, valid
for every prime power simultaneously.  ``count_solutions`` returns that
CountPoly, or None when it cannot; it never risks a wrong polynomial.
Only steps that are sound in every characteristic are applied.
``reduce_system`` applies these rules, in this order, until none fires:

  1. monomial content in nonzero-restricted variables is divided out of
     an equation;
  2. a unit monomial equation, which after rule 1 has no
     nonzero-restricted variable, is +-1, a contradiction (the system
     has no solutions), or +-x^a with one unrestricted x, which pins
     it: x := 0;
  3. a parameter occurring in no equation contributes a factor q when
     free and q-1 when restricted nonzero;
  4. a variable appearing linearly in one equation with an invertible
     coefficient (a signed product of nonzero-restricted parameters) is
     substituted away, preserving the solution count exactly.

On what survives, the count branches:

  * an inequation x != 0 that blocks an elimination is removed by
    inclusion-exclusion: count(E) = count(E minus x!=0) - count(E, x := 0);
  * an unrestricted equation variable x is split into x := 0 and x != 0.

Every x := 0 above is ``algdata.set_zero``.
"""
from __future__ import annotations

from typing import Iterable

from .algdata import Equation, NonZero, Restriction, set_zero
from .polyring import CountPoly, ParamPoly


def _invertible_monomial(poly: ParamPoly, nz: frozenset[int]) -> bool:
    """True if the polynomial is +-1 times a product of nonzero parameters."""
    sm = poly.single_monomial()
    if sm is None:
        return False
    c, m = sm
    return abs(c) == 1 and all(s in nz for s, _ in m)


def _substitute_linear(g: ParamPoly, x: int, coeff: ParamPoly, rest: ParamPoly) -> ParamPoly:
    """Rewrite g = 0 after solving coeff*x + rest = 0 for x.

    x = -rest/coeff, so g is multiplied through by coeff^deg_x(g); this
    preserves the solution set because coeff never vanishes.
    """
    parts = g.decompose(x)
    deg = max(parts)
    out = ParamPoly.zero()
    neg_rest = -rest
    for d, gd in parts.items():
        term = gd
        for _ in range(d):
            term = term * neg_rest
        for _ in range(deg - d):
            term = term * coeff
        out = out + term
    return out


def _eliminate_step(params: tuple, restrictions: tuple, protected: frozenset):
    """Substitute out one linearly determined variable, or None.

    Returns (params', restrictions') with |V(Q', E', q)| = |V(Q, E, q)|
    for every q; the pivot is never in ``protected``.
    """
    nz = frozenset(r.sym for r in restrictions if isinstance(r, NonZero))
    for eq in restrictions:
        if not isinstance(eq, Equation):
            continue
        poly = eq.poly
        for x in sorted(poly.symbols()):
            if x in protected:
                continue
            parts = poly.decompose(x)
            if max(parts) != 1 or 1 not in parts:
                continue
            coeff = parts[1]
            if not _invertible_monomial(coeff, nz):
                continue
            rest = parts.get(0, ParamPoly.zero())
            if x in nz and not _invertible_monomial(rest, nz):
                continue
            new_restrictions = []
            for r in restrictions:
                if r is eq or (isinstance(r, NonZero) and r.sym == x):
                    continue
                if isinstance(r, Equation) and x in r.poly.symbols():
                    g = _substitute_linear(r.poly, x, coeff, rest)
                    if not g.is_zero():
                        new_restrictions.append(Equation(g))
                else:
                    new_restrictions.append(r)
            return tuple(p for p in params if p != x), tuple(new_restrictions)
    return None


def reduce_system(params: Iterable[int], restrictions: Iterable[Restriction],
                  protected: frozenset[int] = frozenset()):
    """Apply all count-preserving reductions, leaving ``protected`` alone.

    Returns (k, l, params', restrictions', empty): the original system
    has exactly (q-1)^k q^l times the solutions of the reduced one, for
    every prime power q; empty means no solutions at all.
    """
    params = list(params)
    restrictions = [r for r in restrictions
                    if not (isinstance(r, Equation) and r.poly.is_zero())]
    if any(isinstance(r, Equation) for r in restrictions):
        return _reduce_loop(params, restrictions, protected)
    # with no equation only rule 3 fires, once, on every unprotected parameter
    nz = {r.sym for r in restrictions}
    unused = {p for p in params if p not in protected}
    return (len(unused & nz), len(unused - nz), tuple(p for p in params if p not in unused),
            tuple(r for r in restrictions if r.sym not in unused), False)


def _reduce_loop(params: list, restrictions: list, protected: frozenset[int]):
    """``reduce_system``'s rules applied in turn until none fires, on a
    system with no zero equation."""
    k = l = 0
    changed = True
    while changed:
        changed = False
        nz = frozenset(r.sym for r in restrictions if isinstance(r, NonZero))
        equations = [r for r in restrictions if isinstance(r, Equation)]

        # divide out common monomial content in nonzero-restricted variables
        divided = None
        for eq in equations:
            content = {s: e for s, e in eq.poly.content().items() if s in nz}
            if content:
                divided = (eq, eq.poly.divide_monomial(content))
                break
        if divided is not None:
            old, new_poly = divided
            restrictions = [Equation(new_poly) if r is old else r for r in restrictions]
            changed = True
            continue

        # with the content divided out, a unit monomial has unrestricted
        # variables only: +-1 is a contradiction, and +-x^a pins x to 0
        pinned = None
        for eq in equations:
            sm = eq.poly.single_monomial()
            if sm is None or abs(sm[0]) != 1:
                continue
            if not sm[1]:
                return 0, 0, (), (), True
            if len(sm[1]) == 1 and sm[1][0][0] not in protected:
                pinned = sm[1][0][0]
                break
        if pinned is not None:
            params, restrictions = set_zero(params, restrictions, pinned)
            changed = True
            continue

        used = set()
        for eq in equations:
            used |= eq.poly.symbols()

        unused = {p for p in params if p not in used and p not in protected}
        if unused:
            k += len(unused & nz)
            l += len(unused - nz)
            params = [p for p in params if p not in unused]
            restrictions = [r for r in restrictions
                            if not (isinstance(r, NonZero) and r.sym in unused)]
            changed = True
            continue

        step = _eliminate_step(tuple(params), tuple(restrictions), protected)
        if step is not None:
            params, restrictions = list(step[0]), list(step[1])
            changed = True
            continue

    return k, l, tuple(params), tuple(restrictions), False


def _ie_count(params: tuple, restrictions: tuple, depth: int) -> CountPoly | None:
    """Exact count via branching; None when genuinely stuck."""
    k, l, params, restrictions, empty = reduce_system(params, restrictions)
    if empty:
        return CountPoly.zero()
    factor = CountPoly.one().scale(k, l, 0)
    if not any(isinstance(r, Equation) for r in restrictions):
        return factor
    if depth >= 60:
        return None
    nz = frozenset(r.sym for r in restrictions if isinstance(r, NonZero))
    used = set()
    for r in restrictions:
        if isinstance(r, Equation):
            used |= r.poly.symbols()

    # inclusion-exclusion on an inequation that blocks a linear elimination:
    # count(E) = count(E minus x!=0) - count(E, x := 0).  Progress in the
    # first branch is guaranteed because dropping the inequation is exactly
    # what lets the elimination fire.
    for x in sorted(used & nz):
        without = tuple(r for r in restrictions
                        if not (isinstance(r, NonZero) and r.sym == x))
        if _eliminate_step(params, without, frozenset()) is None:
            continue
        total = _ie_count(params, without, depth + 1)
        if total is None:
            return None
        rest = _ie_count(*set_zero(params, restrictions, x), depth + 1)
        if rest is None:
            return None
        return (total - rest) * factor

    # split an unrestricted equation variable into x := 0 and x != 0
    for x in sorted(used - nz):
        zero_branch = _ie_count(*set_zero(params, restrictions, x), depth + 1)
        if zero_branch is None:
            return None
        nonzero_branch = _ie_count(params, restrictions + (NonZero(x),), depth + 1)
        if nonzero_branch is None:
            return None
        return (zero_branch + nonzero_branch) * factor

    return None


def count_solutions(params: Iterable[int],
                    restrictions: Iterable[Restriction]) -> CountPoly | None:
    """|V(Q, E, q)| as a polynomial in q, or None when it cannot be found."""
    return _ie_count(tuple(params), tuple(restrictions), 0)
