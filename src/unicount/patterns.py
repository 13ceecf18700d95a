"""Pattern algebras: matrices supported on a strict partial order.

T_{C,R}(q) is the algebra of matrices with entries only on the pairs of
R; the chain on [1, n] gives the strictly upper triangular algebra of
U_n(q).  ``pattern_census`` exploits the row structure: fixing a
minimal element c_0, the linear characters of the first row K are
classified by antichains of the successor set D (up to the action of
the complementary subalgebra group, coarsened through the greatest
normal closure of the induced order), and the stabiliser of each orbit
representative is again an explicitly describable algebra: for
|E| <= 1 a smaller pattern algebra, recursed into, and for |E| >= 2
one change of basis of the complement algebra, handed to the general
engine.  Pattern data has one basis order, ``_unit_order``: matrix units
by rows descending, then columns ascending, in the least linear
extension of the order, so that every product lands later.
"""
from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Iterable

from .algdata import AlgebraicData, MalformedData
from .engine import (_ONE, Census, EngineContext, _change_basis, aggregate, census,
                     scale_census)
from .polyring import CountPoly


class Poset:
    """A finite strict partial order; elements are ints, ambient order is <."""

    __slots__ = ("elems", "rel", "_hash", "_rank")

    def __init__(self, elems: Iterable[int], rel: Iterable[tuple[int, int]],
                 check: bool = True):
        self.elems = tuple(sorted(elems))
        self.rel = frozenset((a, b) for a, b in rel)
        self._hash = None
        self._rank = None
        if check:
            es = set(self.elems)
            if len(es) != len(self.elems):
                raise MalformedData("repeated element")
            for a, b in self.rel:
                if a == b:
                    raise MalformedData("relation is not irreflexive")
                if a not in es or b not in es:
                    raise MalformedData("relation pair outside the ground set")
            for a, b in self.rel:
                for c, d in self.rel:
                    if b == c and (a, d) not in self.rel:
                        raise MalformedData(f"relation not transitive at ({a},{b},{d})")

    def __eq__(self, other):
        return isinstance(other, Poset) and self.elems == other.elems and self.rel == other.rel

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.elems, self.rel))
        return self._hash

    def __repr__(self):
        return f"Poset({list(self.elems)}, {sorted(self.rel)})"

    def to_json(self) -> dict:
        return {"elems": list(self.elems), "rel": sorted(map(list, self.rel))}

    @staticmethod
    def from_json(obj: dict) -> "Poset":
        return Poset(obj["elems"], [tuple(p) for p in obj["rel"]])


def chain(n: int) -> Poset:
    return Poset(range(1, n + 1), ((i, j) for i in range(1, n + 1)
                                   for j in range(i + 1, n + 1)), check=False)


def top_and_closure(E: Iterable[int], rel: frozenset, ground: Iterable[int]):
    """Maximal elements of E, and the downward closure of E in the ground set."""
    E = set(E)
    top = {d for d in E if not any(e != d and (d, e) in rel for e in E)}
    closure = {c for c in ground if c in E or any((c, d) in rel for d in E)}
    return top, closure


def antichains(D: Iterable[int], rel: frozenset) -> list[frozenset]:
    """All antichains of (D, rel), the empty one included, in lexicographic order."""
    D = sorted(D)
    out = []

    def rec(start: int, current: tuple[int, ...]):
        out.append(frozenset(current))
        for i in range(start, len(D)):
            c = D[i]
            if all((c, e) not in rel and (e, c) not in rel for e in current):
                rec(i + 1, current + (c,))

    rec(0, ())
    return sorted(out, key=lambda s: tuple(sorted(s)))


def normal_closure(rel: frozenset, ground: Iterable[int], within: Iterable[int]) -> frozenset:
    """The greatest normal closure of (ground, rel), on the elements of within.

    With pred and succ read from rel on ground, (k, l) is in it iff
    k != l, pred(k) <= pred(l) and succ(l) <= succ(k), and k < l when
    k and l have equal pred and equal succ.  These are the pairs, k
    before l, whose adjunction keeps rel transitive, in the linear
    extension sorted by (-|succ|, |pred|, label): the normal closure of
    that extension, so the result contains rel and is transitive.  The
    closure of any linear extension keeps at most one of (k, l) and
    (l, k) of these pairs and no other pair, so none is larger.
    """
    pred = {e: set() for e in ground}
    succ = {e: set() for e in ground}
    for a, b in rel:
        pred[b].add(a)
        succ[a].add(b)
    within = list(within)
    return frozenset((k, ll) for k in within for ll in within
                     if k != ll and pred[k] <= pred[ll] and succ[ll] <= succ[k]
                     and (k < ll or pred[k] != pred[ll] or succ[k] != succ[ll]))


def _extension_rank(poset: Poset) -> dict[int, int]:
    """Positions in the lexicographically least linear extension of poset.

    When the labels already extend the order, this is their sorted order.
    Computed once per Poset: every antichain of a pattern node ranks the
    same poset.
    """
    if poset._rank is not None:
        return poset._rank
    indeg = {e: 0 for e in poset.elems}
    succ: dict[int, list[int]] = {e: [] for e in poset.elems}
    for a, b in poset.rel:
        indeg[b] += 1
        succ[a].append(b)
    ready = [e for e in poset.elems if not indeg[e]]
    heapq.heapify(ready)
    rank: dict[int, int] = {}
    while ready:
        e = heapq.heappop(ready)
        rank[e] = len(rank)
        for b in succ[e]:
            indeg[b] -= 1
            if not indeg[b]:
                heapq.heappush(ready, b)
    poset._rank = rank
    return rank


def _unit_order(pairs: Iterable[tuple[int, int]], rank: dict[int, int]) -> list[tuple[int, int]]:
    """The matrix units e_p, p in pairs, in the one basis order of pattern
    data: rows descending, then columns ascending, by their positions in
    rank, a linear extension.  Every product e_{ij} e_{jk} = e_{ik} lands
    after both factors: after e_{ij} in the same row, as j precedes k,
    and after e_{jk}, whose row j comes first, as i precedes j."""
    return sorted(pairs, key=lambda p: (-rank[p[0]], rank[p[1]]))


def _pattern_data(pairs: list[tuple[int, int]]) -> AlgebraicData:
    """Parameter-free data for the matrix units e_p, p in pairs, each
    labelled by its position in pairs: e_{ij} e_{jk} = e_{ik}."""
    label = {p: n for n, p in enumerate(pairs)}
    succ: dict[int, list[int]] = {}
    for i, j in pairs:
        succ.setdefault(i, []).append(j)
    products = {(label[(i, j)], label[(j, k)]): ((label[(i, k)], frozenset()),)
                for i, j in pairs for k in succ.get(j, ())}
    return AlgebraicData((), (), range(len(pairs)), products)


def encode_pattern(poset: Poset) -> AlgebraicData:
    """Parameter-free algebraic data for T_{C,R}: one vector per pair of
    R, in the order of ``_unit_order`` under the least linear extension."""
    return _pattern_data(_unit_order(poset.rel, _extension_rank(poset)))


def _small_stabilizer(B: list[int], P: frozenset, D: set[int], E: frozenset) -> Poset:
    """The stabiliser poset of an antichain E with |E| <= 1.

    E empty gives the complement (B, P); a singleton {d_0} also deletes
    the column of d_0 from the rows in D.
    """
    if not E:
        return Poset(B, P, check=False)
    (d0,) = E
    return Poset(B, frozenset(p for p in P if not (p[1] == d0 and p[0] in D)), check=False)


def stabilizer_data(poset: Poset, c0: int, E: frozenset) -> AlgebraicData:
    """Algebraic data for the stabiliser algebra of the antichain E.

    The stabiliser is the annihilator of sum_{d in E} eps_d e_{c0,d}: the
    x in T_{B,P} with sum_{d in E} eps_d x_{id} = 0 for every row i in D.

    With E in the least linear extension and eps alternating +1, -1
    along it, a row i of D that sees the columns S_i of E keeps no entry
    in them if |S_i| = 1, and otherwise the vectors
    f_{id} = e_{id} - eps_d eps_a e_{ia} for d in S_i other than its
    latest element a; every other e_{ij} stays.  So E empty gives the
    full complement subalgebra, and a singleton deletes the column of
    its element from the rows in D.  ``_change_basis`` reads the
    products of T_{B,P} off in that basis, a -1 coefficient becoming a
    fresh parameter.  Items keep the order of ``_unit_order``, f_{id}
    sitting at its own column d, so every product still lands later:
    f_{id} e_{aj} lands at column j, past a, which is past d.
    """
    R = poset.rel
    D = {d for d in poset.elems if (c0, d) in R}
    P = frozenset((a, b) for a, b in R if a != c0 and b != c0)
    rank = _extension_rank(poset)
    E = sorted(E, key=rank.__getitem__)
    eps = {d: (-1) ** n for n, d in enumerate(E)}
    ref = {}                    # row i of D with |S_i| >= 2 -> its latest column a
    for i in D:
        S = [d for d in E if (i, d) in R]
        if len(S) >= 2:
            ref[i] = S[-1]
    old = _unit_order(P, rank)
    # e_{ij} and f_{ij} alike take the old coordinate on e_{ij}, and no
    # two items share a cell (i, j)
    new = [(i, j) for i, j in old if i not in D or j not in eps or (i in ref and j != ref[i])]
    olabel = {p: n for n, p in enumerate(old)}
    uses = {olabel[p]: [(n, _ONE)] for n, p in enumerate(new)}
    coord = {olabel[p]: (n, _ONE) for n, p in enumerate(new)}
    for n, (i, d) in enumerate(new):
        if i in ref and d in eps:
            a = ref[i]
            uses.setdefault(olabel[(i, a)], []).append((n, _ONE if eps[d] != eps[a] else -_ONE))
    data = _change_basis(_pattern_data(old), range(len(new)), (), uses, coord)
    data.validate()
    return data


def pattern_census(poset: Poset, ctx: EngineContext) -> Census:
    """A correct breakdown of the characters of 1 + T_{C,R}(q)."""
    key = _canon_key(poset)
    hit = ctx.memo_pattern.get(key)
    if hit is None:
        hit = ctx.memo_pattern[key] = ctx.intern(_pattern_core(poset, ctx))
    return hit


def _canon_key(poset: Poset) -> tuple[int, ...]:
    """The memo key of poset: for each element by position, the bitmask
    of the positions of its successors.  Two posets get the same key
    exactly when relabelling each by position gives the same relation."""
    bit = {e: 1 << i for i, e in enumerate(poset.elems)}
    succ = dict.fromkeys(poset.elems, 0)
    for a, b in poset.rel:
        succ[a] |= bit[b]
    return tuple(succ.values())


def _pattern_core(poset: Poset, ctx: EngineContext) -> Census:
    if not poset.rel:
        # the zero algebra: the trivial group has a single character
        return Census(CountPoly.one(), (), ())
    has_pred = {b for _, b in poset.rel}
    c0 = min(e for e in poset.elems if e not in has_pred)
    R = poset.rel
    D = sorted(d for d in poset.elems if (c0, d) in R)
    B = [c for c in poset.elems if c != c0]
    P = frozenset((a, b) for a, b in R if a != c0 and b != c0)
    pbar1 = normal_closure(P, B, D)
    dset = set(D)
    r1 = frozenset(p for p in R if p[0] in dset and p[1] in dset)

    parts = []
    for E in antichains(D, pbar1):
        if len(E) <= 1:
            part = pattern_census(_small_stabilizer(B, P, dset, E), ctx)
        else:
            part = census(stabilizer_data(poset, c0, E), ctx)
        _, clos_r = top_and_closure(E, r1, D)
        _, clos_p = top_and_closure(E, pbar1, D)
        parts.append(scale_census(part, len(E),
                                  len(clos_p - clos_r), len(clos_r - E)))
    return aggregate(parts)


@lru_cache(maxsize=None)
def _chain_poset(n: int) -> Poset:
    return chain(n)


def unitriangular_census(n: int, ctx: EngineContext) -> Census:
    """Character breakdown of U_n(q) via the pattern fast path."""
    if n < 1:
        raise ValueError("n must be positive")
    return pattern_census(_chain_poset(n), ctx)
