"""Pattern algebras: matrices supported on a strict partial order.

T_{C,R}(q) is the algebra of matrices with entries only on the pairs of
R; the chain on [1, n] gives the strictly upper triangular algebra of
U_n(q).  ``pattern_census`` exploits the row structure: fixing a
minimal element c_0, the linear characters of the first row K are
classified by antichains of the successor set D (up to the action of
the complementary subalgebra group, coarsened through the normal
closure of the induced order), and the stabiliser of each orbit
representative is again an explicitly describable algebra.  Antichains
of size three or more fall back to the general engine.
"""
from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Iterable

from .algdata import AlgebraicData, MalformedData
from .engine import Census, EngineContext, aggregate, census, scale_census
from .polyring import CountPoly


class UnsupportedAntichain(Exception):
    pass


class Poset:
    """A finite strict partial order; elements are ints, ambient order is <."""

    __slots__ = ("elems", "rel", "_hash")

    def __init__(self, elems: Iterable[int], rel: Iterable[tuple[int, int]],
                 check: bool = True):
        self.elems = tuple(sorted(elems))
        self.rel = frozenset((a, b) for a, b in rel)
        self._hash = None
        if check:
            es = set(self.elems)
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


def normal_closure(rel: frozenset, order: Iterable[int]) -> frozenset:
    """Pairs whose adjunction keeps the relation transitive.

    For k before l in the total order, (k, l) is in the closure iff every
    predecessor of k precedes l and every successor of l succeeds k.  The
    result contains rel and is itself transitive.
    """
    order = list(order)
    idx = {e: i for i, e in enumerate(order)}
    pred = {e: set() for e in order}
    succ = {e: set() for e in order}
    for a, b in rel:
        pred[b].add(a)
        succ[a].add(b)
    out = set()
    for k in order:
        for ll in order:
            if idx[k] < idx[ll] and pred[k] <= pred[ll] and succ[ll] <= succ[k]:
                out.add((k, ll))
    return frozenset(out)


def choose_order(elems: Iterable[int], rel: frozenset) -> tuple[list[int], frozenset]:
    """A linear extension trying to maximise the normal closure, and that closure.

    Candidates: descending out-degree (always an extension), and
    ascending in-degree when it happens to extend rel; the larger
    closure wins, the first candidate on ties.
    """
    elems = sorted(elems)
    outdeg = {e: 0 for e in elems}
    indeg = {e: 0 for e in elems}
    for a, b in rel:
        outdeg[a] += 1
        indeg[b] += 1

    def consistent(order):
        ix = {e: i for i, e in enumerate(order)}
        return all(ix[a] < ix[b] for a, b in rel)

    candidates = [sorted(elems, key=lambda e: (-outdeg[e], e))]
    cand = sorted(elems, key=lambda e: (indeg[e], e))
    if consistent(cand) and cand not in candidates:
        candidates.append(cand)
    return max(((o, normal_closure(rel, o)) for o in candidates),
               key=lambda oc: len(oc[1]))


def _extension_rank(poset: Poset) -> dict[int, int]:
    """Positions in the lexicographically least linear extension of poset.

    When the labels already extend the order, this is their sorted order.
    """
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
    return rank


def encode_pattern(poset: Poset) -> AlgebraicData:
    """Parameter-free algebraic data for T_{C,R}: one vector per pair of R."""
    pairs = sorted(poset.rel)
    longest: dict[tuple[int, int], int] = {}

    def lpath(p):
        if p not in longest:
            i, j = p
            longest[p] = 1
            longest[p] = 1 + max((lpath((i, m)) for (i2, m) in poset.rel
                                  if i2 == i and (m, j) in poset.rel), default=0)
        return longest[p]

    ordered = sorted(pairs, key=lambda p: (lpath(p), p))
    label = {p: i for i, p in enumerate(ordered)}
    products = {}
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j2 == j:
                products[(label[(i, j)], label[(j, k)])] = ((label[(i, k)], frozenset()),)
    return AlgebraicData((), (), range(len(ordered)), products)


def _small_stabilizer(B: list[int], P: frozenset, D: set[int], E: frozenset) -> Poset:
    """The stabiliser poset of an antichain E with |E| <= 1.

    E empty gives the complement (B, P); a singleton {d_0} also deletes
    the column of d_0 from the rows in D.
    """
    if not E:
        return Poset(B, P, check=False)
    (d0,) = E
    return Poset(B, frozenset(p for p in P if not (p[1] == d0 and p[0] in D)), check=False)


def _pair_stabilizer(poset: Poset, B: list[int], D: set[int],
                     e_pair: frozenset) -> AlgebraicData:
    """The annihilator of e_k - e_l inside the complement of row c_0.

    Basis: the matrix units untouched by the two merged columns, plus
    the sums f_i = e_{ik} + e_{il} for rows seeing both columns.  Items
    are ordered by rows descending, then columns ascending, both in the
    least linear extension of the poset, so every product lands later.
    """
    rank = _extension_rank(poset)
    k, ll = sorted(e_pair, key=rank.__getitem__)
    R = poset.rel
    eprime = [(i, j) for (i, j) in sorted(R) if i in set(B) and j in set(B)
              and (i not in D or j not in (k, ll))]
    fprime = [i for i in sorted(D) if (i, k) in R and (i, ll) in R]

    items = [("e", i, j) for (i, j) in eprime] + [("f", i, None) for i in fprime]

    def sort_key(it):
        kind, i, j = it
        col = j if kind == "e" else k  # f_i sits at the earlier merged column
        return (-rank[i], rank[col], 0 if kind == "e" else 1)

    items.sort(key=sort_key)
    label = {it: n for n, it in enumerate(items)}

    products: dict = {}

    def put(a, b, target):
        products.setdefault((label[a], label[b]), []).append((label[target], frozenset()))

    for (i, j) in eprime:
        for (r, m) in eprime:
            if j == r:
                put(("e", i, j), ("e", r, m), ("e", i, m))
        for m in fprime:
            if j == m:
                if i in D:
                    put(("e", i, j), ("f", m, None), ("f", i, None))
                else:
                    products.setdefault((label[("e", i, j)], label[("f", m, None)]), []) \
                        .extend([(label[("e", i, k)], frozenset()),
                                 (label[("e", i, ll)], frozenset())])
    for m in fprime:
        for (i, j) in eprime:
            if i == k or i == ll:
                put(("f", m, None), ("e", i, j), ("e", m, j))

    data = AlgebraicData((), (), range(len(items)), products)
    data.validate()
    return data


def stabilizer_data(poset: Poset, c0: int, E: frozenset) -> AlgebraicData:
    """Algebraic data for the stabiliser algebra of the antichain E.

    E empty gives the full complement subalgebra; a singleton deletes
    the column of its element from rows above c_0; a pair merges two
    columns.  Larger antichains are not describable here.
    """
    if len(E) > 2:
        raise UnsupportedAntichain(f"antichain of size {len(E)}")
    R = poset.rel
    B = [c for c in poset.elems if c != c0]
    D = {d for d in poset.elems if (c0, d) in R}
    if len(E) == 2:
        return _pair_stabilizer(poset, B, D, E)
    P = frozenset((a, b) for a, b in R if a != c0 and b != c0)
    return encode_pattern(_small_stabilizer(B, P, D, E))


def pattern_census(poset: Poset, ctx: EngineContext) -> Census:
    """A correct breakdown of the characters of 1 + T_{C,R}(q)."""
    key = _canon_key(poset)
    hit = ctx.memo_pattern.get(key)
    if hit is None:
        hit = _pattern_core(poset, ctx)
        ctx.memo_pattern[key] = hit
    return hit


def _canon_key(poset: Poset):
    relabel = {e: i for i, e in enumerate(poset.elems)}
    return (len(poset.elems),
            frozenset((relabel[a], relabel[b]) for a, b in poset.rel))


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
    _, pbar = choose_order(B, P)
    dset = set(D)
    r1 = frozenset(p for p in R if p[0] in dset and p[1] in dset)
    pbar1 = frozenset(p for p in pbar if p[0] in dset and p[1] in dset)

    chains_ = antichains(D, pbar1)
    if any(len(E) >= 3 for E in chains_):
        ctx.bump("pattern_fallback")
        return census(encode_pattern(poset), ctx)

    parts = []
    for E in chains_:
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
