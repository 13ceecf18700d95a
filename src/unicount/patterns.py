"""Pattern algebras: matrices supported on a strict partial order.

T_{C,R}(q) is the algebra of matrices with entries only on the pairs of
R; the chain on [1, n] gives the strictly upper triangular algebra of
U_n(q).  It is the direct product of the subalgebras spanned by the
product classes of R, the pairs linked by e_ab e_bc = e_ac, so its
census is the product of theirs (``_factors``).  A spare pair, from a
minimal to a maximal element with nothing between, is a class of its
own and counts q; so an order with no chain a < b < c, whose J^2 = 0,
counts q^|R| linear characters.  Each other class is looked up as the
order of its own pairs, its own memo entry; an element in no pair lies
in no class.  A record or family times a polynomial has no record
form, so an order of several classes, one of whose censuses keeps one,
is expanded whole.

An order that is one class alone, with no spare pair and no element in
no pair, is expanded by its row structure: fixing a minimal element
c_0, the linear characters of its row K are classified by
antichains of the successor set D (up to the action of the
complementary subalgebra group, coarsened through the greatest normal
closure of the induced order), and the stabiliser of each orbit
representative is again an explicitly describable algebra.  When no
row of D sees two elements of E, |E| <= 1 included, it is a smaller
pattern algebra, the complement with the columns of E deleted from the
rows in D, recursed into; otherwise it is one change of basis of the
complement algebra, handed to the general engine.

This holds for any minimal c_0, and for the dual order as well, whose
census is the same: its row procedure peels the column of a maximal
element.  ``choose_peel`` picks the peel that keeps the most work in
the recursion: a clean row D, one in which no row of D sees two
incomparable elements of D, hands no antichain to the general engine.
It ranks the rows in one sorted list (``_peel_candidates``) and peels
the head if it is clean.  Else it adds the dual's rows, the columns,
scores each by the antichains it hands the general engine, counted by
walking them, a clean column scoring 0 with no walk, and peels the
lowest, so a clean column if there is one.  A node computes the row
sizes, the dirty rows, the predecessor masks and the masks of positions
with a predecessor and with a successor, from which its classes are
found, in one pass over its masks (``_scan``).

The recursion runs on masks: an order is the tuple of its elements'
successor bitmasks by position, which is also its memo key.  Deleting
c_0 or the elements outside a class is a bit compression; the normal
closure, the antichain walk and the closure sizes are mask operations.  A
labelled ``Poset`` is only an input, turned into masks with positions
in label order.  Pattern data has one basis order, ``_unit_order``:
matrix units by rows descending, then columns ascending, in the least
linear extension of the order, so that every product lands later.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .algdata import AlgebraicData, MalformedData
from .engine import (_ONE, Census, EngineContext, _change_basis, aggregate, census,
                     scale_census)
from .polyring import CountPoly

Masks = tuple[int, ...]
# an order's row sizes, positions with a predecessor and with a
# successor, dirty rows and predecessor masks: ``_scan``
Scan = tuple[list[int], int, int, int, list[int]]


class Poset:
    """A finite strict partial order; elements are ints, ambient order is <."""

    __slots__ = ("elems", "rel")

    def __init__(self, elems: Iterable[int], rel: Iterable[tuple[int, int]],
                 check: bool = True):
        self.elems = tuple(sorted(elems))
        self.rel = frozenset((a, b) for a, b in rel)
        if check:
            es = set(self.elems)
            if len(es) != len(self.elems):
                raise MalformedData("repeated element")
            for a, b in self.rel:
                if a == b:
                    raise MalformedData("relation is not irreflexive")
                if a not in es or b not in es:
                    raise MalformedData("relation pair outside the ground set")
            succ = self.masks()  # transitive: b above a has its successors above a
            for a, m in enumerate(succ):
                for b in _bits(m):
                    if missing := succ[b] & ~m:
                        a, b, d = (self.elems[i] for i in (a, b, missing.bit_length() - 1))
                        raise MalformedData(f"relation not transitive at ({a},{b},{d})")

    def __eq__(self, other):
        return isinstance(other, Poset) and self.elems == other.elems and self.rel == other.rel

    def __repr__(self):
        return f"Poset({list(self.elems)}, {sorted(self.rel)})"

    def masks(self) -> Masks:
        """For each element by position, the mask of its successors' positions."""
        pos = {e: i for i, e in enumerate(self.elems)}
        succ = [0] * len(self.elems)
        for a, b in self.rel:
            succ[pos[a]] |= 1 << pos[b]
        return tuple(succ)

    def to_json(self) -> dict:
        return {"elems": list(self.elems), "rel": sorted(map(list, self.rel))}

    @staticmethod
    def from_json(obj: dict) -> "Poset":
        return Poset(obj["elems"], [tuple(p) for p in obj["rel"]])


def chain(n: int) -> Poset:
    return Poset(range(1, n + 1), ((i, j) for i in range(1, n + 1)
                                   for j in range(i + 1, n + 1)), check=False)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _preds(succ: Masks, cols: int = -1) -> list[int]:
    """For each position in the mask cols, the mask of its predecessors;
    0 for every other position."""
    pred = [0] * len(succ)
    for a, m in enumerate(succ):
        m &= cols
        bit = 1 << a
        while m:
            low = m & -m
            pred[low.bit_length() - 1] |= bit
            m ^= low
    return pred


def _delete(succ: Masks | list[int], c: int) -> list[int]:
    """The masks of succ with position c deleted: positions past it move
    down by one."""
    low = (1 << c) - 1
    return [m & low | m >> 1 & ~low for j, m in enumerate(succ) if j != c]


def normal_closure(succ: Masks, pred: list[int], D: int) -> dict[int, int]:
    """The greatest normal closure of the order, on the elements of D: for
    each l of D, the mask of the k of D with (k, l) in it.

    (k, l) is in it iff k != l, pred(k) <= pred(l) and succ(l) <= succ(k),
    and k < l when k and l have equal pred and equal succ.  These are the
    pairs, k before l, whose adjunction keeps the order transitive, in the
    linear extension sorted by (-|succ|, |pred|, position): the normal
    closure of that extension, so the result contains the order and is
    transitive.  The closure of any linear extension keeps at most one of
    (k, l) and (l, k) of these pairs and no other pair, so none is larger.
    """
    row = _bits(D)
    return {ll: sum(1 << k for k in row if k != ll and not pred[k] & ~pred[ll]
                    and not succ[ll] & ~succ[k]
                    and (k < ll or pred[k] != pred[ll] or succ[k] != succ[ll]))
            for ll in row}


def antichains(D: int, below: dict[int, int],
               pred: list[int]) -> Iterator[tuple[int, int, int, bool]]:
    """Each antichain E of the order below on D, the empty one included,
    in lexicographic order of positions, with its downward closure in D,
    the rows of D that see an element of E in the order pred, and whether
    it is clean: no row of D sees two elements of E.

    A depth-first walk on an explicit stack: a child adds to E an element
    c after E's last one, which is incomparable with E exactly when it is
    outside E's closure and sees no element of E below it.  It adds the
    rows pred[c] & D to those that see E, and stays clean exactly when
    none of them sees E already.
    """
    stack = [(0, 0, D, 0, True)]  # (E, its closure, the elements after E's last, seen, clean)
    while stack:
        E, clos, after, seen, clean = stack.pop()
        yield E, clos, seen, clean
        later = 0               # children go on the stack latest first
        while after:
            c = after.bit_length() - 1
            bit = 1 << c
            after ^= bit
            if not (clos & bit or below[c] & E):
                rows = pred[c] & D
                stack.append((E | bit, clos | bit | below[c], later, seen | rows,
                              clean and not rows & seen))
            later |= bit


def _extension_rank(succ: Masks) -> list[int]:
    """For each position, its rank in the lexicographically least linear
    extension of the order: the sorted order when positions extend it."""
    pred, rank = _preds(succ), [0] * len(succ)
    free = (1 << len(succ)) - 1
    for r in range(len(succ)):
        cand = free
        while pred[c := (cand & -cand).bit_length() - 1] & free:
            cand ^= 1 << c
        rank[c] = r
        free ^= 1 << c
    return rank


def _unit_order(pairs: Iterable[tuple[int, int]], rank: list[int]) -> list[tuple[int, int]]:
    """The matrix units e_p, p in pairs, in the one basis order of pattern
    data: rows descending, then columns ascending, by their positions in
    rank, a linear extension.  Every product e_{ij} e_{jk} = e_{ik} lands
    after both factors: after e_{ij} in the same row, as j precedes k,
    and after e_{jk}, whose row j comes first, as i precedes j."""
    return sorted(pairs, key=lambda p: (-rank[p[0]], rank[p[1]]))


def _pairs(succ: Masks, skip: int = -1) -> list[tuple[int, int]]:
    """The pairs of the order, those of row skip left out."""
    return [(a, b) for a, m in enumerate(succ) if a != skip for b in _bits(m)]


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
    succ = poset.masks()
    return _pattern_data(_unit_order(_pairs(succ), _extension_rank(succ)))


def stabilizer_data(succ: Masks, c0: int, E: int) -> AlgebraicData:
    """Algebraic data for the stabiliser algebra of the antichain E, a
    mask of successors of the minimal position c0 of the order succ.

    The stabiliser is the annihilator of sum_{d in E} eps_d e_{c0,d}: the
    x in T_{B,P} with sum_{d in E} eps_d x_{id} = 0 for every row i in D.

    With E in the least linear extension and eps alternating +1, -1
    along it, a row i of D that sees the columns S_i of E keeps no entry
    in them if |S_i| = 1, and otherwise the vectors
    f_{id} = e_{id} - eps_d eps_a e_{ia} for d in S_i other than its
    latest element a; every other e_{ij} stays.  ``_change_basis`` reads
    the products of T_{B,P} off in that basis, a -1 coefficient becoming
    a fresh parameter.  Items keep the order of ``_unit_order``, f_{id}
    sitting at its own column d, so every product still lands later:
    f_{id} e_{aj} lands at column j, past a, which is past d.

    When every |S_i| is at most 1, E empty included, the stabiliser is
    the pattern algebra of the complement with the columns of E deleted
    from the rows in D, and ``_pattern_core`` recurses into that instead:
    it calls this builder only when some row of D sees two or more
    elements of E, so never for a clean row, which ``choose_peel`` takes,
    of the order or of its dual, whenever either has one.  The deleted
    order stays transitive: D is upward closed, so if (i, j) and (j, d)
    are in it with i in D, then j is in D and (j, d) was deleted too.
    """
    D = succ[c0]
    rank = _extension_rank(succ)
    E = sorted(_bits(E), key=rank.__getitem__)
    eps = {d: (-1) ** n for n, d in enumerate(E)}
    ref = {}                    # row i of D with |S_i| >= 2 -> its latest column a
    for i in _bits(D):
        S = [d for d in E if succ[i] >> d & 1]
        if len(S) >= 2:
            ref[i] = S[-1]
    old = _unit_order(_pairs(succ, c0), rank)
    # e_{ij} and f_{ij} alike take the old coordinate on e_{ij}, and no
    # two items share a cell (i, j)
    new = [(i, j) for i, j in old
           if not D >> i & 1 or j not in eps or (i in ref and j != ref[i])]
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


def pattern_census(poset: Poset | Masks, ctx: EngineContext) -> Census:
    """A correct breakdown of the characters of 1 + T_{C,R}(q), for a
    labelled Poset or the successor masks of an order, memoised on the
    masks as given; an order that splits into direct factors stores its
    census under its own masks, and each factor's under the factor's."""
    succ = poset.masks() if isinstance(poset, Poset) else poset
    hit = ctx.memo_pattern.get(succ)
    if hit is None:
        hit = ctx.memo_pattern[succ] = ctx.intern(_pattern_core(succ, ctx))
    return hit


def _scan(succ: Masks) -> Scan:
    """One pass over the masks of an order: the size of each row, the
    masks of positions with a predecessor and with a successor, the mask
    of dirty rows, and the mask of each position's predecessors.

    Row i is clean when no row j of it sees two elements of it that are
    incomparable in the order.  Row j sees succ[j], which lies in row i
    since rows are upward closed, and which holds succ[k] for each of its
    elements k.  So row i is clean exactly when the sizes |succ[j]|, j in
    succ[i], add up to the number of pairs of succ[i]: each comparable
    pair is counted once, by its lower element, whether or not positions
    extend the order.
    """
    size = [m.bit_count() for m in succ]
    pred = [0] * len(succ)
    has_pred = has_succ = dirty = 0
    for i, m in enumerate(succ):
        if m:
            has_pred |= m
            bit, pairs = 1 << i, 0
            has_succ |= bit
            while m:
                low = m & -m
                j = low.bit_length() - 1
                pred[j] |= bit
                pairs += size[j]
                m ^= low
            s = size[i]
            if pairs != s * (s - 1) // 2:
                dirty |= bit
    return size, has_pred, has_succ, dirty, pred


def _factors(succ: Masks, scan: Scan) -> tuple[int, list[int]]:
    """The direct factors of the algebra of the order: the number s of
    its spare relations, and the interior elements of each other factor,
    as masks, by their lowest position; scan is ``_scan(succ)``.

    The relations linked by e_ab e_bc = e_ac fall into product classes,
    and the algebra is the direct product of the subalgebras they span.
    A relation (a, b) with a minimal, b maximal and no element between is
    a class of its own, spare, spanning a factor of census q.  Every
    other class is that of some interior element k, one with a
    predecessor and a successor, which links all the relations that
    touch k and those with k between.  Two interior elements are in one
    class when they are comparable, or share an element below and one
    above; these are the elements between some minimal a and maximal b
    with a < b, so one look at each such pair finds both the spare
    relations and the classes.
    """
    _, has_pred, has_succ, _, pred = scan
    s, comps = 0, []
    low = has_succ & ~has_pred
    while low:                  # each minimal a with a successor
        a = low & -low
        low ^= a
        m = succ[a.bit_length() - 1]
        top = m & ~has_succ     # the maximal elements above a
        while top:
            c = top & -top
            top ^= c
            between = m & pred[c.bit_length() - 1]
            if not between:
                s += 1
            else:
                kept = [between]
                for K in comps:
                    if K & between:
                        kept[0] |= K
                    else:
                        kept.append(K)
                comps = kept
    comps.sort(key=lambda K: K & -K)
    return s, comps


def _factor(succ: Masks, scan: Scan, K: int) -> Masks:
    """The order of the factor whose interior elements are K: K and the
    elements comparable with it, under the relations that touch K and
    those with an element of K between, with positions renumbered in
    their relative order; scan is ``_scan(succ)``.  It is transitive: if
    (x, y) and (y, z) are in it, y is interior, so in K, and (x, z) has y
    between."""
    _, _, has_succ, _, pred = scan
    keep = K
    for k in _bits(K):
        keep |= pred[k] | succ[k]
    # the elements of the factor outside K are minimal or maximal in succ:
    # a minimal x relates to K and to what lies above its elements of K
    masks = list(succ)
    for x in _bits(keep & has_succ & ~K):
        rest = m = succ[x] & K
        while rest:
            k = rest & -rest
            rest ^= k
            m |= succ[k.bit_length() - 1]
        masks[x] = m
    for c in reversed(_bits(~keep & (1 << len(succ)) - 1)):
        masks = _delete(masks, c)
    return tuple(masks)


def _peel_candidates(node: Masks, scan: Scan, side: int = 0) -> list[tuple]:
    """The rows node could peel, as sorted keys (dirty, -size, side, c),
    one for each minimal position c with a nonempty row: clean rows first,
    then the largest, the lowest position; scan is ``_scan(node)``.

    When a row D is clean, every antichain of the normal closure on D is
    one of the order, which the closure contains, so no row of D sees two
    of its elements and no stabiliser of the node goes to the engine.
    """
    size, has_pred, _, dirty, _ = scan
    return sorted((bool(D & dirty), -size[c], side, c)
                  for c, D in enumerate(node) if D and not has_pred >> c & 1)


def _dual(succ: Masks) -> Masks:
    """The dual order: position p becomes n - 1 - p and every pair is
    reversed, so positions that extend the order extend the dual too."""
    n = len(succ)
    dual = [0] * n
    for a, m in enumerate(succ):
        bit = 1 << n - 1 - a
        for b in _bits(m):
            dual[n - 1 - b] |= bit
    return tuple(dual)


def _engine_antichains(succ: Masks, c0: int, pred: list[int], stop: int) -> int:
    """The number of antichains of the normal closure on the row D of the
    minimal position c0 that some row of D sees two elements of, those
    the row procedure on c0 hands to ``stabilizer_data``, counted up to
    stop; pred holds the predecessor masks of the elements of D."""
    D = succ[c0]
    count = 0
    for *_, clean in antichains(D, normal_closure(succ, pred, D), pred):
        if not clean:
            count += 1
            if count == stop:
                break
    return count


def choose_peel(succ: Masks, scan: Scan | None = None) -> tuple[Masks, int]:
    """The order the pattern recursion runs its row procedure on, succ or
    its dual, and the minimal position c0 of it whose row it peels; c0 is
    -1 when the order has no relation.  scan is ``_scan(succ)``, computed
    when not given.

    T_{C,R^op} is T_{C,R}^op, and g -> g^{-1} makes 1 + A^op isomorphic
    to 1 + A, so the dual order has the census of succ, and its row
    procedure peels the column of a maximal element of succ.  The rule
    ranks the minimal rows of both by the keys of ``_peel_candidates``:
    clean first, then the larger row, a row of succ before one of the
    dual, the lower position.  The head of succ's list is peeled when it
    is clean.  Else the dual is built, and each row of the merged list is
    scored by the antichains it would hand to the general engine
    (``_engine_antichains``), a clean row 0 without a walk.  The lowest
    score is peeled, ties by the ranking, and a row that scores 0 is
    peeled at once, so a clean row of the dual, a clean maximal column of
    succ, wins whenever there is one.
    """
    scan = scan or _scan(succ)
    cands = _peel_candidates(succ, scan)
    if not cands or not cands[0][0]:
        return succ, cands[0][3] if cands else -1
    dual = _dual(succ)
    sides = [(succ, scan)]
    if dual != succ:            # a self-dual order offers its rows once
        sides.append((dual, _scan(dual)))
        cands = sorted(cands + _peel_candidates(dual, sides[1][1], 1))
    # a later candidate wins only with a lower score, so each walk stops at
    # the best score so far (the first runs to its end)
    pick, best = None, -1
    for walk, _, side, c in cands:
        node, (*_, pred) = sides[side]
        score = _engine_antichains(node, c, pred, best) if walk else 0
        if pick is None or score < best:
            pick, best = (node, c), score
            if not score:
                break
    return pick


def _pattern_core(succ: Masks, ctx: EngineContext) -> Census:
    """The census of the order succ.  It first splits the algebra into its
    direct factors (``_factors``), whose censuses multiply.

    Each spare relation counts q.  Each other factor is looked up under
    its own masks (``_factor``); an element in no relation lies in no
    factor.  So an order with no relation, the empty one included, or
    with no chain a < b < c counts q^|R|.  With one factor, the rest of
    the order scales its census, records and families included, by q^s.
    Two or more factors multiply when their censuses are polynomials;
    a record or family times a polynomial has no record form, so then the
    order is expanded whole.

    An order that is one factor with no spare relation and no isolated
    element is expanded: the row procedure runs on the order and minimal
    position ``choose_peel`` picks.  It is sound on succ or its dual and
    for any minimal c0; the choice only moves work between the recursion
    and the general engine, and the memo key, the order succ as given,
    does not depend on it."""
    scan = _scan(succ)
    _, has_pred, has_succ, _, pred = scan
    s, comps = _factors(succ, scan)
    if s or len(comps) != 1 or has_pred | has_succ != (1 << len(succ)) - 1:
        parts = [pattern_census(_factor(succ, scan, K), ctx) for K in comps]
        if len(parts) == 1:
            return scale_census(parts[0], 0, s, 0)
        if not any(part.unresolved or part.families for part in parts):
            poly = CountPoly({(s, 0): 1})
            for part in parts:
                poly = poly * part.resolved
            return Census(poly, (), ())

    node, c0 = choose_peel(succ, scan)
    D = node[c0]
    # c0 is below every element of D: dropping it leaves their closure as is
    if node is not succ:
        pred = _preds(node, D)
    below = normal_closure(node, pred, D)
    # deleting c0: positions past it move down by one, in D and E too
    low = (1 << c0) - 1
    rest = _delete(node, c0)
    rows = _bits(D & low | D >> 1 & ~low)

    parts = []
    for E, clos_p, seen, clean in antichains(D, below, pred):
        if clean:
            # no row of D sees two elements of E: the complement, with the
            # columns of E deleted from the rows in D
            keep, sub = ~(E & low | E >> 1 & ~low), rest[:]
            for j in rows:
                sub[j] &= keep
            part = pattern_census(tuple(sub), ctx)
        else:
            part = census(stabilizer_data(node, c0, E), ctx)
        parts.append((part, E.bit_count(), (clos_p & ~(E | seen)).bit_count(),
                      seen.bit_count()))
    return aggregate(parts)


def unitriangular_census(n: int, ctx: EngineContext) -> Census:
    """Character breakdown of U_n(q) via the pattern fast path."""
    if n < 1:
        raise ValueError("n must be positive")
    return pattern_census(chain(n).masks(), ctx)
