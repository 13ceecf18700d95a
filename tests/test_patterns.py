import random

import pytest


from unicount.algdata import AlgebraicData, MalformedData
from unicount.engine import Census, EngineContext, census, resolve
from unicount.oracle import census_disagreement, orbit_of_vector
from unicount.patterns import (Poset, _bits, _extension_rank, _preds, antichains,
                               chain, choose_peel, encode_pattern, normal_closure,
                               pattern_census, stabilizer_data,
                               unitriangular_census)
from unicount.polyring import CountPoly

from conftest import (engine_bound_posets, first_node, random_poset_pairs,
                      reference_antichains, top_and_closure)


# the mask routines of patterns, on labelled input

def poset_of(succ) -> Poset:
    """The order of successor masks succ, labelled by position (checked)."""
    return Poset(range(len(succ)), [(a, b) for a, m in enumerate(succ) for b in _bits(m)])


def labelled_dual(poset: Poset) -> Poset:
    """Reference: the dual order, each label e negated, so that positions
    run backwards and a label extends the dual when it extends the order."""
    return Poset([-e for e in poset.elems], [(-b, -a) for a, b in poset.rel], check=False)


def labelled_peel(poset: Poset) -> tuple[Poset, int | None]:
    """The labelled order ``choose_peel`` runs the row procedure on, poset
    or ``labelled_dual(poset)``, and the label of the minimal element
    whose row it peels; None when there is no relation."""
    succ = poset.masks()
    node, c0 = choose_peel(succ)
    if node != succ:
        poset = labelled_dual(poset)
        assert poset.masks() == node
    return poset, poset.elems[c0] if c0 >= 0 else None


def reference_split(poset: Poset) -> tuple[int, list[Poset]]:
    """Reference: the direct factors of the algebra of poset, from the
    product classes of its relations, the classes of the relation that
    links (a, b), (b, c) and (a, c) for each chain a < b < c.  Returns the
    number of classes of one relation, the spare ones, and the order of
    each other class on the elements it relates, by the lowest position
    of the middle elements of its chains."""
    root = {p: p for p in poset.rel}

    def find(p):
        while root[p] != p:
            p = root[p]
        return p

    above: dict[int, list[int]] = {}
    for a, b in poset.rel:
        above.setdefault(a, []).append(b)
    middle = {}                 # the middle element of a chain -> a pair of its chain
    for a, b in poset.rel:
        for c in above.get(b, ()):
            for p in ((b, c), (a, c)):
                root[find(p)] = find((a, b))
            middle[b] = (a, b)
    classes: dict[tuple, set] = {}
    for p in poset.rel:
        classes.setdefault(find(p), set()).add(p)
    pos = {e: i for i, e in enumerate(poset.elems)}
    first = {}                  # class -> the lowest position of a middle element
    for b, p in middle.items():
        r = find(p)
        first[r] = min(first.get(r, pos[b]), pos[b])
    spare = sum(len(c) == 1 for c in classes.values())
    factors = [Poset({e for p in classes[r] for e in p}, classes[r])
               for r in sorted(first, key=first.__getitem__)]
    return spare, factors


def expanded(succ) -> bool:
    """Whether ``_pattern_core`` runs the row procedure on the order succ:
    its algebra is one direct factor, with no spare relation and no
    element in no relation (``reference_split``)."""
    p = Poset(range(len(succ)), [(a, b) for a, m in enumerate(succ) for b in _bits(m)],
              check=False)
    spare, factors = reference_split(p)
    return not spare and len(factors) == 1 and factors[0].elems == p.elems


def labelled_closure(rel: frozenset, ground, within) -> frozenset:
    """patterns.normal_closure of (ground, rel) on within, as labelled pairs."""
    ground = sorted(ground)
    succ = Poset(ground, rel, check=False).masks()
    below = normal_closure(succ, _preds(succ), sum(1 << ground.index(e) for e in within))
    return frozenset((ground[k], ground[ll]) for ll, m in below.items() for k in _bits(m))


def labelled_walk(D, rel: frozenset, order: frozenset | None = None) -> list[tuple]:
    """patterns.antichains on (D, rel), rows seeing through order (rel by
    default): each antichain with its closure in D, the rows of D that
    see an element of it, and whether no row sees two."""
    D = sorted(D)
    order = rel if order is None else order
    below = {i: sum(1 << j for j, k in enumerate(D) if (k, ll) in rel)
             for i, ll in enumerate(D)}
    pred = [sum(1 << j for j, k in enumerate(D) if (k, ll) in order) for ll in D]

    def labels(mask):
        return frozenset(D[i] for i in _bits(mask))

    return [(labels(E), labels(clos), labels(seen), clean)
            for E, clos, seen, clean in antichains((1 << len(D)) - 1, below, pred)]


def labelled_antichains(D, rel: frozenset) -> list[frozenset]:
    return [E for E, *_ in labelled_walk(D, rel)]


def labelled_stabilizer(poset: Poset, c0: int, E) -> AlgebraicData:
    """patterns.stabilizer_data for the labelled element c0 and antichain E."""
    pos = {e: i for i, e in enumerate(poset.elems)}
    return stabilizer_data(poset.masks(), pos[c0], sum(1 << pos[d] for d in E))


def labelled_rank(poset: Poset) -> dict[int, int]:
    """Each element's rank in the least linear extension of poset."""
    rank = _extension_rank(poset.masks())
    return {e: rank[i] for i, e in enumerate(poset.elems)}


class TestPoset:
    def test_rejects_reflexive(self):
        with pytest.raises(Exception):
            Poset([1, 2], [(1, 1)])

    def test_rejects_intransitive(self):
        with pytest.raises(Exception):
            Poset([1, 2, 3], [(1, 2), (2, 3)])

    def test_rejects_repeated_element(self):
        with pytest.raises(MalformedData):
            Poset([1, 2, 2, 3], [(1, 2), (2, 3), (1, 3)])

    def test_json_round_trip(self):
        p = chain(4)
        assert Poset.from_json(p.to_json()) == p


class TestTopAndClosure:
    def test_chain_prefix(self):
        p = chain(3)
        top, clos = top_and_closure({1, 2}, p.rel, p.elems)
        assert top == {2} and clos == {1, 2}

    def test_empty(self):
        p = chain(3)
        assert top_and_closure(set(), p.rel, p.elems) == (set(), set())

    def test_vee(self):
        p = Poset([1, 2, 3], [(1, 3), (2, 3)])
        top, clos = top_and_closure({3}, p.rel, p.elems)
        assert top == {3} and clos == {1, 2, 3}


def _closure_of_order(rel: frozenset, order) -> frozenset:
    """Reference: the normal closure of the linear extension order.

    For k before l in the total order, (k, l) is in the closure iff every
    predecessor of k precedes l and every successor of l succeeds k.
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


def _linear_extensions(elems, rel):
    elems = list(elems)
    if not elems:
        yield []
        return
    for e in elems:
        if not any((a, e) in rel for a in elems):
            for rest in _linear_extensions([x for x in elems if x != e], rel):
                yield [e] + rest


class TestNormalClosure:
    def test_total_order_is_fixed_point(self):
        p = chain(3)
        assert labelled_closure(p.rel, [1, 2, 3], [1, 2, 3]) == p.rel

    def test_single_pair_completes(self):
        out = labelled_closure(frozenset({(1, 3)}), [1, 2, 3], [1, 2, 3])
        assert out == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_empty_relation_completes(self):
        out = labelled_closure(frozenset(), [1, 2, 3], [1, 2, 3])
        assert out == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_greatest_closure_of_any_linear_extension(self):
        rng = random.Random(17)
        for _ in range(300):
            m, rel = random_poset_pairs(rng, max_elems=6)
            rel, elems = frozenset(rel), range(1, m + 1)
            out = labelled_closure(rel, elems, elems)
            assert rel <= out
            assert all((a, d) in out for a, b in out for c, d in out if b == c)
            twins = {(k, ll) for k in elems for ll in elems if k != ll and
                     {a for a, b in rel if b == k} == {a for a, b in rel if b == ll} and
                     {b for a, b in rel if a == k} == {b for a, b in rel if a == ll}}
            closures = []
            for order in _linear_extensions(elems, rel):
                clos = _closure_of_order(rel, order)
                closures.append(clos)
                # an extension that orders elements of equal pred and succ
                # by label, as the result does, has no pair outside it
                if all(order.index(k) < order.index(ll) for k, ll in twins if k < ll):
                    assert clos <= out
            assert out in closures
            assert len(out) == max(map(len, closures))
            D = [b for a, b in rel if a == 1]
            assert labelled_closure(rel, elems, D) == frozenset(
                (k, ll) for k, ll in out if k in D and ll in D)


def test_pattern_core_makes_one_closure_over_its_row(monkeypatch):
    # each _pattern_core that expands its order coarsens the row D of the
    # c0 it peels, in the order or its dual, through one normal closure,
    # computed on D only; one with no chain of three or with an element
    # in no pair makes none.  A node with no clean minimal row and no
    # clean maximal column first makes one closure per minimal row of the
    # order and of its dual that it scores, each at most once, the
    # largest first
    from unicount import patterns
    calls = []          # per open _pattern_core: the rows of its closures
    real_core, real_closure = patterns._pattern_core, patterns.normal_closure
    scored = []

    def core(succ, ctx):
        calls.append([])
        try:
            return real_core(succ, ctx)
        finally:
            made = calls.pop()
            if not expanded(succ):
                assert made == []
            else:
                calls.append([])        # the closures of this call are not the node's
                node, c0 = choose_peel(succ)
                calls.pop()
                assert made[-1] == (node, node[c0])
                if patterns_peel_is_clean(succ):
                    assert len(made) == 1
                else:
                    dual = patterns._dual(succ)
                    lines = [(s, s[c]) for s in (succ, dual) for c in minimal_rows(s)]
                    assert len(set(made[:-1])) == len(made) - 1 >= 1
                    assert all(line in lines for line in made[:-1])
                    sizes = [D.bit_count() for _, D in made[:-1]]
                    assert sizes == sorted(sizes, reverse=True)
                    scored.append(len(made) - 1)

    def closure(succ, pred, D):
        calls[-1].append((succ, D))
        below = real_closure(succ, pred, D)
        assert sorted(below) == _bits(D)
        return below

    # with orders whose first node has no clean line
    bound = engine_bound_posets(random.Random(7), 10)
    monkeypatch.setattr(patterns, "_pattern_core", core)
    monkeypatch.setattr(patterns, "normal_closure", closure)
    unitriangular_census(8, EngineContext())
    rng = random.Random(5)
    for _ in range(20):
        m, rel = random_poset_pairs(rng, max_elems=6)
        pattern_census(Poset(range(1, m + 1), rel), EngineContext())
    for m, rel in bound:
        pattern_census(Poset(range(1, m + 1), rel), EngineContext())
    assert len(scored) >= 10 and max(scored) > 1


class TestAntichains:
    def test_chain_gives_singletons(self):
        p = chain(3)
        out = labelled_antichains(p.elems, p.rel)
        assert len(out) == 4
        assert frozenset() in out

    def test_discrete_poset_gives_all_subsets(self):
        out = labelled_antichains([1, 2], frozenset())
        assert len(out) == 4
        assert frozenset({1, 2}) in out

    def test_empty_ground(self):
        assert labelled_antichains([], frozenset()) == [frozenset()]

    def test_counts(self):
        # n-chain has n+1 antichains; m-element antichain has 2^m
        for n in range(1, 6):
            assert len(labelled_antichains(range(n), frozenset())) == 2**n
            p = chain(n)
            assert len(labelled_antichains(p.elems, p.rel)) == n + 1

    def test_walk_is_the_sorted_reference(self):
        # the walk yields the reference's antichains in its order, each
        # with its downward closure, the rows that see it and whether it
        # is clean, on any relation and any row
        rng = random.Random(61)
        for _ in range(300):
            m, rel = random_poset_pairs(rng, max_elems=7)
            rel = frozenset(rel)
            D = rng.sample(range(1, m + 1), rng.randint(0, m))
            walk = labelled_walk(D, rel)
            assert [E for E, *_ in walk] == sorted(reference_antichains(D, rel),
                                                   key=lambda s: tuple(sorted(s)))
            for E, clos, _, _ in walk:
                assert clos == top_and_closure(E, rel, D)[1]
            self.check_rows(m, rel, D, walk)
            if m and D:
                # and on the closure a pattern node coarsens its row to,
                # with rows seeing through the order itself
                pbar = labelled_closure(rel, range(1, m + 1), D)
                walk = labelled_walk(D, pbar, rel)
                assert [E for E, *_ in walk] == reference_antichains(D, pbar)
                self.check_rows(m, rel, D, walk)

    @staticmethod
    def check_rows(m, rel, D, walk):
        """seen is the union of pred[d] & D over d in E, and clean is
        ``row_disjoint``, in the order rel on 1..m at positions label - 1."""
        succ = Poset(range(1, m + 1), rel, check=False).masks()
        pred, D_mask = _preds(succ), sum(1 << i - 1 for i in D)
        for E, _, seen, clean in walk:
            E_mask = sum(1 << d - 1 for d in E)
            rows = 0
            for d in E:
                rows |= pred[d - 1] & D_mask
            assert seen == frozenset(i + 1 for i in _bits(rows))
            assert clean == row_disjoint(succ, D_mask, E_mask)


class TestEncodePattern:
    def test_two_chain(self):
        data = encode_pattern(chain(2))
        assert len(data.basis) == 1 and not data.prods

    def test_three_chain_is_heisenberg(self):
        data = encode_pattern(chain(3))
        assert len(data.basis) == 3
        assert len(data.prods) == 1

    def test_chain_dimension(self):
        assert len(encode_pattern(chain(13)).basis) == 78

    def test_parameter_free(self):
        data = encode_pattern(chain(5))
        assert data.params == () and data.satisfies_nz()


class TestStabilizerData:
    def test_empty_antichain_is_full_complement(self):
        p = chain(4)
        data = labelled_stabilizer(p, 1, frozenset())
        assert data == encode_pattern(chain(3))  # relabelled [2,4] chain

    def test_singleton_strips_column(self):
        p = chain(4)
        data = labelled_stabilizer(p, 1, frozenset({3}))
        # rows 2..4 with the (2,3) entry removed: edges (2,4), (3,4)
        assert len(data.basis) == 2
        assert not data.prods

    def test_pair_matches_bruteforce_annihilator(self):
        # poset 1 < {2, 3} merged columns: compare with explicit linear algebra
        p = Poset([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (4, 2), (4, 3)])
        data = labelled_stabilizer(p, 1, frozenset({2, 3}))
        data.validate()
        # L has basis e_{4,2}, e_{4,3}; the annihilator of e_2 - e_3 forces
        # a_{42} = a_{43}: dimension 1, zero multiplication
        assert len(data.basis) == 1
        assert not data.prods

    def test_pair_products_close(self):
        rng = random.Random(23)
        for _ in range(40):
            m, rel = random_poset_pairs(rng, max_elems=6)
            p = Poset(range(1, m + 1), rel)
            minimals = [e for e in p.elems if not any(b == e for _, b in rel)]
            c0 = minimals[0]
            D = sorted(d for d in p.elems if (c0, d) in p.rel)
            pairs = [(a, b) for i, a in enumerate(D) for b in D[i + 1:]
                     if (a, b) not in rel and (b, a) not in rel]
            for pair in pairs[:2]:
                data = labelled_stabilizer(p, c0, frozenset(pair))
                data.validate()


def reference_pair_stabilizer(poset: Poset, B: list[int], D: set[int],
                              e_pair: frozenset) -> AlgebraicData:
    """The former pair-only builder: the annihilator of e_k - e_l inside
    the complement of row c_0, spanned by the untouched matrix units and
    f_i = e_{ik} + e_{il}, with every product written out by hand."""
    rank = labelled_rank(poset)
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


def row_disjoint(succ, D: int, E: int) -> bool:
    """No row of D sees two elements of E."""
    return all((succ[i] & E).bit_count() <= 1 for i in _bits(D))


def row_rule(succ, scan=None):
    """``choose_peel`` restricted to the rows of succ: the rule before
    columns could be peeled."""
    from unicount import patterns
    return succ, patterns._peel_row(succ, scan)[0]


def test_pair_stabilizers_match_the_reference(monkeypatch):
    # every |E| = 2 antichain of every order the pattern path recurses on,
    # under T_12 and random posets whose first node reaches the general
    # engine: stabilizer_data gives the stabiliser the former pair-only
    # builder gave, both where the pattern path calls it and where it
    # deletes cells instead
    from unicount import patterns
    real = patterns.pattern_census
    orders = set()

    def recorded(poset, ctx):
        orders.add(poset.masks() if isinstance(poset, Poset) else poset)
        return real(poset, ctx)

    monkeypatch.setattr(patterns, "pattern_census", recorded)
    patterns.unitriangular_census(12, EngineContext())
    # orders whose first node hands an antichain to the general engine
    for m, rel in engine_bound_posets(random.Random(43), 40):
        patterns.pattern_census(Poset(range(1, m + 1), rel), EngineContext())
    compared = {True: 0, False: 0}
    for succ in sorted(orders):
        if not any(succ):
            continue
        node, c0, D, walk = first_node(succ)
        for E, *_ in walk:
            if E.bit_count() == 2:
                data = stabilizer_data(node, c0, E)
                poset = poset_of(node)
                B = [c for c in poset.elems if c != c0]
                want = reference_pair_stabilizer(poset, B, set(_bits(D)), frozenset(_bits(E)))
                assert data.key() == want.key() and data.basis == want.basis, (poset, c0, E)
                compared[row_disjoint(node, D, E)] += 1
    assert compared[True] > 40 and compared[False] > 40, compared


def brute_force_annihilator_dimension(p: Poset, c0: int, u_coeffs: dict, q: int) -> int:
    """dim of Ann_L(u) for u in F_q^D, by row reduction over F_q."""
    from unicount.ffield import get_field
    f = get_field(q)
    D = sorted(d for d in p.elems if (c0, d) in p.rel)
    L_pairs = [(a, b) for (a, b) in sorted(p.rel) if a != c0 and b != c0]
    # constraint per row d in D: sum_j a_{dj} u_j = 0
    rows = []
    for d in D:
        row = []
        for (a, b) in L_pairs:
            row.append(u_coeffs.get(b, 0) if a == d and b in D else 0)
        rows.append(row)
    # rank over F_q
    rank = 0
    ncols = len(L_pairs)
    pivot_col = 0
    rows = [r[:] for r in rows]
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return ncols - rank


def test_pair_stabilizer_dimension_matches_linear_algebra():
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        m, rel = random_poset_pairs(rng, max_elems=6)
        p = Poset(range(1, m + 1), rel)
        minimals = [e for e in p.elems if not any(b == e for _, b in rel)]
        c0 = minimals[0]
        D = sorted(d for d in p.elems if (c0, d) in p.rel)
        pairs = [(a, b) for i, a in enumerate(D) for b in D[i + 1:]
                 if (a, b) not in rel and (b, a) not in rel]
        if not pairs:
            continue
        k, ll = pairs[0]
        data = labelled_stabilizer(p, c0, frozenset({k, ll}))
        want = brute_force_annihilator_dimension(p, c0, {k: 1, ll: 1}, 2)
        assert len(data.basis) == want
        checked += 1

    # |E| = 3 and 4 at q = 3, where -1 differs from +1: the builder's
    # coefficients alternate +1, -1 along the least linear extension
    q = 3
    left = {3: 8, 4: 4}
    while any(left.values()):
        m, rel = random_poset_pairs(rng, max_elems=7)
        p = Poset(range(1, m + 1), rel)
        rank = labelled_rank(p)
        minimals = [e for e in p.elems if not any(b == e for _, b in rel)]
        c0 = minimals[0]
        D = sorted(d for d in p.elems if (c0, d) in p.rel)
        for E in reference_antichains(D, p.rel):
            if left.get(len(E)):
                data = labelled_stabilizer(p, c0, E)
                data.validate()
                u = {d: 1 if n % 2 == 0 else q - 1
                     for n, d in enumerate(sorted(E, key=rank.__getitem__))}
                assert len(data.basis) == brute_force_annihilator_dimension(p, c0, u, q)
                left[len(E)] -= 1


def reference_pattern_key(poset: Poset):
    """The former pattern memo key: the relation relabelled by position."""
    relabel = {e: i for i, e in enumerate(poset.elems)}
    return len(poset.elems), frozenset((relabel[a], relabel[b]) for a, b in poset.rel)


def reference_closure(rel: frozenset, ground, within) -> frozenset:
    """Reference: the former labelled greatest normal closure on within."""
    pred = {e: set() for e in ground}
    succ = {e: set() for e in ground}
    for a, b in rel:
        pred[b].add(a)
        succ[a].add(b)
    within = list(within)
    return frozenset((k, ll) for k in within for ll in within
                     if k != ll and pred[k] <= pred[ll] and succ[ll] <= succ[k]
                     and (k < ll or pred[k] != pred[ll] or succ[k] != succ[ll]))


def small_stabilizer(B: list[int], P: frozenset, D: set[int], E: frozenset) -> Poset:
    """Reference: the labelled stabiliser poset of an antichain E no row of
    D sees two elements of, the complement (B, P) with the columns of E
    deleted from the rows in D."""
    return Poset(B, frozenset(p for p in P if not (p[1] in E and p[0] in D)), check=False)


def reference_lookups(poset: Poset, out: list, seen: set) -> list:
    """Reference: the keys a labelled recursion looks up under poset, in
    order; a key looked up before is not looked into again.  A poset
    whose algebra is not one factor alone (``reference_split``) looks up
    its factors in turn; this assumes that no factor's census holds a
    record or family, which would make the pattern path expand the poset
    instead.  Otherwise it recurses into the antichains no row of D sees
    two elements of, as the pattern path does."""
    key = reference_pattern_key(poset)
    out.append(key)
    if key in seen:
        return out
    seen.add(key)
    spare, factors = reference_split(poset)
    if spare or len(factors) != 1 or factors[0].elems != poset.elems:
        for factor in factors:
            reference_lookups(factor, out, seen)
        return out
    poset, c0 = labelled_peel(poset)
    D = sorted(d for d in poset.elems if (c0, d) in poset.rel)
    B = [c for c in poset.elems if c != c0]
    P = frozenset((a, b) for a, b in poset.rel if c0 not in (a, b))
    for E in reference_antichains(D, reference_closure(P, B, D)):
        if all(sum((i, d) in P for d in E) <= 1 for i in D):
            reference_lookups(small_stabilizer(B, P, set(D), E), out, seen)
    return out


def test_pattern_keys_group_posets_as_the_reference(monkeypatch):
    # every order looked up under T_8 and under 40 random posets with
    # skipped and shuffled labels is the one the labelled reference
    # recursion looks up, in the same order, and the mask key groups the
    # labelled posets as the relation relabelled by position does
    from unicount import patterns
    real = patterns.pattern_census
    seen = []

    def recorded(poset, ctx):
        seen.append(poset)
        return real(poset, ctx)

    monkeypatch.setattr(patterns, "pattern_census", recorded)
    tops = [chain(8)]
    rng = random.Random(53)
    for _ in range(40):
        m, rel = random_poset_pairs(rng, max_elems=7)
        perm = dict(zip(range(1, m + 1), rng.sample(range(1, 30), m)))
        tops.append(Poset(perm.values(), [(perm[a], perm[b]) for a, b in rel]))
    for top in tops:
        seen.clear()
        patterns.pattern_census(top, EngineContext())
        assert seen[0] is top
        got = [reference_pattern_key(top)] + [reference_pattern_key(poset_of(s)) for s in seen[1:]]
        assert got == reference_lookups(top, [], set()), top
        for succ in seen[1:]:
            assert type(succ) is tuple and all(type(m) is int for m in succ)
    by_key, by_ref = {}, {}
    for _ in range(300):
        m, rel = random_poset_pairs(rng, max_elems=5)
        perm = dict(zip(range(1, m + 1), rng.sample(range(1, 9), m)))
        poset = Poset(perm.values(), [(perm[a], perm[b]) for a, b in rel])
        key, ref = poset.masks(), reference_pattern_key(poset)
        assert type(key) is tuple and all(type(m) is int for m in key)
        assert by_key.setdefault(key, ref) == ref, poset
        assert by_ref.setdefault(ref, key) == key, poset
    assert len(by_key) < 300


class TestPatternCensus:
    def test_zero_relation_base_case(self, ctx):
        # T_{C, empty} is the zero algebra: exactly one character, on the
        # empty ground set too
        for order in (Poset([1, 2, 3, 4], []), Poset([], []), ()):
            assert pattern_census(order, ctx) == Census(CountPoly.one(), (), ())

    def test_three_chain(self, ctx):
        out = unitriangular_census(3, ctx)
        assert out.resolved.terms == {(2, 0): 1, (1, 1): 1, (0, 1): -1}

    def test_agrees_with_general_engine(self, shared_ctx):
        for n in range(1, 7):
            fast = unitriangular_census(n, shared_ctx)
            slow = census(encode_pattern(chain(n)), shared_ctx)
            assert fast == slow, f"paths disagree at n={n}"

    def test_nonchain_poset_against_class_count(self, shared_ctx):
        from unicount.oracle import verify_census
        rng = random.Random(31)
        checked = 0
        while checked < 15:
            m, rel = random_poset_pairs(rng, max_elems=5)
            p = Poset(range(1, m + 1), rel)
            if len(rel) > 6:
                continue
            out = pattern_census(p, shared_ctx)
            data = encode_pattern(p)
            for q0 in (2, 3):
                rep = verify_census(data, out, q0)
                assert rep["pass"], (p, rep)
            checked += 1

    def test_minus_one_stabilizer_against_general_engine(self):
        # a poset whose stabilisers need a -1 coefficient; storing it as
        # +1 changes this table, and no random poset of up to 8 elements
        # tried showed that fault
        p = Poset(range(1, 11), [(1, 4), (1, 5), (1, 8), (1, 9), (1, 10), (3, 4), (3, 5),
                                 (3, 8), (3, 9), (3, 10), (4, 5), (4, 8), (4, 9), (4, 10),
                                 (5, 8), (5, 9), (6, 8), (6, 10)])
        fast = resolve(pattern_census(p, EngineContext(validate=True)), 10)
        slow = resolve(census(encode_pattern(p), EngineContext()), 10)
        assert fast.entries == slow.entries and not fast.unresolved

    def test_wide_posets_against_general_engine(self, monkeypatch):
        # random posets reaching a stabiliser of |E| >= 3: the pattern path
        # against the whole-poset engine, and against class counts when
        # small.  Orders this small almost never keep a dirty row when
        # columns may be peeled too, so the rule of rows only is patched in
        from unicount import patterns
        from unicount.oracle import verify_census
        monkeypatch.setattr(patterns, "choose_peel", row_rule)
        real = patterns.stabilizer_data
        widest = []

        def recorded(succ, c0, E):
            widest.append(E.bit_count())
            return real(succ, c0, E)

        monkeypatch.setattr(patterns, "stabilizer_data", recorded)
        rng = random.Random(47)
        checked = 0
        while checked < 25:
            m, rel = random_poset_pairs(rng, max_elems=8)
            # skip, without computing it, a poset whose first node sees no
            # 3-antichain in the order the pattern path coarsens to
            if not rel:
                continue
            p = Poset(range(1, m + 1), rel)
            walk = first_node(p.masks())[3]
            if max(E.bit_count() for E, *_ in walk) < 3:
                continue
            widest.clear()
            out = pattern_census(p, EngineContext())
            if max(widest, default=0) < 3:
                continue
            data = encode_pattern(p)
            assert not resolve(out, m).unresolved, p
            assert census_disagreement(out, census(data, EngineContext()), m) is None, p
            if len(rel) <= 10:
                for q0 in (2, 3):
                    rep = verify_census(data, out, q0)
                    assert rep["pass"], (p, rep)
            checked += 1


class TestReversedLabels:
    """Poset element labels need not align with the ambient int order."""

    def test_census_against_brute_force(self, shared_ctx):
        from unicount.oracle import verify_census
        p = Poset([1, 2, 3, 4, 5], [(5, 3), (3, 1), (5, 1), (5, 2)])
        out = pattern_census(p, shared_ctx)
        data = encode_pattern(p)
        for q0 in (2, 3):
            assert verify_census(data, out, q0)["pass"]

    def test_pair_stabilizer_reordered_when_needed(self, shared_ctx):
        from unicount.oracle import verify_census
        cases = [
            # 3 < 2: ordering rows by label would put a product before a factor
            (range(1, 6), [(1, 2), (1, 3), (3, 2), (4, 2), (4, 5)], 4, {2, 5}),
            # 4 precedes 3 in the least extension: f_2 must sit at column 4
            (range(1, 7), [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                           (4, 5), (6, 3)], 1, {3, 4}),
        ]
        for elems, rel, c0, pair in cases:
            data = labelled_stabilizer(Poset(elems, rel), c0, frozenset(pair))
            data.validate()
            out = census(data, shared_ctx)
            for q0 in (2, 3):
                assert verify_census(data, out, q0)["pass"]

    def test_shuffled_labels_give_the_natural_table(self, shared_ctx):
        rng = random.Random(41)
        for _ in range(100):
            m, rel = random_poset_pairs(rng, max_elems=7)
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            natural = Poset(range(1, m + 1), rel)
            shuffled = Poset(perm.values(), [(perm[a], perm[b]) for a, b in rel])
            want = resolve(pattern_census(natural, shared_ctx), m, shared_ctx)
            got = resolve(pattern_census(shuffled, EngineContext()), m)
            assert got.entries == want.entries, shuffled

    def test_relabelled_encodings_agree_with_the_pattern_path(self, shared_ctx):
        # labels that do not extend the order leave the unit order to the
        # least linear extension, in encode_pattern and stabilizer_data alike
        def table(c, n):
            t = resolve(c, n)
            assert not t.unresolved
            return t.entries

        rng = random.Random(47)
        for _ in range(300):
            m, rel = random_poset_pairs(rng, max_elems=7)
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            p = Poset(perm.values(), [(perm[a], perm[b]) for a, b in rel])
            data = encode_pattern(p)
            data.validate()
            want = table(pattern_census(Poset(range(1, m + 1), rel), shared_ctx), m)
            assert table(pattern_census(p, EngineContext()), m) == want, p
            assert table(census(data, EngineContext()), m) == want, p
            # every |E| <= 1 stabiliser of the first node of the recursion,
            # in the order or its dual, or of the first element when there
            # is no relation
            p, c0 = labelled_peel(p)
            c0 = p.elems[0] if c0 is None else c0
            B = [c for c in p.elems if c != c0]
            D = {d for d in p.elems if (c0, d) in p.rel}
            P = frozenset((a, b) for a, b in p.rel if c0 not in (a, b))
            for E in [frozenset()] + [frozenset({d}) for d in D]:
                got = census(labelled_stabilizer(p, c0, E), EngineContext())
                ref = pattern_census(small_stabilizer(B, P, D, E), EngineContext())
                assert table(got, m - 1) == table(ref, m - 1), (p, E)


class TestMaskRecursion:
    """Metamorphic and differential checks of the recursion on masks."""

    def test_relabelled_and_dual_posets_give_the_same_table(self, shared_ctx):
        # T_{C,R^op} is T_{C,R}^op, and 1 + A^op is 1 + A through inversion;
        # a relabelling that reverses some pair of R changes only masks
        rng = random.Random(67)
        for _ in range(150):
            m, rel = random_poset_pairs(rng, max_elems=7)
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            while rel and all(perm[a] < perm[b] for a, b in rel):
                perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            want = resolve(pattern_census(Poset(range(1, m + 1), rel), shared_ctx), m)
            assert not want.unresolved
            for p in (Poset(perm.values(), [(perm[a], perm[b]) for a, b in rel]),
                      Poset(range(1, m + 1), [(b, a) for a, b in rel])):
                got = resolve(pattern_census(p, EngineContext()), m)
                assert got.entries == want.entries and not got.unresolved, p

    def test_against_class_counts(self, shared_ctx):
        from unicount.oracle import verify_census
        rng = random.Random(71)
        checked = 0
        while checked < 12:
            m, rel = random_poset_pairs(rng, max_elems=7)
            if len(rel) > 10:
                continue
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            p = Poset(perm.values(), [(perm[a], perm[b]) for a, b in rel])
            out = pattern_census(p, shared_ctx)
            data = encode_pattern(p)
            for q0 in (2, 3):
                rep = verify_census(data, out, q0)
                assert rep["pass"], (p, rep)
            checked += 1


class TestRowDisjointAntichains:
    """An antichain E that no row of D sees two elements of has the pattern
    algebra of the complement, with the columns of E deleted from the rows
    in D, as its stabiliser; the pattern path recurses into it."""

    def test_deleted_order_against_the_stabilizer_and_brute_force(self):
        from unicount.oracle import verify_census
        rng = random.Random(73)
        compared = brute = 0
        while compared < 60:
            m, rel = random_poset_pairs(rng, max_elems=8)
            if not rel:
                continue
            node, c0, D, walk = first_node(Poset(range(1, m + 1), rel).masks())
            # the order the node peels, or its dual, labelled by position
            p = poset_of(node)
            for E, *_ in walk:
                if E.bit_count() < 2 or not row_disjoint(node, D, E):
                    continue
                rows, cols = set(_bits(D)), set(_bits(E))
                deleted = Poset([c for c in p.elems if c != c0],
                                [(a, b) for a, b in p.rel if c0 not in (a, b)
                                 and not (a in rows and b in cols)])
                fast = pattern_census(deleted, EngineContext())
                data = stabilizer_data(node, c0, E)
                slow = census(data, EngineContext())
                assert census_disagreement(fast, slow, m - 1) is None, (p, E)
                if len(deleted.rel) <= 7:
                    for q0 in (2, 3):
                        assert verify_census(encode_pattern(deleted), fast, q0)["pass"], (p, E)
                        assert verify_census(data, slow, q0)["pass"], (p, E)
                    brute += 1
                compared += 1
        assert brute >= 20

    def test_stabilizer_data_only_for_rows_that_see_two(self, monkeypatch):
        # stabilizer_data is called for every antichain that some row of D
        # sees two elements of, at every order expanded, and for no other
        from unicount import patterns
        real_census, real_data = patterns.pattern_census, patterns.stabilizer_data
        orders, calls = set(), []

        def recorded(poset, ctx):
            orders.add(poset.masks() if isinstance(poset, Poset) else poset)
            return real_census(poset, ctx)

        def routed(succ, c0, E):
            assert not row_disjoint(succ, succ[c0], E), (succ, c0, E)
            calls.append((succ, c0, E))
            return real_data(succ, c0, E)

        monkeypatch.setattr(patterns, "pattern_census", recorded)
        monkeypatch.setattr(patterns, "stabilizer_data", routed)
        # and orders whose first node hands an antichain to the general engine
        tops = [chain(12)] + [Poset(range(1, m + 1), rel) for m, rel in
                              engine_bound_posets(random.Random(79), 40)]
        routed_total = 0
        for top in tops:
            orders.clear()
            calls.clear()
            patterns.pattern_census(top, EngineContext())
            want = []
            for succ in sorted(orders):
                if expanded(succ):
                    node, c0, D, walk = first_node(succ)
                    want += [(node, c0, E) for E, *_ in walk
                             if not row_disjoint(node, D, E)]
            assert sorted(calls) == sorted(want), top
            routed_total += len(want)
        assert routed_total > 40

    @pytest.mark.parametrize("n, nodes", [(9, 0), (10, 0), (11, 0), (12, 182)])
    def test_engine_nodes_of_the_chain(self, n, nodes):
        # deterministic: the general engine is reached only through
        # antichains that some row sees two elements of, so only from
        # nodes with no clean minimal row and no clean maximal column, and
        # only when every minimal row and maximal column hands it some
        ctx = EngineContext()
        unitriangular_census(n, ctx)
        assert ctx.nodes == nodes

    def test_pattern_entries_of_the_chain(self):
        # deterministic: the orders U_12 looks up, each factor and each
        # order that expands under its own masks
        ctx = EngineContext()
        unitriangular_census(12, ctx)
        assert (len(ctx.memo_pattern), ctx.nodes) == (3963, 182)


def random_height_two(rng: random.Random, max_elems: int = 8):
    """A random order on 1..m with no chain of three: its pairs run from a
    random set of lower elements to the others."""
    m = rng.randint(1, max_elems)
    low = {e for e in range(1, m + 1) if rng.random() < 0.5}
    return m, {(a, b) for a in low for b in range(1, m + 1)
               if b not in low and rng.random() < 0.5}


def count_nodes(monkeypatch) -> dict:
    """Counts, from now on, of the ``_pattern_core`` calls and of the
    normal closures they make."""
    from unicount import patterns
    real_core, real_closure = patterns._pattern_core, patterns.normal_closure
    made = {"cores": 0, "closures": 0}

    def core(succ, ctx):
        made["cores"] += 1
        return real_core(succ, ctx)

    def closure(succ, pred, D):
        made["closures"] += 1
        return real_closure(succ, pred, D)

    monkeypatch.setattr(patterns, "_pattern_core", core)
    monkeypatch.setattr(patterns, "normal_closure", closure)
    return made


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """p and q side by side, the labels of q moved past those of p."""
    shift = max(p.elems, default=0)
    return Poset(p.elems + tuple(e + shift for e in q.elems),
                 p.rel | {(a + shift, b + shift) for a, b in q.rel})


def spare_pairs(poset: Poset) -> list[tuple[int, int]]:
    """The incomparable pairs (a, b) of a minimal a and a maximal b: each
    can be added to poset as a spare relation, as nothing lies between."""
    minimal = [e for e in poset.elems if not any(b == e for _, b in poset.rel)]
    maximal = [e for e in poset.elems if not any(a == e for a, _ in poset.rel)]
    return [(a, b) for a in minimal for b in maximal
            if a != b and (a, b) not in poset.rel and (b, a) not in poset.rel]


def random_factor(rng: random.Random, max_elems: int) -> Poset:
    """A random order on 1..m with a chain of three."""
    while True:
        m, rel = random_poset_pairs(rng, max_elems)
        p = Poset(range(1, m + 1), rel)
        if reference_split(p)[1]:
            return p


def random_split_order(rng: random.Random, max_elems: int = 4) -> Poset:
    """A random order whose algebra is not one factor alone: a random
    order with a chain of three beside another random order, maybe with
    spare relations added, under shuffled labels."""
    while True:
        if rng.random() < 0.5:
            other = random_factor(rng, max_elems)
        else:
            m, rel = random_poset_pairs(rng, max_elems)
            other = Poset(range(1, m + 1), rel)
        p = disjoint_union(random_factor(rng, max_elems), other)
        while rng.random() < 0.5 and (pairs := spare_pairs(p)):
            p = Poset(p.elems, p.rel | {rng.choice(pairs)})
        if not expanded(p.masks()):
            break
    m = len(p.elems)
    perm = dict(zip(p.elems, rng.sample(range(1, m + 1), m)))
    return Poset(perm.values(), [(perm[a], perm[b]) for a, b in p.rel])


class TestEarlyClose:
    """A pattern node first splits its algebra into direct factors, and
    expands only an order that is one factor alone: an order with no
    chain a < b < c has J^2 = 0 and counts as q^|R|, an element in no
    pair spans no matrix unit, so it is dropped, each spare relation
    counts q and separate product classes multiply."""

    def test_no_chain_of_three_counts_q_to_the_relations(self, shared_ctx):
        from unicount.oracle import verify_census
        rng = random.Random(101)
        brute = 0
        for _ in range(60):
            m, rel = random_height_two(rng)
            want = Census(CountPoly({(len(rel), 0): 1}), (), ())
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            natural = Poset(range(1, m + 1), rel)
            for p in (natural, Poset(range(1, m + 1), [(b, a) for a, b in rel]),
                      Poset(range(1, m + 1), [(perm[a], perm[b]) for a, b in rel])):
                data = encode_pattern(p)
                assert pattern_census(p, EngineContext()) == want, p
                assert census(data, shared_ctx) == want, p
            if len(rel) <= 10:
                for q0 in (2, 3):
                    assert verify_census(encode_pattern(natural), want, q0)["pass"], natural
                brute += 1
        assert brute > 30

    def test_isolated_elements_leave_the_table(self, shared_ctx):
        # a random order relabelled into a larger ground set, the labels
        # left over being isolated elements at random places
        from unicount.oracle import verify_census
        rng = random.Random(103)
        brute = 0
        for _ in range(100):
            m, rel = random_poset_pairs(rng, max_elems=7)
            k = rng.randint(1, 3)
            label = dict(zip(range(1, m + 1), rng.sample(range(1, m + k + 1), m)))
            wide = Poset(range(1, m + k + 1), [(label[a], label[b]) for a, b in rel])
            want = resolve(pattern_census(Poset(range(1, m + 1), rel), shared_ctx), m)
            out = pattern_census(wide, EngineContext())
            got = resolve(out, m + k)
            assert got.entries == want.entries and not got.unresolved, wide
            if len(rel) <= 6:
                for q0 in (2, 3):
                    assert verify_census(encode_pattern(wide), out, q0)["pass"], wide
                brute += 1
        assert brute > 20

    def test_complete_bipartite_order_is_one_node(self, monkeypatch):
        made = count_nodes(monkeypatch)
        out = pattern_census((0b1111100000,) * 5 + (0,) * 5, EngineContext())
        assert out == Census(CountPoly({(25, 0): 1}), (), ())
        assert made == {"cores": 1, "closures": 0}

    def test_isolated_elements_are_dropped_before_the_node_expands(self, monkeypatch):
        # U_6 on the labels 1, 3, 5, 6, 8, 9, with 2, 4 and 7 isolated
        made = count_nodes(monkeypatch)
        labels = (1, 3, 5, 6, 8, 9)
        padded = Poset(range(1, 10), [(labels[a - 1], labels[b - 1]) for a, b in chain(6).rel])
        runs = []
        for top in (chain(6), padded):
            ctx = EngineContext()
            made.update(cores=0, closures=0)
            runs.append((resolve(pattern_census(top, ctx), 6).entries, dict(made),
                         len(ctx.memo_pattern)))
        (want, plain, entries), (got, wide, wide_entries) = runs
        # the padded order misses once, and its reduction is U_6
        assert got == want
        assert wide == {"cores": plain["cores"] + 1, "closures": plain["closures"]}
        assert wide_entries == entries + 1
        # after U_6 in one context, the padded order expands nothing
        ctx = EngineContext()
        pattern_census(chain(6), ctx)
        made.update(cores=0, closures=0)
        pattern_census(padded, ctx)
        assert made == {"cores": 1, "closures": 0}

    def test_split_orders_against_class_counts(self, shared_ctx):
        from unicount.oracle import verify_census
        rng = random.Random(107)
        checked, several, spare = 0, 0, 0
        while checked < 25:
            p = random_split_order(rng)
            if len(p.rel) > 10:
                continue
            n, factors = reference_split(p)
            several += len(factors) > 1
            spare += n > 0 and len(factors) > 0
            out = pattern_census(p, shared_ctx)
            assert not out.unresolved and not out.families, p
            for q0 in (2, 3):
                rep = verify_census(encode_pattern(p), out, q0)
                assert rep["pass"], (p, rep)
            checked += 1
        assert several >= 10 and spare >= 5

    def test_split_orders_against_the_general_engine(self, shared_ctx):
        rng = random.Random(109)
        compared = 0
        while compared < 40:
            p = random_split_order(rng, max_elems=4)
            if len(p.elems) > 7:
                continue
            fast = pattern_census(p, EngineContext())
            slow = census(encode_pattern(p), shared_ctx)
            assert census_disagreement(fast, slow, len(p.elems)) is None, p
            compared += 1

    def test_factors_multiply(self, shared_ctx):
        rng = random.Random(113)
        for _ in range(60):
            k, other = random_poset_pairs(rng, 6)
            p, q = random_factor(rng, 6), Poset(range(1, k + 1), other)
            want = pattern_census(p, shared_ctx).resolved * pattern_census(q, shared_ctx).resolved
            assert pattern_census(disjoint_union(p, q), EngineContext()).resolved == want
        # two chains of three sharing their minimum: two copies of U_3
        u3 = unitriangular_census(3, shared_ctx).resolved
        vee = Poset(range(5), [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        assert reference_split(vee)[0] == 0 and len(reference_split(vee)[1]) == 2
        assert pattern_census(vee, EngineContext()) == Census(u3 * u3, (), ())
        # and dually, sharing their maximum
        wedge = Poset(range(5), [(b, a) for a, b in vee.rel])
        assert pattern_census(wedge, EngineContext()) == Census(u3 * u3, (), ())

    def test_a_spare_relation_multiplies_by_q(self, shared_ctx):
        rng = random.Random(127)
        added = 0
        while added < 60:
            m, rel = random_poset_pairs(rng, 7)
            p = Poset(range(1, m + 1), rel)
            pairs = spare_pairs(p)
            if not pairs:
                continue
            more = Poset(p.elems, p.rel | {rng.choice(pairs)})
            want = pattern_census(p, shared_ctx).resolved * CountPoly({(1, 0): 1})
            assert pattern_census(more, EngineContext()) == Census(want, (), ()), more
            added += 1

    def test_a_factor_with_a_record_expands_the_order(self, monkeypatch):
        # a record times a polynomial has no record form: when one of two
        # factors answers with a record the first time it is looked up,
        # the order is expanded whole instead, to the same table; with one
        # factor the record takes the q^s of the spare relations
        from unicount import patterns
        from unicount.engine import URecord
        real, closure = patterns.pattern_census, patterns.normal_closure
        u4, poisoned, closed = chain(4).masks(), [], []
        record = URecord((), (), 0, 0, 0)

        def recorded(poset, ctx):
            out = real(poset, ctx)
            if poset == u4 and not poisoned:
                poisoned.append(poset)
                return out._replace(unresolved=out.unresolved + (record,))
            return out

        def closures(succ, pred, D):
            closed.append(succ)
            return closure(succ, pred, D)

        top = disjoint_union(chain(3), chain(4))
        want = resolve(real(top, EngineContext()), 7)
        monkeypatch.setattr(patterns, "pattern_census", recorded)
        monkeypatch.setattr(patterns, "normal_closure", closures)
        for poison in (False, True):
            poisoned[:] = [] if poison else [u4]    # a poison spent already
            closed.clear()
            got = resolve(patterns.pattern_census(top.masks(), EngineContext()), 7)
            assert got.entries == want.entries and not got.unresolved
            succ = top.masks()
            assert (succ in closed or patterns._dual(succ) in closed) == poison
            assert poisoned == [u4]
        poisoned.clear()
        spared = Poset(range(1, 7), chain(4).rel | {(5, 6)})
        out = patterns.pattern_census(spared.masks(), EngineContext())
        assert out.unresolved == (record._replace(v=1),)
        assert out.resolved == real(u4, EngineContext()).resolved * CountPoly({(1, 0): 1})


def reference_scores(poset: Poset) -> dict[tuple[str, int], int]:
    """Reference: for ("row", c), c minimal with a nonempty row, and for
    ("column", c), c maximal with a nonempty column, the number of
    antichains of the line's normal closure that some element of the line
    sees two elements of, in the order for a row and in the dual for a
    column: the antichains the row procedure on it hands to the general
    engine."""
    rel = poset.rel
    dual = frozenset((b, a) for a, b in rel)
    scores = {}
    for kind, order in (("row", rel), ("column", dual)):
        def line(c):
            return {d for d in poset.elems if (c, d) in order}

        for c in poset.elems:
            D = line(c)
            if D and not any((a, c) in order for a in poset.elems):
                scores[kind, c] = sum(
                    any(len(line(i) & E) >= 2 for i in D)
                    for E in reference_antichains(D, reference_closure(order, poset.elems, D)))
    return scores


def reference_peel(poset: Poset):
    """Reference: what ``choose_peel`` peels, on labels: ("row", c) for the
    row of a minimal element c, ("column", c) for the column of a maximal
    element c, None when there is no relation.  A clean row comes first,
    the largest, then the least label; failing that a clean column, the
    largest, then the greatest label (the least in the dual); failing
    that the row or column of least ``reference_scores``, then the
    largest, then a row before a column, then the least position: the
    least label for a row, the greatest for a column."""
    rel = poset.rel

    def row(c):
        return {d for d in poset.elems if (c, d) in rel}

    def column(c):
        return {a for a in poset.elems if (a, c) in rel}

    def clean(line, c):
        return not any((j, k) not in rel and (k, j) not in rel
                       for i in line(c) for j in line(i) for k in line(i) if j != k)

    rows = [c for c in poset.elems if row(c) and not column(c)]
    clean_rows = [c for c in rows if clean(row, c)]
    clean_columns = [c for c in poset.elems if column(c) and not row(c) and clean(column, c)]
    if clean_rows:
        return "row", min(clean_rows, key=lambda c: (-len(row(c)), c))
    if clean_columns:
        return "column", min(clean_columns, key=lambda c: (-len(column(c)), -c))
    if not rows:
        return None
    scores = reference_scores(poset)
    return min(scores, key=lambda kc: (scores[kc], -len((row if kc[0] == "row" else column)(kc[1])),
                                       kc[0] == "column", kc[1] if kc[0] == "row" else -kc[1]))


def patterns_peel_is_clean(succ) -> bool:
    """The order succ has a clean minimal row or a clean maximal column."""
    from unicount import patterns
    return patterns._peel_row(succ)[1] or patterns._peel_row(patterns._dual(succ))[1]


def minimal_rows(succ) -> list[int]:
    """The minimal positions of the order succ with a nonempty row."""
    has_pred = 0
    for m in succ:
        has_pred |= m
    return [c for c, D in enumerate(succ) if D and not has_pred >> c & 1]


def resolved_entries(top, n) -> dict:
    """The resolved table of the order top from a fresh context, which
    must leave no record."""
    ctx = EngineContext()
    out = resolve(pattern_census(top, ctx), n, ctx)
    assert out.unresolved == ()
    return out.entries


class TestChooseC0:
    """The pattern recursion may peel the row of any minimal element, of
    the order or of its dual; it peels a clean row first, then a clean
    column, then the row or column that hands the fewest antichains to
    the general engine."""

    def test_choice_against_the_labelled_reference(self):
        # labels shuffled, and reversed so that every pair runs against
        # them: the comparability of two rows or columns is read both ways
        rng = random.Random(89)
        kinds = {"row": 0, "column": 0}
        for _ in range(300):
            m, rel = random_poset_pairs(rng, max_elems=7)
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            for p in (Poset(range(1, m + 1), rel),
                      Poset(range(1, m + 1), [(perm[a], perm[b]) for a, b in rel]),
                      Poset(range(1, m + 1), [(m + 1 - a, m + 1 - b) for a, b in rel])):
                node, c0 = labelled_peel(p)
                got = None if c0 is None else ("row", c0) if node is p else ("column", -c0)
                assert got == reference_peel(p), p
                if got:
                    kinds[got[0]] += 1
        assert kinds["row"] > 300 and kinds["column"] > 30, kinds

    def test_no_clean_line_peels_the_least_score(self):
        # random orders with no clean row and no clean column, labels
        # natural, shuffled and against the order: the peel has the least
        # score of every minimal row and maximal column, with its ties
        rng = random.Random(107)
        orders = 0
        moved, columns, engine_bound = set(), set(), set()
        while orders < 100:
            m, rel = random_poset_pairs(rng, max_elems=8)
            p = Poset(range(1, m + 1), rel)
            if not rel or patterns_peel_is_clean(p.masks()):
                continue
            orders += 1
            perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
            for q in (p, Poset(range(1, m + 1), [(perm[a], perm[b]) for a, b in rel]),
                      Poset(range(1, m + 1), [(m + 1 - a, m + 1 - b) for a, b in rel])):
                node, c0 = labelled_peel(q)
                got = ("row", c0) if node is q else ("column", -c0)
                assert got == reference_peel(q), q
                scores = reference_scores(q)
                assert scores[got] == min(scores.values()), q
                largest = min((c for kind, c in scores if kind == "row"),
                              key=lambda c: (-sum((c, d) in q.rel for d in q.elems), c))
                if got != ("row", largest):
                    moved.add(orders)
                if got[0] == "column":
                    columns.add(orders)
                if scores[got]:
                    engine_bound.add(orders)
        # the rule before took the largest row on every one of them
        assert len(moved) > 20 and len(columns) > 20 and engine_bound, (
            len(moved), len(columns), len(engine_bound))

    # 0 < 1 < 2 < 5 and 1 < 4 < 5, 6, with 3 < 4: the rows of 0 and 3 are
    # dirty, as 4 sees 5 and 6, and so is every maximal column; the row
    # {4, 5, 6} of 3 hands no antichain to the general engine, since 6 has
    # fewer predecessors than 5 and lies below it in the normal closure,
    # while the largest row, of 0, hands it one
    CHEAPER_SMALLER_ROW = (0b1110110, 0b1110100, 0b100000, 0b1110000, 0b1100000, 0, 0)

    @pytest.mark.parametrize("reverse", [False, True], ids=["labels-extend", "labels-against"])
    def test_the_peel_that_sends_fewer_antichains_to_the_engine(self, monkeypatch, reverse):
        from unicount import patterns
        succ, largest, cheap = self.CHEAPER_SMALLER_ROW, 0, 3
        if reverse:
            succ, largest, cheap = self.reversed_positions(succ), 6, 3
        assert minimal_rows(succ) == sorted([largest, cheap])
        assert not patterns_peel_is_clean(succ)
        assert self.dirty(succ, largest) and not self.dirty(succ, cheap)
        assert choose_peel(succ) == (succ, cheap)
        out, calls = self.first_node_calls(monkeypatch, succ)
        assert calls == []
        monkeypatch.undo()
        # peeled by the rule before, the largest row, it makes one call
        monkeypatch.setattr(patterns, "choose_peel", row_rule)
        before, calls = self.first_node_calls(monkeypatch, succ)
        assert calls == [succ]
        slow = census(encode_pattern(poset_of(succ)), EngineContext())
        for table in (out, before):
            assert census_disagreement(table, slow, len(succ)) is None
        assert resolve(out, len(succ)).entries == resolve(slow, len(succ)).entries

    @pytest.mark.parametrize("seed", range(3))
    def test_any_minimal_row_gives_the_same_tables(self, monkeypatch, seed):
        # confluence: the row procedure holds for any minimal c0 of the
        # order, and of its dual, whose census is the order's
        from unicount import patterns
        rng = random.Random(seed)
        tops = [(chain(n), n) for n in (6, 7, 8)]
        for _ in range(30):
            m, rel = random_poset_pairs(rng, max_elems=7)
            tops.append((Poset(range(1, m + 1), rel), m))
        want = [resolved_entries(top, n) for top, n in tops]
        default = patterns.choose_peel
        moved, duals = [], []

        def random_peel(succ, scan=None):
            dual = labelled_dual(poset_of(succ)).masks()
            choices = [(s, c) for s in (succ, dual) for c in minimal_rows(s)]
            if not choices:
                return succ, -1
            pick = rng.choice(choices)
            moved.append(pick != default(succ))
            duals.append(pick[0] != succ)
            return pick

        monkeypatch.setattr(patterns, "choose_peel", random_peel)
        for (top, n), entries in zip(tops, want):
            assert resolved_entries(top, n) == entries, (top, seed)
        assert sum(moved) > 10 and sum(duals) > 10

    def test_the_row_rule_gives_the_same_chain_tables(self, monkeypatch):
        # route agreement: U_3..U_11 peeled by the rule of rows only, which
        # sends U_11 through 79 engine nodes rather than none; U_12 and U_13
        # are compared by `scripts/run_oracle_checks.py --chains 12 13`
        from unicount import patterns
        tops = [(chain(n), n) for n in range(3, 12)]
        want = [resolved_entries(top, n) for top, n in tops]
        monkeypatch.setattr(patterns, "choose_peel", row_rule)
        assert [resolved_entries(top, n) for top, n in tops] == want
        ctx = EngineContext()
        unitriangular_census(11, ctx)
        assert ctx.nodes == 79

    # row 0 is {1, 2, 3} with 1 below 2 and 3, which stay incomparable in
    # its normal closure as 4 is below 2 only and 5 below 3 only; rows 4
    # and 5 are clean, and so is the larger row {7, 8, 9} of 6, a chain
    DIRTY_FIRST = (0b1110, 0b1100, 0, 0, 0b100, 0b1000, 0b1110000000, 0b1100000000,
                   0b1000000000, 0)

    # the one minimal element, 0, has the row {1, 2, 3, 4, 5}, in which 1 is
    # below 2 and 3, and they stay incomparable in its normal closure as 4
    # is below 2 only and 5 below 3 only; the columns {0, 1, 4} of 2 and
    # {0, 1, 5} of 3, both maximal, are clean
    DIRTY_ROWS = (0b111110, 0b1100, 0, 0, 0b100, 0b1000)

    @staticmethod
    def reversed_positions(succ):
        """succ with position p moved to len(succ) - 1 - p: every pair runs
        against the positions."""
        n = len(succ)
        return tuple(sum(1 << n - 1 - b for b in _bits(m)) for m in reversed(succ))

    @staticmethod
    def first_node_calls(monkeypatch, succ):
        """The census of succ, with the orders ``stabilizer_data`` was
        called on under it."""
        from unicount import patterns
        real, calls = patterns.stabilizer_data, []

        def recorded(s, c0, E):
            calls.append(s)
            return real(s, c0, E)

        monkeypatch.setattr(patterns, "stabilizer_data", recorded)
        return pattern_census(succ, EngineContext()), calls

    @staticmethod
    def dirty(succ, c0):
        """Some row of the row D of c0 sees two elements of an antichain
        of D's normal closure."""
        D = succ[c0]
        pred = _preds(succ, D)
        return any(not row_disjoint(succ, D, E)
                   for E, *_ in antichains(D, normal_closure(succ, pred, D), pred))

    @pytest.mark.parametrize("reverse", [False, True], ids=["labels-extend", "labels-against"])
    def test_a_clean_row_is_peeled_before_a_dirty_lower_one(self, monkeypatch, reverse):
        succ = self.DIRTY_FIRST
        assert self.dirty(succ, 0)
        want = 6
        if reverse:
            succ = self.reversed_positions(succ)
            want = 3
        assert choose_peel(succ) == (succ, want)
        out, calls = self.first_node_calls(monkeypatch, succ)
        assert succ not in calls
        slow = census(encode_pattern(poset_of(succ)), EngineContext())
        assert census_disagreement(out, slow, len(succ)) is None

    @pytest.mark.parametrize("reverse", [False, True], ids=["labels-extend", "labels-against"])
    def test_a_clean_column_is_peeled_when_no_row_is_clean(self, monkeypatch, reverse):
        succ, c = self.DIRTY_ROWS, 0
        if reverse:
            succ, c = self.reversed_positions(succ), 5
        assert minimal_rows(succ) == [c] and self.dirty(succ, c)
        dual = labelled_dual(poset_of(succ)).masks()
        # the column of the maximal element at the greater position of the
        # two: position 2 of the dual
        assert choose_peel(succ) == (dual, 2) and not self.dirty(dual, 2)
        out, calls = self.first_node_calls(monkeypatch, succ)
        assert succ not in calls and dual not in calls
        slow = census(encode_pattern(poset_of(succ)), EngineContext())
        assert census_disagreement(out, slow, len(succ)) is None
        assert resolve(out, len(succ)).entries == resolve(slow, len(succ)).entries

    def test_labels_against_the_order_give_the_same_table(self, shared_ctx):
        rng = random.Random(97)
        for _ in range(30):
            m, rel = random_poset_pairs(rng, max_elems=8)
            want = resolve(pattern_census(Poset(range(1, m + 1), rel), shared_ctx), m)
            against = Poset(range(1, m + 1), [(m + 1 - a, m + 1 - b) for a, b in rel])
            got = resolve(pattern_census(against, EngineContext()), m)
            assert got.entries == want.entries and not got.unresolved, against


class TestOrbitSizes:
    def test_orbit_sizes(self):
        rng = random.Random(37)
        for _ in range(60):
            m, rel = random_poset_pairs(rng, max_elems=5)
            p = Poset(range(1, m + 1), rel)
            for q in (2, 3):
                u = {e: rng.randrange(q) for e in p.elems}
                orbit = orbit_of_vector(p.rel, p.elems, u, q)
                supp = {e for e, c in u.items() if c}
                top, _ = top_and_closure(supp, p.rel, p.elems)
                _, clos = top_and_closure(top, p.rel, p.elems)
                assert len(orbit) == q ** len(clos - top)

    def test_zero_vector_is_fixed(self):
        p = chain(4)
        assert orbit_of_vector(p.rel, p.elems, {}, 3) == {(0, 0, 0, 0)}
