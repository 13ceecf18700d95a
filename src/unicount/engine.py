"""The recursive contraction engine.

``census(data)`` produces a breakdown of all irreducible characters of
the algebra groups encoded by the data; ``census_at(data, z)`` does the
same for the characters that are nontrivial on the central subgroup
1 + <z>.  A Census is a triple: an exactly counted part (a polynomial
in Z[q, t]), unresolved substitution-count records, and unresolved
family records that the engine could not contract to dimension <= 1.
``resolve`` reads a census as a table: it folds the families of the one
core shape it knows and keeps every other family in ``unfolded``.

The two functions call each other: census strips an annihilated basis
vector z and splits Irr into the characters trivial on 1 + <z> (a
smaller census) and the rest (census_at).  census_at applies, in order,
a good-pair contraction that removes two dimensions and multiplies
degrees by t, a central-column fold that introduces free parameters,
and finally gives up, emitting a family record; one scan of the
candidate witnesses (``_contraction``) decides between the first two.
A good pair that leaves one parameter-free case with z still hit runs
on as a chain inside the same node (``_census_at_core``).

Both contractions are the same change of basis: every new basis vector
is a combination of old ones, and the new structure constants are the
old products read off in new coordinates.  ``_change_basis`` is that
one rewrite; each contraction only checks its input and says which old
vectors each new vector uses and where each old coordinate goes.  The
fold takes the annihilated vectors the scan chose.  A good pair with one
x only drops two vectors, so it skips the rewrite.

``_lookup`` takes the one node step of both walks.  It reduces the
restrictions and canonicalizes in one pass to a key that is one flat
tuple of ints (its layout is in ``algdata``'s docstring); census_at
appends the position of z.  The key numbers only the vectors that some
product names: each other vector, a spare one, is a direct summand and
scales the census, so no stored key holds a spare vector.  A miss is
one node: it is counted, and the walk's rule runs on data rebuilt from
the key (``from_key``) when the key has parameters, and otherwise on
the looked-up data less its spare vectors; the data is validated when
asked, and past the node budget it becomes a family record.  A family
record always holds data in canonical labels, rebuilt from its key
when it is emitted.  The memo never keeps a node's data: after the walk
returns, only a Family record still refers to data.  Few stored
results differ (at n = 13, 399 of the 613 ``memo_all`` values and 512
of the 1,071 ``memo_at`` values), so every Census a memo stores goes
through ``EngineContext.intern`` and equal results share one object.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .algdata import AlgebraicData, Equation, NonZero, canonicalize, split_into_cases
from .polyring import CountPoly, ParamPoly
from . import solcount


class BadWitness(Exception):
    pass


class URecord(NamedTuple):
    """An uncounted substitution system: contributes (q-1)^u q^v |V| t^e."""
    params: tuple[int, ...]
    restrictions: tuple
    u: int
    v: int
    e: int


class Family(NamedTuple):
    """An uncontracted family, with count scale (q-1)^k q^l and degree shift t^m.

    z is None for a family of all characters (from census) and the
    central vector of a family from census_at otherwise.
    """
    data: AlgebraicData
    z: int | None
    k: int
    l: int
    m: int


class Census(NamedTuple):
    resolved: CountPoly
    unresolved: tuple[URecord, ...]
    families: tuple[Family, ...]


ZERO_CENSUS = Census(CountPoly.zero(), (), ())


def scale_census(c: Census, k: int, l: int, m: int) -> Census:
    """Multiply all character counts by (q-1)^k q^l and all degrees by t^m."""
    if k == 0 and l == 0 and m == 0:
        return c
    return aggregate(((c, k, l, m),))


def aggregate(parts: Iterable[tuple[Census, int, int, int]]) -> Census:
    """The sum over parts (c, k, l, m) of the census c scaled by
    (q-1)^k q^l t^m.  The resolved parts are merged in one pass of packed
    int arithmetic (``CountPoly.scaled_sum``); records and families take
    the scale into their own exponents."""
    parts = tuple(parts)
    return Census(
        CountPoly.scaled_sum((c.resolved, k, l, m) for c, k, l, m in parts),
        tuple(r._replace(u=r.u + k, v=r.v + l, e=r.e + m)
              for c, k, l, m in parts for r in c.unresolved),
        tuple(f._replace(k=f.k + k, l=f.l + l, m=f.m + m)
              for c, k, l, m in parts for f in c.families))


# ---------------------------------------------------------------------------
# context

DEFAULT_MAX_NODES = 500_000_000


class EngineContext:
    """Per-run state: memo tables and the node budget.  ``oracle.audit_counts``
    re-checks the counted systems of ``memo_counts`` by brute force.

    Each miss of ``memo_all`` or ``memo_at`` in ``_lookup`` is one of
    ``nodes``, which ``max_nodes`` bounds; ``stats`` counts the nodes cut
    by the budget (``budget_families``) and the give-ups of census_at
    (``giveup_families``).

    ``memo_all`` is keyed by canonicalize's flat tuple of ints and
    ``memo_at`` by that tuple with the position of z appended; the
    pattern path keys ``memo_pattern`` by the order it recurses on, the
    tuple of successor bitmasks by position.  The Census values of these
    three memos are interned: ``censuses`` maps each distinct stored
    value to the one object all memos share; a Census hashes and compares
    through the packed rows of its CountPoly, one int per t-degree.

    ``memo_counts`` is keyed by the pair (params, restrictions) as
    ``count`` is given it, both as tuples; restrictions compare and hash
    by value.  Its value is the CountPoly of ``solcount.count_solutions``,
    or None when the system was not counted.
    """

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES, validate: bool = False):
        self.memo_all: dict[tuple[int, ...], Census] = {}
        self.memo_at: dict[tuple[int, ...], Census] = {}
        self.memo_pattern: dict[tuple[int, ...], Census] = {}
        self.memo_counts: dict[tuple[tuple, tuple], CountPoly | None] = {}
        self.censuses: dict[Census, Census] = {}
        self.max_nodes = max_nodes
        self.validate = validate
        self.nodes = 0
        self.stats: dict[str, int] = {}

    def bump(self, key: str, n: int = 1):
        self.stats[key] = self.stats.get(key, 0) + n

    def intern(self, c: Census) -> Census:
        """The first stored Census equal to c, which becomes it if there is none."""
        return self.censuses.setdefault(c, c)

    def count(self, params, restrictions) -> CountPoly | None:
        key = (tuple(params), tuple(restrictions))
        if key not in self.memo_counts:
            self.memo_counts[key] = solcount.count_solutions(*key)
        return self.memo_counts[key]


# ---------------------------------------------------------------------------
# the two mutually recursive walks

def census(data: AlgebraicData, ctx: EngineContext) -> Census:
    """A correct breakdown of all irreducible characters encoded by data."""
    return _lookup(data, None, ctx)


def census_at(data: AlgebraicData, z: int, ctx: EngineContext) -> Census:
    """A correct breakdown of the characters nontrivial on 1 + <z>."""
    return _lookup(data, z, ctx)


def _lookup(data: AlgebraicData, z: int | None, ctx: EngineContext) -> Census:
    """The census of data, or with z its census_at z: the node step of
    the module docstring.

    A spare vector v, one that no product names, spans a direct summand:
    J is J' + <v> as a direct sum, and 1 + <v> is (F_q, +), with q linear
    characters.  So each spare vector multiplies the census of J' by q,
    but a spare z of census_at by the q - 1 characters nontrivial on
    1 + <z>.  The key numbers the vectors of J' alone (``canonicalize``),
    and this scale is applied once, with the one reduce_system finds.

    On a miss the rule runs on data rebuilt from the key when the key
    has parameters: their labels order solcount's eliminations and the
    ``memo_counts`` keys, so they must be canonical.  With no parameter
    only the basis order matters, which the key keeps, so the rule runs
    on the looked-up data itself, on its vectors of J' (``on_named``).
    """
    k, l, params, restrictions, empty = solcount.reduce_system(
        data.params, data.restrictions, data.symbols_in_products())
    if empty:
        return ZERO_CENSUS
    key = canonicalize(data, params, restrictions)
    pos = data.named_pos()
    l += len(data.basis) - len(pos)
    if z is not None and z not in pos:  # a spare z counts q - 1, not q
        z, k, l = None, k + 1, l - 1
    if z is None:
        memo, full = ctx.memo_all, key
    else:
        memo, full = ctx.memo_at, key + (pos[z],)
    hit = memo.get(full)
    if hit is None:
        ctx.nodes += 1
        if params:
            data = AlgebraicData.from_key(key)
            if z is not None:
                z = pos[z]  # its label in the rebuilt data
        else:
            data = data.on_named()
        if ctx.validate:
            _check(data, z)
        if data.prods and ctx.nodes > ctx.max_nodes:
            ctx.bump("budget_families")
            hit = _family(data, z)
        else:
            hit = _census_core(data, ctx) if z is None else _census_at_core(data, z, ctx)
        hit = memo[full] = ctx.intern(hit)
    return scale_census(hit, k, l, 0)


def _census_core(data: AlgebraicData, ctx: EngineContext) -> Census:
    """census's rule at a node: count data with no products, else peel a z."""
    if not data.prods:
        # with no products every vector was spare: the basis is empty and
        # each admissible substitution has the one trivial character
        poly = ctx.count(data.params, data.restrictions)
        if poly is not None:
            return Census(poly, (), ())
        return Census(CountPoly.zero(), (URecord(data.params, data.restrictions, 0, 0, 0),), ())
    z = _choose_z(data)
    trivial_on_z = census(data.remove_basis(z), ctx)
    nontrivial = census_at(data, z, ctx)
    return aggregate(((trivial_on_z, 0, 0, 0), (nontrivial, 0, 0, 0)))


def _choose_z(data: AlgebraicData) -> int:
    """Deterministic peel choice: the last annihilated vector.  The key
    of a node numbers no spare vector, so every annihilated vector is hit."""
    factors = data.left_factors | data.right_factors
    return [b for b in data.basis if b not in factors][-1]


def _check(data: AlgebraicData, z: int | None) -> None:
    """``ctx.validate``'s checks of the data a rule runs on."""
    data.validate()
    if z is None:
        assert data.satisfies_nz(), "census requires nonzero-restricted structure constants"
    else:
        assert not data.is_factor(z), "census_at requires an annihilated z"


def _family(data: AlgebraicData, z: int | None, m: int = 0) -> Census:
    """The census of data at z kept as one family record, shifted by t^m:
    the record holds data in canonical labels (``AlgebraicData.canonical``),
    and each spare vector of data scales it by q."""
    pos = data.named_pos()
    fam = Family(data.canonical(), None if z is None else pos[z], 0,
                 len(data.basis) - len(pos), m)
    return Census(CountPoly.zero(), (), (fam,))


def _census_at_core(data: AlgebraicData, z: int, ctx: EngineContext) -> Census:
    """census_at's rule at a node: contract, or give up with a family record.

    A good pair that leaves one case with no parameter, z still hit, is a
    chain step: the next contraction runs on that case in place, with no
    lookup, and each step multiplies degrees by t.  Only the cases of the
    contraction that ends the chain are looked up.  Each step removes two
    dimensions, so a chain has at most dim/2 steps.  The spare vectors a
    step leaves stay in place until those lookups, or a give-up's family
    record, scale by them.
    """
    shift = 0
    while True:
        picked = _contraction(data, z)
        if picked is None:
            ctx.bump("giveup_families")
            return _family(data, z, shift)
        contracted, step = picked
        cases = split_into_cases(contracted)
        if not (step and len(cases) == 1 and not cases[0].params
                and z in cases[0].hit_targets):
            return aggregate((census_at(case, z, ctx), 0, 0, shift + step) for case in cases)
        data = cases[0]
        shift += 1
        if ctx.validate:
            _check(data, z)


def _contraction(data: AlgebraicData, z: int) -> tuple[AlgebraicData, int] | None:
    """The contraction census_at takes, with the degree shift it brings,
    from one scan of the y with Jy = 0 and yJ != 0 in basis order.

    The first y whose products all land on z gives a good pair, shift 1.
    Failing that, a y whose products land on annihilated vectors only
    gives a fold, shift 0: one whose image contains z if possible, then
    the smallest image, ties by basis order; the fold takes that image
    less z.  None when there is neither.
    """
    rf = data.right_factors
    factors = data.left_factors | rf
    by_left = data.products_by_left()
    best = best_key = None
    for i, y in enumerate(data.basis):
        if y in rf:
            continue
        rows = by_left.get(y)
        if not rows:
            continue
        image = {w for _, ts in rows for w, _ in ts}
        if image == {z}:
            return contract_type_b(data, z, y), 1
        if image.isdisjoint(factors):
            key = (z not in image, len(image), i)
            if best_key is None or key < best_key:
                best, best_key = image, key
    if best is None:
        return None
    return contract_type_a(data, z, best - {z}), 0


# ---------------------------------------------------------------------------
# contractions

_ONE = ParamPoly.const(1)


def _times(c1: ParamPoly, c2: ParamPoly) -> ParamPoly:
    """c1 * c2, without multiplying by the coefficient 1."""
    return c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2


def _change_basis(data: AlgebraicData, basis: list[int], params: tuple[int, ...],
                  uses: dict, coord: dict, ck: frozenset = frozenset(),
                  divided: frozenset = frozenset()) -> AlgebraicData:
    """Read the products of data off in a new basis: the one rewrite
    shared by both contractions.

    ``uses[a]`` lists the pairs (u, c) such that the old vector a occurs
    in the new vector u with coefficient c; ``coord[w]`` is the pair
    (t, c) sending the coordinate on the old vector w to the new vector
    t, times c, and coordinates on old vectors missing from it are
    dropped.  The coordinates of the targets in ``divided`` are then
    divided by the monomial c_k over ``ck``.  ``params`` are appended to
    the parameters of data.

    One walk over the old products accumulates the new structure
    constants.  A square-free monomial with coefficient +1 is stored
    directly.  Anything else gets a fresh parameter d, numbered by new
    (u, v) pair and then target position, with the defining equation
    d = P, or d * c_k = P on a divided target when c_k does not divide
    P.  d is also restricted nonzero when P is a signed product of
    nonzero parameters, since then it can never vanish; otherwise the
    later case split decides whether it does.  Rows come out in the
    stored order of ``AlgebraicData.prods``, and rows whose terms all
    cancel are dropped.
    """
    # acc[(u, v)][t] lists the terms (factor set, coefficient) of u v on t
    acc: dict[tuple[int, int], dict[int, list]] = {}
    for a, b, ts in data.prods:
        for u, cu in uses.get(a, ()):
            for v, cv in uses.get(b, ()):
                cuv = _times(cu, cv)
                cell = acc.setdefault((u, v), {})
                for w, fs in ts:
                    if w in coord:
                        t, cw = coord[w]
                        cell.setdefault(t, []).append((fs, _times(cuv, cw)))

    nz = data.nz_params
    fresh_from = max(data.params + tuple(params), default=-1) + 1
    fresh: list[int] = []
    extra_restrictions = []

    def define(lhs_factor: ParamPoly, expr: ParamPoly) -> frozenset:
        d = fresh_from + len(fresh)
        fresh.append(d)
        extra_restrictions.append(Equation(ParamPoly.var(d) * lhs_factor - expr))
        if solcount._invertible_monomial(expr, nz):
            extra_restrictions.append(NonZero(d))
        return frozenset([d])

    basis = tuple(basis)
    pos = {b: i for i, b in enumerate(basis)}
    prods = []
    for u, v in sorted(acc, key=lambda uv: (pos[uv[0]], pos[uv[1]])):
        row = []
        cell = acc[(u, v)]
        for t in sorted(cell, key=pos.__getitem__):
            terms = cell[t]
            if len(terms) == 1 and terms[0][1] is _ONE and t not in divided:
                # a lone factor set is a square-free monomial with coefficient +1
                row.append((t, terms[0][0]))
                continue
            expr = sum((ParamPoly.monomial(fs) * c for fs, c in terms), ParamPoly.zero())
            if expr.is_zero():
                continue
            if t in divided:
                content = expr.content()
                if not all(s in content for s in ck):
                    row.append((t, define(ParamPoly.monomial(ck), expr)))
                    continue
                expr = expr.divide_monomial(dict.fromkeys(ck, 1))
            sm = expr.single_monomial()
            if sm is not None and sm[0] == 1 and all(e == 1 for _, e in sm[1]):
                row.append((t, frozenset(s for s, _ in sm[1])))
            else:
                row.append((t, define(_ONE, expr)))
        if row:
            prods.append((u, v, tuple(row)))
    return AlgebraicData._from_sorted(data.params + tuple(params) + tuple(fresh),
                                      data.restrictions + tuple(extra_restrictions),
                                      basis, tuple(prods), pos)


def contract_type_b(data: AlgebraicData, z: int, y: int) -> AlgebraicData:
    """Restrict to the centraliser of the good pair (<z>, <y>) and deflate.

    The vectors x_1 < ... < x_k with y x_i = c_i z are replaced by the
    k-1 combinations x'_i = c_k x_i - c_i x_k killed by y; y and x_k
    leave the basis, and their coordinates are dropped.  In the new
    basis the coordinate on x'_l is the old one on x_l divided by c_k,
    the rest are unchanged; ``_change_basis`` does the rewrite.  With
    k = 1 there is no combination and every coordinate is kept, so the
    rewrite only drops y and x_1 (``remove_basis``).
    """
    if y in data.right_factors:
        raise BadWitness("y must satisfy Jy = 0")
    rows = data.products_by_left().get(y, ())
    xs = []
    csets = {}
    for v, ts in rows:
        for w, fs in ts:
            if w != z:
                raise BadWitness("products out of y must land on z")
            xs.append(v)
            csets[v] = fs
    if not xs:
        raise BadWitness("y has no product into z")
    if len(xs) == 1:
        return data.remove_basis(y, xs[0])
    xs.sort(key=data.pos)
    xk = xs[-1]

    next_b = max(data.basis) + 1
    xprime = {x: next_b + i for i, x in enumerate(xs[:-1])}
    kept = [b for b in data.basis if b != y and b != xk]
    ck = ParamPoly.monomial(csets[xk])
    uses = {b: [(xprime[b], ck)] if b in xprime else [(b, _ONE)] for b in kept}
    uses[xk] = [(xp, -ParamPoly.monomial(csets[x])) for x, xp in xprime.items()]
    coord = {b: (xprime.get(b, b), _ONE) for b in kept}
    return _change_basis(data, [xprime.get(b, b) for b in kept], (), uses, coord,
                         csets[xk], frozenset(xprime.values()))


def contract_type_a(data: AlgebraicData, z: int, ws: Iterable[int]) -> AlgebraicData:
    """Quotient by the central subspaces <w - b_w z>, w in ws, for fresh
    free parameters b_w: the vectors of ws, in basis order, fold into a
    relabelled z placed last in the basis.  ``_change_basis`` sends the
    coordinate on w to z times b_w, so products into w reappear in the z
    column with coefficient b_w.

    Sound for any set ws of annihilated vectors other than z: 1 + <z, ws>
    is central, and a character nontrivial on 1 + <z> is trivial on
    exactly one hyperplane <w - b_w z : w in ws> of <z, ws>, for one b_w
    in F_q each; census_at z is the sum over the b_w of the quotients'.
    """
    ws = sorted(ws, key=data.pos)
    if z in ws or not (data.left_factors | data.right_factors).isdisjoint([z, *ws]):
        raise BadWitness("z and the folded vectors must be distinct and annihilated")

    next_p = max(data.params, default=-1) + 1
    bparam = {w: next_p + i for i, w in enumerate(ws)}
    new_basis = [b for b in data.basis if b not in bparam and b != z] + [z]
    uses = {b: [(b, _ONE)] for b in new_basis}
    coord = {b: (b, _ONE) for b in new_basis}
    coord.update({w: (z, ParamPoly.var(p)) for w, p in bparam.items()})
    return _change_basis(data, new_basis, tuple(bparam.values()), uses, coord)


# ---------------------------------------------------------------------------
# final resolution

class ResolvedTable:
    """The nonzero degree-count polynomials N_{n,e}(q) for one n.

    ``exceptional`` pairs each folded family record with its total
    character count (already folded into the table entries).
    ``unresolved`` holds the census's uncounted substitution records and
    ``unfolded`` the family records that ``resolve`` could not fold; the
    entries lack the characters of both, so a table with either is
    refused (``cli.run_jobs``).
    """

    def __init__(self, n: int, entries: dict[int, CountPoly],
                 exceptional: Iterable[tuple[Family, CountPoly]] = (),
                 unresolved=(), unfolded=()):
        self.n = n
        self.entries = {e: p for e, p in sorted(entries.items()) if not p.is_zero()}
        self.exceptional = list(exceptional)
        self.unresolved = tuple(unresolved)
        self.unfolded = tuple(unfolded)

    def full_poly(self) -> CountPoly:
        return CountPoly.scaled_sum((p, 0, 0, e) for e, p in self.entries.items())

    def to_json(self) -> dict:
        out = {"n": self.n,
               "table": [{"e": e, "poly": p.to_json()} for e, p in self.entries.items()],
               "families": [{"core": f.data.to_json(), "z": f"e{f.z}",
                             "k": f.k, "l": f.l, "m": f.m,
                             "count": total.to_json()}
                            for f, total in self.exceptional],
               "unresolved_counts": [
                   {"system": AlgebraicData(r.params, r.restrictions, (), {}).to_json(),
                    "u": r.u, "v": r.v, "e": r.e} for r in self.unresolved]}
        return out


def _is_small_core(data: AlgebraicData, z: int) -> bool:
    """Basis {y, z} with y*y spanning <z> and no other products."""
    if len(data.basis) != 2:
        return False
    y_, z_ = data.basis
    if z_ != z:
        return False
    if len(data.prods) != 1:
        return False
    x, y2, ts = data.prods[0]
    return x == y_ and y2 == y_ and len(ts) == 1 and ts[0][0] == z_


def resolve(c: Census, n: int, ctx: EngineContext | None = None) -> ResolvedTable:
    """Extract the table, folding recognised 2-dimensional families in.

    A family folds when its substitutions are counted and it has the
    x F_q[x]/(x^3) core shape; its 1 + K then contributes q(q-1)
    characters per admissible substitution, all of degree 1 before the
    t^m shift.  Families whose restrictions are contradictory encode
    nothing and are dropped; every other family is kept in ``unfolded``.
    """
    ctx = ctx or EngineContext()
    entries: dict[int, CountPoly] = {}
    for e in c.resolved.t_degrees():
        entries[e] = c.resolved.coeff_of_t(e)
    exceptional, unfolded = [], []
    for fam in c.families:
        cnt = ctx.count(fam.data.params, fam.data.restrictions)
        if cnt is not None and cnt.is_zero():
            continue
        if cnt is None or fam.z is None or not _is_small_core(fam.data, fam.z):
            unfolded.append(fam)
            continue
        total = cnt.scale(fam.k + 1, fam.l + 1, 0)  # q(q-1) characters each
        exceptional.append((fam, total))
        entries[fam.m] = entries.get(fam.m, CountPoly.zero()) + total
    return ResolvedTable(n, entries, exceptional, c.unresolved, unfolded)
