"""The recursive contraction engine.

``census(data)`` produces a breakdown of all irreducible characters of
the algebra groups encoded by the data; ``census_at(data, z)`` does the
same for the characters that are nontrivial on the central subgroup
1 + <z>.  A Census is a triple: an exactly counted part (a polynomial
in Z[q, t]), unresolved substitution-count records, and unresolved
family records that the engine could not contract to dimension <= 1.

The two functions call each other: census strips an annihilated basis
vector z and splits Irr into the characters trivial on 1 + <z> (a
smaller census) and the rest (census_at).  census_at applies, in order,
a direct-sum peel, a good-pair contraction that removes two dimensions
and multiplies degrees by t, a central-column fold that introduces free
parameters, and finally gives up, emitting a family record.

Both walks are memoised per EngineContext.  A lookup first reduces the
restrictions and then canonicalizes in one pass to a compact key of
ints and tuples; census_at adds the position of z.  Only on a miss is
the canonical AlgebraicData rebuilt from the key, and the memo never
keeps it: after the walk returns, only a Family record still refers
to it.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .algdata import (AlgebraicData, Equation, NonZero, canonicalize,
                      count_values_bruteforce, split_into_cases)
from .polyring import CountPoly, ParamPoly
from . import solcount


class BadWitness(Exception):
    pass


class UnknownCore(Exception):
    pass


class URecord(NamedTuple):
    """An uncounted substitution system: contributes (q-1)^u q^v |V| t^e."""
    params: tuple[int, ...]
    restrictions: tuple
    u: int
    v: int
    e: int


class Family(NamedTuple):
    """An uncontracted family, with count scale (q-1)^k q^l and degree shift t^m."""
    kind: str                 # "all" or "at_z"
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
    return Census(
        c.resolved.scale(k, l, m),
        tuple(r._replace(u=r.u + k, v=r.v + l, e=r.e + m) for r in c.unresolved),
        tuple(f._replace(k=f.k + k, l=f.l + l, m=f.m + m) for f in c.families),
    )


def aggregate(parts: Iterable[Census]) -> Census:
    parts = tuple(parts)
    return Census(CountPoly.sum(p.resolved for p in parts),
                  tuple(r for p in parts for r in p.unresolved),
                  tuple(f for p in parts for f in p.families))


# ---------------------------------------------------------------------------
# context

# field sizes at which the count audit re-checks each counted system
AUDIT_QS = (2, 3, 4, 5)


class EngineContext:
    """Per-run state: memo tables, the node budget, and optional count auditing."""

    def __init__(self, debug_counts: bool = False, max_nodes: int = 500_000_000,
                 validate: bool = False):
        # keyed by canonicalize's tuples, and (tuple, position of z)
        self.memo_all: dict[tuple, Census] = {}
        self.memo_at: dict[tuple[tuple, int], Census] = {}
        self.memo_pattern: dict = {}
        self.memo_counts: dict = {}
        self.debug_counts = debug_counts
        self.count_violations: list = []
        self._checked = set()
        self.max_nodes = max_nodes
        self.validate = validate
        self.nodes = 0
        self.stats: dict[str, int] = {}

    def bump(self, key: str, n: int = 1):
        self.stats[key] = self.stats.get(key, 0) + n

    def count(self, params, restrictions) -> solcount.CountResult:
        key = (tuple(params), tuple(r.sort_key() for r in restrictions))
        res = self.memo_counts.get(key)
        if res is None:
            res = solcount.count_solutions(params, restrictions)
            self.memo_counts[key] = res
        if self.debug_counts and res.counted and len(key[0]) <= 8 and key not in self._checked:
            self._checked.add(key)
            for q0 in AUDIT_QS:
                brute = count_values_bruteforce(params, restrictions, q0)
                got = res.poly.eval_at(q0)
                if got != brute:
                    self.count_violations.append(
                        {"params": tuple(params), "q": q0,
                         "poly": repr(res.poly), "expected": brute, "got": got})
        return res


# ---------------------------------------------------------------------------
# restriction pruning

def _reduce(data: AlgebraicData):
    """Strip restriction content that does not interact with the products.

    Returns (k, l, params, restrictions): census(data) is (q-1)^k q^l
    times the census of data with these parameters and restrictions.
    Returns None when the restrictions are contradictory.  Keeping data
    lean here is what lets isomorphic subproblems from different
    branches share memo entries.
    """
    k, l, params, restrictions, empty = solcount.reduce_system(
        data.params, data.restrictions, protected=data.symbols_in_products())
    if empty:
        return None
    return k, l, params, restrictions


# ---------------------------------------------------------------------------
# the two mutually recursive walks

def census(data: AlgebraicData, ctx: EngineContext) -> Census:
    """A correct breakdown of all irreducible characters encoded by data."""
    reduced = _reduce(data)
    if reduced is None:
        return ZERO_CENSUS
    k, l, params, restrictions = reduced
    key = canonicalize(data, params, restrictions)
    hit = ctx.memo_all.get(key)
    if hit is None:
        hit = _census_core(AlgebraicData.from_key(key), ctx)
        ctx.memo_all[key] = hit
    return scale_census(hit, k, l, 0)


def _census_core(data: AlgebraicData, ctx: EngineContext) -> Census:
    ctx.nodes += 1
    if ctx.validate:
        data.validate()
        assert data.satisfies_nz(), "census requires nonzero-restricted structure constants"
    if not data.prods:
        # every encoded algebra has zero multiplication: q^dim linear
        # characters per admissible substitution
        res = ctx.count(data.params, data.restrictions)
        if res.counted:
            return Census(res.poly.scale(0, len(data.basis), 0), (), ())
        return Census(CountPoly.zero(),
                      (URecord(data.params, data.restrictions, 0, len(data.basis), 0),),
                      ())
    if ctx.nodes > ctx.max_nodes:
        ctx.bump("budget_families")
        return Census(CountPoly.zero(), (), (Family("all", data, None, 0, 0, 0),))
    z = _choose_z(data)
    trivial_on_z = census(data.remove_basis(z), ctx)
    nontrivial = census_at(data, z, ctx)
    return aggregate((trivial_on_z, nontrivial))


def _choose_z(data: AlgebraicData) -> int:
    """Deterministic peel choice: last annihilated vector, preferring hit ones."""
    factors = data.left_factors | data.right_factors
    cands = [b for b in data.basis if b not in factors]
    hit = data.hit_targets
    hit_cands = [b for b in cands if b in hit]
    return (hit_cands or cands)[-1]


def census_at(data: AlgebraicData, z: int, ctx: EngineContext) -> Census:
    """A correct breakdown of the characters nontrivial on 1 + <z>."""
    reduced = _reduce(data)
    if reduced is None:
        return ZERO_CENSUS
    k, l, params, restrictions = reduced
    key = canonicalize(data, params, restrictions)
    z_pos = data.pos(z)
    hit = ctx.memo_at.get((key, z_pos))
    if hit is None:
        hit = _census_at_core(AlgebraicData.from_key(key), z_pos, ctx)
        ctx.memo_at[(key, z_pos)] = hit
    return scale_census(hit, k, l, 0)


def _census_at_core(data: AlgebraicData, z: int, ctx: EngineContext) -> Census:
    ctx.nodes += 1
    if ctx.validate:
        data.validate()
        assert not data.is_factor(z), "census_at requires an annihilated z"

    # direct sum peel: nothing multiplies into z, so <z> splits off and
    # contributes the q-1 nontrivial characters of 1 + <z>
    if not data.products_into(z):
        part = census(data.remove_basis(z), ctx)
        return scale_census(part, 1, 0, 0)

    if ctx.nodes > ctx.max_nodes:
        ctx.bump("budget_families")
        return Census(CountPoly.zero(), (), (Family("at_z", data, z, 0, 0, 0),))

    y = _good_pair_witness(data, z)
    if y is not None:
        contracted = contract_type_b(data, z, y)
        parts = [census_at(case, z, ctx) for case in split_into_cases(contracted)]
        return scale_census(aggregate(parts), 0, 0, 1)

    pick = _fold_witness(data, z)
    if pick is not None:
        contracted = contract_type_a(data, z, pick)
        parts = [census_at(case, z, ctx) for case in split_into_cases(contracted)]
        return aggregate(parts)

    ctx.bump("giveup_families")
    return Census(CountPoly.zero(), (), (Family("at_z", data, z, 0, 0, 0),))


def _good_pair_witness(data: AlgebraicData, z: int) -> int | None:
    """First y with Jy = 0 and yJ = <z> (nonzero), in basis order."""
    rf = data.right_factors
    by_left = data.products_by_left()
    for y in data.basis:
        if y in rf:
            continue
        rows = by_left.get(y)
        if not rows:
            continue
        if all(w == z for _, ts in rows for w, _ in ts):
            return y
    return None


def _fold_witness(data: AlgebraicData, z: int) -> int | None:
    """A y with Jy = 0 whose products land on annihilated vectors only.

    Preference: the image should contain z if possible, then be as small
    as possible, ties by basis order.  Vacuous witnesses (yJ = 0) make
    no progress and are skipped.
    """
    rf = data.right_factors
    factors = data.left_factors | rf
    annihilated = {b for b in data.basis if b not in factors}
    by_left = data.products_by_left()
    best = None
    best_key = None
    for i, y in enumerate(data.basis):
        if y in rf:
            continue
        rows = by_left.get(y)
        if not rows:
            continue
        image = {w for _, ts in rows for w, _ in ts}
        if not image <= annihilated:
            continue
        key = (0 if z in image else 1, len(image), i)
        if best_key is None or key < best_key:
            best, best_key = y, key
    return best


# ---------------------------------------------------------------------------
# contractions

def _product_pusher(data: AlgebraicData, new_products: dict, extra_params: list,
                    extra_restrictions: list):
    """Shared conversion of structure-constant expressions into factor sets.

    A square-free monomial with coefficient +1 is stored directly.  A
    signed unit monomial in nonzero-restricted parameters gets a fresh
    defining parameter together with an implied inequation (its value
    can never vanish).  Anything else gets a fresh parameter and a
    defining equation only; the later case split decides whether it
    vanishes.
    """
    nzset = data.nz_params
    counter = [max(data.params, default=-1) + 1]

    def fresh() -> int:
        p = counter[0]
        counter[0] += 1
        extra_params.append(p)
        return p

    def push(u: int, v: int, w: int, expr: ParamPoly):
        if expr.is_zero():
            return
        sm = expr.single_monomial()
        if sm is not None:
            coeff, mono = sm
            if coeff == 1 and all(e == 1 for _, e in mono):
                new_products.setdefault((u, v), []).append(
                    (w, frozenset(s for s, _ in mono)))
                return
            if abs(coeff) == 1 and all(s in nzset for s, _ in mono):
                d = fresh()
                extra_restrictions.append(Equation(ParamPoly.var(d) - expr))
                extra_restrictions.append(NonZero(d))
                new_products.setdefault((u, v), []).append((w, frozenset([d])))
                return
        d = fresh()
        extra_restrictions.append(Equation(ParamPoly.var(d) - expr))
        new_products.setdefault((u, v), []).append((w, frozenset([d])))

    return push, fresh


def contract_type_b(data: AlgebraicData, z: int, y: int) -> AlgebraicData:
    """Restrict to the centraliser of the good pair (<z>, <y>) and deflate.

    The vectors x_1 < ... < x_k with y x_i != 0 are replaced by the k-1
    combinations x'_i = c_k x_i - c_i x_k killed by y; y and x_k leave
    the basis.  Structure constants are rewritten accordingly, dividing
    by c_k for products that land on some x_l (recorded as an equation
    d * c_k = P when the factor sets do not literally contain c_k's).
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
    xs.sort(key=data.pos)
    xk = xs[-1]
    ck_set = csets[xk]
    ck = ParamPoly.monomial(ck_set)

    next_b = max(data.basis) + 1
    xprime = {x: next_b + i for i, x in enumerate(xs[:-1])}
    new_basis = []
    for b in data.basis:
        if b == y or b == xk:
            continue
        new_basis.append(xprime.get(b, b))
    old_of = {nb: x for x, nb in xprime.items()}

    new_products: dict = {}
    extra_params: list[int] = []
    extra_restrictions: list = []
    push, fresh = _product_pusher(data, new_products, extra_params, extra_restrictions)

    def mono(fs):
        return ParamPoly.monomial(fs)

    def targets(a, b):
        return {w: fs for w, fs in data.product(a, b)}

    for u in new_basis:
        xu = old_of.get(u)
        for v in new_basis:
            xv = old_of.get(v)
            if xu is None and xv is None:
                for w, fs in data.product(u, v):
                    if w == y or w == xk:
                        continue
                    if w in xprime:
                        # division case: d = P(u, v, x_l) / c_k
                        if ck_set <= fs:
                            new_products.setdefault((u, v), []).append(
                                (xprime[w], fs - ck_set))
                        else:
                            d = fresh()
                            extra_restrictions.append(
                                Equation(ParamPoly.var(d) * ck - mono(fs)))
                            extra_restrictions.append(NonZero(d))
                            new_products.setdefault((u, v), []).append(
                                (xprime[w], frozenset([d])))
                    else:
                        new_products.setdefault((u, v), []).append((w, fs))
            elif xu is None:
                ci = mono(csets[xv])
                t1 = targets(u, xv)
                t2 = targets(u, xk)
                for w in sorted(set(t1) | set(t2), key=data.pos):
                    if w == y or w == xk:
                        continue
                    if w in xprime:
                        if w in t1:
                            new_products.setdefault((u, v), []).append(
                                (xprime[w], t1[w]))
                    else:
                        e1 = ck * mono(t1[w]) if w in t1 else ParamPoly.zero()
                        e2 = ci * mono(t2[w]) if w in t2 else ParamPoly.zero()
                        push(u, v, w, e1 - e2)
            elif xv is None:
                ci = mono(csets[xu])
                t1 = targets(xu, v)
                t2 = targets(xk, v)
                for w in sorted(set(t1) | set(t2), key=data.pos):
                    if w == y or w == xk:
                        continue
                    if w in xprime:
                        if w in t1:
                            new_products.setdefault((u, v), []).append(
                                (xprime[w], t1[w]))
                    else:
                        e1 = ck * mono(t1[w]) if w in t1 else ParamPoly.zero()
                        e2 = ci * mono(t2[w]) if w in t2 else ParamPoly.zero()
                        push(u, v, w, e1 - e2)
            else:
                ci = mono(csets[xu])
                cj = mono(csets[xv])
                tij = targets(xu, xv)
                tkj = targets(xk, xv)
                tik = targets(xu, xk)
                tkk = targets(xk, xk)
                for w in sorted(set(tij) | set(tkj) | set(tik) | set(tkk), key=data.pos):
                    if w == y or w == xk:
                        continue
                    if w in xprime:
                        if w in tij:
                            push(u, v, xprime[w], ck * mono(tij[w]))
                    else:
                        expr = ParamPoly.zero()
                        if w in tij:
                            expr = expr + ck * ck * mono(tij[w])
                        if w in tkj:
                            expr = expr - ci * ck * mono(tkj[w])
                        if w in tik:
                            expr = expr - cj * ck * mono(tik[w])
                        if w in tkk:
                            expr = expr + ci * cj * mono(tkk[w])
                        push(u, v, w, expr)

    return AlgebraicData(data.params + tuple(extra_params),
                         data.restrictions + tuple(extra_restrictions),
                         new_basis, new_products)


def contract_type_a(data: AlgebraicData, z: int, y: int) -> AlgebraicData:
    """Quotient by the central subspaces <w_i - b_i z> for fresh free b_i.

    The annihilated vectors w_1..w_k hit by y (other than z) fold into a
    relabelled z placed last in the basis; products into w_i reappear in
    the z column with coefficient b_i.
    """
    if y in data.right_factors:
        raise BadWitness("y must satisfy Jy = 0")
    factors = data.left_factors | data.right_factors
    annihilated = {b for b in data.basis if b not in factors}
    rows = data.products_by_left().get(y, ())
    image = {w for _, ts in rows for w, _ in ts}
    if not image <= annihilated:
        raise BadWitness("products out of y must land on annihilated vectors")
    ws = [w for w in data.basis if w in image and w != z]

    next_p = max(data.params, default=-1) + 1
    bparam = {w: next_p + i for i, w in enumerate(ws)}
    removed = set(ws) | {z}
    new_basis = [b for b in data.basis if b not in removed] + [z]

    new_products: dict = {}
    extra_params: list[int] = []
    extra_restrictions: list = []
    # pusher must allocate fresh names after the b_i
    shifted = AlgebraicData(data.params + tuple(bparam.values()),
                            data.restrictions, data.basis, data.products_dict())
    push, _ = _product_pusher(shifted, new_products, extra_params, extra_restrictions)

    for u, v, ts in data.prods:
        expr = ParamPoly.zero()
        for w, fs in ts:
            if w == z:
                expr = expr + ParamPoly.monomial(fs)
            elif w in bparam:
                expr = expr + ParamPoly.monomial(fs) * ParamPoly.var(bparam[w])
            else:
                new_products.setdefault((u, v), []).append((w, fs))
        push(u, v, z, expr)

    return AlgebraicData(data.params + tuple(bparam.values()) + tuple(extra_params),
                         data.restrictions + tuple(extra_restrictions),
                         new_basis, new_products)


# ---------------------------------------------------------------------------
# final resolution

class ResolvedTable:
    """The nonzero degree-count polynomials N_{n,e}(q) for one n.

    ``exceptional`` pairs each surviving family record with its total
    character count (already folded into the table entries).
    """

    def __init__(self, n: int, entries: dict[int, CountPoly],
                 exceptional: Iterable[tuple[Family, CountPoly]] = (),
                 unresolved=()):
        self.n = n
        self.entries = {e: p for e, p in sorted(entries.items()) if not p.is_zero()}
        self.exceptional = list(exceptional)
        self.unresolved = tuple(unresolved)

    def full_poly(self) -> CountPoly:
        return CountPoly.sum(p.scale(0, 0, e) for e, p in self.entries.items())

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

    @staticmethod
    def from_json(obj: dict) -> "ResolvedTable":
        entries = {row["e"]: CountPoly.from_json(row["poly"]) for row in obj["table"]}
        exceptional = []
        for fj in obj.get("families", ()):
            data = AlgebraicData.from_json(fj["core"])
            z = int(fj["z"][1:])
            fam = Family("at_z", data, z, fj["k"], fj["l"], fj["m"])
            exceptional.append((fam, CountPoly.from_json(fj["count"])))
        unresolved = []
        for uj in obj.get("unresolved_counts", ()):
            system = AlgebraicData.from_json(uj["system"])
            unresolved.append(URecord(system.params, system.restrictions,
                                      uj["u"], uj["v"], uj["e"]))
        return ResolvedTable(obj["n"], entries, exceptional, unresolved)


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

    A surviving family must have the x F_q[x]/(x^3) core shape; its
    1 + K then contributes q(q-1) characters per admissible substitution,
    all of degree 1 before the t^m shift.  Families whose restrictions
    are contradictory encode nothing and are dropped.
    """
    ctx = ctx or EngineContext()
    entries: dict[int, CountPoly] = {}
    for e in c.resolved.t_degrees():
        entries[e] = c.resolved.coeff_of_t(e)
    exceptional = []
    for fam in c.families:
        cnt = ctx.count(fam.data.params, fam.data.restrictions)
        if not cnt.counted:
            raise UnknownCore("family with unresolved substitution count")
        if cnt.poly.is_zero():
            continue
        if fam.kind != "at_z" or not _is_small_core(fam.data, fam.z):
            raise UnknownCore(f"unrecognised family core: {fam.data!r}")
        per_sub = CountPoly({(2, 0): 1, (1, 0): -1})  # q(q-1) characters each
        total = (cnt.poly * per_sub).scale(fam.k, fam.l, 0)
        exceptional.append((fam, total))
        entries[fam.m] = entries.get(fam.m, CountPoly.zero()) + total
    return ResolvedTable(n, entries, exceptional, c.unresolved)
