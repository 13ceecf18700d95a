"""Brute-force ground truth at tiny scale.

The only module that substitutes values for parameters: exhaustive
substitution counts, the count audit, concrete multiplication tables,
and class counts of the groups 1 + J, which use only two facts: the
number of irreducible characters equals the number of conjugacy
classes, and the sum of squared degrees equals the group order.  The
engine under test never imports this module, and numpy is imported
only inside the two vectorised helpers.
"""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, NamedTuple

from .algdata import AlgebraicData, MalformedData, NonZero
from .engine import Census, EngineContext, resolve
from .ffield import get_field
from .patterns import Poset
from .polyring import ParamPoly


class BadSubstitution(Exception):
    pass


class NotAssociative(Exception):
    pass


class TooLarge(Exception):
    pass


class NotCentralIdeal(Exception):
    pass


# ---------------------------------------------------------------------------
# substitutions

def check_substitution(restrictions, h: Mapping[int, int], field) -> bool:
    return all(h[r.sym] != 0 if isinstance(r, NonZero) else r.poly.eval_in(field, h) == 0
               for r in restrictions)


def enumerate_param_values(params, restrictions, q: int, cap: int = 8) -> list[dict[int, int]]:
    """All substitutions params -> F_q satisfying the restrictions, exhaustively."""
    if len(params) > cap:
        raise TooLarge(f"{len(params)} parameters exceeds enumeration cap {cap}")
    field = get_field(q)
    hs = (dict(zip(params, vs)) for vs in itertools.product(range(q), repeat=len(params)))
    return [h for h in hs if check_substitution(restrictions, h, field)]


def count_values_bruteforce(params, restrictions, q: int, cap: int = 9) -> int:
    """|V(Q, E, q)| by exhaustive substitution, vectorised over all assignments."""
    n = len(params)
    if n > cap:
        raise TooLarge(f"{n} parameters exceeds enumeration cap {cap}")
    total = q**n
    if total <= 4096 or q == 4:
        return len(enumerate_param_values(params, restrictions, q, cap))
    # prime q: vectorised evaluation mod q
    import numpy as np

    idx = {p: i for i, p in enumerate(params)}
    pw = q ** np.arange(n, dtype=np.int64)
    grid = (np.arange(total, dtype=np.int64)[:, None] // pw[None, :]) % q
    mask = np.ones(total, dtype=bool)
    for r in restrictions:
        if isinstance(r, NonZero):
            mask &= grid[:, idx[r.sym]] != 0
        else:
            acc = np.zeros(total, dtype=np.int64)
            for m, c in r.poly.key():
                term = np.full(total, c % q, dtype=np.int64)
                for s, e in m:
                    # x^e mod q for every x in F_q, looked up by value
                    powers = np.array([pow(x, e, q) for x in range(q)], dtype=np.int64)
                    term = (term * powers[grid[:, idx[s]]]) % q
                acc = (acc + term) % q
            mask &= acc == 0
    return int(mask.sum())


# field sizes at which the count audit re-checks each counted system
AUDIT_QS = (2, 3, 4, 5)
AUDIT_MAX_PARAMS = 8


class CountAudit(NamedTuple):
    audited: int        # counted systems re-checked at every q in AUDIT_QS
    skipped: int        # counted systems with more than AUDIT_MAX_PARAMS parameters
    violations: list    # one dict per (system, q) at which the counts differ


def audit_counts(*memos: Mapping) -> CountAudit:
    """Re-check the counted entries of EngineContext count memos.

    Memo by memo, in insertion order, each counted system of at most
    AUDIT_MAX_PARAMS parameters is counted by exhaustive substitution at
    q in AUDIT_QS and compared with its polynomial evaluated there.
    """
    audited = skipped = 0
    violations = []
    for (params, restrictions), poly in (item for memo in memos for item in memo.items()):
        if poly is None:
            continue
        if len(params) > AUDIT_MAX_PARAMS:
            skipped += 1
            continue
        audited += 1
        for q0 in AUDIT_QS:
            brute = count_values_bruteforce(params, restrictions, q0)
            got = poly.eval_at(q0)
            if got != brute:
                violations.append({"params": params, "q": q0, "poly": repr(poly),
                                   "expected": brute, "got": got})
    return CountAudit(audited, skipped, violations)


# ---------------------------------------------------------------------------
# concrete algebras

class ConcreteAlgebra:
    """A fully instantiated nilpotent algebra over a small F_q.

    table[i][j] is the coordinate vector of e_i * e_j in the basis.
    Associativity is verified exhaustively at construction.
    """

    __slots__ = ("q", "dim", "labels", "table", "field")

    def __init__(self, q: int, labels: Iterable[int], table, _skip_check=False):
        self.q = q
        self.field = get_field(q)
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        if not _skip_check:
            self._check()

    def _check(self):
        for i in range(self.dim):
            for j in range(self.dim):
                if any(self.table[i][j][:max(i, j) + 1]):
                    raise MalformedData("instantiated table is not strictly triangular")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.mult(self.table[i][j], self.unit(k))
                    rhs = self.mult(self.unit(i), self.table[j][k])
                    if lhs != rhs:
                        raise NotAssociative(
                            f"(e{i}e{j})e{k} != e{i}(e{j}e{k})")

    def unit(self, i: int) -> tuple[int, ...]:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def mult(self, u, v) -> tuple[int, ...]:
        f = self.field
        out = [0] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.table[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = f.mul(ui, vj)
                cell = row[j]
                for k, ck in enumerate(cell):
                    if ck:
                        out[k] = f.add(out[k], f.mul(c, ck))
        return tuple(out)

    def index_of(self, label: int) -> int:
        return self.labels.index(label)


def instantiate(data: AlgebraicData, h: Mapping[int, int], q: int) -> ConcreteAlgebra:
    """Build the multiplication table for the substitution h in V(Q, E, q)."""
    field = get_field(q)
    for p in data.params:
        if p not in h:
            raise BadSubstitution(f"missing value for parameter p{p}")
    if not check_substitution(data.restrictions, h, field):
        raise BadSubstitution("substitution violates the restrictions")
    dim = len(data.basis)
    pos = {b: i for i, b in enumerate(data.basis)}
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for x, y, ts in data.prods:
        row = table[pos[x]][pos[y]]
        for z, fs in ts:
            c = 1
            for a in fs:
                c = field.mul(c, h[a])
            row[pos[z]] = field.add(row[pos[z]], c)
    return ConcreteAlgebra(q, data.basis, table)


# ---------------------------------------------------------------------------
# class counts

class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def count(self) -> int:
        return sum(1 for i, p in enumerate(self.parent) if self.find(i) == i)


def _group_inverse(alg: ConcreteAlgebra, v):
    """w with (1+v)(1+w) = 1, via the nilpotent fixed point w = -v - v*w."""
    f = alg.field
    w = tuple(f.neg(c) for c in v)
    for _ in range(alg.dim + 1):
        vw = alg.mult(v, w)
        w = tuple(f.neg(f.add(v[i], vw[i])) for i in range(alg.dim))
    return w


def _group_mult(alg: ConcreteAlgebra, u, v):
    """(1+u)(1+v) = 1 + u + v + uv."""
    f = alg.field
    uv = alg.mult(u, v)
    return tuple(f.add(f.add(u[i], v[i]), uv[i]) for i in range(alg.dim))


# the largest group order that class_count enumerates
CLASS_COUNT_CAP = 10**6


def class_count(alg: ConcreteAlgebra) -> int:
    """Number of conjugacy classes of 1 + J, by orbit partition.

    Conjugation by the generators 1 + lambda e_i suffices: the classes
    are the orbits of the generated group, which is all of 1 + J.
    """
    n = alg.q**alg.dim
    if n > CLASS_COUNT_CAP:
        raise TooLarge(f"group of order {n} exceeds cap {CLASS_COUNT_CAP}")
    if alg.dim == 0:
        return 1
    gens = [(i, lam) for i in range(alg.dim) for lam in range(1, alg.q)]
    if alg.field.is_prime and n >= 2048:
        return _class_count_np(alg, gens)
    return _class_count_py(alg, gens)


def _class_count_py(alg: ConcreteAlgebra, gens) -> int:
    q, dim = alg.q, alg.dim
    elements = list(itertools.product(range(q), repeat=dim))
    index = {e: i for i, e in enumerate(elements)}
    uf = _UnionFind(len(elements))
    for i, lam in gens:
        v = tuple(lam if k == i else 0 for k in range(dim))
        u = _group_inverse(alg, v)
        for x in elements:
            t = _group_mult(alg, _group_mult(alg, u, x), v)
            uf.union(index[x], index[t])
    return uf.count()


def _class_count_np(alg: ConcreteAlgebra, gens) -> int:
    import numpy as np

    p, dim = alg.q, alg.dim
    n = p**dim
    pw = p ** np.arange(dim, dtype=np.int64)
    X = (np.arange(n, dtype=np.int64)[:, None] // pw[None, :]) % p
    T = np.array(alg.table, dtype=np.int64)
    eye = np.eye(dim, dtype=np.int64)
    uf = _UnionFind(n)
    union = uf.union
    for i, lam in gens:
        v = np.zeros(dim, dtype=np.int64)
        v[i] = lam
        u = np.array(_group_inverse(alg, tuple(int(c) for c in v)), dtype=np.int64)
        lu = np.tensordot(u, T, axes=(0, 0)) % p          # [j,k]: (u x)_k
        rv = np.tensordot(v, T, axes=(0, 1)) % p          # [j,k]: (x v)_k
        uv = np.tensordot(u, np.tensordot(v, T, axes=(0, 1)) % p, axes=(0, 0)) % p
        mat = (eye + lu + rv + lu @ rv) % p
        const = (u + v + uv) % p
        tgt = ((X @ mat + const) % p) @ pw
        for a, b in enumerate(tgt.tolist()):
            if a != b:
                union(a, b)
    return uf.count()


def quotient_by(alg: ConcreteAlgebra, z_label: int) -> ConcreteAlgebra:
    """The algebra J / <z> for a z with Jz = zJ = 0."""
    zi = alg.index_of(z_label)
    for j in range(alg.dim):
        if any(alg.table[zi][j]) or any(alg.table[j][zi]):
            raise NotCentralIdeal(f"basis vector {z_label} is a factor")
    keep = [i for i in range(alg.dim) if i != zi]
    table = [[[alg.table[i][j][k] for k in keep] for j in keep] for i in keep]
    return ConcreteAlgebra(alg.q, (alg.labels[i] for i in keep), table,
                           _skip_check=True)


def irr_count_at_z(alg: ConcreteAlgebra, z_label: int) -> int:
    """|Irr(1+J, <z>)| = k(1+J) - k(1+J/<z>), by inflation."""
    return class_count(alg) - class_count(quotient_by(alg, z_label))


# ---------------------------------------------------------------------------
# checking engine output against brute force

def _oracle_totals(data: AlgebraicData, z: int | None, q0: int) -> tuple[int, int]:
    """(character count, sum of squared degrees) over every group data
    encodes at q0; with z, only the characters nontrivial on 1 + <z>."""
    count = 0
    weight = 0
    dim = len(data.basis)
    for h in enumerate_param_values(data.params, data.restrictions, q0):
        alg = instantiate(data, h, q0)
        if z is None:
            count += class_count(alg)
            weight += q0**dim
        else:
            count += irr_count_at_z(alg, z)
            weight += q0**dim - q0 ** (dim - 1)
    return count, weight


def census_totals_at(c: Census, q0: int) -> tuple[int, int]:
    """Evaluate a census at q = q0: (count at t:=1, count weighted by q^(2e)).

    Unresolved records and families are folded in by brute force, so the
    totals are exact whenever the pieces are small enough to enumerate.
    """
    count = c.resolved.eval_at(q0)
    weight = c.resolved.eval_at(q0, q0**2)
    for r in c.unresolved:
        nsub = count_values_bruteforce(r.params, r.restrictions, q0)
        contrib = (q0 - 1) ** r.u * q0**r.v * nsub
        count += contrib
        weight += contrib * q0 ** (2 * r.e)
    for fam in c.families:
        # a family from census has z None, one from census_at its z
        fc, fw = _oracle_totals(fam.data, fam.z, q0)
        scale = (q0 - 1) ** fam.k * q0**fam.l
        count += scale * fc
        weight += scale * fw * q0 ** (2 * fam.m)
    return count, weight


def verify_census(data: AlgebraicData, c: Census, q0: int, z: int | None = None) -> dict:
    """Compare census totals with conjugacy-class counts at q = q0.

    For z = None the census must cover all characters of every encoded
    1 + J; otherwise only those nontrivial on 1 + <z>.  Reports both the
    plain count identity (t := 1) and the degree-weighted identity
    (t^e := q0^(2e), total = group order).
    """
    expected_count, expected_weight = _oracle_totals(data, z, q0)
    actual_count, actual_weight = census_totals_at(c, q0)
    return {
        "q": q0,
        "count_expected": expected_count,
        "count_actual": actual_count,
        "weight_expected": expected_weight,
        "weight_actual": actual_weight,
        "pass": expected_count == actual_count and expected_weight == actual_weight,
    }


def census_disagreement(a: Census, b: Census, n: int,
                        ctx: EngineContext | None = None) -> str | None:
    """Why two censuses of one algebra on n elements give different
    tables, or None when they agree.

    The resolved tables are compared entry by entry when neither keeps an
    unresolved count record or an unfolded family.  A table lacks the rows
    of both, so otherwise the totals at q = 2 and 3 are compared, with
    every record and family counted by brute force in
    ``census_totals_at``, which raises ``TooLarge`` past its bounds.
    """
    ta, tb = resolve(a, n, ctx), resolve(b, n, ctx)
    if not (ta.unresolved or tb.unresolved or ta.unfolded or tb.unfolded):
        return None if ta.entries == tb.entries else "resolved tables differ"
    for q0 in (2, 3):
        if census_totals_at(a, q0) != census_totals_at(b, q0):
            return f"totals differ at q = {q0}"
    return None


# ---------------------------------------------------------------------------
# random inputs for differential checks

def symbolically_associative(data: AlgebraicData) -> bool:
    """(ab)c = a(bc) as an identity of the structure-constant polynomials."""
    def mono(fs):
        return ParamPoly.monomial(fs)

    prods = data.products_dict()
    for a in data.basis:
        for b in data.basis:
            prod_ab = prods.get((a, b), ())
            for c in data.basis:
                lhs: dict[int, ParamPoly] = {}
                for w, f1 in prod_ab:
                    for v, f2 in prods.get((w, c), ()):
                        lhs[v] = lhs.get(v, ParamPoly.zero()) + mono(f1) * mono(f2)
                rhs: dict[int, ParamPoly] = {}
                for w, f1 in prods.get((b, c), ()):
                    for v, f2 in prods.get((a, w), ()):
                        rhs[v] = rhs.get(v, ParamPoly.zero()) + mono(f1) * mono(f2)
                for v in set(lhs) | set(rhs):
                    if lhs.get(v, ParamPoly.zero()) != rhs.get(v, ParamPoly.zero()):
                        return False
    return True


def random_algebraic_data(rng: random.Random, max_dim: int = 5,
                          max_params: int = 2) -> AlgebraicData:
    """A random valid family: nilpotent basis order, all parameters nonzero.

    Rejection-sampled until the structure constants are associative for
    every substitution (checked symbolically).
    """
    while True:
        dim = rng.randint(2, max_dim)
        nparams = rng.randint(0, max_params)
        products = {}
        for i in range(dim):
            for j in range(dim):
                for k in range(max(i, j) + 1, dim):
                    if rng.random() < 0.3:
                        if nparams:
                            fs = frozenset(rng.sample(range(nparams),
                                                      rng.randint(0, min(2, nparams))))
                        else:
                            fs = frozenset()
                        products.setdefault((i, j), []).append((k, fs))
        data = AlgebraicData(range(nparams), [NonZero(p) for p in range(nparams)],
                             range(dim), products)
        if symbolically_associative(data):
            return data



def closed_order(m: int, rel: Iterable[tuple[int, int]]) -> Poset:
    """The order on 1..m that the pairs rel, each (i, j) with i < j,
    generate.  The labels extend it, so closing from the top down
    suffices."""
    rel = set(rel)
    for i in range(m, 0, -1):
        rel |= {(i, k) for a, j in list(rel) if a == i for b, k in list(rel) if b == j}
    return Poset(range(1, m + 1), rel)


def orbit_of_vector(poset_rel, elems, u: dict, q: int) -> set:
    """Orbit of a column vector under 1 + T_{C,R}(q), by closure.

    The generators 1 + lam e_{ij} act by v -> v + lam * v[j] e_i.
    """
    elems = list(elems)
    start = tuple(u.get(e, 0) for e in elems)
    idx = {e: i for i, e in enumerate(elems)}
    f = get_field(q)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for (i, j) in poset_rel:
            vj = v[idx[j]]
            if not vj:
                continue
            for lam in range(1, q):
                w = list(v)
                w[idx[i]] = f.add(w[idx[i]], f.mul(lam, vj))
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen
