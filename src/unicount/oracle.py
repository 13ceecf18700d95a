"""Brute-force ground truth at tiny scale.

Everything here works with explicit group elements of 1 + J for a
concrete multiplication table, and only ever uses two facts: the number
of irreducible characters equals the number of conjugacy classes, and
the sum of squared degrees equals the group order.  No character theory
of the engine under test is reused.
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from .algdata import (AlgebraicData, ConcreteAlgebra, NonZero, TooLarge,
                      enumerate_substitutions, instantiate)
from .engine import Census
from .polyring import ParamPoly


class NotCentralIdeal(Exception):
    pass


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


def class_count(alg: ConcreteAlgebra, cap: int = 10**6) -> int:
    """Number of conjugacy classes of 1 + J, by orbit partition.

    Conjugation by the generators 1 + lambda e_i suffices: the classes
    are the orbits of the generated group, which is all of 1 + J.
    """
    n = alg.q**alg.dim
    if n > cap:
        raise TooLarge(f"group of order {n} exceeds cap {cap}")
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


def irr_count_at_z(alg: ConcreteAlgebra, z_label: int, cap: int = 10**6) -> int:
    """|Irr(1+J, <z>)| = k(1+J) - k(1+J/<z>), by inflation."""
    return class_count(alg, cap) - class_count(quotient_by(alg, z_label), cap)


def class_count_report(alg: ConcreteAlgebra, z_label: int | None = None,
                       cap: int = 10**6) -> dict:
    """Group order and class counts, optionally also for the quotient by <z>."""
    out = {"group_order": alg.q**alg.dim, "class_count": class_count(alg, cap),
           "quotient_class_count": None}
    if z_label is not None:
        out["quotient_class_count"] = class_count(quotient_by(alg, z_label), cap)
    return out


# ---------------------------------------------------------------------------
# checking engine output against brute force

def _family_oracle_totals(fam, q0: int, cap: int) -> tuple[int, int]:
    """(character count, sum of squared degrees) of one family record."""
    count = 0
    weight = 0
    dim = len(fam.data.basis)
    for h in enumerate_substitutions(fam.data, q0):
        alg = instantiate(fam.data, h, q0)
        if fam.kind == "at_z":
            count += irr_count_at_z(alg, fam.z, cap)
            weight += q0**dim - q0 ** (dim - 1)
        else:
            count += class_count(alg, cap)
            weight += q0**dim
    scale = (q0 - 1) ** fam.k * q0**fam.l
    return scale * count, scale * weight * q0 ** (2 * fam.m)


def census_totals_at(c: Census, q0: int, cap: int = 10**6) -> tuple[int, int]:
    """Evaluate a census at q = q0: (count at t:=1, count weighted by q^(2e)).

    Unresolved records and families are folded in by brute force, so the
    totals are exact whenever the pieces are small enough to enumerate.
    """
    from .algdata import enumerate_param_values

    count = c.resolved.eval_at(q0, "sum")
    weight = c.resolved.eval_at(q0, "weight_q2e")
    for r in c.unresolved:
        nsub = len(enumerate_param_values(r.params, r.restrictions, q0))
        contrib = (q0 - 1) ** r.u * q0**r.v * nsub
        count += contrib
        weight += contrib * q0 ** (2 * r.e)
    for fam in c.families:
        fc, fw = _family_oracle_totals(fam, q0, cap)
        count += fc
        weight += fw
    return count, weight


def verify_census(data: AlgebraicData, c: Census, q0: int, z: int | None = None,
                  cap: int = 10**6) -> dict:
    """Compare census totals with conjugacy-class counts at q = q0.

    For z = None the census must cover all characters of every encoded
    1 + J; otherwise only those nontrivial on 1 + <z>.  Reports both the
    plain count identity (t := 1) and the degree-weighted identity
    (t^e := q0^(2e), total = group order).
    """
    expected_count = 0
    expected_weight = 0
    dim = len(data.basis)
    for h in enumerate_substitutions(data, q0):
        alg = instantiate(data, h, q0)
        if z is None:
            expected_count += class_count(alg, cap)
            expected_weight += q0**dim
        else:
            expected_count += irr_count_at_z(alg, z, cap)
            expected_weight += q0**dim - q0 ** (dim - 1)
    actual_count, actual_weight = census_totals_at(c, q0, cap)
    return {
        "q": q0,
        "count_expected": expected_count,
        "count_actual": actual_count,
        "weight_expected": expected_weight,
        "weight_actual": actual_weight,
        "pass": expected_count == actual_count and expected_weight == actual_weight,
    }


# ---------------------------------------------------------------------------
# random inputs for differential checks

def symbolically_associative(data: AlgebraicData) -> bool:
    """(ab)c = a(bc) as an identity of the structure-constant polynomials."""
    def mono(fs):
        return ParamPoly.monomial(fs)

    for a in data.basis:
        for b in data.basis:
            prod_ab = data.product(a, b)
            for c in data.basis:
                lhs: dict[int, ParamPoly] = {}
                for w, f1 in prod_ab:
                    for v, f2 in data.product(w, c):
                        lhs[v] = lhs.get(v, ParamPoly.zero()) + mono(f1) * mono(f2)
                rhs: dict[int, ParamPoly] = {}
                for w, f1 in data.product(b, c):
                    for v, f2 in data.product(a, w):
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


def orbit_of_vector(poset_rel, elems, u: dict, q: int) -> set:
    """Orbit of a column vector under 1 + T_{C,R}(q), by closure.

    The generators 1 + lam e_{ij} act by v -> v + lam * v[j] e_i.
    """
    elems = list(elems)
    start = tuple(u.get(e, 0) for e in elems)
    idx = {e: i for i, e in enumerate(elems)}
    from .ffield import get_field
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
