"""Parametrised families of nilpotent algebras.

An AlgebraicData value encodes, for every prime power q at once, a
family of nilpotent F_q-algebras: an ordered basis, structure constants
given as products of parameter symbols, and restrictions (inequations
a != 0 and integer polynomial equations) cutting out the admissible
parameter values.  Nothing here substitutes values: the concrete
algebras and exhaustive counts that do live in ``oracle``.

Parameter symbols and basis labels are interned ints; the ordering of
the basis is the order of the ``basis`` tuple.  Values are immutable
after construction; derived views such as the product map and the
memo key are filled in on first use.

The products are stored as ``prods``, a tuple of rows (x, y, targets)
in increasing (position of x, position of y) order.  Each ``targets``
is a nonempty tuple of (z, factor frozenset) in strictly increasing
position of z.  The public constructor takes products as a mapping and
sorts them into this form.  The builders on the engine's paths,
``from_key``, ``on_named``, ``remove_basis``, ``split_into_cases`` and
``engine._change_basis``, already produce rows in this order and pass
them to ``AlgebraicData._from_sorted``, which keeps them as they are;
``validate`` checks the form.

The memo key of a data value is one flat tuple of ints, written by
``_encode`` for both ``canonicalize`` and ``AlgebraicData.key``.  The
engine reads a key back with ``AlgebraicData.from_key`` only for a node
with parameters and for a family record (``canonical``).  Every
variable-length part is preceded by its length, so a key parses left to
right in exactly one way:

    nparams, p_1 .. p_nparams,
    nrestrictions, then per restriction in ``sort_key`` order either
        0, sym                    (sym != 0), or
        1, nterms, then per term  nvars, s_1, e_1 .. s_nvars, e_nvars, coeff
                                  (the equation sum of the terms = 0),
    dim,
    then per product row:  x, y, ntargets, then per target  z, nfactors, f_1 ..

with x, y and z basis positions; ``canonicalize`` numbers, and counts in
dim, only the vectors that some product names.  Equation coefficients
are unbounded, so a key stays a tuple of Python ints; it is never
hashed to a digest, whose collisions would serve a wrong census.  A
flat tuple of small ints takes a fraction of the memory of the same
content as nested tuples, and gives the cyclic garbage collector
nothing to follow.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Mapping

from .polyring import ParamPoly


class MalformedData(Exception):
    pass


class NonZero:
    """Restriction: the parameter is nonzero."""

    __slots__ = ("sym",)

    def __init__(self, sym: int):
        self.sym = sym

    def sort_key(self):
        return (0, self.sym)

    def __eq__(self, other):
        return isinstance(other, NonZero) and other.sym == self.sym

    def __hash__(self):
        return hash(("nz", self.sym))

    def __repr__(self):
        return f"p{self.sym} != 0"


class Equation:
    """Restriction: the polynomial vanishes."""

    __slots__ = ("poly",)

    def __init__(self, poly: ParamPoly):
        self.poly = poly

    def sort_key(self):
        return (1, self.poly.key())

    def __eq__(self, other):
        return isinstance(other, Equation) and other.poly == self.poly

    def __hash__(self):
        return hash(("eq", self.poly.key()))

    def __repr__(self):
        return f"{self.poly} = 0"


Restriction = NonZero | Equation


def set_zero(params: Iterable[int], restrictions: Iterable[Restriction],
             x: int) -> tuple[tuple[int, ...], tuple[Restriction, ...]]:
    """The system with x := 0: x leaves the parameters, its inequation is
    dropped, every equation loses its terms in x, and an equation left
    with no terms is dropped."""
    out = []
    for r in restrictions:
        if isinstance(r, NonZero):
            if r.sym != x:
                out.append(r)
        else:
            poly = r.poly.drop_symbol(x)
            if not poly.is_zero():
                out.append(Equation(poly))
    return tuple(p for p in params if p != x), tuple(out)


# products maps an ordered factor pair to its targets with factor sets;
# an empty factor set means structure constant 1.
Targets = tuple[tuple[int, frozenset[int]], ...]
_NO_FACTORS: frozenset[int] = frozenset()


class AlgebraicData:
    __slots__ = ("params", "restrictions", "basis", "prods", "_pos", "_nz", "_hash",
                 "_cache")

    def __init__(self, params: Iterable[int], restrictions: Iterable[Restriction],
                 basis: Iterable[int],
                 products: Mapping[tuple[int, int], Iterable[tuple[int, Iterable[int]]]]):
        basis = tuple(basis)
        pos = {b: i for i, b in enumerate(basis)}
        prods = []
        for (x, y), targets in products.items():
            ts = tuple(sorted(((z, frozenset(fs)) for z, fs in targets),
                              key=lambda t: pos[t[0]]))
            if ts:
                prods.append((x, y, ts))
        prods.sort(key=lambda p: (pos[p[0]], pos[p[1]]))
        self._store(params, restrictions, basis, tuple(prods), pos)

    @classmethod
    def _from_sorted(cls, params: Iterable[int], restrictions: Iterable[Restriction],
                     basis: tuple[int, ...], prods: tuple,
                     pos: dict[int, int] | None = None) -> "AlgebraicData":
        """The data with ``prods`` taken as stored, without sorting.

        prods must already be in the stored form the module docstring
        states; pos, when given, must be the position map of basis.
        """
        data = object.__new__(cls)
        data._store(params, restrictions, basis, prods,
                    pos if pos is not None else {b: i for i, b in enumerate(basis)})
        return data

    def _store(self, params, restrictions, basis, prods, pos):
        self.params = tuple(params)
        self.restrictions = tuple(sorted(restrictions, key=lambda r: r.sort_key()))
        self.basis = basis
        self._pos = pos
        self.prods = prods
        self._nz = frozenset(r.sym for r in self.restrictions if isinstance(r, NonZero))
        self._hash = None
        self._cache = {}

    # -- structure queries ---------------------------------------------------

    def pos(self, b: int) -> int:
        return self._pos[b]

    @property
    def nz_params(self) -> frozenset[int]:
        return self._nz

    def _derived(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """The left factors, right factors and hit targets of the products."""
        d = self._cache.get("derived")
        if d is None:
            left, right, hit = set(), set(), set()
            for x, y, ts in self.prods:
                left.add(x)
                right.add(y)
                for z, _ in ts:
                    hit.add(z)
            d = self._cache["derived"] = (frozenset(left), frozenset(right), frozenset(hit))
        return d

    @property
    def left_factors(self) -> frozenset[int]:
        return self._derived()[0]

    @property
    def right_factors(self) -> frozenset[int]:
        return self._derived()[1]

    @property
    def hit_targets(self) -> frozenset[int]:
        return self._derived()[2]

    def is_factor(self, v: int) -> bool:
        l, r, _ = self._derived()
        return v in l or v in r

    def products_by_left(self) -> dict[int, list[tuple[int, Targets]]]:
        d = self._cache.get("by_left")
        if d is None:
            d = {}
            for x, y, ts in self.prods:
                d.setdefault(x, []).append((y, ts))
            self._cache["by_left"] = d
        return d

    def named_pos(self) -> dict[int, int]:
        """The positions of the vectors that some product names, counted
        among those alone; the other vectors are spare."""
        p = self._cache.get("named")
        if p is None:
            left, right, hit = self._derived()
            kept = [b for b in self.basis if b in left or b in right or b in hit]
            p = self._cache["named"] = self._pos if len(kept) == len(self.basis) \
                else {b: i for i, b in enumerate(kept)}
        return p

    def on_named(self) -> "AlgebraicData":
        """The data on the vectors of ``named_pos`` alone, in their order,
        with the same products and no parameters or restrictions: a
        parameter-free node of the engine runs on it in its own labels.
        The views that read only the products carry over."""
        pos = self.named_pos()
        data = AlgebraicData._from_sorted((), (), tuple(pos), self.prods, pos)
        cache = self._cache
        data._cache = {v: cache[v] for v in ("derived", "by_left", "live") if v in cache}
        data._cache["named"] = pos
        return data

    def canonical(self) -> "AlgebraicData":
        """The data rebuilt from its memo key (``canonicalize``): basis
        labels 0..dim-1 on the vectors of ``named_pos``, parameters
        numbered by first use."""
        return AlgebraicData.from_key(canonicalize(self, self.params, self.restrictions))

    def symbols_in_products(self) -> frozenset[int]:
        s = self._cache.get("live")
        if s is None:
            acc = set()
            for _, _, ts in self.prods:
                for _, fs in ts:
                    acc |= fs
            s = self._cache["live"] = frozenset(acc)
        return s

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        if len(set(self.basis)) != len(self.basis):
            raise MalformedData("repeated basis label")
        if len(set(self.params)) != len(self.params):
            raise MalformedData("repeated parameter")
        pset = set(self.params)
        pos = self._pos
        if pos != {b: i for i, b in enumerate(self.basis)}:
            raise MalformedData("position map disagrees with the basis")
        last = None
        for x, y, ts in self.prods:
            if x not in pos or y not in pos:
                raise MalformedData(f"product factor {x},{y} outside basis")
            if last is not None and (pos[x], pos[y]) <= last:
                raise MalformedData(f"product {x}*{y} out of position order")
            last = (pos[x], pos[y])
            if not ts:
                raise MalformedData(f"product {x}*{y} has no targets")
            last_z = -1
            for z, fs in ts:
                if z not in pos:
                    raise MalformedData(f"product target {z} outside basis")
                if pos[z] <= last_z:
                    raise MalformedData(f"targets of {x}*{y} out of position order")
                last_z = pos[z]
                if pos[z] <= pos[x] or pos[z] <= pos[y]:
                    raise MalformedData(
                        f"ordering violated: target {z} not after factors {x},{y}")
                if not isinstance(fs, frozenset):
                    raise MalformedData(f"factor set of {x}*{y}->{z} is not a frozenset")
                if not fs <= pset:
                    raise MalformedData(f"unknown parameter in product {x}*{y}->{z}")
        for r in self.restrictions:
            if isinstance(r, NonZero):
                if r.sym not in pset:
                    raise MalformedData(f"inequation on unknown parameter {r.sym}")
            else:
                if not r.poly.symbols() <= pset:
                    raise MalformedData("equation mentions unknown parameter")

    def satisfies_nz(self) -> bool:
        """Every parameter occurring in a structure constant is restricted nonzero."""
        return self.symbols_in_products() <= self._nz

    # -- rebuilding ----------------------------------------------------------

    def products_dict(self) -> dict[tuple[int, int], Targets]:
        return {(x, y): ts for x, y, ts in self.prods}

    def remove_basis(self, *drop: int) -> "AlgebraicData":
        """The data with the vectors of drop, their products and their
        coordinates left out."""
        nb = tuple(b for b in self.basis if b not in drop)
        prods = []
        for x, y, ts in self.prods:
            if x in drop or y in drop:
                continue
            kept = tuple([(w, fs) for w, fs in ts if w not in drop])
            if kept:
                prods.append((x, y, kept))
        return AlgebraicData._from_sorted(self.params, self.restrictions, nb, tuple(prods))

    def key(self) -> tuple:
        """The flat key of the module docstring, with basis vectors at their
        positions and parameters under their own labels."""
        k = self._cache.get("key")
        if k is None:
            # symbols outside params occur only in malformed data
            own = {p: p for p in self.params + tuple(sorted(self.symbols_in_products()))}
            k = self._cache["key"] = _encode(self, self._pos, own, self.params,
                                             self.restrictions)
        return k

    @staticmethod
    def from_key(key: tuple) -> "AlgebraicData":
        """The data whose ``key()`` is key, with basis labels 0..dim-1."""
        it = iter(key)
        take = it.__next__
        params = tuple(islice(it, take()))
        restrictions = []
        for _ in range(take()):
            if take() == 0:
                restrictions.append(NonZero(take()))
                continue
            terms = {}
            for _ in range(take()):
                m = tuple((take(), take()) for _ in range(take()))
                terms[m] = take()
            restrictions.append(Equation(ParamPoly(terms)))
        dim = take()
        prods = []
        for x in it:
            y = take()
            ts = []
            for _ in range(take()):
                z = take()
                nf = take()
                ts.append((z, frozenset(islice(it, nf)) if nf else _NO_FACTORS))
            prods.append((x, y, tuple(ts)))
        return AlgebraicData._from_sorted(params, restrictions, tuple(range(dim)), tuple(prods))

    def __eq__(self, other):
        return (isinstance(other, AlgebraicData) and self.key() == other.key()
                and self.basis == other.basis)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return (f"AlgebraicData(dim={len(self.basis)}, params={len(self.params)}, "
                f"restrictions={len(self.restrictions)}, products={len(self.prods)})")

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        restr = []
        for r in self.restrictions:
            if isinstance(r, NonZero):
                restr.append({"kind": "nonzero", "param": f"p{r.sym}"})
            else:
                terms = [{"coeff": c, "monomial": [[f"p{s}", e] for s, e in m]}
                         for m, c in sorted(r.poly.key())]
                restr.append({"kind": "equation", "terms": terms})
        prods = []
        for x, y, ts in self.prods:
            for z, fs in ts:
                prods.append({"x": f"e{x}", "y": f"e{y}", "z": f"e{z}",
                              "factors": sorted(f"p{s}" for s in fs)})
        return {"params": [f"p{s}" for s in self.params],
                "restrictions": restr,
                "basis": [f"e{b}" for b in self.basis],
                "products": prods}


def _encode(data: AlgebraicData, pos: dict[int, int], p_map: dict[int, int],
            params: Iterable[int], restrictions: Iterable[Restriction]) -> tuple:
    """The flat key of the module docstring for data with these parameters
    and restrictions, the vectors of pos at their positions in it (every
    vector a product names must be one) and parameters renamed by p_map.

    A parameter missing from p_map is added to it, numbered by first use
    in the products and then in ``params``; the key lists every
    parameter of p_map, in its order, and sorts the renamed restrictions
    by ``sort_key``.
    """
    body = [len(pos)]
    put = body.extend
    for x, y, ts in data.prods:
        put((pos[x], pos[y], len(ts)))
        for z, fs in ts:
            if fs:
                for p in sorted(fs):
                    if p not in p_map:
                        p_map[p] = len(p_map)
                put((pos[z], len(fs)))
                put(sorted([p_map[p] for p in fs]))
            else:
                put((pos[z], 0))
    for p in params:
        if p not in p_map:
            p_map[p] = len(p_map)
    rk = []
    for r in restrictions:
        if isinstance(r, NonZero):
            rk.append((0, p_map[r.sym]))
        else:
            rk.append((1, tuple(sorted(
                (tuple(sorted([(p_map[s], e) for s, e in m])), c)
                for m, c in r.poly.key()))))
    rk.sort()
    head = [len(p_map), *p_map.values(), len(rk)]
    for kind, v in rk:
        if kind == 0:
            head += (0, v)
            continue
        head += (1, len(v))
        for m, c in v:
            head.append(len(m))
            for s, e in m:
                head += (s, e)
            head.append(c)
    head += body
    return tuple(head)


def canonicalize(data: AlgebraicData, params: Iterable[int],
                 restrictions: Iterable[Restriction]) -> tuple:
    """The memo key of data with its parameters and restrictions replaced.

    This is ``key()`` of the data with its spare vectors left out, basis
    labels renamed to their positions among the rest (``named_pos``) and
    parameters numbered by first use, in the products and then in
    ``params``, with the restrictions renamed and sorted; it is computed
    in one pass without building that data, which ``from_key`` rebuilds
    when needed.  Data built the same way in different label spaces, or
    differing only by spare vectors, get the same key, which is what
    makes memoisation effective; basis order is preserved, never permuted.
    """
    return _encode(data, data.named_pos(), {}, params, restrictions)


# ---------------------------------------------------------------------------
# case splitting

def split_into_cases(data: AlgebraicData) -> list[AlgebraicData]:
    """Split until every structure-constant parameter carries an inequation.

    The substitution sets of the returned data partition the original
    one: the witness parameter is either forced nonzero or set to zero,
    by ``set_zero`` in the restrictions and by dropping every product
    target whose structure constant contains it.
    """
    if data.satisfies_nz():
        return [data]
    nz = data.nz_params
    # the least unrestricted symbol of the first target that has one
    witness = next(min(fs - nz) for _, _, ts in data.prods for _, fs in ts if not fs <= nz)
    with_nz = AlgebraicData._from_sorted(data.params,
                                         data.restrictions + (NonZero(witness),),
                                         data.basis, data.prods, data._pos)

    new_params, new_restrictions = set_zero(data.params, data.restrictions, witness)
    new_prods = []
    for x, y, ts in data.prods:
        kept = tuple([(z, fs) for z, fs in ts if witness not in fs])
        if kept:
            new_prods.append((x, y, kept))
    with_zero = AlgebraicData._from_sorted(new_params, new_restrictions, data.basis,
                                           tuple(new_prods), data._pos)

    return split_into_cases(with_nz) + split_into_cases(with_zero)
