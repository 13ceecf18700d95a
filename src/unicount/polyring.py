"""Exact polynomial arithmetic underlying the character counts.

CountPoly lives in Z[q, t]: q is the field-size variable and the
coefficient of t^e counts characters of degree q^e.  ParamPoly is a
multivariate polynomial over interned parameter symbols, used for the
restriction systems attached to parametrised algebra families.
Coefficients are Python ints throughout; the n = 13 tables have
coefficients beyond 30000 and intermediate sums grow larger still, so
no fixed-width arithmetic is used anywhere.
"""
from __future__ import annotations

from math import comb
from typing import Iterable, Mapping


class CountPoly:
    """Sparse bivariate polynomial in Z[q, t], canonical term map."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        t = {}
        if terms:
            for (dq, dt), c in terms.items():
                if c:
                    t[(dq, dt)] = c
        self._terms = t
        self._hash = None

    @staticmethod
    def zero() -> "CountPoly":
        return _ZERO

    @staticmethod
    def one() -> "CountPoly":
        return _ONE

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, CountPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    @staticmethod
    def scaled_sum(parts: Iterable[tuple["CountPoly", int, int, int]]) -> "CountPoly":
        """The sum over parts (p, k, l, m) of p (q-1)^k q^l t^m, in one pass.

        Every scaled term goes straight into one term map, with the
        binomial row of (q-1)^k q^l made once per (k, l); the zeros are
        dropped at the end, which also leaves the stored map compact.
        """
        t: dict[tuple[int, int], int] = {}
        rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for p, k, l, m in parts:
            if not (k or l or m):
                # the term keys of an unscaled part are shared, not rebuilt
                for key, c in p._terms.items():
                    t[key] = t.get(key, 0) + c
                continue
            row = rows.get((k, l))
            if row is None:
                row = rows[k, l] = [(l + i, comb(k, i) * (-1) ** (k - i)) for i in range(k + 1)]
            for (dq, dt), c in p._terms.items():
                dt += m
                for i, b in row:
                    key = (dq + i, dt)
                    t[key] = t.get(key, 0) + b * c
        r = CountPoly()
        r._terms = {key: c for key, c in t.items() if c}
        return r

    def __add__(self, other: "CountPoly") -> "CountPoly":
        return CountPoly.scaled_sum(((self, 0, 0, 0), (other, 0, 0, 0)))

    def __neg__(self) -> "CountPoly":
        r = CountPoly()
        r._terms = {k: -c for k, c in self._terms.items()}
        return r

    def __sub__(self, other: "CountPoly") -> "CountPoly":
        return self + (-other)

    def __mul__(self, other: "CountPoly") -> "CountPoly":
        return _merged({}, (((q1 + q2, t1 + t2), c1 * c2)
                            for (q1, t1), c1 in self._terms.items()
                            for (q2, t2), c2 in other._terms.items()))

    def scale(self, k: int, l: int, m: int) -> "CountPoly":
        """Multiply by (q-1)^k * q^l * t^m."""
        return CountPoly.scaled_sum(((self, k, l, m),))

    def eval_at(self, q0: int, t: int = 1) -> int:
        """Evaluate at q = q0 and t = t.

        The default t = 1 counts characters; t = q0**2 weights each by its
        squared degree, t^e := q0^(2e).
        """
        if q0 < 2:
            raise ValueError("q0 must be at least 2")
        return sum(c * q0**dq * t**dt for (dq, dt), c in self._terms.items())

    def weight_formal(self) -> "CountPoly":
        """Substitute t^e := q^(2e), collapsing to a polynomial in q."""
        return _merged({}, (((dq + 2 * dt, 0), c) for (dq, dt), c in self._terms.items()))

    def coeff_of_t(self, e: int) -> "CountPoly":
        r = CountPoly()
        r._terms = {(dq, 0): c for (dq, dt), c in self._terms.items() if dt == e}
        return r

    def t_degrees(self) -> list[int]:
        return sorted({dt for (_, dt) in self._terms})

    def to_json(self) -> dict:
        items = sorted(self._terms.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
        return {"terms": [{"q": dq, "t": dt, "c": c} for (dq, dt), c in items]}

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dq, dt), c in sorted(self._terms.items(), key=lambda kv: (kv[0][1], -kv[0][0])):
            s = ""
            if c == -1 and (dq or dt):
                s = "-"
            elif c != 1 or (not dq and not dt):
                s = str(c)
            if dq:
                s += "q" if dq == 1 else f"q^{dq}"
            if dt:
                s += "t" if dt == 1 else f"t^{dt}"
            parts.append(s)
        return " + ".join(parts).replace("+ -", "- ")


def _merged(t: dict[tuple[int, int], int], items) -> CountPoly:
    """Add the (key, coefficient) items into the term map t, dropping zeros."""
    for k, c in items:
        nc = t.get(k, 0) + c
        if nc:
            t[k] = nc
        elif k in t:
            del t[k]
    r = CountPoly()
    r._terms = t
    return r


_ZERO = CountPoly()
_ONE = CountPoly({(0, 0): 1})


def shifted_coeffs(p: CountPoly) -> dict[int, int]:
    """Coefficients of p(t+1) for a polynomial p in q alone."""
    out: dict[int, int] = {}
    for (dq, dt), c in p._terms.items():
        if dt:
            raise ValueError("shifted_coeffs expects a polynomial in q only")
        for i in range(dq + 1):
            out[i] = out.get(i, 0) + c * comb(dq, i)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# multivariate polynomials over parameter symbols

Monomial = tuple[tuple[int, int], ...]  # sorted ((symbol, exponent), ...)


class ParamPoly:
    """Sparse polynomial with integer coefficients over int symbols."""

    __slots__ = ("_terms", "_key", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c
        self._terms = t
        self._key = None
        self._hash = None

    @staticmethod
    def zero() -> "ParamPoly":
        return _P_ZERO

    @staticmethod
    def const(c: int) -> "ParamPoly":
        return ParamPoly({(): c}) if c else _P_ZERO

    @staticmethod
    def var(sym: int) -> "ParamPoly":
        return ParamPoly({((sym, 1),): 1})

    @staticmethod
    def monomial(syms: Iterable[int], coeff: int = 1) -> "ParamPoly":
        counts: dict[int, int] = {}
        for s in syms:
            counts[s] = counts.get(s, 0) + 1
        m = tuple(sorted(counts.items()))
        return ParamPoly({m: coeff})

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self._terms.items()))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        if not self._terms:
            return other
        if not other._terms:
            return self
        t = dict(self._terms)
        for m, c in other._terms.items():
            nc = t.get(m, 0) + c
            if nc:
                t[m] = nc
            else:
                del t[m]
        r = ParamPoly()
        r._terms = t
        return r

    def __neg__(self) -> "ParamPoly":
        r = ParamPoly()
        r._terms = {m: -c for m, c in self._terms.items()}
        return r

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        t: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                d = dict(m1)
                for s, e in m2:
                    d[s] = d.get(s, 0) + e
                m = tuple(sorted(d.items()))
                nc = t.get(m, 0) + c1 * c2
                if nc:
                    t[m] = nc
                elif m in t:
                    del t[m]
        r = ParamPoly()
        r._terms = t
        return r

    def pow(self, e: int) -> "ParamPoly":
        r = ParamPoly.const(1)
        for _ in range(e):
            r = r * self
        return r

    def symbols(self) -> set[int]:
        out = set()
        for m in self._terms:
            for s, _ in m:
                out.add(s)
        return out

    def decompose(self, sym: int) -> dict[int, "ParamPoly"]:
        """Write the polynomial as sum_d (coeff poly) * sym^d."""
        out: dict[int, dict[Monomial, int]] = {}
        for m, c in self._terms.items():
            d = 0
            rest = []
            for s, e in m:
                if s == sym:
                    d = e
                else:
                    rest.append((s, e))
            out.setdefault(d, {})[tuple(rest)] = c
        return {d: ParamPoly(t) for d, t in out.items()}

    def drop_symbol(self, sym: int) -> "ParamPoly":
        """Delete every monomial in which sym occurs (i.e. set sym := 0)."""
        r = ParamPoly()
        r._terms = {m: c for m, c in self._terms.items() if all(s != sym for s, _ in m)}
        return r

    def content(self) -> dict[int, int]:
        """Greatest monomial dividing every term (symbol -> exponent)."""
        if not self._terms:
            return {}
        it = iter(self._terms)
        acc = dict(next(it))
        for m in it:
            if not acc:
                break
            md = dict(m)
            acc = {s: min(e, md[s]) for s, e in acc.items() if s in md}
        return acc

    def divide_monomial(self, divisor: Mapping[int, int]) -> "ParamPoly":
        """Exact division by a monomial dividing every term."""
        t: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            nm = []
            for s, e in m:
                ne = e - divisor.get(s, 0)
                if ne < 0:
                    raise ValueError("monomial does not divide every term")
                if ne:
                    nm.append((s, ne))
            t[tuple(nm)] = c
        return ParamPoly(t)

    def rename(self, mapping: Mapping[int, int]) -> "ParamPoly":
        t: dict[Monomial, int] = {}
        for m, c in self._terms.items():
            nm = tuple(sorted((mapping[s], e) for s, e in m))
            t[nm] = t.get(nm, 0) + c
        return ParamPoly(t)

    def single_monomial(self) -> tuple[int, Monomial] | None:
        """(coeff, monomial) if there is exactly one term, else None."""
        if len(self._terms) != 1:
            return None
        (m, c), = self._terms.items()
        return c, m

    def eval_in(self, field, values: Mapping[int, int]) -> int:
        total = 0
        for m, c in self._terms.items():
            v = field.of_int(c)
            for s, e in m:
                v = field.mul(v, field.pow(values[s], e))
            total = field.add(total, v)
        return total

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self._terms.items()):
            bits = []
            if abs(c) != 1 or not m:
                bits.append(str(abs(c)))
            for s, e in m:
                bits.append(f"p{s}" + (f"^{e}" if e > 1 else ""))
            parts.append(("-" if c < 0 else "") + "*".join(bits))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


_P_ZERO = ParamPoly()
