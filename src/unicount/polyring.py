"""Exact polynomial arithmetic underlying the character counts.

CountPoly lives in Z[q, t]: q is the field-size variable and the
coefficient of t^e counts characters of degree q^e.  ParamPoly is a
multivariate polynomial over interned parameter symbols, used for the
restriction systems attached to parametrised algebra families.

A CountPoly is stored packed, by Kronecker substitution: one Python int
per t-degree, the row's polynomial in q evaluated at q = 2^B, so that
its coefficients are the signed base-2^B digits of the int (B = 64).
Evaluation at 2^B is a ring homomorphism, so multiplying by
(q-1)^k q^l is one multiplication by a cached int, t^m renames a row,
sums are int sums, and equality and hashing compare the row ints.

The digits read back exactly only while every coefficient is below
2^(B-1) in absolute value.  Each polynomial therefore carries
``_bound``, an upper bound on the sum of the absolute values of its
coefficients: a part scaled by (q-1)^k q^l t^m adds its bound times
2^k, and a product multiplies the bounds.  When a result's bound
reaches 2^(B-1), its operands' bounds are tightened to their exact sums
(decoded once, exact since their own bounds are below 2^(B-1)) and the
result's bound is computed again; this matters when terms cancel, as in
1 + (q-1) = q.  If it still reaches 2^(B-1), the operation raises
``CoefficientOverflow`` and returns no polynomial.  So every CountPoly
decodes exactly, and a run that would need wider digits refuses.  The
n = 13 tables have coefficients beyond 30000 and bounds of 37 bits.
"""
from __future__ import annotations

from math import comb
from typing import Iterable, Mapping

B = 64
_BASE = 1 << B
_MASK = _BASE - 1
_HALF = 1 << (B - 1)


class CoefficientOverflow(ArithmeticError):
    """A coefficient bound reached 2^(B-1), past which the packed rows of
    a CountPoly would not read back exactly."""


class CountPoly:
    """Sparse bivariate polynomial in Z[q, t], one packed int per t-degree."""

    __slots__ = ("_rows", "_bound", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        rows: dict[int, int] = {}
        bound = 0
        if terms:
            for (dq, dt), c in terms.items():
                if c:
                    rows[dt] = rows.get(dt, 0) + (c << B * dq)
                    bound += abs(c)
        # bounded digits at distinct positions never cancel: no row is 0
        self._rows = rows
        self._bound = _checked(bound)
        self._hash = None

    @staticmethod
    def zero() -> "CountPoly":
        return _ZERO

    @staticmethod
    def one() -> "CountPoly":
        return _ONE

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return {(dq, dt): c for dt, v in self._rows.items() for dq, c in _digits(v)}

    def is_zero(self) -> bool:
        return not self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, CountPoly) and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._rows.items()))
        return self._hash

    @staticmethod
    def scaled_sum(parts: Iterable[tuple["CountPoly", int, int, int]]) -> "CountPoly":
        """The sum over parts (p, k, l, m) of p (q-1)^k q^l t^m, in one pass:
        each row of p is multiplied by the packed (q-1)^k q^l and added
        into row m higher."""
        parts = tuple(parts)
        rows: dict[int, int] = {}
        bound = 0
        for p, k, l, m in parts:
            f = _FACTORS.get((k, l)) or _factor(k, l)
            for dt, v in p._rows.items():
                dt += m
                rows[dt] = rows.get(dt, 0) + v * f
            bound += p._bound << k
        if bound >= _HALF:
            bound = _checked(sum(_tightened(p) << k for p, k, _, _ in parts))
        return _packed({dt: v for dt, v in rows.items() if v}, bound)

    def __add__(self, other: "CountPoly") -> "CountPoly":
        return CountPoly.scaled_sum(((self, 0, 0, 0), (other, 0, 0, 0)))

    def __neg__(self) -> "CountPoly":
        return _packed({dt: -v for dt, v in self._rows.items()}, self._bound)

    def __sub__(self, other: "CountPoly") -> "CountPoly":
        return self + (-other)

    def __mul__(self, other: "CountPoly") -> "CountPoly":
        rows: dict[int, int] = {}
        for t1, v1 in self._rows.items():
            for t2, v2 in other._rows.items():
                rows[t1 + t2] = rows.get(t1 + t2, 0) + v1 * v2
        bound = self._bound * other._bound
        if bound >= _HALF:
            bound = _checked(_tightened(self) * _tightened(other))
        return _packed({dt: v for dt, v in rows.items() if v}, bound)

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
        return sum(c * q0**dq * t**dt for (dq, dt), c in self.terms.items())

    def weight_formal(self) -> "CountPoly":
        """Substitute t^e := q^(2e), collapsing to a polynomial in q."""
        v = sum(v << 2 * B * dt for dt, v in self._rows.items())
        return _packed({0: v} if v else {}, self._bound)

    def coeff_of_t(self, e: int) -> "CountPoly":
        v = self._rows.get(e)
        return _packed({0: v}, self._bound) if v else _ZERO

    def t_degrees(self) -> list[int]:
        return sorted(self._rows)

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
        return {"terms": [{"q": dq, "t": dt, "c": c} for (dq, dt), c in items]}

    def __repr__(self) -> str:
        if not self._rows:
            return "0"
        parts = []
        for (dq, dt), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], -kv[0][0])):
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


def _packed(rows: dict[int, int], bound: int) -> CountPoly:
    """The CountPoly with these nonzero rows and a bound below 2^(B-1)."""
    r = object.__new__(CountPoly)
    r._rows = rows
    r._bound = bound
    r._hash = None
    return r


def _digits(v: int) -> list[tuple[int, int]]:
    """The nonzero signed base-2^B digits (dq, c) of v, lowest first."""
    out = []
    dq = 0
    while v:
        c = v & _MASK
        if c >= _HALF:
            c -= _BASE
        if c:
            out.append((dq, c))
        v = (v - c) >> B
        dq += 1
    return out


def _tightened(p: CountPoly) -> int:
    """Replace the bound of p by the exact sum of its absolute coefficients."""
    p._bound = sum(abs(c) for v in p._rows.values() for _, c in _digits(v))
    return p._bound


def _checked(bound: int) -> int:
    """bound, or CoefficientOverflow if it reaches 2^(B-1)."""
    if bound >= _HALF:
        raise CoefficientOverflow(f"coefficient bound of {bound.bit_length()} bits "
                                  f"reaches 2^{_HALF.bit_length() - 1}")
    return bound


_FACTORS: dict[tuple[int, int], int] = {}


def _factor(k: int, l: int) -> int:
    """(q-1)^k q^l at q = 2^B, cached."""
    f = _FACTORS[k, l] = (_BASE - 1) ** k << B * l
    return f


_ZERO = CountPoly()
_ONE = CountPoly({(0, 0): 1})


def shifted_coeffs(p: CountPoly) -> dict[int, int]:
    """Coefficients of p(t+1) for a polynomial p in q alone."""
    out: dict[int, int] = {}
    for (dq, dt), c in p.terms.items():
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
