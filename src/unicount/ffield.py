"""Small finite fields with precomputed tables.

Everything downstream only ever instantiates algebras over tiny fields
(q in {2, 3, 4, 5} by default), so elements are plain ints in
``range(q)`` and the non-prime case q = 4 is handled by explicit
multiplication tables built from F_2[x]/(x^2 + x + 1).
"""
from __future__ import annotations

_F4_MUL = None


def _f4_tables():
    # Elements 0,1,2,3 encode a + b*x bitwise: 2 = x, 3 = x + 1.
    # x^2 = x + 1 in F_2[x]/(x^2 + x + 1).
    global _F4_MUL
    if _F4_MUL is None:
        def mul(a, b):
            r = 0
            aa = a
            for i in range(2):
                if (b >> i) & 1:
                    r ^= aa
                # shift by x, reduce: x*(a + b x) = a x + b x^2 = b + (a + b) x
                hi = (aa >> 1) & 1
                aa = ((aa << 1) & 2) ^ (hi * 3)
            return r
        _F4_MUL = tuple(tuple(mul(a, b) for b in range(4)) for a in range(4))
    return _F4_MUL


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Fq:
    """Arithmetic in F_q, elements represented as ints 0..q-1."""

    __slots__ = ("q", "p", "is_prime", "_mul", "_inv")

    def __init__(self, q: int):
        if _is_prime(q):
            self.q = q
            self.p = q
            self.is_prime = True
            self._mul = None
        elif q == 4:
            self.q = 4
            self.p = 2
            self.is_prime = False
            self._mul = _f4_tables()
        else:
            raise ValueError(f"unsupported field size {q} (primes and 4 only)")
        self._inv = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self.mul(a, b) == 1:
                    self._inv[a] = b
                    break

    def add(self, a: int, b: int) -> int:
        if self.is_prime:
            return (a + b) % self.q
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.is_prime:
            return (a - b) % self.q
        return a ^ b

    def neg(self, a: int) -> int:
        if self.is_prime:
            return (-a) % self.q
        return a

    def mul(self, a: int, b: int) -> int:
        if self.is_prime:
            return (a * b) % self.q
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def of_int(self, c: int) -> int:
        """Image of an integer under Z -> F_q (through the prime subfield)."""
        return c % self.p


_FIELDS: dict[int, Fq] = {}


def get_field(q: int) -> Fq:
    f = _FIELDS.get(q)
    if f is None:
        f = _FIELDS[q] = Fq(q)
    return f
