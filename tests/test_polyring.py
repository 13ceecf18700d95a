import math
import random

import pytest
from hypothesis import given, strategies as st

from unicount.polyring import CoefficientOverflow, CountPoly, ParamPoly, shifted_coeffs


def qp(dq, c=1, dt=0):
    return CountPoly({(dq, dt): c})


class TestCountPoly:
    def test_add_mixed_degrees(self):
        a = qp(9)
        b = CountPoly({(9, 1): 7, (8, 1): -6, (7, 1): -1})
        out = a + b
        assert out.terms == {(9, 0): 1, (9, 1): 7, (8, 1): -6, (7, 1): -1}

    def test_add_zero_identity(self):
        f = CountPoly({(3, 2): 5, (0, 0): -1})
        assert f + CountPoly.zero() == f

    def test_add_cancels_to_canonical(self):
        # (q - 1) + 1 = q, and the zero coefficient is not stored
        f = CountPoly({(1, 0): 1, (0, 0): -1})
        out = f + CountPoly.one()
        assert out.terms == {(1, 0): 1}

    def test_scale_exceptional_family_shape(self):
        # q (q-1)^13 t^16 from the unit polynomial
        out = CountPoly.one().scale(13, 1, 16)
        assert out.coeff_of_t(16).eval_at(5) == 5 * 4**13
        assert out.terms[(14, 16)] == 1
        assert out.terms[(1, 16)] == -1
        assert sum(c for (dq, dt), c in out.terms.items()) == 0  # value at q=1

    def test_scale_identity(self):
        f = CountPoly({(2, 1): 3, (0, 0): 1})
        assert f.scale(0, 0, 0) == f

    def test_scale_distributes(self):
        f = CountPoly({(1, 0): 1, (0, 1): 1})  # q + t
        out = f.scale(1, 0, 1)
        # (q-1)q t + (q-1)t^2
        assert out.terms == {(2, 1): 1, (1, 1): -1, (1, 2): 1, (0, 2): -1}

    def test_eval_sum_counts_classes_of_u3(self):
        f = CountPoly({(2, 0): 1, (1, 1): 1, (0, 1): -1})  # q^2 + (q-1)t
        assert f.eval_at(2) == 5

    def test_eval_weighted_gives_group_order(self):
        f = CountPoly({(2, 0): 1, (1, 1): 1, (0, 1): -1})
        assert f.eval_at(2, 2**2) == 8

    def test_eval_zero(self):
        assert CountPoly.zero().eval_at(7) == 0

    def test_eval_at_t_value(self):
        f = CountPoly({(0, 2): 1})
        assert f.eval_at(3, 5) == 25

    def test_eval_rejects_tiny_q(self):
        with pytest.raises(ValueError):
            CountPoly.one().eval_at(1)

    def test_weight_formal(self):
        f = CountPoly({(2, 0): 1, (1, 1): 1, (0, 1): -1})
        assert f.weight_formal().terms == {(3, 0): 1}  # q^2 + (q-1)q^2 = q^3

    def test_json_round_trip(self):
        f = CountPoly({(9, 0): 1, (3, 2): -4})
        assert f.to_json() == {"terms": [{"q": 9, "t": 0, "c": 1}, {"q": 3, "t": 2, "c": -4}]}

    def test_shifted_coeffs(self):
        # q^2 - 2q + 1 = (q-1)^2 -> t^2 under q := t+1
        p = CountPoly({(2, 0): 1, (1, 0): -2, (0, 0): 1})
        assert shifted_coeffs(p) == {2: 1}


@st.composite
def count_polys(draw):
    n = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n):
        dq = draw(st.integers(0, 6))
        dt = draw(st.integers(0, 4))
        c = draw(st.integers(-50, 50))
        terms[(dq, dt)] = c
    return CountPoly(terms)


@given(count_polys(), count_polys(), count_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(st.lists(count_polys(), max_size=4))
def test_sum_matches_pairwise_addition(polys):
    before = [p.terms for p in polys]
    want: dict = {}
    for p in polys:
        for k, c in p.terms.items():
            want[k] = want.get(k, 0) + c
    assert CountPoly.scaled_sum((p, 0, 0, 0) for p in polys) == CountPoly(want)
    assert [p.terms for p in polys] == before  # inputs are not modified


@given(st.lists(st.tuples(count_polys(), st.integers(0, 4), st.integers(0, 3),
                          st.integers(0, 3)), max_size=4))
def test_scaled_sum_matches_scaling_each_part(parts):
    # one pass over all parts equals scaling each by (q-1)^k q^l t^m alone
    # and adding; the stored map keeps no zero coefficient
    want = CountPoly.zero()
    for p, k, l, m in parts:
        want = want + CountPoly({(l + i, m): (-1) ** (k - i) * math.comb(k, i)
                                 for i in range(k + 1)}) * p
    out = CountPoly.scaled_sum(parts)
    assert out == want and all(out.terms.values())


# A plain term-map reference, independent of the packed rows: a polynomial
# is a dict {(q-degree, t-degree): coefficient} with no zero coefficient.

def ref_scaled_sum(parts):
    out = {}
    for terms, k, l, m in parts:
        for (dq, dt), c in terms.items():
            for i in range(k + 1):
                key = (dq + l + i, dt + m)
                out[key] = out.get(key, 0) + c * math.comb(k, i) * (-1) ** (k - i)
    return {key: c for key, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for (q1, t1), c1 in a.items():
        for (q2, t2), c2 in b.items():
            key = (q1 + q2, t1 + t2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def l1(terms):
    return sum(abs(c) for c in terms.values())


big_terms = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 4)),
                            st.integers(-2**40, 2**40), max_size=6)
LIMIT = 2**63


@given(st.lists(st.tuples(big_terms, st.integers(0, 8), st.integers(0, 5),
                          st.integers(0, 5)), max_size=5))
def test_packed_scaled_sum_matches_term_maps(parts):
    out = CountPoly.scaled_sum((CountPoly(t), k, l, m) for t, k, l, m in parts)
    assert out.terms == ref_scaled_sum(parts)


@given(big_terms, big_terms)
def test_packed_product_matches_term_maps(a, b):
    # the product refuses exactly when the exact coefficient sums of its
    # factors multiply to 2^63 or more
    if l1(a) * l1(b) >= LIMIT:
        with pytest.raises(CoefficientOverflow):
            CountPoly(a) * CountPoly(b)
    else:
        assert (CountPoly(a) * CountPoly(b)).terms == ref_mul(a, b)


def test_cancelling_chain_tightens_its_bound():
    # p + (q-1) p = q p: the carried bound triples each step and passes
    # 2^63 long before step 200, the true coefficient sum stays 1
    p = CountPoly.one()
    for _ in range(200):
        p = CountPoly.scaled_sum(((p, 0, 0, 0), (p, 1, 0, 0)))
    assert p.terms == {(200, 0): 1}
    assert p == qp(200) and hash(p) == hash(qp(200))


@pytest.mark.parametrize("op", [
    lambda a: a + a,
    lambda a: a.scale(1, 0, 0),
    lambda a: a * qp(0, 2),
    lambda a: CountPoly({(0, 0): 2**63}),
])
def test_overflow_refuses_and_returns_nothing(op):
    a = CountPoly({(0, 0): 2**62})
    with pytest.raises(CoefficientOverflow):
        op(a)
    assert a.terms == {(0, 0): 2**62}


def test_largest_coefficient_within_the_bound_reads_back():
    for c in (2**63 - 1, -(2**63 - 1)):
        assert CountPoly({(3, 1): c, (0, 1): 0}).terms == {(3, 1): c}


@given(big_terms, st.randoms())
def test_hash_and_equality_ignore_term_order(terms, rnd):
    items = list(terms.items())
    rnd.shuffle(items)
    a, b = CountPoly(terms), CountPoly(dict(items))
    assert a == b and hash(a) == hash(b)
    assert b.terms == {key: c for key, c in terms.items() if c}


@given(count_polys(), count_polys())
def test_canonical_equality(a, b):
    assert (a == b) == ((a - b).is_zero())


@given(count_polys(), count_polys(), st.integers(2, 7), st.integers(-3, 50))
def test_eval_additive(a, b, q0, t):
    assert (a + b).eval_at(q0, t) == a.eval_at(q0, t) + b.eval_at(q0, t)


@st.composite
def param_polys(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        syms = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)),
                             max_size=3, unique_by=lambda p: p[0]))
        terms[tuple(sorted(syms))] = draw(st.integers(-9, 9))
    return ParamPoly(terms)


@given(param_polys(), param_polys(), param_polys())
def test_param_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(param_polys())
def test_param_decompose_reassembles(p):
    parts = p.decompose(0)
    x = ParamPoly.var(0)
    acc = ParamPoly.zero()
    for d, g in parts.items():
        acc = acc + g * x.pow(d)
    assert acc == p


def test_param_content_and_division():
    rng = random.Random(7)
    g = ParamPoly({((0, 1),): 1, ((1, 2),): -3, (): 2})
    for _ in range(50):
        base = ParamPoly.monomial([rng.randrange(3) for _ in range(rng.randint(0, 3))])
        p = base * g
        content = p.content()
        q = p.divide_monomial(content)
        assert ParamPoly({tuple(sorted(content.items())): 1}) * q == p
        assert not q.content()  # nothing left to divide out
