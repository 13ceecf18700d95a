import random

import pytest

from unicount.algdata import (AlgebraicData, Equation, MalformedData, NonZero,
                              split_into_cases)
from unicount.engine import EngineContext, census
from unicount.oracle import (BadSubstitution, TooLarge, count_values_bruteforce,
                             enumerate_param_values, instantiate)
from unicount.polyring import ParamPoly
from unicount.patterns import Poset, chain, encode_pattern, pattern_census

from conftest import engine_bound_posets, random_algebraic_data, random_poset_pairs


def t3_data():
    # basis e12 < e23 < e13 with e12 * e23 = e13
    return AlgebraicData((), (), (0, 1, 2), {(0, 1): [(2, frozenset())]})


class TestValidate:
    def test_t3_ok(self):
        t3_data().validate()

    def test_target_not_after_factors(self):
        bad = AlgebraicData((), (), (0, 1, 2), {(2, 0): [(1, frozenset())]})
        with pytest.raises(MalformedData):
            bad.validate()

    def test_unknown_parameter(self):
        bad = AlgebraicData((), (), (0, 1, 2), {(0, 1): [(2, frozenset([5]))]})
        with pytest.raises(MalformedData):
            bad.validate()

    def test_unknown_parameter_in_restriction(self):
        bad = AlgebraicData((0,), (NonZero(3),), (0,), {})
        with pytest.raises(MalformedData):
            bad.validate()


class TestSplitIntoCases:
    def test_already_satisfied(self):
        a = AlgebraicData((0,), (NonZero(0),), (0, 1, 2),
                          {(0, 1): [(2, frozenset([0]))]})
        assert split_into_cases(a) == [a]

    def test_one_unrestricted_parameter(self):
        a = AlgebraicData((0,), (), (0, 1, 2), {(0, 1): [(2, frozenset([0]))]})
        cases = split_into_cases(a)
        assert len(cases) == 2
        nonzero, zero = cases
        assert NonZero(0) in nonzero.restrictions
        assert zero.params == () and zero.prods == ()

    def test_two_parameters_in_distinct_products(self):
        a = AlgebraicData((0, 1), (), (0, 1, 2, 3),
                          {(0, 1): [(2, frozenset([0]))],
                           (0, 2): [(3, frozenset([1]))]})
        cases = split_into_cases(a)
        assert len(cases) == 4
        # substitution sets partition the original one
        for q in (2, 3):
            total = len(enumerate_param_values(a.params, a.restrictions, q))
            assert total == sum(len(enumerate_param_values(c.params, c.restrictions, q))
                                for c in cases)

    def test_zero_branch_rewrites_equations(self):
        eq = Equation(ParamPoly.var(0) * ParamPoly.var(1) + ParamPoly.var(2))
        a = AlgebraicData((0, 1, 2), (eq,), (0, 1, 2),
                          {(0, 1): [(2, frozenset([0]))]})
        cases = split_into_cases(a)
        zero = [c for c in cases if 0 not in c.params]
        assert zero, "setting the witness to zero must drop it from the data"
        (c,) = zero
        eqs = [r for r in c.restrictions if isinstance(r, Equation)]
        assert eqs and eqs[0].poly == ParamPoly.var(2)

    def test_partition_property_random(self):
        rng = random.Random(11)
        for _ in range(25):
            data = random_algebraic_data(rng, max_dim=4, max_params=2)
            # strip the inequations so that splitting has work to do
            stripped = AlgebraicData(data.params, (), data.basis,
                                     data.products_dict())
            cases = split_into_cases(stripped)
            for case in cases:
                assert case.satisfies_nz()
            for q in (2, 3):
                assert len(enumerate_param_values(stripped.params, stripped.restrictions, q)) == \
                    sum(len(enumerate_param_values(c.params, c.restrictions, q))
                        for c in cases)


class TestInstantiate:
    def test_t3_single_product(self):
        alg = instantiate(t3_data(), {}, 2)
        assert alg.table[0][1] == (0, 0, 1)
        assert alg.mult((1, 0, 0), (0, 1, 0)) == (0, 0, 1)

    def test_two_dim_core_is_truncated_polynomials(self):
        core = AlgebraicData((0,), (NonZero(0),), (0, 1),
                             {(0, 0): [(1, frozenset([0]))]})
        alg = instantiate(core, {0: 1}, 2)
        # y * y = z, everything else zero: x F_2[x]/(x^3)
        assert alg.table[0][0] == (0, 1)
        assert alg.mult((0, 1), (0, 1)) == (0, 0)

    def test_violating_substitution_rejected(self):
        core = AlgebraicData((0,), (NonZero(0),), (0, 1),
                             {(0, 0): [(1, frozenset([0]))]})
        with pytest.raises(BadSubstitution):
            instantiate(core, {0: 0}, 2)

    def test_missing_value_rejected(self):
        core = AlgebraicData((0,), (NonZero(0),), (0, 1),
                             {(0, 0): [(1, frozenset([0]))]})
        with pytest.raises(BadSubstitution):
            instantiate(core, {}, 3)

    def test_nilpotency_of_long_products(self):
        rng = random.Random(5)
        for _ in range(10):
            data = random_algebraic_data(rng, max_dim=4, max_params=1)
            for q in (2, 3):
                for h in enumerate_param_values(data.params, data.restrictions, q):
                    alg = instantiate(data, h, q)
                    v = tuple(1 for _ in range(alg.dim))
                    acc = v
                    for _ in range(alg.dim + 1):
                        acc = alg.mult(acc, v)
                    assert acc == tuple(0 for _ in range(alg.dim))


class TestEnumerate:
    def test_single_nonzero(self):
        out = enumerate_param_values((0,), (NonZero(0),), 3)
        assert [h[0] for h in out] == [1, 2]

    def test_empty_parameter_set(self):
        assert enumerate_param_values((), (), 5) == [{}]

    def test_product_equation_over_f3(self):
        eq = Equation(ParamPoly.var(0) * ParamPoly.var(1) - ParamPoly.const(1))
        out = enumerate_param_values((0, 1), (eq,), 3)
        assert [(h[0], h[1]) for h in out] == [(1, 1), (2, 2)]

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_param_values(tuple(range(9)), (), 2)

    def test_vectorised_count_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(20):
            nparams = rng.randint(0, 4)
            restrictions = []
            for p in range(nparams):
                if rng.random() < 0.5:
                    restrictions.append(NonZero(p))
            if nparams >= 2:
                restrictions.append(Equation(
                    ParamPoly.var(0) * ParamPoly.var(nparams - 1) - ParamPoly.const(rng.randint(0, 2))))
            for q in (2, 3, 4, 5):
                want = len(enumerate_param_values(range(nparams), restrictions, q))
                got = count_values_bruteforce(range(nparams), restrictions, q)
                assert want == got


def test_canonical_equality_and_hash():
    a = t3_data()
    b = AlgebraicData((), (), (0, 1, 2), {(0, 1): [(2, frozenset())]})
    assert a == b and hash(a) == hash(b)
    # the same positions under other labels: equal keys, but a Family
    # names its z by label, so the data differ
    c = AlgebraicData((), (), (2, 1, 0), {(2, 1): [(0, frozenset())]})
    assert c.key() == a.key() and c != a


def test_key_round_trip_keeps_unbounded_coefficients():
    p = ParamPoly.var
    big = Equation(p(5) * p(5) * p(2) - ParamPoly.const(-10 ** 30) * p(3))
    data = AlgebraicData((2, 3, 5), (NonZero(5), big, NonZero(2)), (4, 7, 9, 11),
                         {(4, 7): [(9, frozenset([2, 5])), (11, frozenset())],
                          (7, 9): [(11, frozenset([3]))]})
    key = data.key()
    assert type(key) is tuple and all(type(v) is int for v in key)
    again = AlgebraicData.from_key(key)
    assert again.key() == key
    assert again.basis == (0, 1, 2, 3)
    assert (again.params, again.restrictions) == (data.params, data.restrictions)
    assert again.prods == ((0, 1, ((2, frozenset([2, 5])), (3, frozenset()))),
                           (1, 2, ((3, frozenset([3])),)))


def test_json_round_trip():
    data = AlgebraicData((0, 1), (NonZero(0), Equation(ParamPoly.var(1) - ParamPoly.const(2))),
                         (3, 5, 9), {(3, 5): [(9, frozenset([0, 1]))]})
    assert data.to_json() == {
        "params": ["p0", "p1"],
        "restrictions": [{"kind": "nonzero", "param": "p0"},
                         {"kind": "equation", "terms": [{"coeff": -2, "monomial": []},
                                                        {"coeff": 1, "monomial": [["p1", 1]]}]}],
        "basis": ["e3", "e5", "e9"],
        "products": [{"x": "e3", "y": "e5", "z": "e9", "factors": ["p0", "p1"]}]}


def test_encode_pattern_dimensions():
    for n in range(2, 7):
        data = encode_pattern(chain(n))
        assert len(data.basis) == n * (n - 1) // 2
        data.validate()


def built_from_sorted(monkeypatch, run):
    """Every AlgebraicData that ``_from_sorted`` builds while run() runs."""
    seen = []
    real = AlgebraicData._from_sorted

    def spy(cls, *args, **kwargs):
        data = real(*args, **kwargs)
        seen.append(data)
        return data

    monkeypatch.setattr(AlgebraicData, "_from_sorted", classmethod(spy))
    run()
    monkeypatch.undo()
    return seen


def assert_sorted_as_init(data):
    """data equals the same data normalised by the public constructor."""
    want = AlgebraicData(data.params, data.restrictions, data.basis,
                         {(x, y): ts for x, y, ts in data.prods})
    assert data.prods == want.prods, data
    assert data.key() == want.key()
    assert data.basis == want.basis
    assert data.restrictions == want.restrictions
    data.validate()


class TestSortedConstruction:
    """The builders that skip sorting store exactly what __init__ would."""

    def test_general_engine(self, monkeypatch):
        seen = built_from_sorted(
            monkeypatch, lambda: census(encode_pattern(chain(8)), EngineContext()))
        assert seen
        for data in seen:
            assert_sorted_as_init(data)

    def test_random_posets(self, monkeypatch):
        # orders whose first node builds a stabiliser by change of basis
        posets = engine_bound_posets(random.Random(41), 40)

        def run():
            for m, rel in posets:
                pattern_census(Poset(range(1, m + 1), rel), EngineContext())

        seen = built_from_sorted(monkeypatch, run)
        assert seen
        for data in seen:
            assert_sorted_as_init(data)

    def test_case_splits_of_random_families(self, monkeypatch):
        rng = random.Random(43)
        families = []
        for _ in range(60):
            data = random_algebraic_data(rng, max_dim=6, max_params=3)
            # strip the inequations so that splitting has work to do
            families.append(AlgebraicData(data.params, (), data.basis,
                                          data.products_dict()))

        def run():
            for data in families:
                split_into_cases(data)

        seen = built_from_sorted(monkeypatch, run)
        assert seen
        for data in seen:
            assert_sorted_as_init(data)

    def test_validate_rejects_unsorted_rows(self):
        data = t3_data()
        with pytest.raises(MalformedData):
            AlgebraicData._from_sorted((), (), (0, 1, 2, 3),
                                       data.prods + ((0, 0, ((3, frozenset()),)),)).validate()
        with pytest.raises(MalformedData):
            AlgebraicData._from_sorted((), (), (0, 1, 2), ((0, 1, ()),)).validate()
        with pytest.raises(MalformedData):
            AlgebraicData._from_sorted(
                (), (), (0, 1, 2, 3),
                ((0, 1, ((3, frozenset()), (2, frozenset()))),)).validate()
