import random
from itertools import combinations
from math import comb

import pytest

from unicount import engine, solcount
from unicount.algdata import (AlgebraicData, Equation, NonZero, canonicalize,
                              split_into_cases)
from unicount.engine import (BadWitness, Census, EngineContext, Family, URecord,
                             aggregate, census, census_at, contract_type_a,
                             contract_type_b, resolve, scale_census)
from unicount.oracle import census_totals_at, symbolically_associative, verify_census
from unicount.patterns import (Poset, chain, encode_pattern, pattern_census,
                               unitriangular_census)
from unicount.polyring import CountPoly, ParamPoly

from conftest import engine_bound_posets, random_algebraic_data, random_poset_pairs


def qt(dq, dt=0, c=1):
    return CountPoly({(dq, dt): c})


def core_2dim():
    """Basis {y, z} with y*y = a z, a != 0."""
    return AlgebraicData((0,), (NonZero(0),), (0, 1),
                         {(0, 0): [(1, frozenset([0]))]})


class TestScaleAggregate:
    def test_scale_shifts_degrees_and_records(self):
        c = Census(qt(1), (URecord((), (), 0, 0, 0),),
                   (Family(core_2dim(), 1, 0, 0, 0),))
        out = scale_census(c, 0, 0, 1)
        assert out.resolved == qt(1, 1)
        assert out.unresolved[0].e == 1
        assert out.families[0].m == 1

    def test_scale_counts(self):
        c = Census(CountPoly.one(), (), ())
        assert scale_census(c, 1, 0, 0).resolved.terms == {(1, 0): 1, (0, 0): -1}

    def test_scale_identity(self):
        c = Census(qt(2), (URecord((), (), 1, 2, 3),), ())
        assert scale_census(c, 0, 0, 0) == c

    def test_aggregate_single(self):
        c = Census(qt(2), (), ())
        assert aggregate([(c, 0, 0, 0)]) == c

    def test_aggregate_sums_resolved(self):
        a = Census(qt(2), (), ())
        b = Census(qt(1), (URecord((), (), 0, 0, 0),), ())
        out = aggregate([(a, 0, 0, 0), (b, 0, 0, 0)])
        assert out.resolved == qt(2) + qt(1)
        assert len(out.unresolved) == 1

    def test_aggregate_scales_each_part_in_one_pass(self):
        # merging scaled parts equals scaling each part and then summing
        a = Census(qt(2) + qt(0, 1, -1), (URecord((), (), 0, 1, 0),), ())
        b = Census(qt(1, 1), (), (Family(core_2dim(), 1, 0, 0, 0),))
        out = aggregate([(a, 2, 1, 0), (b, 1, 0, 3), (a, 0, 0, 0)])
        want = aggregate([(scale_census(a, 2, 1, 0), 0, 0, 0),
                          (scale_census(b, 1, 0, 3), 0, 0, 0), (a, 0, 0, 0)])
        assert out == want
        assert out.unresolved == (URecord((), (), 2, 2, 0), URecord((), (), 0, 1, 0))
        f = out.families[0]
        assert (f.k, f.l, f.m) == (1, 0, 3)
        assert all(out.resolved.terms.values())


class TestCensusSmall:
    def test_one_dimensional_family(self, ctx):
        t2 = encode_pattern(chain(2))
        assert census(t2, ctx).resolved.terms == {(1, 0): 1}

    def test_t3(self, ctx):
        t3 = encode_pattern(chain(3))
        out = census(t3, ctx)
        assert out.resolved.terms == {(2, 0): 1, (1, 1): 1, (0, 1): -1}
        assert not out.unresolved and not out.families

    def test_empty_basis(self, ctx):
        data = AlgebraicData((), (), (), {})
        assert census(data, ctx).resolved == CountPoly.one()

    def test_parametrised_t3(self, ctx):
        # e12 * e23 = a e13 with a != 0: q-1 isomorphic copies of T_3
        data = AlgebraicData((0,), (NonZero(0),), (0, 1, 2),
                             {(0, 1): [(2, frozenset([0]))]})
        out = census(data, ctx)
        expected = (qt(2) + qt(1, 1) + qt(0, 1, -1)).scale(1, 0, 0)
        assert out.resolved == expected

    def test_partition_of_general_step(self, ctx):
        # census(A) aggregates the z-trivial part and the z-nontrivial part
        t3 = encode_pattern(chain(3))
        z = t3.basis[-1]
        whole = census(t3, ctx)
        trivial = census(t3.remove_basis(z), ctx)
        at = census_at(t3, z, ctx)
        assert whole == aggregate([(trivial, 0, 0, 0), (at, 0, 0, 0)])


class TestCensusAt:
    def test_t3_at_z(self, ctx):
        t3 = encode_pattern(chain(3))
        out = census_at(t3, t3.basis[-1], ctx)
        assert out.resolved.terms == {(1, 1): 1, (0, 1): -1}  # (q-1) t

    def test_direct_summand_peel(self, ctx):
        # two basis vectors, no products: z splits off with q-1 characters
        data = AlgebraicData((), (), (0, 1), {})
        out = census_at(data, 1, ctx)
        assert out.resolved.terms == {(2, 0): 1, (1, 0): -1}  # (q-1) q

    def test_spare_z_takes_no_node_and_no_memo_at_entry(self):
        # a spare z splits off like any spare vector, before the memo
        ctx = EngineContext()
        census_at(AlgebraicData((), (), (0, 1), {}), 1, ctx)
        assert ctx.nodes == 1 and ctx.memo_at == {}

    def test_spare_z_scales_the_census_of_the_rest_once(self, monkeypatch):
        # e0 e1 = a e2 with a != 0, a parameter b no product names, and two
        # spare vectors 3 and z = 4: b scales the census of the rest by q,
        # and the spare vectors by (q-1) q, all in one scaled_sum pass
        prods = {(0, 1): [(2, frozenset([0]))]}
        rest = AlgebraicData((0, 1), (NonZero(0),), (0, 1, 2), prods)
        data = AlgebraicData((0, 1), (NonZero(0),), (0, 1, 2, 3, 4), prods)
        ctx = EngineContext()
        want = scale_census(census(rest, ctx), 1, 1, 0)
        calls = []
        scaled_sum = CountPoly.scaled_sum
        monkeypatch.setattr(CountPoly, "scaled_sum",
                            staticmethod(lambda parts: calls.append(1) or scaled_sum(parts)))
        assert census_at(data, 4, ctx) == want
        assert len(calls) == 1

    def test_two_dim_core_gives_family(self, ctx):
        out = census_at(core_2dim(), 1, ctx)
        assert out.resolved.is_zero()
        assert len(out.families) == 1
        fam = out.families[0]
        assert fam.z == 1 and (fam.k, fam.l, fam.m) == (0, 0, 0)


class TestContractTypeB:
    def test_t3_contraction_leaves_single_vector(self):
        t3 = encode_pattern(chain(3))
        ((e12, e23, ((e13, _),)),) = t3.prods
        out = contract_type_b(t3, e13, e12)  # y = e12, x_1 = e23
        assert len(out.basis) == 1
        assert out.prods == ()

    def test_k_equal_one_never_divides(self):
        # one x only: no primed vectors, no new parameters or equations
        data = AlgebraicData((0,), (NonZero(0),), (0, 1, 2, 3),
                             {(0, 1): [(3, frozenset([0]))]})
        out = contract_type_b(data, 3, 0)
        assert out.params == data.params
        assert out.restrictions == data.restrictions
        assert len(out.basis) == 2

    def test_set_difference_shortcut(self):
        # y x_1 = a z, y x_2 = b z, and u u = a b x_1: dividing by c_2 = b
        # cancels against the literal factor set, no fresh variable
        data = AlgebraicData(
            (0, 1), (NonZero(0), NonZero(1)), (10, 15, 11, 12, 14),
            {(10, 11): [(14, frozenset([0]))],
             (10, 12): [(14, frozenset([1]))],
             (15, 15): [(11, frozenset([0, 1]))]})   # u u = a b x1
        out = contract_type_b(data, 14, 10)
        # x'_1 = b x1 - a x2; u u = a b x1 -> (a b / b) x'_1 = a x'_1
        (pair,) = [p for p in out.prods if p[0] == 15]
        assert pair[2][0][1] == frozenset([0])
        assert out.params == data.params  # no fresh variable was needed

    def test_division_equation_when_no_shortcut(self):
        data = AlgebraicData(
            (0, 1, 2), (NonZero(0), NonZero(1), NonZero(2)), (10, 15, 11, 12, 14),
            {(10, 11): [(14, frozenset([0]))],
             (10, 12): [(14, frozenset([1]))],
             (15, 15): [(11, frozenset([2]))]})      # u u = c x1, c independent
        out = contract_type_b(data, 14, 10)
        assert len(out.params) == len(data.params) + 1
        d = out.params[-1]
        assert NonZero(d) in out.restrictions  # d = c / b can never vanish

    def test_bad_witness_rejected(self):
        t3 = encode_pattern(chain(3))
        ((e12, e23, ((e13, _),)),) = t3.prods
        with pytest.raises(BadWitness):
            contract_type_b(t3, e13, e23)  # a right factor cannot be y
        with pytest.raises(BadWitness):
            contract_type_b(t3, e12, e13)  # y must hit z

    def test_oracle_agreement_on_t3(self, ctx):
        # the contraction preserves the nontrivial-at-z character count
        t3 = encode_pattern(chain(3))
        out = census_at(t3, t3.basis[-1], ctx)
        report = verify_census(t3, out, 2, z=t3.basis[-1])
        assert report["pass"], report


class TestContractTypeA:
    def test_relabel_only_when_image_is_z(self):
        # y w = z and no vector to fold: pure relabelling, no new parameters
        data = AlgebraicData((), (), (0, 1, 2), {(0, 1): [(2, frozenset())]})
        out = contract_type_a(data, 2, ())
        assert out.params == ()
        assert len(out.basis) == 3

    def test_single_folded_column(self, ctx):
        # y hits w only; w folds into z with one fresh free parameter
        data = AlgebraicData((), (), (0, 1, 2, 3),
                             {(0, 1): [(2, frozenset())]})  # y x = w; z = 3 separate
        out = contract_type_a(data, 3, {2})
        assert len(out.params) == 1
        assert len(out.basis) == 3
        b = out.params[0]
        (x, y, ts) = out.prods[0]
        assert ts == ((3, frozenset([b])),)

    def test_fold_counts_match_oracle(self, ctx):
        # y u = w and u u = z: the fold is the only applicable move, and
        # summing |Irr(1+J/S(b), <z>)| over b in F_q equals |Irr(1+J, <z>)|
        data = AlgebraicData((), (), (0, 1, 2, 3),
                             {(0, 1): [(2, frozenset())],
                              (1, 1): [(3, frozenset())]})
        out = census_at(data, 3, ctx)
        for q0 in (2, 3):
            report = verify_census(data, out, q0, z=3)
            assert report["pass"], report

    def test_bad_fold_rejected(self):
        # y u = w and u u = z, as above: u is a factor, and z cannot fold
        data = AlgebraicData((), (), (0, 1, 2, 3),
                             {(0, 1): [(2, frozenset())],
                              (1, 1): [(3, frozenset())]})
        for z, ws in ((3, {1}), (1, {2}), (3, {2, 3})):
            with pytest.raises(BadWitness):
                contract_type_a(data, z, ws)

    @staticmethod
    def fold_inputs(rng: random.Random, count: int):
        """count random families (data, z, ws): no product has one of the
        last four vectors as a factor; z, the last, is hit, and so are the
        two or more vectors ws of the other three.  Every product is
        e_i e_j with i < j, which keeps the give-ups, whose totals are
        counted by brute force, few."""
        out = []
        while len(out) < count:
            dim, nparams = rng.randint(6, 7), rng.randint(0, 2)
            products = {}
            for i in range(dim - 4):
                for j in range(i + 1, dim - 4):
                    for k in range(j + 1, dim):
                        if rng.random() < 0.4:
                            fs = rng.sample(range(nparams), rng.randint(0, nparams))
                            products.setdefault((i, j), []).append((k, fs))
            data = AlgebraicData(range(nparams), [NonZero(p) for p in range(nparams)],
                                 range(dim), products)
            z = dim - 1
            ws = sorted(data.hit_targets - data.left_factors - data.right_factors - {z})
            if z in data.hit_targets and len(ws) >= 2 and symbolically_associative(data):
                out.append((data, z, ws))
        return out

    def test_any_folded_vectors_give_the_same_census(self):
        # witness confluence: the fold is sound for any set of annihilated
        # vectors, so folding each nonempty subset of them, with a b for
        # each, keeps census_at z; a fold that gave two vectors one b
        # would lose characters
        multi = 0
        for data, z, ws in self.fold_inputs(random.Random(5), 12):
            ctx = EngineContext(validate=True)
            want = [census_totals_at(census_at(data, z, ctx), q0) for q0 in (2, 3, 4)]
            for r in range(1, len(ws) + 1):
                for sub in combinations(ws, r):
                    folded = aggregate((census_at(case, z, ctx), 0, 0, 0)
                                       for case in split_into_cases(contract_type_a(data, z, sub)))
                    got = [census_totals_at(folded, q0) for q0 in (2, 3, 4)]
                    assert got == want, (data, z, sub)
                    multi += r >= 2
        assert multi >= 20, multi


class TestContraction:
    """engine._contraction: one scan of the y with Jy = 0 picks the move."""

    def test_good_pair_wins_over_an_earlier_fold_witness(self):
        # y = 0 hits w = 3 and z = 4, a fold witness first in basis order;
        # y = 2 hits z only, a good pair, which is taken with shift 1
        data = AlgebraicData((), (), (0, 1, 2, 3, 4),
                             {(0, 1): [(3, frozenset()), (4, frozenset())],
                              (2, 1): [(4, frozenset())]})
        contracted, shift = engine._contraction(data, 4)
        want = contract_type_b(data, 4, 2)
        assert shift == 1
        assert (contracted.key(), contracted.basis) == (want.key(), want.basis)

    def test_fold_prefers_an_image_with_z_to_a_smaller_one(self):
        # no good pair: y = 0 hits w = 3 alone, y = 1 hits w = 4 and z = 5
        data = AlgebraicData((), (), range(6),
                             {(0, 2): [(3, frozenset())],
                              (1, 2): [(4, frozenset()), (5, frozenset())]})
        contracted, shift = engine._contraction(data, 5)
        want = contract_type_a(data, 5, {4})
        assert shift == 0
        assert (contracted.key(), contracted.basis) == (want.key(), want.basis)

    def test_no_witness(self):
        # y y = a z: the only product has a right factor as its left one
        assert engine._contraction(core_2dim(), 1) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_any_witness_gives_the_same_tables(self, monkeypatch, seed):
        # confluence: census_at may contract at any good pair, and failing
        # one, fold at any y whose products land on annihilated vectors
        def table(n):
            ctx = EngineContext()
            out = resolve(census(encode_pattern(chain(n)), ctx), n, ctx)
            assert out.unresolved == ()
            return out.entries

        want = {n: table(n) for n in (6, 7, 8)}
        rng = random.Random(seed)
        default = engine._contraction
        moved = []

        def random_contraction(data, z):
            factors = data.left_factors | data.right_factors
            pairs, folds = [], []
            for y, rows in data.products_by_left().items():
                if y in data.right_factors:
                    continue
                image = {w for _, ts in rows for w, _ in ts}
                if image == {z}:
                    pairs.append(y)
                elif image.isdisjoint(factors):
                    folds.append(sorted(image - {z}))
            if pairs:
                picked = contract_type_b(data, z, rng.choice(sorted(pairs))), 1
            elif folds:
                picked = contract_type_a(data, z, rng.choice(sorted(folds))), 0
            else:
                return None
            moved.append(picked[0].key() != default(data, z)[0].key())
            return picked

        monkeypatch.setattr(engine, "_contraction", random_contraction)
        for n in (6, 7, 8):
            assert table(n) == want[n], (n, seed)
        assert any(moved)


class TestResolve:
    def test_plain_table(self, ctx):
        t4 = encode_pattern(chain(4))
        table = resolve(census(t4, ctx), 4, ctx)
        assert sorted(table.entries) == [0, 1, 2]
        assert table.entries[0].terms == {(3, 0): 1}
        assert not table.exceptional

    def test_recognised_family_folds_in(self, ctx):
        fam = Family(core_2dim(), 1, 12, 0, 16)
        table = resolve(Census(CountPoly.zero(), (), (fam,)), 13, ctx)
        total = table.entries[16]
        # (q-1)^12 * (q-1) * q(q-1) = q (q-1)^14? no: |V| = q-1 from the nonzero
        # parameter, times q(q-1) characters each, times the (q-1)^12 scale
        assert total == CountPoly({(1, 0): 1}).scale(14, 0, 0)
        assert table.exceptional and table.exceptional[0][0].m == 16

    def test_contradictory_family_dropped(self, ctx):
        from unicount.algdata import Equation
        bad = AlgebraicData((0,), (NonZero(0), Equation(ParamPoly.var(0))), (0, 1),
                            {(0, 0): [(1, frozenset([0]))]})
        fam = Family(bad, 1, 0, 0, 0)
        table = resolve(Census(CountPoly.zero(), (), (fam,)), 13, ctx)
        assert not table.exceptional and not table.entries

    def test_unrecognised_core_surfaces(self, ctx):
        # a 3-dimensional family core is not the known shape, and a family
        # of all characters (z None) has no central vector to fold on;
        # resolve once raised at the first and never named the second
        data = AlgebraicData((0,), (NonZero(0),), (0, 1, 2),
                             {(0, 1): [(2, frozenset([0]))]})
        fams = (Family(data, 2, 0, 0, 0), Family(core_2dim(), None, 0, 0, 3))
        table = resolve(Census(qt(1), (), fams), 13, ctx)
        assert table.unfolded == fams
        assert not table.exceptional and not table.unresolved
        assert table.entries == {0: qt(1)}

    def test_json_round_trip_keeps_unresolved_records(self, ctx):
        from unicount.algdata import Equation
        a, b = ParamPoly.var(0), ParamPoly.var(1)
        record = URecord((0, 1), (NonZero(0), Equation(a * a * b - b + ParamPoly.const(1))),
                         2, 1, 3)
        fam = Family(core_2dim(), 1, 12, 0, 16)
        table = resolve(Census(qt(2), (record,), (fam,)), 13, ctx)
        obj = table.to_json()
        # q (q-1)^14, as in test_recognised_family_folds_in
        count = {"terms": [{"q": 15 - i, "t": 0, "c": (-1) ** i * comb(14, i)}
                           for i in range(15)]}
        assert obj["families"] == [{
            "core": {"params": ["p0"], "restrictions": [{"kind": "nonzero", "param": "p0"}],
                     "basis": ["e0", "e1"],
                     "products": [{"x": "e0", "y": "e0", "z": "e1", "factors": ["p0"]}]},
            "z": "e1", "k": 12, "l": 0, "m": 16, "count": count}]
        assert obj["unresolved_counts"] == [{
            "system": {"params": ["p0", "p1"],
                       "restrictions": [
                           {"kind": "nonzero", "param": "p0"},
                           {"kind": "equation", "terms": [
                               {"coeff": 1, "monomial": []},
                               {"coeff": 1, "monomial": [["p0", 2], ["p1", 1]]},
                               {"coeff": -1, "monomial": [["p1", 1]]}]}],
                       "basis": [], "products": []},
            "u": 2, "v": 1, "e": 3}]


class TestOracleProperties:
    """Count and degree identities against brute force on random data."""

    def test_census_matches_class_counts(self, shared_ctx):
        rng = random.Random(42)
        for _ in range(30):
            data = random_algebraic_data(rng, max_dim=4, max_params=2)
            out = census(data, shared_ctx)
            for q0 in (2, 3):
                report = verify_census(data, out, q0)
                assert report["pass"], (data, report)

    def test_census_at_matches_class_count_differences(self, shared_ctx):
        rng = random.Random(43)
        for _ in range(30):
            data = random_algebraic_data(rng, max_dim=4, max_params=2)
            z = data.basis[-1]
            out = census_at(data, z, shared_ctx)
            for q0 in (2, 3):
                report = verify_census(data, out, q0, z=z)
                assert report["pass"], (data, report)


def with_spare_vector(data: AlgebraicData, rng: random.Random) -> AlgebraicData:
    """data plus a fresh basis vector, at a random position, that no
    product names: the algebras become J + <v> as a direct sum."""
    basis = list(data.basis)
    basis.insert(rng.randint(0, len(basis)), max(basis) + 1)
    return AlgebraicData(data.params, data.restrictions, basis, data.products_dict())


def assert_no_spare_vector(data: AlgebraicData):
    named = data.left_factors | data.right_factors | data.hit_targets
    assert all(b in named for b in data.basis), data


class TestSpareSummands:
    """A spare vector v (no factor and no target of any product) splits
    off: census(J + <v>) = q census(J), and census_at likewise for z != v."""

    def test_census_of_a_direct_sum(self):
        rng = random.Random(61)
        for _ in range(40):
            data = random_algebraic_data(rng, max_dim=5, max_params=2)
            plus = with_spare_vector(data, rng)
            out = census(plus, EngineContext(validate=True))
            assert out == scale_census(census(data, EngineContext()), 0, 1, 0)
            for q0 in (2, 3):
                report = verify_census(plus, out, q0)
                assert report["pass"], (plus, report)

    def test_census_at_of_a_direct_sum(self):
        rng = random.Random(62)
        for _ in range(40):
            data = random_algebraic_data(rng, max_dim=5, max_params=2)
            z = rng.choice([b for b in data.basis if not data.is_factor(b)])
            plus = with_spare_vector(data, rng)
            out = census_at(plus, z, EngineContext(validate=True))
            assert out == scale_census(census_at(data, z, EngineContext()), 0, 1, 0)
            for q0 in (2, 3):
                report = verify_census(plus, out, q0, z=z)
                assert report["pass"], (plus, report)

    def test_no_memo_key_holds_a_spare_vector(self):
        ctx = EngineContext()
        unitriangular_census(12, ctx)
        assert ctx.memo_all and ctx.memo_at
        for key in ctx.memo_all:
            assert_no_spare_vector(AlgebraicData.from_key(key))
        for key in ctx.memo_at:
            assert_no_spare_vector(AlgebraicData.from_key(key[:-1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_any_choice_of_z_gives_the_same_tables(self, monkeypatch, seed):
        # confluence: census may peel any annihilated vector
        def table(n):
            ctx = EngineContext()
            out = resolve(census(encode_pattern(chain(n)), ctx), n, ctx)
            assert out.unresolved == ()
            return out.entries

        want = {n: table(n) for n in (6, 7, 8)}
        rng = random.Random(seed)
        default = engine._choose_z
        moved = []

        def random_z(data):
            factors = data.left_factors | data.right_factors
            z = rng.choice([b for b in data.basis if b not in factors])
            moved.append(z != default(data))
            return z

        monkeypatch.setattr(engine, "_choose_z", random_z)
        for n in (6, 7, 8):
            assert table(n) == want[n], (n, seed)
        assert any(moved)


@pytest.mark.parametrize("n", [10, 11])
def test_general_path_matches_reference_rows(shared_ctx, n):
    from unicount.cli import load_golden_tables
    from unicount.patterns import chain, encode_pattern
    table = resolve(census(encode_pattern(chain(n)), shared_ctx), n, shared_ctx)
    assert table.unresolved == ()
    assert table.entries == load_golden_tables()[n]


def test_split_preserves_instantiated_tables():
    # the multiset of multiplication tables over all cases equals the one
    # over the original data, substitution by substitution
    from unicount.oracle import enumerate_param_values, instantiate
    from collections import Counter
    data = AlgebraicData((0, 1), (), (0, 1, 2, 3),
                         {(0, 1): [(2, frozenset([0]))],
                          (1, 1): [(3, frozenset([0, 1]))]})
    cases = split_into_cases(data)
    for q in (2, 3):
        def tables(d):
            return Counter(instantiate(d, h, q).table
                           for h in enumerate_param_values(d.params, d.restrictions, q))
        combined = Counter()
        for c in cases:
            combined += tables(c)
        assert combined == tables(data)


def test_census_zero_for_contradictory_restrictions(ctx):
    from unicount.algdata import Equation
    data = AlgebraicData((0,), (NonZero(0), Equation(ParamPoly.var(0))), (0, 1),
                         {(0, 0): [(1, frozenset([0]))]})
    assert census(data, ctx) == Census(CountPoly.zero(), (), ())


# ---------------------------------------------------------------------------
# memo keys

def named_vectors(data):
    """The basis vectors that some product names, in basis order."""
    named = data.left_factors | data.right_factors | data.hit_targets
    return [b for b in data.basis if b in named]


def positional_relabelling(data, params, restrictions):
    """Reference for canonicalize: data with (params, restrictions) and
    only the basis vectors that some product names, their labels renamed
    to positions among those, parameters numbered by first use in the
    products and then in params."""
    b_map = {b: i for i, b in enumerate(named_vectors(data))}
    p_map = {}
    for _, _, ts in data.prods:
        for _, fs in ts:
            for p in sorted(fs):
                p_map.setdefault(p, len(p_map))
    for p in params:
        p_map.setdefault(p, len(p_map))
    renamed = [NonZero(p_map[r.sym]) if isinstance(r, NonZero)
               else Equation(r.poly.rename(p_map)) for r in restrictions]
    products = {(b_map[x], b_map[y]): [(b_map[z], {p_map[p] for p in fs}) for z, fs in ts]
                for x, y, ts in data.prods}
    return AlgebraicData(range(len(p_map)), renamed, range(len(b_map)), products)


def relabelled(data, rng):
    """Restriction-free data under random basis labels, basis order kept, and
    increasing parameter labels, so that case splitting picks the same witnesses."""
    new_b = dict(zip(data.basis, rng.sample(range(100, 200), len(data.basis))))
    new_p = dict(zip(data.params, sorted(rng.sample(range(50), len(data.params)))))
    products = {(new_b[x], new_b[y]): [(new_b[z], {new_p[p] for p in fs}) for z, fs in ts]
                for x, y, ts in data.prods}
    return AlgebraicData([new_p[p] for p in data.params], (),
                         [new_b[b] for b in data.basis], products)


def nested_key(data, params, restrictions):
    """The former memo key, kept as a reference for the flat one: nested
    tuples (params, restriction sort keys, dim, products by position),
    renamed as canonicalize renames."""
    pos = {b: i for i, b in enumerate(named_vectors(data))}
    p_map = {}
    pk = []
    for x, y, ts in data.prods:
        tk = []
        for z, fs in ts:
            for p in sorted(fs):
                p_map.setdefault(p, len(p_map))
            tk.append((pos[z], tuple(sorted(p_map[p] for p in fs))))
        pk.append((pos[x], pos[y], tuple(tk)))
    for p in params:
        p_map.setdefault(p, len(p_map))
    rk = sorted((0, p_map[r.sym]) if isinstance(r, NonZero) else
                (1, tuple(sorted((tuple(sorted((p_map[s], e) for s, e in m)), c)
                                 for m, c in r.poly.key())))
                for r in restrictions)
    return tuple(range(len(p_map))), tuple(rk), len(pos), tuple(pk)


def assert_same_grouping(pairs):
    """Each (key, reference key) pair: keys are equal exactly when their
    reference keys are."""
    by_key, by_ref = {}, {}
    for key, ref in pairs:
        assert by_key.setdefault(key, ref) == ref, key
        assert by_ref.setdefault(ref, key) == key, ref
    return len(by_key)


def is_flat(key):
    return type(key) is tuple and all(type(v) is int for v in key)


def assert_key_matches_reference(data, params, restrictions):
    key = canonicalize(data, params, restrictions)
    ref = positional_relabelling(data, params, restrictions)
    assert key == ref.key()
    rebuilt = AlgebraicData.from_key(key)
    assert rebuilt.key() == key
    assert (rebuilt.params, rebuilt.restrictions, rebuilt.basis, rebuilt.prods) == \
        (ref.params, ref.restrictions, ref.basis, ref.prods)
    return key


class TestMemoKey:
    def test_split_cases_of_random_families(self):
        rng = random.Random(23)
        pairs = []
        for _ in range(60):
            data = random_algebraic_data(rng, max_dim=5, max_params=3)
            # without the inequations, splitting has work to do
            stripped = AlgebraicData(data.params, (), data.basis, data.products_dict())
            cases = split_into_cases(stripped)
            moved = split_into_cases(relabelled(stripped, rng))
            assert len(cases) == len(moved)
            for case, twin in zip(cases, moved):
                key = assert_key_matches_reference(case, case.params, case.restrictions)
                assert canonicalize(twin, twin.params, twin.restrictions) == key
                pairs.append((key, nested_key(case, case.params, case.restrictions)))
                _, _, params, restrictions, empty = solcount.reduce_system(
                    case.params, case.restrictions, case.symbols_in_products())
                if not empty:
                    key = assert_key_matches_reference(case, params, restrictions)
                    pairs.append((key, nested_key(case, params, restrictions)))
        assert all(is_flat(key) for key, _ in pairs)
        assert assert_same_grouping(pairs) < len(pairs)

    def test_spare_vectors_leave_the_key(self):
        # a spare summand <v> changes no memo key: canonicalize numbers
        # only the vectors that some product names
        rng = random.Random(29)
        for _ in range(40):
            data = random_algebraic_data(rng, max_dim=5, max_params=2)
            plus = with_spare_vector(with_spare_vector(data, rng), rng)
            bare = AlgebraicData(data.params, data.restrictions, named_vectors(data),
                                 data.products_dict())
            key = assert_key_matches_reference(plus, plus.params, plus.restrictions)
            assert key == canonicalize(data, data.params, data.restrictions)
            assert key == canonicalize(bare, bare.params, bare.restrictions)

    def test_every_lookup_of_the_general_engine(self, monkeypatch):
        # T_9 is the smallest chain whose reduced lookups keep equations
        seen = []
        real = engine.canonicalize

        def spy(data, params, restrictions):
            seen.append((data, tuple(params), tuple(restrictions)))
            return real(data, params, restrictions)

        monkeypatch.setattr(engine, "canonicalize", spy)
        ctx = EngineContext()
        census(encode_pattern(chain(9)), ctx)
        assert any(isinstance(r, Equation) for _, _, rs in seen for r in rs)
        # the engine looks data up with its spare vectors in place
        assert any(named_vectors(data) != list(data.basis) for data, _, _ in seen)
        keys = set()
        pairs = []
        for data, params, restrictions in seen:
            key = assert_key_matches_reference(data, params, restrictions)
            keys.add(key)
            pairs.append((key, nested_key(data, params, restrictions)))
            assert_key_matches_reference(data, data.params, data.restrictions)
        assert assert_same_grouping(pairs) < len(pairs)
        # a census_at key is the data key with the position of z appended
        assert keys == set(ctx.memo_all) | {k[:-1] for k in ctx.memo_at}

    def test_engine_memo_keys_are_flat_int_tuples(self):
        ctx = EngineContext()
        unitriangular_census(12, ctx)
        assert ctx.memo_all and ctx.memo_at
        assert all(is_flat(key) for key in ctx.memo_all)
        assert all(is_flat(key) for key in ctx.memo_at)

    def test_memo_holds_no_algebraic_data(self):
        def contains_data(x):
            if isinstance(x, AlgebraicData):
                return True
            if isinstance(x, (tuple, list, frozenset, set)):
                return any(contains_data(v) for v in x)
            if isinstance(x, dict):
                return any(contains_data(k) or contains_data(v) for k, v in x.items())
            return False

        ctx = EngineContext()
        unitriangular_census(12, ctx)
        assert ctx.memo_all and ctx.memo_at
        assert not contains_data(ctx.memo_all)
        assert not contains_data(ctx.memo_at)


def chain_candidates(rng: random.Random, count: int):
    """Parameter-free families with c >= 2 good pairs y_i x_i = z, the y_i
    first in the basis and z last, and random products among the other
    vectors that keep each y_i's image {z} and Jy_i = 0."""
    out = []
    while len(out) < count:
        c = rng.randint(2, 3)
        dim = rng.randint(2 * c + 1, 7)
        z = dim - 1
        ys = range(c)
        xs = rng.sample(range(c, z), c)
        products = {(y, x): [(z, ())] for y, x in zip(ys, xs)}
        for i in range(z):
            for j in range(c, z):
                for k in range(max(i, j) + 1, dim):
                    if (i >= c or k == z) and (i, j) not in products and rng.random() < 0.2:
                        products.setdefault((i, j), []).append((k, ()))
        data = AlgebraicData((), (), range(dim), products)
        if symbolically_associative(data):
            out.append((data, z))
    return out


def opening_shifts(data: AlgebraicData, z: int, ctx: EngineContext):
    """census_at(data, z), with the degree shifts of the contractions its
    first node takes before it looks anything up (None for a give-up)."""
    shifts, looked_up = [], []
    real_contraction, real_census_at = engine._contraction, engine.census_at

    def contraction(d, w):
        picked = real_contraction(d, w)
        if not looked_up:
            shifts.append(None if picked is None else picked[1])
        return picked

    def lookup(d, w, c):
        looked_up.append(d)
        return real_census_at(d, w, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_contraction", contraction)
        mp.setattr(engine, "census_at", lookup)
        out = real_census_at(data, z, ctx)
    return out, shifts


def chain_to_core():
    """y_1 x_1 = z and v x_1 = w, then y y = z: the good pair on y_1 leaves
    v and w spare and the core y y = z, on which census_at gives up."""
    return AlgebraicData((), (), (0, 1, 2, 3, 4, 5),
                         {(0, 2): [(5, ())], (1, 2): [(3, ())], (4, 4): [(5, ())]})


class TestParameterFreeNodes:
    """A node with no parameter runs on the data it was looked up with,
    and census_at runs a chain of good pairs in place."""

    def test_chained_good_pairs_match_the_oracle(self):
        chained = longest = 0
        for data, z in chain_candidates(random.Random(71), 20):
            out, shifts = opening_shifts(data, z, EngineContext(validate=True))
            pairs = next((i for i, s in enumerate(shifts) if s != 1), len(shifts))
            chained += pairs >= 2
            longest = max(longest, pairs)
            for q0 in (2, 3):
                report = verify_census(data, out, q0, z=z)
                assert report["pass"], (data.products_dict(), report)
        assert chained >= 15, chained
        assert longest >= 3, longest

    def test_a_give_up_inside_a_chain(self):
        # the core keeps canonical labels, the spare v and w scale it by
        # q^2, and the one good pair before it by t
        ctx = EngineContext(validate=True)
        out, shifts = opening_shifts(chain_to_core(), 5, ctx)
        assert shifts == [1, None]
        core = AlgebraicData((), (), (0, 1), {(0, 0): [(1, ())]})
        assert out == Census(CountPoly.zero(), (), (Family(core, 1, 0, 2, 1),))
        assert ctx.nodes == 1 and ctx.stats == {"giveup_families": 1}
        for q0 in (2, 3):
            assert verify_census(chain_to_core(), out, q0, z=5)["pass"]

    def test_order_keeping_relabelling_keeps_census_and_nodes(self):
        rng = random.Random(73)
        inputs = [random_algebraic_data(rng, max_dim=6, max_params=0) for _ in range(30)]
        inputs += [data for data, _ in chain_candidates(rng, 10)]
        inputs += [encode_pattern(chain(n)) for n in (6, 7)] + [chain_to_core()]
        relabelled_at = 0
        for data in inputs:
            moved = relabelled(data, rng)
            zs = [None] + [b for b in data.basis if not data.is_factor(b)]
            for z in zs:
                runs = []
                for d, w in ((data, z), (moved, None if z is None else moved.basis[data.pos(z)])):
                    ctx = EngineContext(validate=True)
                    runs.append((census(d, ctx) if w is None else census_at(d, w, ctx),
                                 ctx.nodes))
                assert runs[0] == runs[1], (data.products_dict(), z)
                relabelled_at += z is not None
        assert relabelled_at > 50

    def test_from_key_builds_only_nodes_with_parameters_and_families(self, monkeypatch):
        keys = []
        real = AlgebraicData.from_key

        def spy(key):
            keys.append(key)
            return real(key)

        def families_of_a_run(ctx, *runs):
            # one from_key per missed node with parameters and per family
            del keys[:]
            out = [run(ctx) for run in runs]
            param_nodes = sum(key[0] > 0 for memo in (ctx.memo_all, ctx.memo_at)
                              for key in memo)
            emitted = ctx.stats.get("budget_families", 0) + ctx.stats.get("giveup_families", 0)
            assert param_nodes > 0 and emitted > 0
            assert len(keys) == param_nodes + emitted
            return [f for c in out for f in c.families] + \
                [f for memo in (ctx.memo_all, ctx.memo_at) for c in memo.values()
                 for f in c.families]

        monkeypatch.setattr(AlgebraicData, "from_key", staticmethod(spy))
        families = families_of_a_run(EngineContext(max_nodes=20),
                                     lambda ctx: unitriangular_census(12, ctx))
        families += families_of_a_run(EngineContext(),
                                      lambda ctx: census_at(chain_to_core(), 5, ctx),
                                      lambda ctx: census_at(core_2dim(), 1, ctx))
        assert len(families) > 20
        for fam in families:
            assert fam.data.basis == tuple(range(len(fam.data.basis))), fam


def test_every_memo_miss_is_one_node():
    # a node is one miss of memo_all or memo_at, and its result is stored
    # whether the walk's rule ran or the node budget cut it
    ctx = EngineContext()
    census(encode_pattern(chain(8)), ctx)
    unitriangular_census(12, ctx)
    rng = random.Random(101)
    for _ in range(20):
        census(random_algebraic_data(rng, max_dim=5, max_params=2), ctx)
    cut = EngineContext(max_nodes=50)
    census(encode_pattern(chain(8)), cut)
    assert cut.stats["budget_families"] > 0
    for c in (ctx, cut):
        assert c.nodes == len(c.memo_all) + len(c.memo_at)


def test_equal_memo_values_are_one_object():
    ctx = EngineContext()
    unitriangular_census(10, ctx)
    first = {}
    stored = 0
    for memo in (ctx.memo_all, ctx.memo_at, ctx.memo_pattern):
        for value in memo.values():
            assert first.setdefault(value, value) is value
            stored += 1
    assert len(first) < stored


def test_count_memo_groups_equal_systems(monkeypatch):
    calls = []
    real = solcount.count_solutions
    monkeypatch.setattr(solcount, "count_solutions",
                        lambda *args: calls.append(args) or real(*args))

    def counted():
        # d = a*b with a nonzero: q(q-1) solutions
        a, b, d = (ParamPoly.var(i) for i in range(3))
        return (0, 1, 2), [NonZero(0), Equation(a * b - d)]

    def refused():
        # 2 = 0 holds only in characteristic 2
        return (0,), [Equation(ParamPoly.const(2))]

    ctx = EngineContext()
    assert ctx.count(*counted()) == ctx.count(*counted()) == qt(2) - qt(1)
    assert ctx.count(*refused()) is None and ctx.count(*refused()) is None
    assert len(calls) == len(ctx.memo_counts) == 2
    assert list(ctx.memo_counts.values())[1] is None


# ---------------------------------------------------------------------------
# change of basis: the reference contractions below expand every product
# case by hand, and the engine's must match them key for key

def reference_product_pusher(data: AlgebraicData, new_products: dict, extra_params: list,
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


def reference_contract_type_b(data: AlgebraicData, z: int, y: int) -> AlgebraicData:
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
    push, fresh = reference_product_pusher(data, new_products, extra_params, extra_restrictions)

    def mono(fs):
        return ParamPoly.monomial(fs)

    prods = data.products_dict()

    def targets(a, b):
        return dict(prods.get((a, b), ()))

    for u in new_basis:
        xu = old_of.get(u)
        for v in new_basis:
            xv = old_of.get(v)
            if xu is None and xv is None:
                for w, fs in prods.get((u, v), ()):
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


def reference_contract_type_a(data: AlgebraicData, z: int, ws) -> AlgebraicData:
    """Quotient by the central subspaces <w_i - b_i z> for fresh free b_i.

    The annihilated vectors w_1..w_k of ws fold into a relabelled z placed
    last in the basis; products into w_i reappear in the z column with
    coefficient b_i.
    """
    factors = data.left_factors | data.right_factors
    annihilated = {b for b in data.basis if b not in factors}
    if z in ws or not {z, *ws} <= annihilated:
        raise BadWitness("z and the folded vectors must be distinct and annihilated")
    ws = [w for w in data.basis if w in ws]

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
    push, _ = reference_product_pusher(shifted, new_products, extra_params, extra_restrictions)

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


REFERENCE = {"a": reference_contract_type_a, "b": reference_contract_type_b}
CONTRACT = {"a": "contract_type_a", "b": "contract_type_b"}


def assert_same_contraction(kind, data, z, arg):
    """The contraction of kind on data and z agrees with its reference; arg
    is the witness y of a good pair, or the vectors a fold folds."""
    got = getattr(engine, CONTRACT[kind])(data, z, arg)
    want = REFERENCE[kind](data, z, arg)
    assert (got.key(), got.basis) == (want.key(), want.basis), (kind, data, z, arg)
    return got


def recorded_contractions(monkeypatch, run):
    """Every (kind, data, z, arg) that the engine contracts while run() runs."""
    seen = []
    for kind, name in CONTRACT.items():
        def spy(data, z, arg, kind=kind, real=getattr(engine, name)):
            seen.append((kind, data, z, arg))
            return real(data, z, arg)
        monkeypatch.setattr(engine, name, spy)
    run()
    monkeypatch.undo()
    return seen


def division_input():
    """e0 e2 = p0 e3 + p1 e4 and e1 e3 = p2 e5, e1 e4 = p3 e5, with p0 = p3,
    p1 = -p2 and every parameter nonzero: contracting (e5, e1) divides the
    coordinate p0 on e3 by c_k = p3, which the factor set {p0} cannot absorb."""
    p = ParamPoly.var
    return AlgebraicData(
        (0, 1, 2, 3),
        [NonZero(0), NonZero(1), NonZero(2), NonZero(3),
         Equation(p(0) - p(3)), Equation(p(1) + p(2))],
        range(6),
        {(0, 2): [(3, frozenset([0])), (4, frozenset([1]))],
         (1, 3): [(5, frozenset([2]))],
         (1, 4): [(5, frozenset([3]))]})


def two_divisions_input():
    """e0 e1 = p0 e2 + p1 e3 and e4 e2 = p2 e6, e4 e3 = p3 e6, e4 e5 = p4 e6,
    with p0 = p3, p1 = -p2 and every parameter nonzero: contracting (e6, e4)
    divides both coordinates of e0 e1 by c_k = p4, one fresh parameter each."""
    p = ParamPoly.var
    return AlgebraicData(
        range(5),
        [NonZero(i) for i in range(5)] + [Equation(p(0) - p(3)), Equation(p(1) + p(2))],
        range(7),
        {(0, 1): [(2, frozenset([0])), (3, frozenset([1]))],
         (4, 2): [(6, frozenset([2]))],
         (4, 3): [(6, frozenset([3]))],
         (4, 5): [(6, frozenset([4]))]})


class TestChangeOfBasis:
    def test_division_equation_input(self):
        out = assert_same_contraction("b", division_input(), 5, 1)
        p = ParamPoly.var
        assert out.params == (0, 1, 2, 3, 4)
        assert Equation(p(4) * p(3) - p(0)) in out.restrictions
        assert NonZero(4) in out.restrictions

    def test_fresh_parameters_follow_target_position(self):
        out = assert_same_contraction("b", two_divisions_input(), 6, 4)
        p = ParamPoly.var
        assert out.basis == (0, 1, 7, 8, 6)
        assert out.prods[0] == (0, 1, ((7, frozenset([5])), (8, frozenset([6]))))
        assert Equation(p(5) * p(4) - p(0)) in out.restrictions
        assert Equation(p(6) * p(4) - p(1)) in out.restrictions

    def test_every_contraction_of_the_general_engine(self, monkeypatch):
        seen = recorded_contractions(
            monkeypatch, lambda: census(encode_pattern(chain(8)), EngineContext()))
        assert {kind for kind, *_ in seen} == {"a", "b"}
        for call in seen:
            assert_same_contraction(*call)

    def test_contractions_under_random_posets(self, monkeypatch):
        # orders whose first node hands a stabiliser to the general engine
        posets = engine_bound_posets(random.Random(31), 40)

        def run():
            for m, rel in posets:
                pattern_census(Poset(range(1, m + 1), rel), EngineContext())

        seen = recorded_contractions(monkeypatch, run)
        assert seen
        for call in seen:
            assert_same_contraction(*call)

    def test_contractions_of_random_families(self, monkeypatch):
        rng = random.Random(37)
        families = [random_algebraic_data(rng, max_dim=6, max_params=3) for _ in range(60)]

        def run():
            for data in families:
                census(data, EngineContext())

        seen = recorded_contractions(monkeypatch, run)
        assert {kind for kind, *_ in seen} == {"a", "b"}
        for call in seen:
            assert_same_contraction(*call)
