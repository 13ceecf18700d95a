import random

import pytest

from unicount.algdata import AlgebraicData, Equation, NonZero
from unicount.engine import Census, EngineContext, Family, census, resolve
from unicount.oracle import (NotCentralIdeal, TooLarge, class_count,
                             count_values_bruteforce, enumerate_param_values, instantiate, irr_count_at_z,
                             census_disagreement, quotient_by, verify_census)
from unicount.patterns import Poset, chain, encode_pattern, pattern_census
from unicount.polyring import CountPoly, ParamPoly

from conftest import load_script, random_algebraic_data


def u_n_algebra(n, q):
    return instantiate(encode_pattern(chain(n)), {}, q)


def zero_mult_algebra(dim, q):
    return instantiate(AlgebraicData((), (), range(dim), {}), {}, q)


def core_algebra(q):
    data = AlgebraicData((0,), (NonZero(0),), (0, 1),
                         {(0, 0): [(1, frozenset([0]))]})
    return instantiate(data, {0: 1}, q)


class TestClassCount:
    def test_u3_f2_is_dihedral(self):
        assert class_count(u_n_algebra(3, 2)) == 5

    def test_u3_f3(self):
        assert class_count(u_n_algebra(3, 3)) == 11

    def test_zero_multiplication_is_abelian(self):
        for q in (2, 3, 4, 5):
            for dim in (1, 2, 3):
                assert class_count(zero_mult_algebra(dim, q)) == q**dim

    def test_u4(self):
        assert class_count(u_n_algebra(4, 2)) == 16
        assert class_count(u_n_algebra(4, 3)) == 57

    def test_numpy_and_python_paths_agree(self):
        # U_4(3) is large enough for the vectorised path; force both
        from unicount import oracle
        alg = u_n_algebra(4, 3)
        gens = [(i, lam) for i in range(alg.dim) for lam in range(1, alg.q)]
        assert oracle._class_count_np(alg, gens) == oracle._class_count_py(alg, gens)

    def test_f4_path(self):
        assert class_count(u_n_algebra(3, 4)) == 4**2 + 4 - 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            class_count(u_n_algebra(6, 3))


class TestIrrCountAtZ:
    def test_t3_center(self):
        alg = u_n_algebra(3, 2)
        z = alg.labels[-1]
        assert irr_count_at_z(alg, z) == 1  # 5 - 4

    def test_zero_mult_dim2(self):
        for q in (2, 3):
            alg = zero_mult_algebra(2, q)
            assert irr_count_at_z(alg, alg.labels[1]) == q * q - q

    def test_truncated_polynomial_core(self):
        alg = core_algebra(2)
        assert irr_count_at_z(alg, 1) == 2  # q(q-1) at q = 2

    def test_rejects_non_central(self):
        alg = u_n_algebra(3, 2)
        with pytest.raises(NotCentralIdeal):
            quotient_by(alg, alg.labels[0])  # e12 is a factor


def test_vectorised_substitution_count_matches_enumeration():
    # 5^6 and 3^8 assignments take the numpy branch of count_values_bruteforce,
    # which raises every variable to its power mod q by table lookup
    rng = random.Random(17)
    for q, n in ((5, 6), (3, 8)):
        x = [ParamPoly.var(p) for p in range(n)]
        for _ in range(3):
            eq = (x[0].pow(rng.randint(2, 7)) * x[1].pow(rng.randint(1, 3))
                  - x[2] * x[n - 1] + ParamPoly.const(rng.randint(0, 4)))
            restrictions = [Equation(eq), NonZero(rng.randrange(n))]
            want = len(enumerate_param_values(range(n), restrictions, q))
            assert count_values_bruteforce(range(n), restrictions, q) == want


class TestVerifyCensus:
    def test_t3_passes(self, ctx):
        t3 = encode_pattern(chain(3))
        out = census(t3, ctx)
        report = verify_census(t3, out, 2)
        assert report["pass"]
        assert report["count_expected"] == 5
        assert report["weight_expected"] == 8

    def test_t4_passes(self, ctx):
        t4 = encode_pattern(chain(4))
        out = census(t4, ctx)
        report = verify_census(t4, out, 2)
        assert report["pass"] and report["weight_expected"] == 64

    def test_corrupted_census_fails(self, ctx):
        t3 = encode_pattern(chain(3))
        out = census(t3, ctx)
        bad = Census(out.resolved + CountPoly.one(), out.unresolved, out.families)
        report = verify_census(t3, bad, 2)
        assert not report["pass"]


class TestInvariants:
    def test_central_quotient_has_fewer_classes(self):
        rng = random.Random(77)
        for _ in range(10):
            data = random_algebraic_data(rng, max_dim=4, max_params=1)
            z = data.basis[-1]
            for q0 in (2, 3):
                for h in enumerate_param_values(data.params, data.restrictions, q0):
                    alg = instantiate(data, h, q0)
                    n_at = irr_count_at_z(alg, z)
                    assert 0 <= n_at < class_count(alg)

    def test_class_count_invariant_under_table_relabelling(self):
        # permuting labels (keeping the table) does not change the count
        alg = u_n_algebra(3, 3)
        relabeled = type(alg)(alg.q, tuple(100 + b for b in alg.labels), alg.table)
        assert class_count(alg) == class_count(relabeled)


# a wide poset on which the general engine leaves count records of six
# parameters (case 173 of `scripts/run_oracle_checks.py --cases 200
# --seed 1` while that sweep also drew antichains no row sees two of)
CASE_173 = Poset(range(1, 11), [
    (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 5), (2, 6),
    (2, 8), (2, 9), (2, 10), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (5, 6), (5, 8),
    (5, 9), (5, 10), (6, 8), (6, 9), (6, 10), (7, 10), (8, 9)])


def test_unresolved_records_are_counted_before_tables_are_compared():
    # the general engine leaves count records on this poset and the pattern
    # path none, so their tables differ in the rows of those records; the
    # totals at q = 2 and 3, with the records counted, agree
    ctx = EngineContext()
    fast = pattern_census(CASE_173, ctx)
    slow = census(encode_pattern(CASE_173), ctx)
    assert not resolve(fast, 10, ctx).unresolved
    assert resolve(slow, 10, ctx).unresolved
    assert resolve(fast, 10, ctx).entries != resolve(slow, 10, ctx).entries
    assert census_disagreement(fast, slow, 10, ctx) is None
    # a census missing one counted character disagrees at q = 2 already
    short = slow._replace(resolved=slow.resolved - CountPoly.one())
    assert census_disagreement(fast, short, 10, ctx) == "totals differ at q = 2"

    skipped = []
    assert load_script("run_oracle_checks").check_poset(CASE_173, EngineContext(), random.Random(1),
                                       skipped) == []
    assert skipped == []


def test_sweep_names_a_comparison_it_cannot_count(monkeypatch):
    # records with more parameters than brute force takes give no
    # verdict: each such comparison is named as skipped, neither passed
    # nor ending the sweep in a traceback
    script = load_script("run_oracle_checks")

    def too_large(*args):
        raise TooLarge("10 parameters exceeds enumeration cap 9")

    monkeypatch.setattr(script, "census_disagreement", too_large)
    skipped = []
    assert script.check_poset(CASE_173, EngineContext(), random.Random(1), skipped) == []
    assert [(name, type(e)) for name, e in skipped] == [
        ("general engine", TooLarge), ("dual poset", TooLarge),
        ("relabelled poset", TooLarge)]


# case 93 of `scripts/run_oracle_checks.py --cases 300 --seed 1` while
# that sweep drew its posets against the peel ``choose_peel`` made when it
# took the largest row of an order with no clean row or column
CASE_93 = Poset(range(1, 11), [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 4),
    (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 5), (3, 6), (3, 7), (3, 9),
    (3, 10), (4, 7), (4, 9), (5, 6), (5, 7), (5, 9), (5, 10), (6, 7), (6, 9), (6, 10),
    (7, 9), (8, 10)])


def test_sweep_names_a_comparison_one_side_refuses(monkeypatch, capsys):
    # a side that refuses is compared by its totals, with its unfolded
    # families counted by brute force, so a wrong refusal is a failure;
    # it was once skipped unchecked.  The pattern path once refused the
    # dual of this poset with a core that resolve does not recognise;
    # since the peel scores its candidates it resolves both, and no drawn
    # order refuses on one side only (none of the 600 orders of
    # `scripts/run_refusals.py` against its dual, nor the posets of
    # `--cases 300` at seeds 1 and 2), so the dual side is handed a family
    # whose core resolve does not recognise, and whose totals are U_3's
    script = load_script("run_oracle_checks")
    skipped = []
    assert script.check_poset(CASE_93, EngineContext(), random.Random("1:93"), skipped) == []
    assert skipped == []

    dual = Poset(CASE_93.elems, [(b, a) for a, b in CASE_93.rel])
    core = Census(CountPoly.zero(), (), (Family(encode_pattern(chain(3)), None, 0, 0, 0),))
    real = script.pattern_census
    monkeypatch.setattr(script, "pattern_census",
                        lambda poset, ctx: core if poset == dual else real(poset, ctx))
    assert script.check_poset(CASE_93, EngineContext(), random.Random("1:93"), skipped) == [
        "poset: pattern path and dual poset disagree: totals differ at q = 2"]
    assert skipped == []

    monkeypatch.setattr(script, "wide_poset", lambda rng: CASE_93)
    assert script.main(["--cases", "1", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL case 0 poset: pattern path and dual poset disagree: " in out
    assert "SKIP" not in out
    assert ", 1 failures, 0 comparisons too large to count, " in out


def test_oracle_check_sweep_passes(capsys):
    # its families run census_at at their last basis vector, which is often
    # spare, so the spare z rule is checked against class counts
    assert load_script("run_oracle_checks").main(["--cases", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert ", 0 failures, " in out


def test_chains_compare_the_two_routes(capsys, monkeypatch):
    # --chains computes each U_n under choose_peel and under the rule of
    # rows only, and a row that differs is a failure
    from unicount import patterns
    script = load_script("run_oracle_checks")
    assert script.main(["--cases", "1", "--seed", "1", "--chains", "4", "6"]) == 0
    out = capsys.readouterr().out
    assert "chain U_4: the two routes agree" in out and "chain U_6: the two routes agree" in out
    assert patterns.choose_peel is script.choose_peel
    real = script.chain_table
    monkeypatch.setattr(script, "chain_table",
                        lambda n, rule: real(n - (rule is script.rows_only), rule))
    assert script.main(["--cases", "1", "--seed", "1", "--chains", "6"]) == 1
    assert "FAIL chain U_6: the two routes disagree: rows e = [" in capsys.readouterr().out


# case 207 of `scripts/run_oracle_checks.py --cases 300 --seed 1` while
# that sweep drew its posets against the lowest minimal row
CASE_207 = Poset(range(1, 11), [
    (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 3), (2, 4),
    (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 6), (3, 7), (3, 8),
    (3, 9), (3, 10), (4, 6), (4, 8), (4, 9), (6, 9), (7, 8), (7, 10)])


def test_count_records_of_nine_parameters_are_counted():
    # the general engine leaves records of nine parameters on this poset,
    # more than enumerate_param_values takes; census_totals_at counts
    # them with count_values_bruteforce
    ctx = EngineContext()
    fast = pattern_census(CASE_207, ctx)
    slow = census(encode_pattern(CASE_207), ctx)
    assert max(len(r.params) for r in slow.unresolved) == 9
    assert census_disagreement(fast, slow, 10, ctx) is None
    short = slow._replace(resolved=slow.resolved - CountPoly.one())
    assert census_disagreement(fast, short, 10, ctx) == "totals differ at q = 2"
