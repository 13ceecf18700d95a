import random

from hypothesis import given, strategies as st

from unicount import solcount
from unicount.algdata import Equation, NonZero, set_zero
from unicount.oracle import enumerate_param_values
from unicount.polyring import CountPoly, ParamPoly
from unicount.solcount import _eliminate_step, count_solutions, reduce_system


def v(i):
    return ParamPoly.var(i)


def c(n):
    return ParamPoly.const(n)


def assert_counts_match(params, restrictions, qs=(2, 3, 4, 5)):
    poly = count_solutions(params, restrictions)
    assert poly is not None, f"pipeline gave up on {restrictions}"
    for q in qs:
        want = len(enumerate_param_values(params, restrictions, q))
        assert poly.eval_at(q) == want, (q, poly)
    return poly


class TestCountSolutions:
    def test_empty_system(self):
        assert count_solutions((), ()) == CountPoly.one()

    def test_free_and_nonzero(self):
        poly = assert_counts_match((0, 1), (NonZero(0),))
        assert poly.terms == {(2, 0): 1, (1, 0): -1}  # q(q-1)

    def test_determined_variable(self):
        # c is fixed by (a, b): count q(q-1)
        eq = Equation(v(0) * v(1) - v(2))
        poly = assert_counts_match((0, 1, 2), (NonZero(0), eq), qs=(2, 3))
        assert poly.terms == {(2, 0): 1, (1, 0): -1}

    def test_contradiction_detected(self):
        eq = Equation(v(0) * v(1))
        assert count_solutions((0, 1), (NonZero(0), NonZero(1), eq)) == CountPoly.zero()

    def test_unit_contradiction(self):
        assert count_solutions((), (Equation(c(1)),)) == CountPoly.zero()

    def test_division_equation_shape(self):
        # d * c0 = a * b with everything nonzero: d is determined
        eq = Equation(v(3) * v(0) - v(1) * v(2))
        restrictions = tuple(NonZero(i) for i in range(4)) + (eq,)
        poly = assert_counts_match((0, 1, 2, 3), restrictions, qs=(2, 3, 4))
        assert poly.terms == {(3, 0): 1, (2, 0): -3, (1, 0): 3, (0, 0): -1}

    def test_entangled_inequation(self):
        # a - a*b + c = 0 with a, b, c nonzero: (q-1)(q-2)
        eq = Equation(v(0) - v(0) * v(1) + v(2))
        restrictions = (NonZero(0), NonZero(1), NonZero(2), eq)
        poly = assert_counts_match((0, 1, 2), restrictions)
        assert poly.eval_at(2) == 0 and poly.eval_at(5) == 12

    def test_monomial_content(self):
        # a*b*c^2 - a^2*b*c = 0 with all nonzero reduces to c = a
        eq = Equation(v(0) * v(1) * v(2) * v(2) - v(0) * v(0) * v(1) * v(2))
        restrictions = (NonZero(0), NonZero(1), NonZero(2), eq)
        poly = assert_counts_match((0, 1, 2), restrictions)
        assert poly.terms == {(2, 0): 1, (1, 0): -2, (0, 0): 1}

    def test_three_term_sum_of_nonzeros(self):
        eq = Equation(v(0) + v(1) + v(2))
        restrictions = (NonZero(0), NonZero(1), NonZero(2), eq)
        poly = assert_counts_match((0, 1, 2), restrictions)
        # (q-1)(q-2)
        assert poly.eval_at(3) == 2

    def test_randomised_soundness(self):
        rng = random.Random(2024)
        monos = [lambda: v(rng.randrange(4)),
                 lambda: v(rng.randrange(4)) * v(rng.randrange(4))]
        for _ in range(120):
            nparams = rng.randint(1, 4)
            restrictions = [NonZero(p) for p in range(nparams) if rng.random() < 0.6]
            neq = rng.randint(0, 2)
            for _ in range(neq):
                poly = ParamPoly.zero()
                for _ in range(rng.randint(1, 3)):
                    m = ParamPoly.monomial(
                        [rng.randrange(nparams) for _ in range(rng.randint(1, 2))],
                        rng.choice([-1, 1]))
                    poly = poly + m
                if not poly.is_zero():
                    restrictions.append(Equation(poly))
            poly = count_solutions(tuple(range(nparams)), tuple(restrictions))
            if poly is not None:
                for q in (2, 3, 4, 5):
                    want = len(enumerate_param_values(range(nparams), restrictions, q))
                    assert poly.eval_at(q) == want

    def test_unresolved_carries_input_verbatim(self):
        # a characteristic-dependent system the pipeline must refuse
        eq = Equation(c(2))
        assert count_solutions((0,), (eq,)) is None


class TestEliminateLinear:
    def test_division_equation_eliminated(self):
        # d*c0 - a*b = 0 with everything nonzero: one linearly determined
        # variable is substituted away and the equation disappears
        eq = Equation(v(3) * v(0) - v(1) * v(2))
        restrictions = (NonZero(0), NonZero(1), NonZero(2), NonZero(3), eq)
        out = _eliminate_step((0, 1, 2, 3), restrictions, frozenset())
        assert out is not None
        params, reduced = out
        assert len(params) == 3
        assert all(isinstance(r, NonZero) for r in reduced)
        for q in (2, 3, 4):
            assert len(enumerate_param_values((0, 1, 2, 3), restrictions, q)) == \
                len(enumerate_param_values(params, reduced, q))

    def test_quadratic_only_no_progress(self):
        eq = Equation(v(0) * v(0) - v(1))
        out = _eliminate_step((0, 1), (NonZero(1), eq), frozenset())
        assert out is None or out[0] == (0,)
        # x appears only quadratically: the pivot must not pick x
        out = _eliminate_step((0, 1), (eq,), frozenset())
        assert out is None or 0 in out[0]

    def test_equal_variables_substituted(self):
        eq = Equation(v(0) - v(1))
        out = _eliminate_step((0, 1), (eq,), frozenset())
        assert out is not None
        params, restrictions = out
        assert len(params) == 1 and restrictions == ()

    def test_count_preserved(self):
        rng = random.Random(5)
        for _ in range(60):
            nparams = rng.randint(2, 4)
            restrictions = [NonZero(p) for p in range(nparams) if rng.random() < 0.5]
            poly = v(0) * ParamPoly.monomial([rng.randrange(1, nparams)]) - \
                ParamPoly.monomial([rng.randrange(nparams) for _ in range(2)])
            restrictions.append(Equation(poly))
            out = _eliminate_step(tuple(range(nparams)), tuple(restrictions), frozenset())
            if out is None:
                continue
            for q in (2, 3, 4):
                before = len(enumerate_param_values(range(nparams), restrictions, q))
                after = len(enumerate_param_values(out[0], out[1], q))
                assert before == after


def test_confluence_under_relabelling():
    # permuting the variable labels must not change the counted polynomial
    rng = random.Random(9)
    for _ in range(40):
        nparams = rng.randint(2, 4)
        restrictions = [NonZero(p) for p in range(nparams)]
        poly = ParamPoly.zero()
        for _ in range(rng.randint(1, 3)):
            poly = poly + ParamPoly.monomial(
                [rng.randrange(nparams) for _ in range(rng.randint(1, 2))],
                rng.choice([-1, 1]))
        if poly.is_zero():
            continue
        restrictions.append(Equation(poly))
        base = count_solutions(tuple(range(nparams)), tuple(restrictions))
        perm = list(range(nparams))
        rng.shuffle(perm)
        mapping = dict(enumerate(perm))
        relabeled = [NonZero(mapping[r.sym]) if isinstance(r, NonZero)
                     else Equation(r.poly.rename(mapping)) for r in restrictions]
        assert count_solutions(tuple(perm), tuple(relabeled)) == base


def test_reduce_system_factors_are_exact():
    rng = random.Random(13)
    for _ in range(40):
        nparams = rng.randint(1, 4)
        restrictions = [NonZero(p) for p in range(nparams) if rng.random() < 0.5]
        if nparams >= 2 and rng.random() < 0.7:
            restrictions.append(Equation(v(0) - v(nparams - 1)))
        k, l, params, rest, empty = reduce_system(tuple(range(nparams)),
                                                  tuple(restrictions))
        for q in (2, 3, 5):
            want = len(enumerate_param_values(range(nparams), restrictions, q))
            if empty:
                assert want == 0
            else:
                reduced = len(enumerate_param_values(params, rest, q))
                assert want == (q - 1) ** k * q**l * reduced


def random_system(rng, nparams):
    """Inequations and one or two equations on parameters 0..nparams-1, mixing
    unit monomials, monomial content and linear terms."""
    def var():
        return rng.randrange(nparams)

    restrictions = [NonZero(p) for p in range(nparams) if rng.random() < 0.5]
    for _ in range(rng.randint(1, 2)):
        shape = rng.randrange(3)
        if shape == 0:
            poly = ParamPoly.monomial([var() for _ in range(rng.randint(1, 2))],
                                      rng.choice([-1, 1]))
        elif shape == 1:
            poly = ParamPoly.monomial([var()]) * (v(var()) - v(var()))
        else:
            poly = v(var()) * ParamPoly.monomial([var() for _ in range(rng.randint(0, 1))]) \
                - ParamPoly.monomial([var() for _ in range(rng.randint(0, 2))])
        if not poly.is_zero():
            restrictions.append(Equation(poly))
    return restrictions


def test_reduce_system_leaves_protected_parameters(monkeypatch):
    fired = dict.fromkeys(("pin", "division", "unused", "elimination"), 0)

    def spy(rule, fn):
        def wrapper(*args):
            out = fn(*args)
            fired[rule] += out is not None
            return out
        return wrapper

    monkeypatch.setattr(solcount, "set_zero", spy("pin", solcount.set_zero))
    monkeypatch.setattr(solcount, "_eliminate_step",
                        spy("elimination", solcount._eliminate_step))
    monkeypatch.setattr(ParamPoly, "divide_monomial",
                        spy("division", ParamPoly.divide_monomial))
    rng = random.Random(31)
    for _ in range(200):
        nparams = rng.randint(1, 4)
        restrictions = random_system(rng, nparams)
        protected = frozenset(rng.sample(range(nparams), rng.randint(1, nparams)))
        k, l, params, rest, empty = reduce_system(tuple(range(nparams)),
                                                  tuple(restrictions), protected)
        fired["unused"] += k + l > 0
        if not empty:
            assert protected <= set(params), (restrictions, protected, params)
        for q in (2, 3, 4, 5):
            want = len(enumerate_param_values(range(nparams), restrictions, q))
            got = 0 if empty else \
                (q - 1) ** k * q**l * len(enumerate_param_values(params, rest, q))
            assert got == want, (restrictions, protected, q)
    assert all(fired.values()), fired


@st.composite
def systems(draw):
    """Up to four parameters, some restricted nonzero and some protected,
    and up to three equations of signed monomials of degree at most 3."""
    nparams = draw(st.integers(1, 4))
    sym = st.integers(0, nparams - 1)
    nz = draw(st.sets(sym))
    monomial = st.builds(lambda syms, c: ParamPoly.monomial(syms, c),
                         st.lists(sym, max_size=3), st.sampled_from([-2, -1, 1, 2]))
    polys = draw(st.lists(st.lists(monomial, min_size=1, max_size=3).map(sum_polys),
                          min_size=1, max_size=3))
    restrictions = [NonZero(p) for p in sorted(nz)] + [Equation(p) for p in polys]
    return tuple(range(nparams)), tuple(restrictions), frozenset(draw(st.sets(sym)))


def sum_polys(polys):
    out = ParamPoly.zero()
    for p in polys:
        out = out + p
    return out


@given(systems())
def test_reduced_equations_have_no_nonzero_content(system):
    # the unit-monomial rule relies on it: what the division leaves of a
    # unit monomial has no nonzero-restricted variable
    k, l, params, rest, empty = reduce_system(*system)
    nz = {r.sym for r in rest if isinstance(r, NonZero)}
    for r in rest:
        if isinstance(r, Equation):
            assert not nz & set(r.poly.content()), (system, r)


@st.composite
def equation_free_systems(draw):
    """Parameters drawn from 0..5 in any order, inequations on some of
    them and on symbols outside them, and a protected set: no equation."""
    params = draw(st.permutations(range(6)).map(lambda ps: ps[:draw(st.integers(0, 6))]))
    nz = draw(st.lists(st.integers(0, 7), max_size=5))
    protected = frozenset(draw(st.sets(st.integers(0, 7))))
    return tuple(params), tuple(NonZero(p) for p in nz), protected


@given(equation_free_systems())
def test_reduce_system_without_equations_skips_the_loop(system):
    params, restrictions, protected = system
    assert reduce_system(params, restrictions, protected) == \
        solcount._reduce_loop(list(params), list(restrictions), protected)


def test_set_zero_splits_the_count():
    rng = random.Random(37)
    for _ in range(150):
        nparams = rng.randint(1, 4)
        restrictions = random_system(rng, nparams)
        free = [p for p in range(nparams) if NonZero(p) not in restrictions]
        if not free:
            continue
        x = rng.choice(free)
        params, zeroed = set_zero(range(nparams), restrictions, x)
        assert x not in params
        assert all(r != NonZero(x) for r in zeroed)
        assert all(x not in r.poly.symbols() and not r.poly.is_zero()
                   for r in zeroed if isinstance(r, Equation))
        for q in (2, 3, 4, 5):
            whole = len(enumerate_param_values(range(nparams), restrictions, q))
            at_zero = len(enumerate_param_values(params, zeroed, q))
            nonzero = len(enumerate_param_values(range(nparams),
                                                 restrictions + [NonZero(x)], q))
            assert whole == at_zero + nonzero, (restrictions, x, q)


def test_set_zero_drops_the_inequation_and_emptied_equations():
    eq_gone = Equation(v(0) * v(1))
    eq_kept = Equation(v(0) * v(2) + v(1) - v(2))
    params, restrictions = set_zero((0, 1, 2), (NonZero(0), NonZero(1), eq_gone, eq_kept), 0)
    assert params == (1, 2)
    assert restrictions == (NonZero(1), Equation(v(1) - v(2)))
