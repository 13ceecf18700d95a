from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from unicount.engine import EngineContext
from unicount.oracle import audit_counts
from unicount.oracle import closed_order, random_algebraic_data, symbolically_associative  # noqa: F401
from unicount import patterns
from unicount.patterns import Poset, _preds, antichains, normal_closure


def load_script(name: str):
    """The module of ``scripts/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _audited(ctx: EngineContext):
    """Yield ctx, then fail teardown if the count audit finds a violation."""
    yield ctx
    violations = audit_counts(ctx.memo_counts).violations
    assert not violations, f"count audit violations: {violations}"


@pytest.fixture
def ctx():
    yield from _audited(EngineContext(validate=True))


@pytest.fixture(scope="session")
def shared_ctx():
    """One memo space for everything cheap; audited at session end."""
    yield from _audited(EngineContext())


def random_poset_pairs(rng: random.Random, max_elems: int = 5):
    """A random strict partial order on 1..m as a set of pairs."""
    m = rng.randint(1, max_elems)
    rel = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < 0.4}
    return m, set(closed_order(m, rel).rel)


def first_node(succ):
    """The first node of the pattern recursion on the order succ, which has
    a relation: the masks it runs the row procedure on (succ or its dual),
    their minimal position c0, the row D of c0, and the antichains of D in
    its normal closure, the walk ``_pattern_core`` takes.  It follows
    ``patterns.choose_peel`` as the recursion does, monkeypatched or not."""
    node, c0 = patterns.choose_peel(succ)
    D = node[c0]
    pred = _preds(node, D)
    return node, c0, D, list(antichains(D, normal_closure(node, pred, D), pred))


def engine_bound_posets(rng: random.Random, count: int, max_elems: int = 8):
    """count random orders (m, rel) whose first pattern node hands some
    antichain to the general engine: it has no clean minimal row and no
    clean maximal column, and some row of the one it peels sees two
    elements of an antichain of its normal closure."""
    out = []
    while len(out) < count:
        m, rel = random_poset_pairs(rng, max_elems)
        if rel and not all(clean for *_, clean in
                           first_node(Poset(range(1, m + 1), rel).masks())[3]):
            out.append((m, rel))
    return out


def top_and_closure(E, rel: frozenset, ground):
    """Reference: the maximal elements of E, and the downward closure of E
    in the ground set, on a labelled relation."""
    E = set(E)
    top = {d for d in E if not any(e != d and (d, e) in rel for e in E)}
    closure = {c for c in ground if c in E or any((c, d) in rel for d in E)}
    return top, closure


def reference_antichains(D, rel: frozenset) -> list[frozenset]:
    """Reference: all antichains of (D, rel), the empty one included, in
    lexicographic order, on a labelled relation."""
    D = sorted(D)
    out = []

    def rec(start: int, current: tuple[int, ...]):
        out.append(frozenset(current))
        for i in range(start, len(D)):
            c = D[i]
            if all((c, e) not in rel and (e, c) not in rel for e in current):
                rec(i + 1, current + (c,))

    rec(0, ())
    return sorted(out, key=lambda s: tuple(sorted(s)))
