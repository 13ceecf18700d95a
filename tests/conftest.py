from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from unicount.engine import EngineContext
from unicount.oracle import audit_counts
from unicount.oracle import random_algebraic_data, symbolically_associative  # noqa: F401


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
    rel = set()
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if rng.random() < 0.4:
                rel.add((i, j))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return m, rel


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
