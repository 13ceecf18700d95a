from __future__ import annotations

import random

import pytest

from unicount.engine import EngineContext
from unicount.oracle import audit_counts
from unicount.oracle import random_algebraic_data, symbolically_associative  # noqa: F401


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
