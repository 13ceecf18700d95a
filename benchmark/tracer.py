"""Per-layer timing from outside the program.

``Tracer.installed()`` replaces the public entry points of
``unicount.patterns``, ``engine``, ``algdata`` and ``solcount`` with
timing wrappers for as long as the block runs, then puts the originals
back.  Spans are not logged one by one (an n = 13 run makes millions);
each wrapper adds its span's self time and call count to running
totals.  Self time is a span's duration minus the time covered by the
spans it calls; functions that are not wrapped, such as
``engine.aggregate``, count toward their caller's self time.

Module attributes are replaced where the program looks them up:
``patterns`` imports ``census`` by name and ``engine`` imports
``split_into_cases`` by name, so those names are replaced in the
importing module; ``engine`` reaches ``solcount`` through the module.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from unicount import engine, patterns, solcount

PATTERN_SPANS = ("unitriangular_census", "pattern_census", "stabilizer_data",
                 "encode_pattern")

# (module, attribute, span); the census wrapper is also installed as
# patterns.census, which is how the pattern path reaches the engine
TARGETS = [(patterns, name, name) for name in PATTERN_SPANS] + [
    (engine, "census", "census"),
    (patterns, "census", "census"),
    (engine, "census_at", "census_at"),
    (engine, "canonicalize", "canonicalize"),
    (engine, "contract_type_a", "contract_type_a"),
    (engine, "contract_type_b", "contract_type_b"),
    (engine, "resolve", "resolve"),
    (engine, "split_into_cases", "split_into_cases"),
    (solcount, "reduce_system", "reduce_system"),
    (solcount, "count_solutions", "count_solutions"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # frames: [child_s, start, span]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # inclusive time and calls of engine entries, by who called them:
        # a pair stabiliser, an |E| >= 3 fallback, or the benchmark itself
        self.boundary_s = {"pair": 0.0, "fallback": 0.0, "direct": 0.0}
        self.boundary_calls = {"pair": 0, "fallback": 0, "direct": 0}
        # memo lookups: canonicalize runs once per lookup, under its caller
        self.lookups = {"census": 0, "census_at": 0}
        self.resolve_s = 0.0
        self.resolve_families = 0
        self._pending_pair = False

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        wrapped: dict[int, object] = {}
        try:
            for mod, attr, span in TARGETS:
                fn = getattr(mod, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(span, fn)
                setattr(mod, attr, wrapped[id(fn)])
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def _wrap(self, span: str, fn):
        self.self_s.setdefault(span, 0.0)
        self.calls.setdefault(span, 0)
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, time.perf_counter

        def plain(*args, **kwargs):
            frame = [0.0, clock(), span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self_s[span] += dur - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += dur

        def entry(*args, **kwargs):
            # census and census_at: classify calls entering the engine
            kind = None
            if not stack:
                kind = "direct"
            elif stack[-1][2] in PATTERN_SPANS:
                kind = "pair" if self._pending_pair else "fallback"
                self._pending_pair = False
            if kind is None:
                return plain(*args, **kwargs)
            t0 = clock()
            try:
                return plain(*args, **kwargs)
            finally:
                self.boundary_s[kind] += clock() - t0
                self.boundary_calls[kind] += 1

        def canonicalize(*args, **kwargs):
            self.lookups[stack[-1][2]] += 1
            return plain(*args, **kwargs)

        def stabilizer_data(*args, **kwargs):
            # the pattern path builds a pair stabiliser right before
            # handing it to census; the fallback builds none
            out = plain(*args, **kwargs)
            self._pending_pair = True
            return out

        def resolve(c, *args, **kwargs):
            self.resolve_families += len(c.families)
            t0 = clock()
            try:
                return plain(c, *args, **kwargs)
            finally:
                self.resolve_s += clock() - t0

        special = {"census": entry, "census_at": entry, "canonicalize": canonicalize,
                   "stabilizer_data": stabilizer_data, "resolve": resolve}
        return special.get(span, plain)

    def layer_metrics(self, memo: dict[str, int]) -> dict[str, float]:
        """The per-layer metrics, given the memo sizes summed over problems.

        Each context starts empty and each miss adds one entry, so a
        hit ratio is 1 - entries / lookups.
        """
        s, c = self.self_s, self.calls

        def hit_ratio(entries, lookups):
            return 1.0 - entries / lookups if lookups else 0.0

        return {
            "patterns.self_s": sum(s[n] for n in PATTERN_SPANS),
            "patterns.calls": c["pattern_census"],
            "patterns.memo_entries": memo["pattern"],
            "patterns.memo_hit_ratio": hit_ratio(memo["pattern"], c["pattern_census"]),
            "patterns.pair_calls": self.boundary_calls["pair"],
            "patterns.fallback_calls": self.boundary_calls["fallback"],
            "engine.pair_s": self.boundary_s["pair"],
            "engine.fallback_s": self.boundary_s["fallback"],
            "engine.direct_s": self.boundary_s["direct"],
            "engine.canonicalize_s": s["canonicalize"],
            "engine.canonicalize_calls": c["canonicalize"],
            "engine.contract_s": s["contract_type_a"] + s["contract_type_b"],
            "engine.contract_a_calls": c["contract_type_a"],
            "engine.contract_b_calls": c["contract_type_b"],
            "engine.census_self_s": s["census"] + s["census_at"],
            "engine.memo_all_entries": memo["all"],
            "engine.memo_at_entries": memo["at"],
            "engine.memo_all_hit_ratio": hit_ratio(memo["all"], self.lookups["census"]),
            "engine.memo_at_hit_ratio": hit_ratio(memo["at"], self.lookups["census_at"]),
            "engine.resolve_s": self.resolve_s,
            "engine.resolve_families": self.resolve_families,
            "algdata.split_s": s["split_into_cases"],
            "algdata.split_calls": c["split_into_cases"],
            "solcount.reduce_s": s["reduce_system"],
            "solcount.reduce_calls": c["reduce_system"],
            "solcount.count_s": s["count_solutions"],
            "solcount.count_calls": c["count_solutions"],
            "solcount.memo_entries": memo["counts"],
        }
