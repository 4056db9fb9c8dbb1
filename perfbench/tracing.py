"""Span timing for the traced run.

Spans are taken around calls into the package's public functions: the
benchmark's own call sites open spans directly, and ``install`` swaps each
module attribute that other package code looks up at call time (for
example ``enumeration.classify``, which ``census`` calls) for a timing
wrapper, restoring the originals afterwards.  Spans are aggregated in
memory by name as they close: call count, inclusive seconds, and self
seconds (inclusive minus the time covered by child spans).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Per-name span aggregates for one traced stretch."""

    def __init__(self):
        self.count: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # child seconds of each open span

    def _close(self, name: str, frame: list[float], start: float) -> None:
        dur = perf_counter() - start
        self._open.pop()
        self.count[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[0]
        if self._open:
            self._open[-1][0] += dur

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start)

    def wrap(self, fn, name):
        """``fn`` timed under ``name``, a string or a function of the call's
        positional arguments that returns one."""
        namer = name if callable(name) else (lambda *_: name)

        def traced(*args, **kwargs):
            label = namer(*args)
            frame = [0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(label, frame, start)

        return traced

    def seconds(self, prefix: str) -> float:
        return sum(s for n, s in self.total_s.items() if n.startswith(prefix))

    def per_call_us(self, *names: str):
        """Mean inclusive microseconds per span over the exact names given,
        or None when none of them ran."""
        count = sum(self.count.get(n, 0) for n in names)
        if not count:
            return None
        return 1e6 * sum(self.total_s.get(n, 0.0) for n in names) / count

    def summary(self) -> dict:
        return {
            name: {
                "count": self.count[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.count)
        }


def _indicator(f) -> bool:
    return all(v == 0 or v == 1 for v in f.values)


def _compose_name(h, f, g) -> str:
    point = _indicator(f) and _indicator(g)
    return "fuzzy.compose_point" if point else "fuzzy.compose"


def _chain_name(h, factors) -> str:
    point = all(_indicator(f) for f in factors)
    return "fuzzy.compose_chain_point" if point else "fuzzy.compose_chain"


def _targets(pkg) -> list:
    """(span name, [(owner, attribute), ...]) for every wrapped function.

    Each owner is a place the package looks the function up at call time:
    the defining module, modules that imported it, and the package itself
    (which the benchmark calls through).
    """
    mod = {
        name: sys.modules[f"{pkg.__name__}.{name}"]
        for name in ("classify", "enumeration", "fuzzy", "ideals", "tableio")
    }
    return [
        ("core.set_product", [(pkg.HyperOp, "set_product")]),
        (_compose_name, [(mod["fuzzy"], "compose"), (mod["ideals"], "compose"),
                         (pkg, "compose")]),
        (_chain_name, [(mod["fuzzy"], "compose_chain"),
                       (mod["classify"], "compose_chain"), (pkg, "compose_chain")]),
        ("fuzzy.random_subset", [(mod["fuzzy"], "random_fuzzy_subset"),
                                 (mod["classify"], "random_fuzzy_subset"),
                                 (pkg, "random_fuzzy_subset")]),
        (lambda h: f"classify.classify.o{h.order}",
         [(mod["classify"], "classify"), (pkg, "classify")]),
        (lambda h: f"enumeration.census_classify.o{h.order}",
         [(mod["enumeration"], "classify")]),
        ("classify.verify", [(mod["classify"], "verify_theorems"),
                             (pkg, "verify_theorems")]),
        ("enumeration.census", [(mod["enumeration"], "census"), (pkg, "census")]),
        ("enumeration.sample", [(mod["enumeration"], "random_hypergroupoid"),
                                (pkg, "random_hypergroupoid")]),
        ("ideals.closure", [(mod["ideals"], "right_ideal_closure"),
                            (mod["ideals"], "left_ideal_closure"),
                            (pkg, "right_ideal_closure"), (pkg, "left_ideal_closure")]),
        ("ideals.is_ideal", [(mod["ideals"], "is_fuzzy_right_ideal"),
                             (mod["ideals"], "is_fuzzy_left_ideal"),
                             (pkg, "is_fuzzy_right_ideal"), (pkg, "is_fuzzy_left_ideal")]),
        ("ideals.meet_identity", [(mod["ideals"], "check_meet_identity"),
                                  (pkg, "check_meet_identity")]),
        ("tableio.parse", [(mod["tableio"], "parse_table"), (pkg, "parse_table")]),
    ]


@contextmanager
def install(tracer: Tracer, pkg):
    """Route the package's public functions through ``tracer`` while the
    block runs.  Attributes a later version of the package no longer has
    are skipped, so the benchmark keeps running against it."""
    saved = []
    try:
        for name, sites in _targets(pkg):
            for owner, attr in sites:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
