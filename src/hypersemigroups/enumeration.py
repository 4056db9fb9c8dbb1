"""Table-space exploration: exhaustive and seeded-random generation of
hyperoperation tables, associativity filtering and classification censuses.

Census runs partition the table space deterministically (exhaustive mode
splits on the first cell's subset value, sampled mode into one index range
per worker) and sum the partitions' outcome counts, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .classify import CLASS_ORDER, classify
from .core import HyperOp, _associative, check_order

class EnumerationBudgetError(ValueError):
    """Exhaustive enumeration was asked for an order beyond its limit."""


def hypergroupoid_count(order: int) -> int:
    """(2^n - 1)^(n^2): the number of order-n hyperoperation tables."""
    if order < 1:
        raise ValueError("order must be positive")
    return (2**order - 1) ** (order * order)


def _check_budget(order: int, allow_large: bool) -> int:
    # by order alone: at large orders even the count below is unbounded work
    limit = 3 if allow_large else 2
    if order > limit:
        hint = "; pass allow_large=True for order 3" if order == 3 else ""
        raise EnumerationBudgetError(
            f"exhaustive enumeration stops at order {limit}, got order {order}{hint}"
        )
    return hypergroupoid_count(order)


def _odometer(order: int, first_cells) -> Iterator[tuple[int, ...]]:
    # row-major cells, the first from first_cells and the rest from every
    # nonempty subset mask, ascending; the last cell advances fastest
    masks = range(1, 2**order)
    return itertools.product(first_cells, *(masks,) * (order * order - 1))


def enumerate_hypergroupoids(order: int, allow_large: bool = False) -> Iterator[HyperOp]:
    """Every order-n table exactly once, as a lazy stream.

    The stream is the odometer over cells in row-major order, each cell
    running through the nonempty subset masks in ascending order, with the
    last cell advancing fastest.  A refused order raises at the call.
    """
    _check_budget(order, allow_large)
    return (HyperOp(order, cells) for cells in _odometer(order, range(1, 2**order)))


def random_hypergroupoid(order: int, seed) -> HyperOp:
    """A table with each cell drawn uniformly from the nonempty subsets.

    Deterministic for a fixed seed (int or str).
    """
    if order < 1:
        raise ValueError("order must be positive")
    rng = random.Random(seed)
    top = 2**order
    return HyperOp(order, (rng.randrange(1, top) for _ in range(order * order)))


@dataclass
class CensusReport:
    """Classification tallies over a table population."""

    order: int
    mode: str  # "exhaustive" | "sampled"
    tables_seen: int
    hypersemigroups: int
    class_counts: dict[str, int]
    combination_counts: dict[str, int]  # 5-bit key in declared class order
    route_disagreements: int
    sample_count: Optional[int] = None
    seed: Optional[str] = None

    def validate(self) -> None:
        for name, count in self.class_counts.items():
            if count > self.hypersemigroups:
                raise ValueError(f"class count {name} exceeds hypersemigroup total")
        if sum(self.combination_counts.values()) != self.hypersemigroups:
            raise ValueError("combination counts do not sum to hypersemigroup total")

    def render(self) -> str:
        head = f"census order={self.order} mode={self.mode}"
        if self.mode == "sampled":
            head += f" count={self.sample_count} seed={self.seed}"
        lines = [
            head,
            f"tables seen: {self.tables_seen}",
            f"hypersemigroups: {self.hypersemigroups}",
            "class counts:",
        ]
        lines.extend(
            f"  {cls.value}: {self.class_counts[cls.value]}" for cls in CLASS_ORDER
        )
        lines.append("combination counts:")
        lines.extend(
            f"  {key}: {self.combination_counts[key]}"
            for key in sorted(self.combination_counts)
        )
        lines.append(f"route disagreements: {self.route_disagreements}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "mode": self.mode,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "tables_seen": self.tables_seen,
            "hypersemigroups": self.hypersemigroups,
            "class_counts": dict(self.class_counts),
            "combination_counts": dict(sorted(self.combination_counts.items())),
            "route_disagreements": self.route_disagreements,
        }


def _record(outcomes: Counter, h: HyperOp) -> None:
    report = classify(h)
    bad = sum(not cr.routes_agree for cr in report.classes.values())
    outcomes[report.combination_key(), bad] += 1


def _census_exhaustive_part(args) -> tuple[int, Counter]:
    order, first_cell = args
    outcomes = Counter()
    for cells in _odometer(order, (first_cell,)):
        if _associative(cells, order):
            _record(outcomes, HyperOp(order, cells))
    return (2**order - 1) ** (order * order - 1), outcomes


def _census_sampled_part(args) -> tuple[int, Counter]:
    order, seed, lo, hi = args
    outcomes = Counter()
    for i in range(lo, hi):
        # string seeding is stable across runs and platforms
        h = random_hypergroupoid(order, f"{seed}:{i}")
        if h.is_hypersemigroup():
            _record(outcomes, h)
    return hi - lo, outcomes


def census(
    order: int,
    *,
    exhaustive: bool = False,
    sample: Optional[int] = None,
    seed=0,
    jobs: int = 1,
    allow_large: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CensusReport:
    """Filter the population for hypersemigroups and tally their classes.

    Exactly one of ``exhaustive`` / ``sample`` selects the population.
    ``jobs`` > 1 fans the deterministic partitions out to worker processes;
    the merged report is identical for every jobs value.  ``progress``,
    if given, is called with (tables done, tables total).
    """
    if exhaustive == (sample is not None):
        raise ValueError("choose exactly one of exhaustive or sample")
    if jobs < 1:
        raise ValueError("jobs must be positive")

    # more workers than cores would only sit idle
    workers = min(jobs, os.cpu_count() or 1)
    if exhaustive:
        total = _check_budget(order, allow_large)
        parts = [(order, first) for first in range(1, 2**order)]
        worker = _census_exhaustive_part
    else:
        check_order(order)  # an empty sample draws no table that would refuse it
        if sample < 0:
            raise ValueError("sample count must be nonnegative")
        total = sample
        chunk = -(-sample // workers) or 1
        parts = [
            (order, str(seed), lo, min(lo + chunk, sample))
            for lo in range(0, sample, chunk)
        ]
        worker = _census_sampled_part
    workers = min(workers, len(parts))

    # each partition's outcomes: (combination key, disagreeing classes) -> tables
    seen = 0
    outcomes = Counter()
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # map preserves partition order, keeping the merge deterministic
        for part_seen, part in (pool.map if pool else map)(worker, parts):
            seen += part_seen
            outcomes += part
            if progress is not None:
                progress(seen, total)

    combos = Counter()
    for (key, _), n in outcomes.items():
        combos[key] += n
    report = CensusReport(
        order=order,
        mode="exhaustive" if exhaustive else "sampled",
        tables_seen=seen,
        hypersemigroups=sum(combos.values()),
        class_counts={
            cls.value: sum(n for key, n in combos.items() if key[i] == "1")
            for i, cls in enumerate(CLASS_ORDER)
        },
        combination_counts=dict(sorted(combos.items())),
        route_disagreements=sum(bad * n for (_, bad), n in outcomes.items()),
        sample_count=None if exhaustive else sample,
        seed=None if exhaustive else str(seed),
    )
    report.validate()
    return report
