"""Table-space exploration: exhaustive and seeded-random generation of
hyperoperation tables, associativity filtering and classification censuses.

Census runs split the table space by the request alone (exhaustive mode by
its first two cells, sampled mode into at most 16 index ranges) and sum the
partitions' outcome counts, so reports are byte-identical for any worker
count.  Both modes stream row-major cell tuples through one associativity
filter and build a ``HyperOp`` only for the hypersemigroups they classify.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

from .classify import CLASS_ORDER, classify
from .core import HyperOp, _associative, check_order

PREFIX_CELLS = 2  # 2 cores, order 3: progress gaps 5.5-7.8 s, 18-26 s keyed by 1 cell
SAMPLE_RANGES = 16  # not per worker: 500 draws took 11-13 ms in 1 range or in 16


class EnumerationBudgetError(ValueError):
    """Exhaustive enumeration was asked for an order beyond its limit."""


def hypergroupoid_count(order: int) -> int:
    """(2^n - 1)^(n^2): the number of order-n hyperoperation tables."""
    check_order(order)
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


def _odometer(order: int, prefix=()) -> Iterator[tuple[int, ...]]:
    # row-major cells starting with prefix, the rest running through every
    # nonempty subset mask, ascending; the last cell advances fastest
    rest = (range(1, 2**order),) * (order * order - len(prefix))
    return itertools.product(*((cell,) for cell in prefix), *rest)


def enumerate_hypergroupoids(order: int, allow_large: bool = False) -> Iterator[HyperOp]:
    """Every order-n table exactly once, as a lazy stream.

    The stream is the odometer over cells in row-major order, each cell
    running through the nonempty subset masks in ascending order, with the
    last cell advancing fastest.  A refused order raises at the call.
    """
    _check_budget(order, allow_large)
    return (HyperOp(order, cells) for cells in _odometer(order))


def _random_cells(order: int, seed) -> list[int]:
    rng = random.Random(seed)
    top = 2**order
    return [rng.randrange(1, top) for _ in range(order * order)]


def _sample(order: int, seed: str, indices: range) -> Iterator[list[int]]:
    # string seeding is stable across runs and platforms
    return (_random_cells(order, f"{seed}:{i}") for i in indices)


def random_hypergroupoid(order: int, seed) -> HyperOp:
    """A table with each cell drawn uniformly from the nonempty subsets.

    Deterministic for a fixed seed (int or str).
    """
    check_order(order)
    return HyperOp(order, _random_cells(order, seed))


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


def _census_part(args) -> tuple[int, Counter, int]:
    # one partition: `tables` streams its cell tuples, `size` counts them;
    # returns the report's tallies: tables, combination keys, disagreements
    order, size, tables = args
    combos, disagreements = Counter(), 0
    for cells in tables():
        if _associative(cells, order):
            report = classify(HyperOp(order, cells))
            combos[report.combination_key()] += 1
            disagreements += sum(not cr.routes_agree for cr in report.classes.values())
    return size, combos, disagreements


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

    if exhaustive:
        total = _check_budget(order, allow_large)
        prefix_len = min(PREFIX_CELLS, order * order)
        keys = list(itertools.product(range(1, 2**order), repeat=prefix_len))
        parts = [(order, total // len(keys), partial(_odometer, order, k)) for k in keys]
    else:
        check_order(order)  # an empty sample draws no table that would refuse it
        if sample < 0:
            raise ValueError("sample count must be nonnegative")
        total = sample
        k = min(sample, SAMPLE_RANGES)
        ranges = [range(i * sample // k, (i + 1) * sample // k) for i in range(k)]
        parts = [(order, len(r), partial(_sample, order, str(seed), r)) for r in ranges]
    # more workers than cores or partitions would only sit idle
    workers = min(jobs, os.cpu_count() or 1, len(parts))

    seen, combos, disagreements = 0, Counter(), 0
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # the sums do not depend on partition order; map keeps the progress
        # lines in partition order
        for n, part_combos, bad in (pool.map if pool else map)(_census_part, parts):
            seen += n
            combos += part_combos
            disagreements += bad
            if progress is not None:
                progress(seen, total)

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
        route_disagreements=disagreements,
        sample_count=None if exhaustive else sample,
        seed=None if exhaustive else str(seed),
    )
    report.validate()
    return report
