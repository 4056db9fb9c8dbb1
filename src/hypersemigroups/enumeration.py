"""Table-space exploration: exhaustive and seeded-random generation of
hyperoperation tables, associativity filtering and classification censuses.

Census runs partition the table space deterministically (exhaustive mode
splits on the first cell's subset value, sampled mode on index ranges), so
reports are byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .classify import CLASS_ORDER, classify
from .core import HyperOp, _associative

# exhaustive enumeration is refused above this many tables unless the
# caller explicitly opts in (which still only unlocks order 3)
DEFAULT_TABLE_BUDGET = 100


class EnumerationBudgetError(ValueError):
    """Exhaustive enumeration would exceed the table budget."""


def hypergroupoid_count(order: int) -> int:
    """(2^n - 1)^(n^2): the number of order-n hyperoperation tables."""
    if order < 1:
        raise ValueError("order must be positive")
    return (2**order - 1) ** (order * order)


def _check_budget(order: int, allow_large: bool) -> None:
    count = hypergroupoid_count(order)
    if count <= DEFAULT_TABLE_BUDGET:
        return
    if order == 3 and allow_large:
        return
    hint = "" if order > 3 else "; pass allow_large=True to run it"
    raise EnumerationBudgetError(
        f"exhaustive enumeration at order {order} is {count} tables{hint}"
    )


def enumerate_hypergroupoids(order: int, allow_large: bool = False) -> Iterator[HyperOp]:
    """Yield every order-n table exactly once.

    The stream is the odometer over cells in row-major order, each cell
    running through the nonempty subset masks in ascending order, with the
    last cell advancing fastest.
    """
    _check_budget(order, allow_large)
    for cells in itertools.product(range(1, 2**order), repeat=order * order):
        yield HyperOp(order, cells)


def random_hypergroupoid(order: int, seed) -> HyperOp:
    """A table with each cell drawn uniformly from the nonempty subsets.

    Deterministic for a fixed seed (int or str).
    """
    if order < 1:
        raise ValueError("order must be positive")
    rng = random.Random(seed)
    top = 2**order
    return HyperOp(order, (rng.randrange(1, top) for _ in range(order * order)))


def _sample_seed(seed, index: int) -> str:
    # string seeding is stable across runs and platforms
    return f"{seed}:{index}"


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


def _new_tally() -> dict:
    return {
        "seen": 0,
        "hyper": 0,
        "class_counts": {cls.value: 0 for cls in CLASS_ORDER},
        "combos": {},
        "disagreements": 0,
    }


def _tally_table(tally: dict, h: HyperOp) -> None:
    tally["hyper"] += 1
    report = classify(h)
    for cls in CLASS_ORDER:
        cr = report.classes[cls]
        if cr.verdict:
            tally["class_counts"][cls.value] += 1
        if not cr.routes_agree:
            tally["disagreements"] += 1
    key = report.combination_key()
    tally["combos"][key] = tally["combos"].get(key, 0) + 1


def _merge(tallies) -> dict:
    out = _new_tally()
    for t in tallies:
        out["seen"] += t["seen"]
        out["hyper"] += t["hyper"]
        for k, v in t["class_counts"].items():
            out["class_counts"][k] += v
        for k, v in t["combos"].items():
            out["combos"][k] = out["combos"].get(k, 0) + v
        out["disagreements"] += t["disagreements"]
    return out


def _census_exhaustive_part(args) -> dict:
    order, first_cell = args
    tally = _new_tally()
    rest = order * order - 1
    for tail in itertools.product(range(1, 2**order), repeat=rest):
        cells = (first_cell,) + tail
        tally["seen"] += 1
        if _associative(cells, order):
            _tally_table(tally, HyperOp(order, cells))
    return tally


def _census_sampled_part(args) -> dict:
    order, seed, lo, hi = args
    tally = _new_tally()
    for i in range(lo, hi):
        h = random_hypergroupoid(order, _sample_seed(seed, i))
        tally["seen"] += 1
        if h.is_hypersemigroup():
            _tally_table(tally, h)
    return tally


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
        _check_budget(order, allow_large)
        total = hypergroupoid_count(order)
        parts = [(order, first) for first in range(1, 2**order)]
        worker = _census_exhaustive_part
    else:
        if sample < 0:
            raise ValueError("sample count must be nonnegative")
        total = sample
        chunk = max(1, -(-sample // jobs)) if sample else 1
        parts = [
            (order, str(seed), lo, min(lo + chunk, sample))
            for lo in range(0, sample, chunk)
        ]
        worker = _census_sampled_part

    # more workers than partitions or cores would only sit idle
    workers = min(jobs, len(parts), os.cpu_count() or 1)
    tallies = []
    done = 0
    if workers <= 1:
        for part in parts:
            tally = worker(part)
            tallies.append(tally)
            done += tally["seen"]
            if progress is not None:
                progress(done, total)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map preserves partition order, keeping the merge deterministic
            for tally in pool.map(worker, parts):
                tallies.append(tally)
                done += tally["seen"]
                if progress is not None:
                    progress(done, total)

    merged = _merge(tallies)
    report = CensusReport(
        order=order,
        mode="exhaustive" if exhaustive else "sampled",
        tables_seen=merged["seen"],
        hypersemigroups=merged["hyper"],
        class_counts=merged["class_counts"],
        combination_counts=dict(sorted(merged["combos"].items())),
        route_disagreements=merged["disagreements"],
        sample_count=None if exhaustive else sample,
        seed=None if exhaustive else str(seed),
    )
    report.validate()
    return report

