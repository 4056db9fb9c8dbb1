"""Deterministic table generators shared by the test modules."""

from __future__ import annotations

import gzip
import random
from functools import cache
from pathlib import Path

from hypersemigroups import CLASS_ORDER, HyperOp, classify, mask_elements, subset_mask

# every order-3 hypersemigroup with its class key, found by the benchmark's
# own search and oracle (perfbench/make_pool.py); read only
O3_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "o3_pool.txt.gz"


def random_hypersemigroup(order: int, seed) -> HyperOp:
    """First associative table in a seeded rejection stream.

    Uniform cell draws stall at order 4 (associative tables are far too
    rare), so the stream alternates with a dense-cell distribution under
    which products saturate quickly and associativity is common.
    """
    rng = random.Random(f"hsg:{order}:{seed}")
    top = 1 << order
    attempt = 0
    while True:
        attempt += 1
        dense = order >= 4 or attempt % 2 == 0
        cells = []
        for _ in range(order * order):
            if dense:
                m = 0
                for i in range(order):
                    if rng.random() < 0.8:
                        m |= 1 << i
                if not m:
                    m = 1 << rng.randrange(order)
            else:
                m = rng.randrange(1, top)
            cells.append(m)
        h = HyperOp(order, cells)
        if h.is_hypersemigroup():
            return h


def fixed_hypersemigroups(count: int, orders=(2, 3, 4)) -> list[HyperOp]:
    """A reproducible mixed-order list of hypersemigroups."""
    return [
        random_hypersemigroup(orders[i % len(orders)], i) for i in range(count)
    ]


NON_ASSOCIATIVE_2 = HyperOp(2, (2, 1, 1, 1))  # cell(0,0)={1}, rest {0}


def flipping_routes(honest, k: int):
    """``honest`` (a ``classify``) with the fuzzy verdict flipped in the
    first k classes: every report then has exactly k classes whose routes
    disagree, and its elementwise verdicts (so its combination key) stay."""

    def flipped(h):
        report = honest(h)
        for cls in CLASS_ORDER[:k]:
            report.classes[cls].fuzzy = not report.classes[cls].fuzzy
        return report

    return flipped


@cache
def _o3_pool() -> dict[str, list[tuple[int, ...]]]:
    pool: dict[str, list[tuple[int, ...]]] = {}
    with gzip.open(O3_POOL, "rt") as fh:
        for line in fh:
            cells, key = line.split()
            pool.setdefault(key, []).append(tuple(int(d) for d in cells))
    return pool


def o3_pool_failing() -> list[HyperOp]:
    """The 501 order-3 hypersemigroups that fail some class."""
    return [
        HyperOp(3, cells)
        for key, tables in _o3_pool().items()
        if key != "11111"
        for cells in tables
    ]


def o3_pool_passing(count: int, seed: str) -> list[HyperOp]:
    """A seeded ``count`` of the 27,610 order-3 hypersemigroups in all five
    classes."""
    return [
        HyperOp(3, cells)
        for cells in random.Random(seed).sample(_o3_pool()["11111"], count)
    ]


@cache
def class_key(h: HyperOp) -> str:
    """``classify(h).combination_key()``, computed once per table."""
    return classify(h).combination_key()


def transpose(h: HyperOp) -> HyperOp:
    """The opposite table: cell (x, y) of the result is cell (y, x) of h."""
    n = h.order
    return HyperOp(n, (h.cells[y * n + x] for x in range(n) for y in range(n)))


def relabel(h: HyperOp, perm) -> HyperOp:
    """The table with every element e renamed perm[e]."""
    n = h.order
    cells = [0] * (n * n)
    for i, mask in enumerate(h.cells):
        x, y = divmod(i, n)
        cells[perm[x] * n + perm[y]] = subset_mask(
            (perm[e] for e in mask_elements(mask)), n
        )
    return HyperOp(n, cells)
