"""Seeded inputs for the workloads.

Everything here is a pure function of the seed, so one seed always gives
the same inputs, byte for byte.  The package under test only ever sees the
tables and fuzzy subsets built here.
"""

from __future__ import annotations

import gzip
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracle

POOL = Path(__file__).resolve().parent / "data" / "o3_pool.txt.gz"
ALL_CLASSES = "11111"


def load_o3_pool() -> list[tuple[tuple[int, ...], str]]:
    """Every order-3 hypersemigroup with its class key (see make_pool.py)."""
    with gzip.open(POOL, "rt") as fh:
        return [
            (tuple(int(d) for d in cells), key)
            for cells, key in (line.split() for line in fh)
        ]


def order2_tables() -> list[tuple[tuple[int, ...], str]]:
    """All 30 order-2 hypersemigroups in odometer order, with oracle keys."""
    return [
        (cells, oracle.combination_key(cells, 2))
        for cells in product(range(1, 4), repeat=4)
        if oracle.is_associative(cells, 2)
    ]


def dense_tables(rng: random.Random, order: int, count: int, accept) -> list:
    """``count`` distinct tables whose cells hold each element with
    probability 0.8, kept when ``accept(cells)`` says associative.

    Dense cells make products saturate, so associative tables are common
    at order 4, where uniform cells almost never are.
    """
    seen = set()
    out = []
    while len(out) < count:
        cells = []
        for _ in range(order * order):
            mask = 0
            for e in range(order):
                if rng.random() < 0.8:
                    mask |= 1 << e
            cells.append(mask or 1 << rng.randrange(order))
        cells = tuple(cells)
        if cells not in seen:
            seen.add(cells)
            if accept(cells):
                out.append(cells)
    return out


def mixed_corpus(seed: str, pool, n3: int, n4: int, accept4) -> list:
    """Distinct hypersemigroups of orders 2-4, shuffled.

    Entries are ``(order, cells, key)``; ``key`` is the recorded class
    combination, or None for order 4, which has no record.  Order 2 is all
    30 tables; order 3 draws a third of its tables from the pool's 501 that
    fail some class and the rest from those in all five; order 4 is dense.
    """
    rng = random.Random(f"perfbench-corpus:{seed}")
    failing = [entry for entry in pool if entry[1] != ALL_CLASSES]
    passing = [entry for entry in pool if entry[1] == ALL_CLASSES]
    n_fail = min(n3 // 3, len(failing))
    o3 = rng.sample(failing, n_fail) + rng.sample(passing, n3 - n_fail)
    corpus = [(2, cells, key) for cells, key in order2_tables()]
    corpus += [(3, cells, key) for cells, key in o3]
    corpus += [(4, cells, None) for cells in dense_tables(rng, 4, n4, accept4)]
    rng.shuffle(corpus)
    return corpus


def table_text(order: int, cells) -> str:
    """The ``hypertable v1`` document for a table, written independently of
    the package's serializer."""
    lines = ["hypertable v1", f"order: {order}"]
    for i, mask in enumerate(cells):
        members = " ".join(str(e) for e in range(order) if mask >> e & 1)
        lines.append(f"{i // order} {i % order}: {members}")
    return "\n".join(lines) + "\n"


def fuzzy_values(rng: random.Random, order: int) -> tuple[Fraction, ...]:
    """Membership degrees p/q with q <= 16: general rationals, not 0/1."""
    out = []
    for _ in range(order):
        q = rng.randint(1, 16)
        out.append(Fraction(rng.randint(0, q), q))
    return tuple(out)


def odometer_cells(order: int, index: int) -> tuple[int, ...]:
    """Cells of the index-th table in the package's documented odometer
    order: row-major, each cell runs 1..2^n-1, the last cell fastest."""
    base = (1 << order) - 1
    digits = []
    for _ in range(order * order):
        index, d = divmod(index, base)
        digits.append(d + 1)
    return tuple(reversed(digits))
