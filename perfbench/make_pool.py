"""Rebuild data/o3_pool.txt.gz: every order-3 hypersemigroup with its class
combination, found by the benchmark's own backtracking search and witness
search (oracle.py), so the pool does not depend on the package under test.

    python3 perfbench/make_pool.py      # about a minute

Each line is the nine cell masks (1..7, row-major) and the five-bit class
key, e.g. ``111111111 11111``.  The script refuses to write a pool that
does not match the published order-3 census record.
"""

from __future__ import annotations

import gzip
from collections import Counter
from itertools import product
from pathlib import Path

from oracle import combination_key

POOL = Path(__file__).resolve().parent / "data" / "o3_pool.txt.gz"
ORDER = 3
RECORD = {"00000": 465, "01011": 18, "01101": 18, "11111": 27610}


def _triple_ok(cells, order, k, x, y, z) -> bool:
    # True unless every cell the triple reads is assigned and it fails
    xy, yz = x * order + y, y * order + z
    if xy > k or yz > k:
        return True
    left_cells = [u * order + z for u in range(order) if cells[xy] >> u & 1]
    right_cells = [x * order + v for v in range(order) if cells[yz] >> v & 1]
    if max(left_cells + right_cells) > k:
        return True
    left = right = 0
    for i in left_cells:
        left |= cells[i]
    for i in right_cells:
        right |= cells[i]
    return left == right


def hypersemigroups(order: int) -> list[tuple[int, ...]]:
    """All associative tables, by cell-at-a-time backtracking."""
    n2 = order * order
    triples = list(product(range(order), repeat=3))
    cells = [0] * n2
    found = []

    def extend(k: int) -> None:
        if k == n2:
            found.append(tuple(cells))
            return
        for mask in range(1, 1 << order):
            cells[k] = mask
            if all(_triple_ok(cells, order, k, *t) for t in triples):
                extend(k + 1)
        cells[k] = 0

    extend(0)
    return found


def main() -> None:
    lines = []
    combos = Counter()
    for cells in hypersemigroups(ORDER):
        key = combination_key(cells, ORDER)
        combos[key] += 1
        lines.append("".join(map(str, cells)) + " " + key)
    if dict(combos) != RECORD:
        raise SystemExit(f"pool does not match the census record: {dict(combos)}")
    POOL.parent.mkdir(exist_ok=True)
    with open(POOL, "wb") as raw:
        # mtime=0 keeps the file byte-identical across rebuilds
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(("\n".join(lines) + "\n").encode())
    print(f"wrote {len(lines)} tables to {POOL}: {dict(sorted(combos.items()))}")


if __name__ == "__main__":
    main()
