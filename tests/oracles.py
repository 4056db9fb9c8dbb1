"""Independent brute-force reference implementations.

Everything here recomputes from first principles with direct loops over a
plain dict-of-frozensets view of the table; none of the library's bitmask,
caching or search paths are reused.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def table_view(h) -> dict:
    """Read a table out through the public accessor into plain sets."""
    n = h.order
    return {
        (x, y): frozenset(_mask_to_set(h.hyper_product(x, y)))
        for x in range(n)
        for y in range(n)
    }


def _mask_to_set(mask: int) -> set[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return out


def set_product_oracle(cells, A, B) -> frozenset:
    out = set()
    for a in A:
        for b in B:
            out |= cells[(a, b)]
    return frozenset(out)


def assoc_oracle(cells, n) -> bool:
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = set_product_oracle(cells, cells[(x, y)], {z})
                right = set_product_oracle(cells, {x}, cells[(y, z)])
                if left != right:
                    return False
    return True


def a_set_oracle(cells, n, a) -> frozenset:
    return frozenset(
        (y, z) for y in range(n) for z in range(n) if a in cells[(y, z)]
    )


def compose_oracle(cells, n, fvals, gvals) -> tuple[Fraction, ...]:
    out = []
    for a in range(n):
        candidates = [
            min(fvals[y], gvals[z])
            for y in range(n)
            for z in range(n)
            if a in cells[(y, z)]
        ]
        out.append(max(candidates, default=Fraction(0)))
    return tuple(out)


def _regular_holds(cells, n) -> bool:
    return all(
        any(
            a in set_product_oracle(cells, cells[(a, x)], {a})
            for x in range(n)
        )
        for a in range(n)
    )


def _intra_regular_holds(cells, n) -> bool:
    return all(
        any(
            a in set_product_oracle(cells, cells[(x, a)], cells[(a, y)])
            for x, y in itertools.product(range(n), repeat=2)
        )
        for a in range(n)
    )


def _left_quasi_holds(cells, n) -> bool:
    return all(
        any(
            a in set_product_oracle(cells, cells[(x, a)], cells[(y, a)])
            for x, y in itertools.product(range(n), repeat=2)
        )
        for a in range(n)
    )


def _right_quasi_holds(cells, n) -> bool:
    return all(
        any(
            a in set_product_oracle(cells, cells[(a, x)], cells[(a, y)])
            for x, y in itertools.product(range(n), repeat=2)
        )
        for a in range(n)
    )


def _semisimple_holds(cells, n) -> bool:
    return all(
        any(
            a
            in set_product_oracle(
                cells,
                set_product_oracle(cells, cells[(x, a)], cells[(y, a)]),
                {z},
            )
            for x, y, z in itertools.product(range(n), repeat=3)
        )
        for a in range(n)
    )


CLASS_ORACLES = {
    "regular": _regular_holds,
    "intra-regular": _intra_regular_holds,
    "left quasi-regular": _left_quasi_holds,
    "right quasi-regular": _right_quasi_holds,
    "semisimple": _semisimple_holds,
}


def ideal_oracle(cells, n, fvals, right: bool) -> bool:
    """f(u) >= f(x) (right) or f(y) (left) for every u in every cell x o y."""
    return all(
        fvals[u] >= (fvals[x] if right else fvals[y])
        for x in range(n)
        for y in range(n)
        for u in cells[(x, y)]
    )


def ideal_closure_oracle(cells, n, fvals, right: bool) -> tuple[Fraction, ...]:
    """Least ideal above f: raise f(u) to the bound of each cell holding u
    until nothing moves."""
    g = list(fvals)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                bound = g[x] if right else g[y]
                for u in cells[(x, y)]:
                    if g[u] < bound:
                        g[u] = bound
                        changed = True
    return tuple(g)
