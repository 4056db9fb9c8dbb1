"""Brute-force reference checks written straight from the definitions.

The benchmark uses these to build its order-3 table pool and to spot-check
the package's verdicts; they share no code with the package.
"""

from __future__ import annotations

from itertools import product

# bit 0 is regular, then intra-regular, left quasi-regular,
# right quasi-regular, semisimple: the package's declared class order
CLASS_KEYS = ("regular", "intra-regular", "left quasi-regular",
              "right quasi-regular", "semisimple")


def _members(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def set_product(cells, order: int, a_mask: int, b_mask: int) -> int:
    out = 0
    for a in _members(a_mask):
        for b in _members(b_mask):
            out |= cells[a * order + b]
    return out


def is_associative(cells, order: int) -> bool:
    """(x o y) o z == x o (y o z) as subsets, for every triple."""
    for x, y, z in product(range(order), repeat=3):
        left = set_product(cells, order, cells[x * order + y], 1 << z)
        right = set_product(cells, order, 1 << x, cells[y * order + z])
        if left != right:
            return False
    return True


def _holds(cells, order: int, cls: int, a: int) -> bool:
    c = lambda x, y: cells[x * order + y]  # noqa: E731
    p = lambda s, t: set_product(cells, order, s, t)  # noqa: E731
    bit = 1 << a
    rng = range(order)
    if cls == 0:  # a in (a o x) o a
        return any(p(c(a, x), bit) & bit for x in rng)
    if cls == 1:  # a in (x o a)(a o y)
        return any(p(c(x, a), c(a, y)) & bit for x in rng for y in rng)
    if cls == 2:  # a in (x o a)(y o a)
        return any(p(c(x, a), c(y, a)) & bit for x in rng for y in rng)
    if cls == 3:  # a in (a o x)(a o y)
        return any(p(c(a, x), c(a, y)) & bit for x in rng for y in rng)
    # semisimple: a in ((x o a)(y o a)) o z
    return any(
        p(p(c(x, a), c(y, a)), 1 << z) & bit
        for x in rng for y in rng for z in rng
    )


def combination_key(cells, order: int) -> str:
    """Five 0/1 class verdicts in declared class order, by witness search."""
    return "".join(
        "1" if all(_holds(cells, order, cls, a) for a in range(order)) else "0"
        for cls in range(len(CLASS_KEYS))
    )


def is_regular(cells, order: int) -> bool:
    return all(_holds(cells, order, 0, a) for a in range(order))
