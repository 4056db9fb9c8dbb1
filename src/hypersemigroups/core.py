"""Finite hypergroupoids: hyperoperation tables over an integer carrier and
the induced union-product on subsets.

Elements are the integers 0..n-1 and subsets are bitmasks of width n, so a
subset of the carrier is just an int with bit e set when element e belongs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

# Subsets are machine-word bitmasks; everything desk-scale is n <= 4.
MAX_ORDER = 16


class CarrierMismatchError(ValueError):
    """Operands live over carriers of different orders."""


class NotAssociativeError(ValueError):
    """The operation is defined for hypersemigroups only, and the table
    failed the associativity check."""


def check_order(order: int) -> None:
    """Refuse a carrier order outside 1..MAX_ORDER."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")


def full_mask(order: int) -> int:
    """Bitmask of the whole carrier {0..order-1}."""
    return (1 << order) - 1


def subset_mask(elements: Iterable[int], order: int) -> int:
    """Bitmask for an iterable of element indices."""
    mask = 0
    for e in elements:
        if not 0 <= e < order:
            raise ValueError(f"element {e} out of range for carrier of order {order}")
        mask |= 1 << e
    return mask


def mask_elements(mask: int) -> tuple[int, ...]:
    """Ascending element indices of a subset bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _bit_lists(order: int) -> tuple[tuple[int, ...], ...]:
    # bit positions of every mask of width `order`, indexed by mask
    return tuple(
        tuple(i for i in range(order) if m >> i & 1) for m in range(1 << order)
    )


def _associative(cells: Sequence[int], order: int) -> bool:
    # (x o y) * {z} == {x} * (y o z) for all n^3 triples
    bits = _bit_lists(order)
    rng = range(order)
    for x in rng:
        xrow = x * order
        for y in rng:
            cxy = cells[xrow + y]
            yrow = y * order
            for z in rng:
                left = 0
                for u in bits[cxy]:
                    left |= cells[u * order + z]
                right = 0
                for v in bits[cells[yrow + z]]:
                    right |= cells[xrow + v]
                if left != right:
                    return False
    return True


class HyperOp:
    """An order-n hyperoperation table.

    ``cells`` is the row-major length-n*n tuple of cell bitmasks; the cell at
    (a, b) is the hyperproduct of left operand a and right operand b.  Every
    cell must be a nonempty subset of the carrier.  Instances are immutable
    after construction and safe to share between workers.
    """

    def __init__(self, order: int, cells: Iterable[int]):
        check_order(order)
        cells = tuple(cells)
        if len(cells) != order * order:
            raise ValueError(
                f"expected {order * order} cells for order {order}, got {len(cells)}"
            )
        full = full_mask(order)
        for i, cell in enumerate(cells):
            if type(cell) is not int:  # rejects bool and float cells too
                raise TypeError(
                    f"cell ({i // order}, {i % order}) must be an int bitmask, "
                    f"got {type(cell).__name__}"
                )
            if cell == 0:
                raise ValueError(
                    f"empty hyperproduct at ({i // order}, {i % order})"
                )
            if cell < 0 or cell > full:
                raise ValueError(
                    f"cell ({i // order}, {i % order}) is not a subset of the carrier"
                )
        self.order = order
        self.cells = cells
        self._full = full
        self._assoc: bool | None = None
        self._pairs: tuple[tuple[tuple[int, int], ...], ...] | None = None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Iterable[int]]]) -> HyperOp:
        """Build from n rows of n element-index collections."""
        order = len(rows)
        cells = []
        for row in rows:
            if len(row) != order:
                raise ValueError("table is not square")
            cells.extend(subset_mask(cell, order) for cell in row)
        return cls(order, cells)

    @classmethod
    def constant(cls, order: int, element: int = 0) -> HyperOp:
        """Every cell is the singleton {element}."""
        if not 0 <= element < order:
            raise ValueError(f"element {element} out of range")
        return cls(order, (1 << element,) * (order * order))

    @classmethod
    def left_zero(cls, order: int) -> HyperOp:
        """cell(x, y) = {x}."""
        return cls(order, tuple(1 << x for x in range(order) for _ in range(order)))

    @classmethod
    def right_zero(cls, order: int) -> HyperOp:
        """cell(x, y) = {y}."""
        return cls(order, tuple(1 << y for _ in range(order) for y in range(order)))

    @classmethod
    def full(cls, order: int) -> HyperOp:
        """Every cell is the whole carrier."""
        return cls(order, (full_mask(order),) * (order * order))

    def hyper_product(self, a: int, b: int) -> int:
        """The table cell a o b, as a nonempty subset mask."""
        order = self.order
        if not (0 <= a < order and 0 <= b < order):
            raise ValueError(f"element pair ({a}, {b}) out of range for order {order}")
        return self.cells[a * order + b]

    def set_product(self, a_mask: int, b_mask: int) -> int:
        """Union of cell(a, b) over a in A, b in B.

        The product of two nonempty subsets is nonempty; if either operand is
        empty the result is the empty mask (the unique monotone extension,
        kept so folds and filters compose cleanly).
        """
        full = self._full
        if not (0 <= a_mask <= full and 0 <= b_mask <= full):
            raise ValueError("operand is not a subset of the carrier")
        if a_mask == 0 or b_mask == 0:
            return 0
        cells = self.cells
        order = self.order
        bits = _bit_lists(order)
        out = 0
        for a in bits[a_mask]:
            row = a * order
            for b in bits[b_mask]:
                out |= cells[row + b]
            if out == full:
                return full
        return out

    def is_hypersemigroup(self) -> bool:
        """True iff (x o y) * {z} = {x} * (y o z) for all n^3 triples."""
        if self._assoc is None:
            self._assoc = _associative(self.cells, self.order)
        return self._assoc

    def pairs_containing(self, a: int) -> tuple[tuple[int, int], ...]:
        """All (y, z) with a in cell(y, z), in lexicographic order."""
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} out of range for order {self.order}")
        if self._pairs is None:
            order = self.order
            cells = self.cells
            self._pairs = tuple(
                tuple(
                    (y, z)
                    for y in range(order)
                    for z in range(order)
                    if cells[y * order + z] >> e & 1
                )
                for e in range(order)
            )
        return self._pairs[a]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HyperOp)
            and self.order == other.order
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash((self.order, self.cells))

    def __repr__(self) -> str:
        return f"HyperOp(order={self.order}, cells={self.cells})"
