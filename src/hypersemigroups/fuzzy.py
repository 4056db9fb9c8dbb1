"""Fuzzy subsets of a finite carrier and their sup-min composition.

All membership degrees are exact rationals.  The composition only ever
takes minima and maxima of its inputs (and 0), so the value set is closed
and every comparison in the library is exact; no tolerances exist anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from .core import CarrierMismatchError, HyperOp

ZERO = Fraction(0)
ONE = Fraction(1)


class FuzzySubset:
    """A map carrier -> [0, 1] with exact rational values.

    ``values[x]`` is the membership degree of element x.  Instances are
    immutable value objects: equality, hashing and ordering are exact.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Fraction | int | str]):
        vals = tuple(Fraction(v) for v in values)
        for v in vals:
            if v < ZERO or v > ONE:
                raise ValueError(f"membership degree {v} outside [0, 1]")
        self.values = vals

    @property
    def order(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FuzzySubset) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"FuzzySubset(({', '.join(str(v) for v in self.values)}))"

    def leq(self, other: FuzzySubset) -> bool:
        """Pointwise order: self(x) <= other(x) for every x."""
        if self.order != other.order:
            raise CarrierMismatchError("fuzzy subsets over different carriers")
        return all(a <= b for a, b in zip(self.values, other.values))

    def meet(self, other: FuzzySubset) -> FuzzySubset:
        """Pointwise minimum (the lattice meet on [0,1]^H)."""
        if self.order != other.order:
            raise CarrierMismatchError("fuzzy subsets over different carriers")
        return FuzzySubset(
            a if a <= b else b for a, b in zip(self.values, other.values)
        )

    def support_mask(self) -> int:
        """Bitmask of elements with nonzero degree."""
        mask = 0
        for x, v in enumerate(self.values):
            if v:
                mask |= 1 << x
        return mask


def one(order: int) -> FuzzySubset:
    """The constant-1 fuzzy subset, the greatest element of the order."""
    return FuzzySubset((ONE,) * order)


def point(order: int, a: int) -> FuzzySubset:
    """The indicator of {a}: degree 1 at a, 0 elsewhere."""
    if not 0 <= a < order:
        raise ValueError(f"element {a} out of range for order {order}")
    return FuzzySubset(ONE if x == a else ZERO for x in range(order))


def a_set(h: HyperOp, a: int) -> frozenset[tuple[int, int]]:
    """The pairs (y, z) whose hyperproduct contains a; may be empty."""
    return frozenset(h.pairs_containing(a))


def compose(h: HyperOp, f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    """Sup-min composition of f and g along the table h.

    The value at a is the maximum of min(f(y), g(z)) over all pairs (y, z)
    whose hyperproduct contains a, and 0 when no such pair exists.
    """
    if f.order != h.order or g.order != h.order:
        raise CarrierMismatchError("fuzzy subset carrier does not match the table")
    fv = f.values
    gv = g.values
    out = []
    for a in range(h.order):
        best = ZERO
        for y, z in h.pairs_containing(a):
            v = fv[y] if fv[y] <= gv[z] else gv[z]
            if v > best:
                best = v
        out.append(best)
    return FuzzySubset(out)


def compose_chain(h: HyperOp, factors: Sequence[FuzzySubset]) -> FuzzySubset:
    """Left-associated fold of compose over a nonempty factor list.

    On hypersemigroups composition is associative, so the fold order is
    irrelevant.
    """
    if not factors:
        raise ValueError("compose_chain needs at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = compose(h, acc, f)
    return acc


def random_fuzzy_subset(
    order: int, rng: random.Random, max_denominator: int = 16
) -> FuzzySubset:
    """Random fuzzy subset with denominators bounded by max_denominator.

    Value closure under min/max means the bound loses no generality class
    while keeping exact arithmetic cheap.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be positive")
    out = []
    for _ in range(order):
        q = rng.randint(1, max_denominator)
        out.append(Fraction(rng.randint(0, q), q))
    return FuzzySubset(out)
