"""Fuzzy subsets of a finite carrier and their sup-min composition.

All membership degrees are exact rationals.  The composition only ever
takes minima and maxima of its inputs (and 0), so the value set is closed
and every comparison in the library is exact; no tolerances exist anywhere.
It runs on level bitmasks, where min is ``&`` and max is ``|``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Iterable, Sequence

from .core import CarrierMismatchError, HyperOp, check_element, check_order

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_DENOMINATOR = 16  # bound on random_fuzzy_subset's denominators

# p/q with q > 0, an integer or a plain decimal such as "0.5", in ASCII
# digits; no exponent: Fraction("1e-99999999") computes 10**99999999
_DEGREE_TEXT = re.compile(
    r"\s*[+-]?([0-9]+(/0*[1-9][0-9]*)?|[0-9]*\.[0-9]+|[0-9]+\.)\s*"
)


class FuzzySubset:
    """A map carrier -> [0, 1] with exact rational values.

    ``values[x]`` is the membership degree of element x.  Instances are
    immutable value objects: equality, hashing and ordering are exact.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Fraction | int | str]):
        if isinstance(values, (str, bytes)):  # not one degree per character
            raise TypeError(f"degrees must be a sequence, not a {type(values).__name__}")
        vals = []
        for v in values:
            if isinstance(v, str) and not _DEGREE_TEXT.fullmatch(v):
                raise ValueError(
                    f"membership degree {v!r} is not p/q with q > 0, "
                    "an integer or a plain decimal"
                )
            # a float already carries a binary rounding, and a bool is a
            # flag, not a degree
            elif isinstance(v, (float, bool)):
                raise TypeError(
                    f"membership degree {v!r} is a {type(v).__name__}; "
                    "use an int, a Fraction or a string such as '1/2'"
                )
            v = Fraction(v)
            if v < ZERO or v > ONE:
                raise ValueError(f"membership degree {v} outside [0, 1]")
            vals.append(v)
        self.values = tuple(vals)

    @classmethod
    def _trusted(cls, values: tuple[Fraction, ...]) -> FuzzySubset:
        # values already validated as Fractions in [0, 1]
        self = cls.__new__(cls)
        self.values = values
        return self

    @property
    def order(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> Fraction:
        return self.values[x]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FuzzySubset) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __str__(self) -> str:
        # Fraction renders p/q in lowest terms and integers bare
        return ", ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"FuzzySubset(({self}))"

    def leq(self, other: FuzzySubset) -> bool:
        """Pointwise order: self(x) <= other(x) for every x."""
        if self.order != other.order:
            raise CarrierMismatchError("fuzzy subsets over different carriers")
        return all(a <= b for a, b in zip(self.values, other.values))

    def meet(self, other: FuzzySubset) -> FuzzySubset:
        """Pointwise minimum (the lattice meet on [0,1]^H)."""
        if self.order != other.order:
            raise CarrierMismatchError("fuzzy subsets over different carriers")
        return FuzzySubset._trusted(
            tuple(a if a <= b else b for a, b in zip(self.values, other.values))
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
    check_order(order)
    return FuzzySubset._trusted((ONE,) * order)


def point(order: int, a: int) -> FuzzySubset:
    """The indicator of {a}: degree 1 at a, 0 elsewhere."""
    check_order(order)
    check_element(a, order)
    return FuzzySubset._trusted(tuple(ONE if x == a else ZERO for x in range(order)))


def _left_fold(product, *factors):
    return reduce(product, factors)


def _evaluate(
    h: HyperOp, factors: Sequence[FuzzySubset], brackets: Callable[..., Any]
) -> FuzzySubset:
    # composition only takes minima and maxima, so it commutes with any
    # order-preserving relabelling: code the i-th smallest input value (0
    # first) as the mask of its i low bits, where min is & and max is |, and
    # decode each result once by its bit length
    if any(f.order != h.order for f in factors):
        raise CarrierMismatchError("fuzzy subset carrier does not match the table")
    levels = sorted({ZERO}.union(*(f.values for f in factors)))
    code = {v: (1 << i) - 1 for i, v in enumerate(levels)}
    cells = [h.pairs_containing(a) for a in range(h.order)]

    def product(fc: list[int], gc: list[int]) -> list[int]:
        out = []
        for pairs in cells:
            best = 0
            for y, z in pairs:
                best |= fc[y] & gc[z]
            out.append(best)
        return out

    coded = brackets(product, *([code[v] for v in f.values] for f in factors))
    return FuzzySubset._trusted(tuple(levels[c.bit_length()] for c in coded))


def compose(h: HyperOp, f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    """Sup-min composition of f and g along the table h.

    The value at a is the maximum of min(f(y), g(z)) over all pairs (y, z)
    whose hyperproduct contains a, and 0 when no such pair exists.
    """
    return _evaluate(h, (f, g), _left_fold)


def compose_chain(
    h: HyperOp,
    factors: Sequence[FuzzySubset],
    brackets: Callable[..., Any] = _left_fold,
) -> FuzzySubset:
    """Composition of a nonempty factor list, bracketed by ``brackets``.

    ``brackets(p, *factors)`` builds the product from a binary ``p``, for
    example ``lambda p, s, x: p(p(s, x), s)``; the default is the left fold.
    On hypersemigroups composition is associative, so the brackets are
    irrelevant there.
    """
    if not factors:
        raise ValueError("compose_chain needs at least one factor")
    return _evaluate(h, factors, brackets)


def random_fuzzy_subset(order: int, rng: random.Random) -> FuzzySubset:
    """Random fuzzy subset with denominators at most MAX_DENOMINATOR.

    Value closure under min/max means the bound loses no generality class
    while keeping exact arithmetic cheap.
    """
    check_order(order)
    out = []
    for _ in range(order):
        q = rng.randint(1, MAX_DENOMINATOR)
        out.append(Fraction(rng.randint(0, q), q))
    return FuzzySubset._trusted(tuple(out))
