"""Fuzzy right/left ideal predicates, fixpoint closures that manufacture
ideals from arbitrary fuzzy subsets, and the meet-equals-composition
identity that holds on regular hypersemigroups."""

from __future__ import annotations

from .classify import RegularityClass, _elementwise_holds, _require_hypersemigroup
from .core import CarrierMismatchError, HyperOp, _bit_lists
from .fuzzy import FuzzySubset, compose, one


class NotRegularError(ValueError):
    """The identity requires a regular hypersemigroup."""


class NotFuzzyIdealError(ValueError):
    """The supplied fuzzy subset is not the required kind of ideal."""


def _check_carrier(h: HyperOp, f: FuzzySubset) -> None:
    if f.order != h.order:
        raise CarrierMismatchError("fuzzy subset carrier does not match the table")


def _is_fuzzy_ideal(h: HyperOp, f: FuzzySubset, right: bool) -> bool:
    # u in x o y must have f(u) >= f(x) (right ideal) or f(y) (left ideal)
    _check_carrier(h, f)
    order = h.order
    cells = h.cells
    bits = _bit_lists(order)
    vals = f.values
    for x in range(order):
        row = x * order
        for y in range(order):
            bound = vals[x] if right else vals[y]
            for u in bits[cells[row + y]]:
                if vals[u] < bound:
                    return False
    return True


def is_fuzzy_right_ideal(h: HyperOp, f: FuzzySubset) -> bool:
    """True iff f(u) >= f(x) whenever u lies in the hyperproduct x o y."""
    return _is_fuzzy_ideal(h, f, right=True)


def is_fuzzy_left_ideal(h: HyperOp, f: FuzzySubset) -> bool:
    """True iff f(u) >= f(y) whenever u lies in the hyperproduct x o y."""
    return _is_fuzzy_ideal(h, f, right=False)


def _ideal_closure(h: HyperOp, f: FuzzySubset, right: bool) -> FuzzySubset:
    # iterate g -> join(g, g o 1) (right) or join(g, 1 o g) (left); values
    # never leave values(f) union {0} and grow pointwise, so this terminates
    _check_carrier(h, f)
    top = one(h.order)
    g = f
    while True:
        step = compose(h, g, top) if right else compose(h, top, g)
        nxt = FuzzySubset(a if a >= b else b for a, b in zip(g.values, step.values))
        if nxt == g:
            return g
        g = nxt


def right_ideal_closure(h: HyperOp, f: FuzzySubset) -> FuzzySubset:
    """Least fuzzy right ideal above f."""
    return _ideal_closure(h, f, right=True)


def left_ideal_closure(h: HyperOp, f: FuzzySubset) -> FuzzySubset:
    """Least fuzzy left ideal above f."""
    return _ideal_closure(h, f, right=False)


def check_meet_identity(h: HyperOp, f: FuzzySubset, g: FuzzySubset) -> bool:
    """Whether meet(f, g) = f o g, exactly.

    Preconditions are enforced and reported distinctly: h must be a regular
    hypersemigroup, f a fuzzy right ideal and g a fuzzy left ideal.
    """
    _check_carrier(h, f)
    _check_carrier(h, g)
    _require_hypersemigroup(h)
    if not _elementwise_holds(h, RegularityClass.REGULAR)[0]:
        raise NotRegularError("the table is not a regular hypersemigroup")
    if not is_fuzzy_right_ideal(h, f):
        raise NotFuzzyIdealError("f is not a fuzzy right ideal")
    if not is_fuzzy_left_ideal(h, g):
        raise NotFuzzyIdealError("g is not a fuzzy left ideal")
    return f.meet(g) == compose(h, f, g)
