"""Fuzzy right/left ideal predicates, fixpoint closures that manufacture
ideals from arbitrary fuzzy subsets, and the meet-equals-composition
identity that holds on regular hypersemigroups, all in the sup-min
calculus: f is a fuzzy right ideal iff f o 1 <= f and a fuzzy left ideal
iff 1 o f <= f (1 the constant-1 subset, <= pointwise)."""

from __future__ import annotations

from .classify import RegularityClass, is_class_elementwise
from .core import CarrierMismatchError, HyperOp
from .fuzzy import FuzzySubset, compose, one


class NotRegularError(ValueError):
    """The identity requires a regular hypersemigroup."""


class NotFuzzyIdealError(ValueError):
    """The supplied fuzzy subset is not the required kind of ideal."""


def _step(h: HyperOp, g: FuzzySubset, right: bool) -> FuzzySubset:
    # g o 1 (right) or 1 o g (left); compose checks the carrier
    top = one(h.order)
    return compose(h, g, top) if right else compose(h, top, g)


def is_fuzzy_right_ideal(h: HyperOp, f: FuzzySubset) -> bool:
    """True iff f o 1 <= f, i.e. f(u) >= f(x) whenever u lies in x o y."""
    return _step(h, f, right=True).leq(f)


def is_fuzzy_left_ideal(h: HyperOp, f: FuzzySubset) -> bool:
    """True iff 1 o f <= f, i.e. f(u) >= f(y) whenever u lies in x o y."""
    return _step(h, f, right=False).leq(f)


def _ideal_closure(h: HyperOp, f: FuzzySubset, right: bool) -> FuzzySubset:
    # join g with its step until the step lies below g; values never leave
    # values(f) union {0} and grow pointwise, so this terminates
    g = f
    while True:
        step = _step(h, g, right)
        if step.leq(g):
            return g
        g = FuzzySubset._trusted(
            tuple(a if a >= b else b for a, b in zip(g.values, step.values))
        )


def right_ideal_closure(h: HyperOp, f: FuzzySubset) -> FuzzySubset:
    """Least fuzzy right ideal above f."""
    return _ideal_closure(h, f, right=True)


def left_ideal_closure(h: HyperOp, f: FuzzySubset) -> FuzzySubset:
    """Least fuzzy left ideal above f."""
    return _ideal_closure(h, f, right=False)


def check_meet_identity(h: HyperOp, f: FuzzySubset, g: FuzzySubset) -> bool:
    """Whether meet(f, g) = f o g, exactly.

    Preconditions are enforced and reported distinctly, in this order: f
    and g must live on the table's carrier, h must be a regular
    hypersemigroup, f a fuzzy right ideal and g a fuzzy left ideal.
    """
    if f.order != h.order or g.order != h.order:
        raise CarrierMismatchError("fuzzy subset carrier does not match the table")
    # raises NotAssociativeError off hypersemigroups
    if not is_class_elementwise(h, RegularityClass.REGULAR)[0]:
        raise NotRegularError("the table is not a regular hypersemigroup")
    if not is_fuzzy_right_ideal(h, f):
        raise NotFuzzyIdealError("f is not a fuzzy right ideal")
    if not is_fuzzy_left_ideal(h, g):
        raise NotFuzzyIdealError("g is not a fuzzy left ideal")
    return f.meet(g) == compose(h, f, g)
