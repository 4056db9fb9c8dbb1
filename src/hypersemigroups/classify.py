"""Decide the five regularity classes of a finite hypersemigroup by three
independent routes and verify per table that the routes agree, down to the
element at which a failing class first fails.

Each class is written down once, as a bracketed template in ``TEMPLATES``;
every route evaluates that template in its own algebra.  The public
deciders are the routes, and ``classify`` runs exactly these:

* ``is_class_elementwise`` -- exhaustive search for the defining witnesses,
* ``is_class_subsetdef`` (``subset-1`` / ``subset-2``) -- the equivalent
  product-membership and product-inclusion definitions,
* ``is_class_fuzzy`` -- the point-set reduction of the fuzzy inequality
  characterizations (checking the inequality at every indicator suffices
  to force the class property, which is what makes the route decidable).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .core import HyperOp, NotAssociativeError, full_mask
from .fuzzy import FuzzySubset, compose_chain, one, point, random_fuzzy_subset


class RegularityClass(Enum):
    REGULAR = "regular"
    INTRA_REGULAR = "intra-regular"
    LEFT_QUASI_REGULAR = "left quasi-regular"
    RIGHT_QUASI_REGULAR = "right quasi-regular"
    SEMISIMPLE = "semisimple"


CLASS_ORDER: tuple[RegularityClass, ...] = tuple(RegularityClass)

# One bracketed template per class, the definition's own right-hand side.
# ``p`` is the binary product of the algebra a route works in, ``s`` holds
# the element (or subset, or fuzzy subset) under test and the remaining
# slots the witnesses; each route evaluates the same brackets.
TEMPLATES: dict[RegularityClass, Callable[..., Any]] = {
    # a in (a o x) o a
    RegularityClass.REGULAR: lambda p, s, x: p(p(s, x), s),
    # a in (x o a)(a o y)
    RegularityClass.INTRA_REGULAR: lambda p, s, x, y: p(p(x, s), p(s, y)),
    # a in (x o a)(y o a)
    RegularityClass.LEFT_QUASI_REGULAR: lambda p, s, x, y: p(p(x, s), p(y, s)),
    # a in (a o x)(a o y)
    RegularityClass.RIGHT_QUASI_REGULAR: lambda p, s, x, y: p(p(s, x), p(s, y)),
    # a in ((x o a)(y o a)) o z
    RegularityClass.SEMISIMPLE: lambda p, s, x, y, z: p(p(p(x, s), p(y, s)), z),
}

# witness slots: every template argument after the product and the S slot
_WITNESS_ARITY: dict[RegularityClass, int] = {
    cls: t.__code__.co_argcount - 2 for cls, t in TEMPLATES.items()
}


def _yes(b: bool) -> str:
    return "yes" if b else "no"


@dataclass(frozen=True)
class Witness:
    """Outcome of a per-element check on one route.

    For a positive elementwise witness, ``elements`` fills the template's
    witness slots; for a fuzzy failure, ``fuzzy_subset`` is the indicator
    whose inequality fails.  A failing class records one failure per route,
    and the two name the same element.
    """

    cls: RegularityClass
    element: int
    route: str  # "elementwise" | "fuzzy"
    holds: bool
    elements: tuple[int, ...] = ()
    fuzzy_subset: Optional[FuzzySubset] = None

    def to_dict(self) -> dict:
        d = {
            "class": self.cls.value,
            "element": self.element,
            "route": self.route,
            "holds": self.holds,
            "witness_elements": list(self.elements),
        }
        if self.fuzzy_subset is not None:
            d["fuzzy_subset"] = [str(v) for v in self.fuzzy_subset.values]
        return d


def _first_witness(
    h: HyperOp, cls: RegularityClass, a: int
) -> Optional[tuple[int, ...]]:
    # the lexicographically first witness tuple for element a, or None
    bit = 1 << a
    template = TEMPLATES[cls]
    for ws in itertools.product(range(h.order), repeat=_WITNESS_ARITY[cls]):
        if template(h.set_product, bit, *(1 << x for x in ws)) & bit:
            return ws
    return None


def _require_hypersemigroup(h: HyperOp) -> None:
    if not h.is_hypersemigroup():
        raise NotAssociativeError(
            "the regularity classes are defined for hypersemigroups only"
        )


def is_class_elementwise(
    h: HyperOp, cls: RegularityClass
) -> tuple[bool, list[Witness]]:
    """Decide ``cls`` from its defining elementwise membership.

    Witness search is lexicographic and the first hit wins, so reports are
    reproducible.  Returns one positive witness per element on success, or
    the first failing element on failure.
    """
    _require_hypersemigroup(h)
    witnesses = []
    for a in range(h.order):
        found = _first_witness(h, cls, a)
        if found is None:
            return False, [Witness(cls, a, "elementwise", False)]
        witnesses.append(Witness(cls, a, "elementwise", True, found))
    return True, witnesses


def is_class_subsetdef(h: HyperOp, cls: RegularityClass, variant: int) -> bool:
    """Decide ``cls`` from the equivalent subset-product definition.

    Variant 1 checks a in the product built from {a} for every element a;
    variant 2 checks A subset-of the product built from A for every
    nonempty A, all 2^n - 1 of them (at most 65,535, as ``core.MAX_ORDER`` is 16).
    ``set_product`` distributes over unions, so the product built from A
    contains the one built from {a} for each a in A, and variant 2's verdict
    always equals variant 1's: variant 2 adds only the products of the
    non-singleton masks, which is why it walks every mask.
    """
    _require_hypersemigroup(h)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    singletons = [1 << a for a in range(h.order)]
    s_masks = range(1, 1 << h.order) if variant == 2 else singletons
    full = (full_mask(h.order),) * _WITNESS_ARITY[cls]
    return all(
        TEMPLATES[cls](h.set_product, s, *full) & s == s for s in s_masks
    )


def fuzzy_inequality_holds(
    h: HyperOp, cls: RegularityClass, f: FuzzySubset
) -> bool:
    """Whether f <= (class template at f, with 1 in the witness slots).

    Evaluable on any hypergroupoid.  The template keeps the definition's
    brackets, so wherever the elementwise definition holds the inequality
    holds for every f, associative or not.
    """
    top = (one(h.order),) * _WITNESS_ARITY[cls]
    return f.leq(compose_chain(h, (f, *top), brackets=TEMPLATES[cls]))


def is_class_fuzzy(h: HyperOp, cls: RegularityClass) -> tuple[bool, list[Witness]]:
    """Decide ``cls`` from its fuzzy characterization at the point sets.

    The inequality f <= chain(f) is quantified over all fuzzy subsets, but
    holding at every indicator already forces the class property, so the
    indicator sweep is a complete decision procedure.
    """
    _require_hypersemigroup(h)
    witnesses = []
    for a in range(h.order):
        f = point(h.order, a)
        if not fuzzy_inequality_holds(h, cls, f):
            return False, [Witness(cls, a, "fuzzy", False, fuzzy_subset=f)]
        witnesses.append(Witness(cls, a, "fuzzy", True))
    return True, witnesses


@dataclass
class ClassReport:
    """Verdicts of all routes for one class, plus the recorded witnesses."""

    cls: RegularityClass
    elementwise: bool
    subset_singleton: bool
    subset_all: bool
    fuzzy: bool
    witnesses: tuple[Witness, ...] = ()

    @property
    def routes_agree(self) -> bool:
        return (
            self.elementwise
            == self.subset_singleton
            == self.subset_all
            == self.fuzzy
        )

    @property
    def verdict(self) -> bool:
        # the definitional route is the canonical verdict
        return self.elementwise

    def to_dict(self) -> dict:
        return {
            "class": self.cls.value,
            "verdict": self.verdict,
            "routes": {
                "elementwise": self.elementwise,
                "subset-1": self.subset_singleton,
                "subset-2": self.subset_all,
                "fuzzy": self.fuzzy,
            },
            "routes_agree": self.routes_agree,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


@dataclass
class ClassificationReport:
    order: int
    classes: dict[RegularityClass, ClassReport]

    @property
    def all_routes_agree(self) -> bool:
        return all(r.routes_agree for r in self.classes.values())

    def verdict(self, cls: RegularityClass) -> bool:
        return self.classes[cls].verdict

    def combination_key(self) -> str:
        """Class verdicts as a 5-char 0/1 string in declared class order."""
        return "".join("1" if self.classes[c].verdict else "0" for c in CLASS_ORDER)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "classes": [self.classes[c].to_dict() for c in CLASS_ORDER],
            "all_routes_agree": self.all_routes_agree,
        }

    def render(self) -> str:
        lines = [f"order: {self.order}"]
        for cls in CLASS_ORDER:
            cr = self.classes[cls]
            routes = ", ".join(
                f"{route}={_yes(v)}" for route, v in cr.to_dict()["routes"].items()
            )
            lines.append(
                f"{cls.value}: {_yes(cr.verdict)}  "
                f"({routes}; agree={_yes(cr.routes_agree)})"
            )
            for w in cr.witnesses:
                if w.route == "elementwise" and w.holds:
                    ws = ", ".join(str(x) for x in w.elements)
                    lines.append(f"  a={w.element}: witness ({ws})")
                elif not w.holds:
                    lines.append(f"  fails at a={w.element} ({w.route})")
        lines.append(f"all routes agree: {_yes(self.all_routes_agree)}")
        return "\n".join(lines) + "\n"


def classify(h: HyperOp) -> ClassificationReport:
    """Run every route decider on all five classes and flag any disagreement."""
    classes = {}
    for cls in CLASS_ORDER:
        ew, ew_wit = is_class_elementwise(h, cls)
        fz, fz_wit = is_class_fuzzy(h, cls)
        classes[cls] = ClassReport(
            cls=cls,
            elementwise=ew,
            subset_singleton=is_class_subsetdef(h, cls, 1),
            subset_all=is_class_subsetdef(h, cls, 2),
            fuzzy=fz,
            witnesses=tuple(ew_wit + fz_wit),
        )
    return ClassificationReport(order=h.order, classes=classes)


@dataclass
class TheoremCheck:
    """Per-class outcome of a theorem verification run."""

    cls: RegularityClass
    routes_agree: bool
    verdict: bool
    trials: int
    counterexample: Optional[FuzzySubset] = None
    failure_reverified: bool = True

    @property
    def passed(self) -> bool:
        return (
            self.routes_agree
            and self.counterexample is None
            and self.failure_reverified
        )

    def to_dict(self) -> dict:
        return {
            "class": self.cls.value,
            "routes_agree": self.routes_agree,
            "verdict": self.verdict,
            "trials": self.trials,
            "counterexample": None
            if self.counterexample is None
            else [str(v) for v in self.counterexample.values],
            "failure_reverified": self.failure_reverified,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    order: int
    checks: tuple[TheoremCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"order: {self.order}"]
        for check in self.checks:
            line = (
                f"{check.cls.value}: verdict={_yes(check.verdict)} "
                f"routes_agree={_yes(check.routes_agree)} trials={check.trials}"
            )
            if check.counterexample is not None:
                line += f" counterexample=({check.counterexample})"
            if not check.failure_reverified:
                line += " failure-witness-did-not-reverify"
            lines.append(line)
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def verify_theorems(
    h: HyperOp, random_trials: int = 1000, seed: int | str = 0
) -> VerificationReport:
    """Assert route agreement per class, then probe the universally
    quantified direction with random fuzzy subsets.

    For a class the table belongs to, every sampled f must satisfy the
    class inequality; a violation is a counterexample to the theorem (or a
    bug) and is returned in the report rather than raised.  For a class
    the table fails, nothing is recomputed: the inequality at ``point(a)``
    holds exactly when a has a witness, so the report must hold just the
    elementwise failure at some a and the fuzzy failure at ``point(a)``.
    """
    if random_trials < 0:
        raise ValueError(f"trials must be nonnegative, got {random_trials}")
    report = classify(h)  # raises NotAssociativeError off hypersemigroups
    rng = random.Random(f"verify:{seed}")
    checks = []
    for cls in CLASS_ORDER:
        cr = report.classes[cls]
        counterexample = None
        failure_reverified = True
        trials = 0  # trials run; a counterexample at trial k stops at k
        if cr.verdict:
            for trials in range(1, random_trials + 1):
                f = random_fuzzy_subset(h.order, rng)
                if not fuzzy_inequality_holds(h, cls, f):
                    counterexample = f
                    break
        else:
            a = cr.witnesses[0].element if cr.witnesses else -1
            failure_reverified = 0 <= a < h.order and cr.witnesses == (
                Witness(cls, a, "elementwise", False),
                Witness(cls, a, "fuzzy", False, fuzzy_subset=point(h.order, a)),
            )
        checks.append(
            TheoremCheck(
                cls=cls,
                routes_agree=cr.routes_agree,
                verdict=cr.verdict,
                trials=trials,
                counterexample=counterexample,
                failure_reverified=failure_reverified,
            )
        )
    return VerificationReport(order=h.order, checks=tuple(checks))
