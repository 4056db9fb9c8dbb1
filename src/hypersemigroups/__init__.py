"""Finite hypersemigroups: the induced subset product, the exact fuzzy
sup-min calculus, and three-route deciders for the five regularity classes
(regular, intra-regular, left/right quasi-regular, semisimple)."""

from .classify import (
    CLASS_ORDER,
    ClassificationReport,
    ClassReport,
    RegularityClass,
    TEMPLATES,
    TheoremCheck,
    VerificationReport,
    Witness,
    classify,
    fuzzy_inequality_holds,
    is_class_elementwise,
    is_class_fuzzy,
    is_class_subsetdef,
    verify_theorems,
)
from .core import (
    CarrierMismatchError,
    HyperOp,
    MAX_ORDER,
    NotAssociativeError,
    full_mask,
    mask_elements,
    subset_mask,
)
from .enumeration import (
    CensusReport,
    EnumerationBudgetError,
    census,
    enumerate_hypergroupoids,
    hypergroupoid_count,
    random_hypergroupoid,
)
from .fuzzy import (
    FuzzySubset,
    compose,
    compose_chain,
    one,
    point,
    random_fuzzy_subset,
)
from .ideals import (
    NotFuzzyIdealError,
    NotRegularError,
    check_meet_identity,
    is_fuzzy_left_ideal,
    is_fuzzy_right_ideal,
    left_ideal_closure,
    right_ideal_closure,
)
from .tableio import TableParseError, parse_table, serialize_table

__version__ = "0.1.0"

__all__ = [
    "CLASS_ORDER",
    "CarrierMismatchError",
    "CensusReport",
    "ClassReport",
    "ClassificationReport",
    "EnumerationBudgetError",
    "FuzzySubset",
    "HyperOp",
    "MAX_ORDER",
    "NotAssociativeError",
    "NotFuzzyIdealError",
    "NotRegularError",
    "RegularityClass",
    "TEMPLATES",
    "TableParseError",
    "TheoremCheck",
    "VerificationReport",
    "Witness",
    "census",
    "check_meet_identity",
    "classify",
    "compose",
    "compose_chain",
    "enumerate_hypergroupoids",
    "full_mask",
    "fuzzy_inequality_holds",
    "hypergroupoid_count",
    "is_class_elementwise",
    "is_class_fuzzy",
    "is_class_subsetdef",
    "is_fuzzy_left_ideal",
    "is_fuzzy_right_ideal",
    "left_ideal_closure",
    "mask_elements",
    "one",
    "parse_table",
    "point",
    "random_fuzzy_subset",
    "random_hypergroupoid",
    "right_ideal_closure",
    "serialize_table",
    "subset_mask",
    "verify_theorems",
]
