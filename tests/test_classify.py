from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypersemigroups import (
    CLASS_ORDER,
    CarrierMismatchError,
    FuzzySubset,
    HyperOp,
    NotAssociativeError,
    RegularityClass,
    Witness,
    classify,
    element_membership,
    fuzzy_inequality_holds,
    is_class_elementwise,
    is_class_fuzzy,
    is_class_subsetdef,
    point,
    random_fuzzy_subset,
    random_hypergroupoid,
    serialize_table,
    verify_theorems,
    verify_witness,
)

from .oracles import CLASS_ORACLES, table_view
from .util import NON_ASSOCIATIVE_2, random_hypersemigroup


def test_left_zero_all_classes_true_all_routes():
    h = HyperOp.left_zero(2)
    for cls in CLASS_ORDER:
        held, witnesses = is_class_elementwise(h, cls)
        assert held
        assert len(witnesses) == 2  # one per element
        assert is_class_subsetdef(h, cls, 1)
        assert is_class_subsetdef(h, cls, 2)
        assert is_class_fuzzy(h, cls)[0]
        assert CLASS_ORACLES[cls.value](table_view(h), 2)


def test_constant_all_classes_false_with_failing_element_1():
    h = HyperOp.constant(2)
    for cls in CLASS_ORDER:
        held, witnesses = is_class_elementwise(h, cls)
        assert not held
        assert witnesses[0].element == 1 and not witnesses[0].holds
        assert not is_class_subsetdef(h, cls, 1)
        assert not is_class_subsetdef(h, cls, 2)
        held_fuzzy, fuzzy_witnesses = is_class_fuzzy(h, cls)
        assert not held_fuzzy
        assert fuzzy_witnesses[0].element == 1
        assert fuzzy_witnesses[0].fuzzy_subset == point(2, 1)
        assert not CLASS_ORACLES[cls.value](table_view(h), 2)


def test_full_table_all_classes_true():
    report = classify(HyperOp.full(3))
    assert report.combination_key() == "11111"
    assert report.all_routes_agree


def test_order_one_table_all_classes_true():
    report = classify(HyperOp.constant(1))
    assert report.combination_key() == "11111"
    assert report.all_routes_agree


def test_classes_genuinely_separate_at_order_3():
    # intra-regular, left quasi-regular and semisimple, yet neither regular
    # nor right quasi-regular: element 2 only ever reaches {0} from the left
    h = HyperOp(3, (1, 1, 1, 7, 6, 7, 1, 1, 1))
    assert h.is_hypersemigroup()
    report = classify(h)
    assert report.combination_key() == "01101"
    assert report.all_routes_agree
    cells = table_view(h)
    for cls in CLASS_ORDER:
        assert report.verdict(cls) == CLASS_ORACLES[cls.value](cells, 3)


def test_regular_subset_variant1_hand_cases():
    assert is_class_subsetdef(HyperOp.left_zero(2), RegularityClass.REGULAR, 1)
    # {1}*H*{1} = {0} on the constant table, so 1 is not regular
    assert not is_class_subsetdef(HyperOp.constant(2), RegularityClass.REGULAR, 1)


def test_subset_variants_agree_on_all_order2(order2_hypersemigroups):
    for h in order2_hypersemigroups:
        for cls in CLASS_ORDER:
            assert is_class_subsetdef(h, cls, 1) == is_class_subsetdef(h, cls, 2)


def test_subsetdef_variant_validation():
    h = HyperOp.left_zero(2)
    with pytest.raises(ValueError):
        is_class_subsetdef(h, RegularityClass.REGULAR, 3)
    big = HyperOp.full(13)
    with pytest.raises(ValueError, match="cap"):
        is_class_subsetdef(big, RegularityClass.REGULAR, 2)


def test_constant_table_fuzzy_failure_value():
    # the outer composition is 0 at 1 because no cell contains 1
    h = HyperOp.constant(2)
    f1 = point(2, 1)
    assert not fuzzy_inequality_holds(h, RegularityClass.REGULAR, f1)


def test_fuzzy_inequality_trivial_cases():
    full = HyperOp.full(2)
    for cls in CLASS_ORDER:
        assert fuzzy_inequality_holds(full, cls, FuzzySubset([1, 1]))
    zero = FuzzySubset([0, 0])
    for h in (full, HyperOp.constant(2), HyperOp.left_zero(2), NON_ASSOCIATIVE_2):
        for cls in CLASS_ORDER:
            assert fuzzy_inequality_holds(h, cls, zero)


def test_fuzzy_inequality_random_f_on_true_classes():
    rng = random.Random("imp")
    for seed in range(5):
        h = random_hypersemigroup(2, f"imp:{seed}")
        report = classify(h)
        for cls in CLASS_ORDER:
            if report.verdict(cls):
                for _ in range(50):
                    assert fuzzy_inequality_holds(h, cls, random_fuzzy_subset(2, rng))


def test_classifiers_reject_non_associative_tables():
    for call in (
        lambda: is_class_elementwise(NON_ASSOCIATIVE_2, RegularityClass.REGULAR),
        lambda: is_class_subsetdef(NON_ASSOCIATIVE_2, RegularityClass.REGULAR, 1),
        lambda: is_class_fuzzy(NON_ASSOCIATIVE_2, RegularityClass.REGULAR),
        lambda: classify(NON_ASSOCIATIVE_2),
        lambda: verify_theorems(NON_ASSOCIATIVE_2),
    ):
        with pytest.raises(NotAssociativeError):
            call()


def test_fuzzy_inequality_refuses_a_foreign_carrier():
    for f in (point(3, 0), FuzzySubset([1])):
        with pytest.raises(
            CarrierMismatchError,
            match="^fuzzy subset carrier does not match the table$",
        ):
            fuzzy_inequality_holds(HyperOp.full(2), RegularityClass.REGULAR, f)


def test_fuzzy_inequality_accepts_non_associative_tables():
    f = FuzzySubset([Fraction(1, 2), Fraction(1, 4)])
    for cls in CLASS_ORDER:
        fuzzy_inequality_holds(NON_ASSOCIATIVE_2, cls, f)  # must not raise


def test_routes_agree_off_associativity(order2_tables, monkeypatch):
    # every route evaluates the class template with the definition's own
    # brackets, so the routes agree on any hypergroupoid, and a table that
    # meets the definition satisfies the fuzzy inequality for every f; the
    # public deciders run with their associativity precondition faked
    tables = order2_tables + [
        random_hypergroupoid(3, f"off-assoc:{i}") for i in range(2000)
    ]
    assert sum(not h.is_hypersemigroup() for h in tables) >= 2000
    monkeypatch.setattr(HyperOp, "is_hypersemigroup", lambda self: True)
    rng = random.Random("off-assoc")
    for h in tables:
        for cls in CLASS_ORDER:
            held = is_class_elementwise(h, cls)[0]
            routes = (
                is_class_subsetdef(h, cls, 1),
                is_class_subsetdef(h, cls, 2),
                is_class_fuzzy(h, cls)[0],
            )
            assert routes == (held,) * 3, (cls.value, serialize_table(h))
            if held:
                for _ in range(2):
                    f = random_fuzzy_subset(h.order, rng)
                    assert fuzzy_inequality_holds(h, cls, f), (
                        cls.value, serialize_table(h), f,
                    )


def test_element_membership_arity_checked():
    h = HyperOp.left_zero(2)
    with pytest.raises(ValueError):
        element_membership(h, RegularityClass.REGULAR, 0, (0, 1))


def test_witness_search_is_lexicographic():
    h = HyperOp.left_zero(2)
    _, witnesses = is_class_elementwise(h, RegularityClass.REGULAR)
    # x = 0 already works for both elements, so first-hit wins
    assert [w.elements for w in witnesses] == [(0,), (0,)]


def test_stored_witnesses_reverify():
    for seed in range(6):
        h = random_hypersemigroup(3, f"wit:{seed}")
        report = classify(h)
        for cr in report.classes.values():
            for w in cr.witnesses:
                assert verify_witness(h, w)


def test_fuzzy_witness_reverifies_only_at_its_own_indicator():
    h = HyperOp.constant(2)
    cls = RegularityClass.REGULAR
    failing = Witness(cls, 1, "fuzzy", False, fuzzy_subset=point(2, 1))
    assert verify_witness(h, failing)
    # the inequality holds at the zero subset and at the other point, so a
    # failure recorded there is forged
    for forged in (FuzzySubset([0, 0]), point(2, 0)):
        assert not verify_witness(
            h, Witness(cls, 1, "fuzzy", False, fuzzy_subset=forged)
        )
    assert not verify_witness(h, Witness(cls, 1, "fuzzy", True))


def test_elementwise_failure_witness_reverifies_only_without_a_witness():
    cls = RegularityClass.REGULAR
    failing = is_class_elementwise(HyperOp.constant(2), cls)[1]
    assert failing == [Witness(cls, 1, "elementwise", False)]
    assert verify_witness(HyperOp.constant(2), failing[0])
    # element 0 of the constant table and every element of the left-zero
    # table do have a witness, so a failure recorded there is forged
    assert not verify_witness(
        HyperOp.constant(2), Witness(cls, 0, "elementwise", False)
    )
    assert not verify_witness(HyperOp.left_zero(2), failing[0])


def test_verify_witness_refuses_an_unknown_route():
    w = Witness(RegularityClass.REGULAR, 0, "subset-1", True)
    with pytest.raises(ValueError, match="unknown witness route 'subset-1'"):
        verify_witness(HyperOp.left_zero(2), w)


def test_elementwise_matches_oracle_on_random_tables():
    for seed in range(8):
        h = random_hypersemigroup(3, f"cls:{seed}")
        cells = table_view(h)
        for cls in CLASS_ORDER:
            assert is_class_elementwise(h, cls)[0] == CLASS_ORACLES[cls.value](cells, 3)


def test_classify_reports_are_serializable():
    d = classify(HyperOp.left_zero(2)).to_dict()
    assert d["order"] == 2
    assert len(d["classes"]) == 5
    assert d["all_routes_agree"] is True
    assert d["classes"][0]["routes"]["subset-1"] is True


def test_verify_theorems_passes_on_reference_tables():
    for h in (HyperOp.constant(2), HyperOp.full(2), HyperOp.left_zero(2)):
        report = verify_theorems(h, random_trials=1000, seed="ref")
        assert report.passed
        for check in report.checks:
            assert check.routes_agree
            if check.verdict:
                assert check.trials == 1000 and check.counterexample is None
            else:
                assert check.failure_reverified


def test_verify_theorems_deterministic():
    h = HyperOp.left_zero(3)
    a = verify_theorems(h, random_trials=50, seed=7).to_dict()
    b = verify_theorems(h, random_trials=50, seed=7).to_dict()
    assert a == b


def test_verify_theorems_every_order2_hypersemigroup(order2_hypersemigroups):
    for i, h in enumerate(order2_hypersemigroups):
        assert verify_theorems(h, random_trials=200, seed=f"all2:{i}").passed


def test_quasi_regular_both_sides_implies_semisimple_in_census(
    order2_hypersemigroups,
):
    # observed fact over the enumerated population, not asserted as theorem
    tables = list(order2_hypersemigroups)
    tables += [random_hypersemigroup(3, f"obs:{i}") for i in range(12)]
    for h in tables:
        report = classify(h)
        if report.verdict(RegularityClass.LEFT_QUASI_REGULAR) and report.verdict(
            RegularityClass.RIGHT_QUASI_REGULAR
        ):
            assert report.verdict(RegularityClass.SEMISIMPLE)
