from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypersemigroups import (
    CarrierMismatchError,
    FuzzySubset,
    HyperOp,
    NotAssociativeError,
    NotFuzzyIdealError,
    NotRegularError,
    check_meet_identity,
    compose,
    is_fuzzy_left_ideal,
    is_fuzzy_right_ideal,
    left_ideal_closure,
    one,
    point,
    random_fuzzy_subset,
    random_hypergroupoid,
    right_ideal_closure,
    serialize_table,
)

from .oracles import ideal_closure_oracle, ideal_oracle, table_view
from .util import (
    NON_ASSOCIATIVE_2,
    class_key,
    o3_pool_failing,
    o3_pool_passing,
    random_hypersemigroup,
)

HALF = Fraction(1, 2)


def test_constant_subsets_are_two_sided_ideals():
    for h in (HyperOp.left_zero(2), HyperOp.full(3), HyperOp.constant(2)):
        top = one(h.order)
        zero = FuzzySubset([0] * h.order)
        assert is_fuzzy_right_ideal(h, top) and is_fuzzy_left_ideal(h, top)
        assert is_fuzzy_right_ideal(h, zero) and is_fuzzy_left_ideal(h, zero)


def test_ideal_predicate_hand_cases():
    lz = HyperOp.left_zero(2)
    assert is_fuzzy_right_ideal(lz, FuzzySubset([HALF, 1]))
    assert is_fuzzy_left_ideal(HyperOp.constant(2), FuzzySubset([1, 0]))
    # u in cell(0, 1) = {0} needs f(0) >= f(1) = 1, which fails
    assert not is_fuzzy_left_ideal(lz, FuzzySubset([0, 1]))


def test_closures_fix_ideals_and_zeros():
    lz = HyperOp.left_zero(2)
    f = FuzzySubset([HALF, 1])
    assert is_fuzzy_right_ideal(lz, f)
    assert right_ideal_closure(lz, f) == f
    zero = FuzzySubset([0, 0])
    assert right_ideal_closure(lz, zero) == zero
    assert left_ideal_closure(lz, zero) == zero


def test_closures_produce_ideals_above_the_seed():
    rng = random.Random("closure")
    for seed in range(6):
        h = random_hypersemigroup(3, f"ideal:{seed}")
        for _ in range(20):
            f = random_fuzzy_subset(3, rng)
            r = right_ideal_closure(h, f)
            l = left_ideal_closure(h, f)
            assert f.leq(r) and is_fuzzy_right_ideal(h, r)
            assert f.leq(l) and is_fuzzy_left_ideal(h, l)


def test_ideal_characterization_both_directions(order2_hypersemigroups):
    rng = random.Random("charact")
    for h in order2_hypersemigroups:
        top = one(2)
        for _ in range(20):
            f = random_fuzzy_subset(2, rng)
            assert is_fuzzy_right_ideal(h, f) == compose(h, f, top).leq(f)
            assert is_fuzzy_left_ideal(h, f) == compose(h, top, f).leq(f)
            r = right_ideal_closure(h, f)
            assert compose(h, r, top).leq(r)
            l = left_ideal_closure(h, f)
            assert compose(h, top, l).leq(l)


def test_ideals_match_the_cell_scan_oracle(order2_tables):
    # associative or not: the predicates and closures need no associativity
    rng = random.Random("ideal-oracle")
    tables = order2_tables + [
        random_hypergroupoid(3, f"ideal-oracle:{i}") for i in range(300)
    ]
    verdicts = set()
    for h in tables:
        cells = table_view(h)
        for _ in range(5):
            f = random_fuzzy_subset(h.order, rng)
            for right, is_ideal, closure in (
                (True, is_fuzzy_right_ideal, right_ideal_closure),
                (False, is_fuzzy_left_ideal, left_ideal_closure),
            ):
                expected = ideal_oracle(cells, h.order, f.values, right)
                assert is_ideal(h, f) == expected
                verdicts.add(expected)
                assert closure(h, f).values == ideal_closure_oracle(
                    cells, h.order, f.values, right
                )
    assert verdicts == {True, False}


def test_right_closure_minimal_among_sampled_ideal_candidates():
    rng = random.Random("minimal")
    for seed in range(4):
        h = random_hypersemigroup(3, f"min:{seed}")
        for _ in range(10):
            f = random_fuzzy_subset(3, rng)
            r = right_ideal_closure(h, f)
            for _ in range(10):
                g = random_fuzzy_subset(3, rng)
                above = FuzzySubset(
                    max(a, b) for a, b in zip(f.values, g.values)
                )
                candidate = right_ideal_closure(h, above)
                # any right ideal above f must contain the closure of f
                assert f.leq(candidate)
                assert r.leq(candidate)


def test_meet_identity_on_full_table():
    h = HyperOp.full(2)
    assert check_meet_identity(h, one(2), one(2))
    zero = FuzzySubset([0, 0])
    assert check_meet_identity(h, zero, one(2))


def test_meet_identity_on_random_regular_tables():
    rng = random.Random("meet")
    found = 0
    seed = 0
    while found < 8:
        h = random_hypersemigroup(3, f"meet:{seed}")
        seed += 1
        try:
            f = right_ideal_closure(h, random_fuzzy_subset(3, rng))
            g = left_ideal_closure(h, random_fuzzy_subset(3, rng))
            assert check_meet_identity(h, f, g)
            found += 1
        except NotRegularError:
            continue


def test_meet_identity_preconditions_reported_distinctly():
    # a carrier mismatch is reported first: off associativity, off
    # regularity, and where the other checks would find no ideal
    wrong = FuzzySubset([1, 0, 0])
    for h in (NON_ASSOCIATIVE_2, HyperOp.constant(2), HyperOp.right_zero(2)):
        for f, g in ((wrong, one(2)), (one(2), wrong)):
            with pytest.raises(CarrierMismatchError):
                check_meet_identity(h, f, g)
    with pytest.raises(NotAssociativeError):
        check_meet_identity(NON_ASSOCIATIVE_2, one(2), one(2))
    # the constant table is not regular
    with pytest.raises(NotRegularError):
        check_meet_identity(HyperOp.constant(2), one(2), one(2))
    # right-zero is regular but (1, 0) is not a right ideal there:
    # u in cell(0, 1) = {1} needs f(1) >= f(0) = 1
    rz = HyperOp.right_zero(2)
    with pytest.raises(NotFuzzyIdealError, match="right"):
        check_meet_identity(rz, FuzzySubset([1, 0]), one(2))
    lz = HyperOp.left_zero(2)
    with pytest.raises(NotFuzzyIdealError, match="left"):
        check_meet_identity(lz, one(2), FuzzySubset([0, 1]))


def _principal_ideal_key(h):
    # the five class bits from the principal fuzzy ideals R(a), L(a) and
    # I(a) = right closure of L(a), in CLASS_ORDER
    n = h.order
    bits = [True] * 5
    for a in range(n):
        r = right_ideal_closure(h, point(n, a))
        l = left_ideal_closure(h, point(n, a))
        i = right_ideal_closure(h, l)
        rl = r.meet(l)
        holds = (
            rl == compose(h, r, l),  # regular
            rl.leq(compose(h, l, r)),  # intra-regular
            l.leq(compose(h, l, l)),  # left quasi-regular
            r.leq(compose(h, r, r)),  # right quasi-regular
            i.leq(compose(h, i, i)),  # semisimple
        )
        bits = [b and c for b, c in zip(bits, holds)]
    return "".join("1" if b else "0" for b in bits)


def test_principal_fuzzy_ideals_decide_the_five_classes(order2_hypersemigroups):
    tables = (
        order2_hypersemigroups
        + o3_pool_failing()
        + o3_pool_passing(1000, "principal-ideals")
    )
    keys = set()
    for h in tables:
        key = class_key(h)
        assert _principal_ideal_key(h) == key, serialize_table(h)
        keys.add(key)
    # every combination the order-3 pool holds is decided, not just 11111
    assert {"00000", "01011", "01101", "11111"} <= keys
