from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hypersemigroups import (
    HyperOp,
    full_mask,
    mask_elements,
    random_hypergroupoid,
    subset_mask,
)

from .oracles import assoc_oracle, set_product_oracle, table_view
from .util import NON_ASSOCIATIVE_2, random_hypersemigroup

random_tables_3 = st.integers(min_value=0, max_value=10**9).map(
    lambda s: random_hypergroupoid(3, f"core:{s}")
)
masks_3 = st.integers(min_value=0, max_value=7)


def test_mask_helpers_round_trip():
    assert subset_mask([0, 2], 3) == 0b101
    assert mask_elements(0b101) == (0, 2)
    assert mask_elements(0) == ()
    assert full_mask(3) == 7
    with pytest.raises(ValueError):
        subset_mask([3], 3)


def test_constructor_rejects_bad_tables():
    with pytest.raises(ValueError, match="empty hyperproduct at \\(1, 0\\)"):
        HyperOp(2, (1, 1, 0, 1))
    with pytest.raises(ValueError, match="not a subset"):
        HyperOp(2, (1, 1, 4, 1))
    with pytest.raises(ValueError):
        HyperOp(2, (1, 1, 1))
    with pytest.raises(ValueError):
        HyperOp(0, ())
    with pytest.raises(ValueError):
        HyperOp(17, (1,) * 17 * 17)
    for bad in (1.0, True):
        with pytest.raises(TypeError, match="must be an int bitmask"):
            HyperOp(1, [bad])


def test_from_rows_builds_cells_and_checks_shape():
    h = HyperOp.from_rows([[{0}, {0, 1}], [{1}, [1]]])
    assert h == HyperOp(2, (0b01, 0b11, 0b10, 0b10))
    with pytest.raises(ValueError, match="not square"):
        HyperOp.from_rows([[{0}, {0}], [{0}]])
    with pytest.raises(ValueError, match="element 2 out of range"):
        HyperOp.from_rows([[{0}, {2}], [{0}, {0}]])


def test_constant_rejects_element_out_of_range():
    assert HyperOp.constant(3, 2).cells == (0b100,) * 9
    for element in (-1, 3):
        with pytest.raises(ValueError, match=f"element {element} out of range"):
            HyperOp.constant(3, element)


def test_equality_and_hash():
    a = HyperOp.left_zero(2)
    b = HyperOp(2, (1, 1, 2, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != HyperOp.right_zero(2)


def test_hyper_product_defining_cells():
    assert HyperOp.left_zero(2).hyper_product(0, 1) == subset_mask({0}, 2)
    assert HyperOp.full(2).hyper_product(1, 1) == subset_mask({0, 1}, 2)
    assert HyperOp.constant(2).hyper_product(1, 0) == subset_mask({0}, 2)


def test_hyper_product_range_errors():
    h = HyperOp.full(2)
    for a, b in [(2, 0), (0, 2), (-1, 0)]:
        with pytest.raises(ValueError):
            h.hyper_product(a, b)


def test_set_product_singletons_reproduce_cells(order2_tables):
    for h in order2_tables[::7]:
        for x in range(2):
            for y in range(2):
                assert h.set_product(1 << x, 1 << y) == h.hyper_product(x, y)


def test_set_product_left_zero_hand_expansion():
    h = HyperOp.left_zero(2)
    expected = set_product_oracle(table_view(h), {0, 1}, {0})
    assert expected == frozenset({0, 1})
    assert h.set_product(0b11, 0b01) == subset_mask(expected, 2)


def test_set_product_empty_operands():
    h = HyperOp.full(2)
    assert h.set_product(0, 0b11) == 0
    assert h.set_product(0b11, 0) == 0
    assert h.set_product(0, 0) == 0


def test_set_product_rejects_foreign_masks():
    h = HyperOp.full(2)
    with pytest.raises(ValueError):
        h.set_product(0b100, 0b01)


def test_is_hypersemigroup_known_tables():
    assert HyperOp.constant(2).is_hypersemigroup()
    assert HyperOp.left_zero(2).is_hypersemigroup()
    assert HyperOp.right_zero(3).is_hypersemigroup()
    assert HyperOp.full(3).is_hypersemigroup()
    assert not NON_ASSOCIATIVE_2.is_hypersemigroup()
    assert not assoc_oracle(table_view(NON_ASSOCIATIVE_2), 2)


def test_is_hypersemigroup_agrees_with_oracle_on_all_order2(order2_tables):
    for h in order2_tables:
        assert h.is_hypersemigroup() == assoc_oracle(table_view(h), 2)


@settings(deadline=None, max_examples=60)
@given(random_tables_3, masks_3, masks_3)
def test_set_product_matches_oracle(h, a_mask, b_mask):
    cells = table_view(h)
    expected = set_product_oracle(
        cells, set(mask_elements(a_mask)), set(mask_elements(b_mask))
    )
    assert h.set_product(a_mask, b_mask) == subset_mask(expected, 3)


@settings(deadline=None, max_examples=60)
@given(random_tables_3, masks_3, masks_3, masks_3)
def test_lemma2_monotonicity(h, a_mask, b_mask, c_mask):
    a_mask &= b_mask  # force A subset of B
    left_a = h.set_product(a_mask, c_mask)
    left_b = h.set_product(b_mask, c_mask)
    assert left_a & left_b == left_a
    right_a = h.set_product(c_mask, a_mask)
    right_b = h.set_product(c_mask, b_mask)
    assert right_a & right_b == right_a


@settings(deadline=None, max_examples=60)
@given(random_tables_3, masks_3, masks_3)
def test_proposition1_membership(h, a_mask, b_mask):
    prod = h.set_product(a_mask, b_mask)
    members_a = mask_elements(a_mask)
    members_b = mask_elements(b_mask)
    for x in range(3):
        direct = any(
            h.hyper_product(a, b) >> x & 1 for a in members_a for b in members_b
        )
        assert bool(prod >> x & 1) == direct
    for a in members_a:
        for b in members_b:
            cell = h.hyper_product(a, b)
            assert cell & prod == cell


def test_subset_product_fully_associative_on_hypersemigroups():
    tables = [
        HyperOp.left_zero(3),
        HyperOp.full(3),
        HyperOp.constant(3, 1),
        random_hypersemigroup(3, "assoc-0"),
        random_hypersemigroup(3, "assoc-1"),
    ]
    nonempty = range(1, 8)
    for h in tables:
        assert h.is_hypersemigroup()
        for a, b, c in itertools.product(nonempty, repeat=3):
            left = h.set_product(h.set_product(a, b), c)
            right = h.set_product(a, h.set_product(b, c))
            assert left == right


def test_pairs_containing():
    lz = HyperOp.left_zero(2)
    assert lz.pairs_containing(1) == ((1, 0), (1, 1))
    assert HyperOp.constant(2).pairs_containing(1) == ()
    with pytest.raises(ValueError):
        lz.pairs_containing(2)
