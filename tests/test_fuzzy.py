from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hypersemigroups import (
    TEMPLATES,
    CarrierMismatchError,
    FuzzySubset,
    HyperOp,
    RegularityClass,
    compose,
    compose_chain,
    one,
    point,
    random_fuzzy_subset,
    random_hypergroupoid,
)

from .oracles import a_set_oracle, compose_oracle, table_view
from .util import random_hypersemigroup

HALF = Fraction(1, 2)

random_tables_3 = st.integers(min_value=0, max_value=10**9).map(
    lambda s: random_hypergroupoid(3, f"fuzzy:{s}")
)
degrees = st.integers(min_value=0, max_value=16).map(lambda p: Fraction(p, 16))
fuzzy_3 = st.tuples(degrees, degrees, degrees).map(FuzzySubset)
rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)
rational_3 = st.tuples(rationals, rationals, rationals).map(FuzzySubset)


def test_fuzzy_subset_is_exact_value_object():
    f = FuzzySubset(["3/10", Fraction(7, 10)])
    assert f.values == (Fraction(3, 10), Fraction(7, 10))
    assert f == FuzzySubset([Fraction(3, 10), Fraction(7, 10)])
    assert hash(f) == hash(FuzzySubset(["3/10", "7/10"]))
    assert f[1] == Fraction(7, 10)


def test_fuzzy_subset_prints_its_degrees_in_lowest_terms():
    f = FuzzySubset(["2/4", 1])
    assert str(f) == "1/2, 1"
    assert repr(f) == "FuzzySubset((1/2, 1))"


def test_fuzzy_subset_rejects_out_of_range():
    with pytest.raises(ValueError):
        FuzzySubset([Fraction(3, 2)])
    with pytest.raises(ValueError):
        FuzzySubset([Fraction(-1, 2)])


def test_fuzzy_subset_degree_strings():
    # exponent notation would let a short string build a huge integer
    for bad in ("1e-5", "1/0", "0/00", "1E0", "nope", "", "1/ 2", "1_0/20"):
        with pytest.raises(ValueError, match=re.escape(f"degree {bad!r} is not p/q")):
            FuzzySubset(["1/2", bad])
    assert FuzzySubset(["1/2", " 2/4 ", "0.5", ".5", "1.", "1", "0", "3/07"]) == (
        FuzzySubset([HALF] * 4 + [1, 1, 0, Fraction(3, 7)])
    )


def test_fuzzy_subset_degree_strings_take_ascii_digits_only():
    # Devanagari one and Arabic-Indic zero point five
    for bad in ("\u0967", "\u0660.\u0665", "\u0967/\u0968"):
        with pytest.raises(ValueError, match=re.escape(f"degree {bad!r} is not p/q")):
            FuzzySubset([bad])


def test_fuzzy_subset_refuses_a_bare_string_or_bytes():
    # each would otherwise be read one character or byte per degree
    for bad, kind in (("10", "str"), (b"\x00\x01", "bytes"), ("0.5", "str")):
        with pytest.raises(TypeError, match=f"must be a sequence, not a {kind}$"):
            FuzzySubset(bad)
    assert FuzzySubset(("1", "0")) == FuzzySubset(["1", "0"]) == FuzzySubset([1, 0])


def test_fuzzy_subset_rejects_float_and_bool():
    for bad in ([0.1, True], [0.5], [True], [1, False]):
        with pytest.raises(TypeError, match="use an int, a Fraction or a string"):
            FuzzySubset(bad)
    # decimal strings are exact and stay accepted
    assert FuzzySubset(["0.5", "1"]) == FuzzySubset([HALF, 1])


def test_a_set_examples():
    full = HyperOp.full(2)
    assert set(full.pairs_containing(0)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert HyperOp.constant(2).pairs_containing(1) == ()
    lz = HyperOp.left_zero(2)
    expected = a_set_oracle(table_view(lz), 2, 1)
    assert expected == {(1, 0), (1, 1)}
    assert frozenset(lz.pairs_containing(1)) == expected


def test_compose_full_table_example():
    h = HyperOp.full(2)
    f = FuzzySubset(["3/10", "7/10"])
    g = FuzzySubset(["5/10", "2/10"])
    expected = compose_oracle(table_view(h), 2, f.values, g.values)
    assert expected == (HALF, HALF)
    assert compose(h, f, g) == FuzzySubset(expected)


def test_compose_with_one_collapses_min():
    rng = random.Random("collapse")
    for seed in range(5):
        h = random_hypergroupoid(3, f"collapse:{seed}")
        f = random_fuzzy_subset(3, rng)
        result = compose(h, f, one(3))
        for a in range(3):
            best = max((f[y] for y, _ in h.pairs_containing(a)), default=Fraction(0))
            assert result[a] == best


def test_compose_empty_pair_set_gives_zero():
    h = HyperOp.constant(2)  # no cell contains 1
    rng = random.Random("empty")
    for _ in range(10):
        f = random_fuzzy_subset(2, rng)
        g = random_fuzzy_subset(2, rng)
        assert compose(h, f, g)[1] == 0


def test_compose_carrier_mismatch():
    with pytest.raises(CarrierMismatchError):
        compose(HyperOp.full(2), one(3), one(2))


def test_compose_chain_degenerate_cases():
    h = HyperOp.full(2)
    f = FuzzySubset([HALF, Fraction(1, 3)])
    g = FuzzySubset([1, 0])
    assert compose_chain(h, [f]) == f
    assert compose_chain(h, [f, g]) == compose(h, f, g)
    with pytest.raises(ValueError):
        compose_chain(h, [])


def test_compose_chain_association_irrelevant_on_hypersemigroups():
    rng = random.Random("lemma3")
    for seed in range(8):
        h = random_hypersemigroup(3, f"chain:{seed}")
        f, g, k = (random_fuzzy_subset(3, rng) for _ in range(3))
        assert compose_chain(h, [f, g, k]) == compose(h, f, compose(h, g, k))


def test_compose_maps_equal_degrees_held_as_distinct_objects():
    # equal degrees from separate Fraction objects share one level
    f = FuzzySubset([Fraction(1, 2), Fraction(2, 4), Fraction(1, 3)])
    g = FuzzySubset([Fraction(3, 6), Fraction(1, 3), Fraction(2, 6)])
    assert f[0] is not f[1] and f[0] is not g[0] and f[2] is not g[1]
    for seed in range(20):
        h = random_hypergroupoid(3, f"ties:{seed}")
        expected = compose_oracle(table_view(h), 3, f.values, g.values)
        result = compose(h, f, g)
        assert result.values == expected
        assert all(type(v) is Fraction for v in result.values)


def test_element_in_no_cell_maps_to_exact_zero():
    h = HyperOp.constant(2)  # no cell contains 1
    f = FuzzySubset([HALF, Fraction(1, 3)])  # 0 is not among the inputs
    for result in (
        compose(h, f, f),
        compose_chain(h, (f, f, f)),
        compose_chain(
            h, (f, one(2), one(2)),
            brackets=TEMPLATES[RegularityClass.LEFT_QUASI_REGULAR],
        ),
    ):
        assert result.values[1] == Fraction(0)
        assert type(result.values[1]) is Fraction


def test_composed_value_equals_validated_value():
    rng = random.Random("validated")
    for seed in range(10):
        h = random_hypergroupoid(3, f"validated:{seed}")
        f, g = random_fuzzy_subset(3, rng), random_fuzzy_subset(3, rng)
        result = compose(h, f, g)
        for same in (FuzzySubset(result.values),
                     FuzzySubset([str(v) for v in result.values])):
            assert result == same and same == result
            assert hash(result) == hash(same)
            assert {result: 1}[same] == 1


def test_leq_examples():
    f = FuzzySubset([HALF, 1])
    g = FuzzySubset([1, HALF])
    assert f.leq(f)
    assert not f.leq(g) and not g.leq(f)
    assert f.leq(one(2)) and g.leq(one(2))
    with pytest.raises(CarrierMismatchError):
        f.leq(one(3))


def test_one_and_point():
    assert one(1).values == (1,)
    assert one(2).values == (1, 1)
    assert point(2, 0).values == (1, 0)
    assert point(2, 1).values == (0, 1)
    assert point(2, 1).leq(one(2))
    with pytest.raises(ValueError):
        point(2, 2)


@pytest.mark.parametrize("order", [0, -1, 17])
def test_fuzzy_constructors_refuse_a_bad_order(order):
    refusal = f"^order must be between 1 and 16, got {order}$"
    with pytest.raises(ValueError, match=refusal):
        one(order)
    with pytest.raises(ValueError, match=refusal):
        point(order, 0)
    with pytest.raises(ValueError, match=refusal):
        random_fuzzy_subset(order, random.Random(0))


def test_meet_examples():
    f = FuzzySubset(["3/10", "7/10"])
    g = FuzzySubset(["5/10", "2/10"])
    assert f.meet(one(2)) == f
    assert f.meet(f) == f
    assert f.meet(g) == FuzzySubset(["3/10", "2/10"])
    with pytest.raises(CarrierMismatchError):
        f.meet(one(3))


def test_point_bridge_identity_small_orders():
    for order in (1, 2):
        for seed in range(30):
            h = random_hypergroupoid(order, f"bridge:{order}:{seed}")
            for a in range(order):
                for b in range(order):
                    fa, fb = point(order, a), point(order, b)
                    assert compose(h, fa, fb).support_mask() == h.hyper_product(a, b)


def _cyclic(n: int) -> HyperOp:
    return HyperOp(n, [1 << (x + y) % n for x in range(n) for y in range(n)])


@pytest.mark.parametrize(
    "h",
    [_cyclic(n) for n in (8, 16)] + [random_hypergroupoid(n, "wide") for n in (8, 16)],
    ids=["cyclic-8", "cyclic-16", "random-8", "random-16"],
)
def test_compose_matches_oracle_on_wide_level_codes(h):
    # five factors give each element its own degree k/997: 40 or 80 levels
    # besides 0, dealt out in turn so that every factor holds a top one and
    # the chain's codes run past 30 and 64 bits
    n = h.order
    rng = random.Random(f"wide:{n}")
    degrees = [Fraction(k, 997) for k in sorted(rng.sample(range(1, 998), 5 * n))]
    fs = [FuzzySubset(rng.sample(degrees[i::5], n)) for i in range(5)]
    cells = table_view(h)

    def oracle(u, v):
        return compose_oracle(cells, n, u, v)

    assert compose(h, fs[0], fs[1]).values == oracle(fs[0].values, fs[1].values)
    chain = compose_chain(h, fs)
    assert chain.values == reduce(oracle, [f.values for f in fs])
    levels = sorted({Fraction(0), *degrees})
    assert max(levels.index(v) for v in chain.values) > (30 if n == 8 else 64)


@settings(deadline=None, max_examples=60)
@given(random_tables_3, fuzzy_3, fuzzy_3)
def test_compose_matches_oracle(h, f, g):
    expected = compose_oracle(table_view(h), 3, f.values, g.values)
    assert compose(h, f, g) == FuzzySubset(expected)


@settings(deadline=None, max_examples=60)
@given(random_tables_3, fuzzy_3, fuzzy_3)
def test_compose_value_closure(h, f, g):
    allowed = set(f.values) | set(g.values) | {Fraction(0)}
    assert set(compose(h, f, g).values) <= allowed


@settings(deadline=None, max_examples=60)
@given(random_tables_3, fuzzy_3, fuzzy_3, fuzzy_3)
def test_compose_monotone_in_each_argument(h, f, g, k):
    f_lo = f.meet(g)  # f_lo <= f pointwise
    assert compose(h, f_lo, k).leq(compose(h, f, k))
    assert compose(h, k, f_lo).leq(compose(h, k, f))


@settings(deadline=None, max_examples=60)
@given(random_tables_3, st.lists(rational_3, min_size=5, max_size=5))
def test_compose_chain_brackets_match_oracle(h, fs):
    # every class template, on arbitrary tables where brackets matter
    cells = table_view(h)

    def oracle(u, v):
        return compose_oracle(cells, 3, u, v)

    values = [f.values for f in fs]
    assert compose_chain(h, fs) == FuzzySubset(reduce(oracle, values))
    for template in TEMPLATES.values():
        k = template.__code__.co_argcount - 1
        expected = template(oracle, *values[:k])
        assert compose_chain(h, fs[:k], brackets=template) == FuzzySubset(expected)


@settings(deadline=None, max_examples=60)
@given(fuzzy_3)
def test_one_is_top(f):
    assert f.leq(one(3))


def test_random_fuzzy_subset_deterministic_and_bounded():
    a = random_fuzzy_subset(4, random.Random("rf"))
    b = random_fuzzy_subset(4, random.Random("rf"))
    assert a == b
    assert all(v.denominator <= 16 for v in a.values)
