from __future__ import annotations

from collections import Counter

import pytest

from hypersemigroups import (
    EnumerationBudgetError,
    HyperOp,
    RegularityClass,
    census,
    enumerate_hypergroupoids,
    enumeration,
    hypergroupoid_count,
    random_hypergroupoid,
)

from .oracles import assoc_oracle, table_view
from .util import flipping_routes


def test_population_counts():
    assert hypergroupoid_count(1) == 1
    assert hypergroupoid_count(2) == 81
    assert hypergroupoid_count(3) == 7**9 == 40_353_607
    with pytest.raises(ValueError):
        hypergroupoid_count(0)
    with pytest.raises(ValueError, match="between 1 and 16, got 17$"):
        hypergroupoid_count(17)


@pytest.mark.parametrize("order", [0, -1])
def test_nonpositive_order_refused_with_one_message(order):
    # every entry point refuses through the same carrier check
    calls = (
        lambda: hypergroupoid_count(order),
        lambda: random_hypergroupoid(order, "s"),
        lambda: census(order, exhaustive=True),
    )
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"order must be between 1 and 16, got {order}"


def test_random_hypergroupoid_checks_the_order_before_drawing():
    # 10^12 cells would be drawn if the order were checked by HyperOp
    with pytest.raises(ValueError, match="got 1000000$"):
        random_hypergroupoid(10**6, "s")


def test_enumeration_order1_is_the_unique_table():
    tables = list(enumerate_hypergroupoids(1))
    assert tables == [HyperOp.constant(1)]


def test_enumeration_order2_complete_and_distinct(order2_tables):
    assert len(order2_tables) == 81
    assert len(set(order2_tables)) == 81
    # documented odometer order: all-{0} cells first, full table last
    assert order2_tables[0] == HyperOp.constant(2)
    assert order2_tables[-1] == HyperOp.full(2)


def test_enumeration_budget_refusals():
    # a refused order raises at the call, before any table is drawn
    with pytest.raises(EnumerationBudgetError):
        enumerate_hypergroupoids(3)
    gen = enumerate_hypergroupoids(3, allow_large=True)
    assert next(gen).order == 3
    with pytest.raises(EnumerationBudgetError):
        enumerate_hypergroupoids(4, allow_large=True)


@pytest.mark.parametrize("order", [4, 17, 100, 400])
def test_large_orders_refused_from_the_order_alone(order):
    # the refusal must not compute the (2^n - 1)^(n^2) table count first
    for allow_large in (False, True):
        with pytest.raises(EnumerationBudgetError) as exc:
            census(order, exhaustive=True, allow_large=allow_large)
        limit = 3 if allow_large else 2
        assert str(exc.value) == (
            f"exhaustive enumeration stops at order {limit}, got order {order}"
        )
        with pytest.raises(EnumerationBudgetError, match=f"got order {order}$"):
            enumerate_hypergroupoids(order, allow_large=allow_large)


def test_random_hypergroupoid_determinism():
    assert random_hypergroupoid(3, 42) == random_hypergroupoid(3, 42)
    assert random_hypergroupoid(3, "x:1") == random_hypergroupoid(3, "x:1")
    assert random_hypergroupoid(1, 99) == HyperOp.constant(1)


def test_random_hypergroupoid_cell_distribution_uniform():
    draws = 10_000
    counts = {1: 0, 2: 0, 3: 0}
    for i in range(draws):
        counts[random_hypergroupoid(2, f"unif:{i}").cells[0]] += 1
    expected = draws / 3
    three_sigma = 3 * (draws * (1 / 3) * (2 / 3)) ** 0.5
    for mask in (1, 2, 3):
        assert abs(counts[mask] - expected) <= three_sigma


def test_census_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        census(2)
    with pytest.raises(ValueError):
        census(2, exhaustive=True, sample=10)
    with pytest.raises(ValueError):
        census(2, sample=-1)
    with pytest.raises(ValueError):
        census(2, sample=10, jobs=0)


def test_census_order1_exhaustive():
    report = census(1, exhaustive=True)
    assert report.tables_seen == 1
    assert report.hypersemigroups == 1
    assert report.class_counts == {cls.value: 1 for cls in RegularityClass}
    assert report.combination_counts == {"11111": 1}
    assert report.route_disagreements == 0
    report.validate()


def test_census_order2_exhaustive(order2_tables):
    report = census(2, exhaustive=True)
    assert report.tables_seen == 81
    oracle_count = sum(1 for h in order2_tables if assoc_oracle(table_view(h), 2))
    assert report.hypersemigroups == oracle_count == 30
    assert report.route_disagreements == 0
    report.validate()


@pytest.mark.parametrize("k", [1, 2, 5])
def test_census_counts_every_disagreeing_class(k, monkeypatch):
    # every table disagrees in k classes, so the tally is k per
    # hypersemigroup; the verdicts, and so the counts, stay honest
    honest = census(2, exhaustive=True)
    monkeypatch.setattr(enumeration, "classify", flipping_routes(enumeration.classify, k))
    report = census(2, exhaustive=True, jobs=1)
    assert report.route_disagreements == 30 * k
    assert report.hypersemigroups == honest.hypersemigroups == 30
    assert report.combination_counts == honest.combination_counts
    assert report.class_counts == honest.class_counts
    assert honest.route_disagreements == 0


def test_census_sampled_counts_and_determinism():
    a = census(3, sample=300, seed="s1")
    b = census(3, sample=300, seed="s1")
    assert a.render() == b.render()
    assert a.tables_seen == 300
    a.validate()
    c = census(3, sample=300, seed="s2")
    assert c.render() != a.render()  # seed participates in the report header


def test_census_report_refuses_inconsistent_counts():
    from hypersemigroups.enumeration import CensusReport

    def report(class_count, combinations):
        return CensusReport(
            order=2,
            mode="exhaustive",
            tables_seen=81,
            hypersemigroups=30,
            class_counts={"regular": class_count},
            combination_counts=combinations,
            route_disagreements=0,
        )

    report(30, {"11111": 28, "00000": 2}).validate()
    with pytest.raises(ValueError, match="^class count regular exceeds hypersemigroup"):
        report(31, {"11111": 30}).validate()
    with pytest.raises(
        ValueError, match="^combination counts do not sum to hypersemigroup total$"
    ):
        report(30, {"11111": 29}).validate()


def test_census_sample_zero():
    report = census(2, sample=0, seed=0)
    assert report.tables_seen == 0
    assert report.hypersemigroups == 0
    report.validate()


@pytest.mark.parametrize("order", [0, -1, 17, 99])
def test_sampled_census_refuses_an_impossible_order(order):
    # no table is drawn from an empty sample, so the order is checked first
    for sample in (0, 5):
        with pytest.raises(ValueError) as exc:
            census(order, sample=sample)
        assert str(exc.value) == f"order must be between 1 and 16, got {order}"


def test_census_progress_callback():
    ticks = []
    census(2, exhaustive=True, progress=lambda done, total: ticks.append((done, total)))
    assert ticks[-1] == (81, 81)
    assert [t[0] for t in ticks] == sorted(t[0] for t in ticks)


def _recording_pool(sizes):
    class RecordingPool:
        # stands in for ProcessPoolExecutor: records the pool size and maps
        # in process, so no worker is ever started
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            return map(fn, parts)

    return RecordingPool


def test_census_pool_capped_by_partitions_and_cores(monkeypatch):
    sizes = []
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", _recording_pool(sizes))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    exhaustive = census(2, exhaustive=True).render()
    sampled = census(3, sample=40, seed="cap").render()
    few = census(3, sample=3, seed="cap").render()
    assert sizes == []
    # order 2 has 9 partitions and a 40-draw sample 16, so 4 cores cap
    # both; a 3-draw sample has 3 partitions, which cap the pool instead
    assert census(2, exhaustive=True, jobs=10**6).render() == exhaustive
    assert census(3, sample=40, seed="cap", jobs=10**6).render() == sampled
    assert census(3, sample=3, seed="cap", jobs=8).render() == few
    assert census(2, exhaustive=True, jobs=2).render() == exhaustive
    assert sizes == [4, 4, 3, 2]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert census(2, exhaustive=True, jobs=8).render() == exhaustive
    assert census(2, sample=0, jobs=8).tables_seen == 0
    assert sizes == [4, 4, 3, 2]


def _recording_worker(seen):
    def stub_worker(args):
        # records the partition's key (prefix or index range) and size
        # instead of streaming its tables
        _, size, tables = args
        seen.append((tables.args[-1], size))
        return size, Counter(), 0

    return stub_worker


def test_sampled_partitions_bounded_by_workers_not_jobs(monkeypatch):
    sizes, seen = [], []
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", _recording_pool(sizes))
    monkeypatch.setattr(enumeration, "_census_part", _recording_worker(seen))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    report = census(3, sample=10**5, jobs=10**5)
    assert sizes == [2]
    expected = [(range(i * 6250, (i + 1) * 6250), 6250) for i in range(16)]
    assert seen == expected
    assert report.tables_seen == 100_000
    assert report.hypersemigroups == 0
    # neither the cores nor jobs move a partition
    seen.clear()
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
    census(3, sample=10**5, jobs=1)
    assert seen == expected
    assert sizes == [2]


@pytest.mark.parametrize("order", [1, 2])
def test_exhaustive_partitions_join_to_the_odometer(order, monkeypatch):
    streams = []

    def streaming_worker(args):
        _, size, tables = args
        cells = list(tables())
        assert len(cells) == size
        streams.extend(cells)
        return size, Counter(), 0

    monkeypatch.setattr(enumeration, "_census_part", streaming_worker)
    census(order, exhaustive=True)
    assert streams == list(enumeration._odometer(order))
    assert len(streams) == hypergroupoid_count(order)


def test_order3_partitions_are_the_49_two_cell_prefixes(monkeypatch):
    seen = []
    monkeypatch.setattr(enumeration, "_census_part", _recording_worker(seen))
    report = census(3, exhaustive=True, allow_large=True)
    prefixes = [(a, b) for a in range(1, 8) for b in range(1, 8)]
    assert seen == [(prefix, 7**7) for prefix in prefixes]
    assert report.tables_seen == 7**9


@pytest.mark.parametrize("sample", [0, 1, 15, 16, 17, 10**5, 10**12])
def test_sample_ranges_cover_the_sample_in_order(sample, monkeypatch):
    seen = []
    monkeypatch.setattr(enumeration, "_census_part", _recording_worker(seen))
    report = census(3, sample=sample)
    ranges = [r for r, _ in seen]
    assert len(ranges) == min(sample, 16)
    # ranges, not lists, so 10^12 draws make 16 small objects
    bounds = [0] + [r.stop for r in ranges]
    assert ranges == [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert bounds[-1] == sample
    assert max(map(len, ranges), default=1) - min(map(len, ranges), default=1) <= 1
    assert [size for _, size in seen] == list(map(len, ranges))
    assert report.tables_seen == sample


def test_census_builds_a_hyperop_only_for_hypersemigroups(monkeypatch):
    # one associativity filter on raw cells in both modes: every table
    # the census builds is a hypersemigroup it then classifies
    built = []

    class CountingHyperOp(HyperOp):
        def __init__(self, order, cells):
            built.append(order)
            super().__init__(order, cells)

    monkeypatch.setattr(enumeration, "HyperOp", CountingHyperOp)
    for run in (
        lambda: census(2, exhaustive=True),
        lambda: census(3, sample=2000, seed="c8"),
    ):
        built.clear()
        report = run()
        assert report.hypersemigroups > 0
        assert len(built) == report.hypersemigroups
