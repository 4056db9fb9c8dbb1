"""Metric definitions: name, unit, which direction is better, and how each
is computed.  BENCHMARK.json lists the same names and units; run.py refuses
to run when the two disagree.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter


def _quantile(values: list, q: int):
    # q-th percentile, interpolated; with one sample it is that sample
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


# (name, unit, better, f(setup_s, tally, call latencies in ms))
END_TO_END = [
    ("setup_s", "s", "lower", lambda setup_s, t, ms: setup_s),
    ("tables_per_s", "1/s", "higher", lambda _, t, ms: 1e3 * t.items / sum(ms)),
    ("call_ms_p50", "ms", "lower", lambda _, t, ms: _quantile(ms, 50)),
    ("call_ms_p90", "ms", "lower", lambda _, t, ms: _quantile(ms, 90)),
    ("peak_rss_mib", "MiB", "lower", lambda _, t, ms: peak_rss_mib()),
]


def _median(values):
    return statistics.median(values) if values else None


def _us(*names):
    def per_call(s):
        us = s.tracer.per_call_us(*names)
        return None if us is None else us * s.traced.scale
    return per_call


def _accept_ratio(s):
    t = s.normal
    return t.census_hyper / t.census_seen if t.census_seen else None


def _partition(agg):
    # census calls are a census stretch's only timed calls, so the i-th
    # partition list and the i-th call scale belong to the same call
    def per_census(s):
        t = s.serial
        return _median([agg(p) * k for p, k in zip(t.partitions_s, t.scales) if p])
    return per_census


def _progress_gap(s):
    t = s.normal
    return _median([g * k for g, k in zip(t.progress_gaps_s, t.scales)])


def _fanout_efficiency(s):
    # busy partition seconds over the worker-seconds the fanned-out call held
    part_sum = _partition(sum)(s)
    wall_ms = _median(s.normal.scaled_ms())
    if part_sum is None or wall_ms is None:
        return None
    return part_sum / (s.normal.jobs * wall_ms / 1e3)


def _census_classify_share(s):
    census_s = s.tracer.total_s.get("enumeration.census")
    if not census_s:
        return None
    return s.tracer.seconds("enumeration.census_classify") / census_s


def fail_share(combos) -> float | None:
    """Share of classified tables outside some class."""
    total = sum(combos.values())
    return (total - combos.get("11111", 0)) / total if total else None


def _fail_share(s):
    combos = Counter()
    for t in s.tallies:
        combos.update(t.combos)
    return fail_share(combos)


def _overhead_pct(s):
    traced = sum(s.traced.scaled_ms()) / s.traced.items
    untraced = sum(s.serial.scaled_ms()) / s.serial.items
    return 100 * (traced / untraced - 1)


# (name, unit, better, f(stats)); f returns None when the stretch never
# reached the layer, and run.py then takes the value from the probe
PER_LAYER = [
    ("core.hyperop_init_us", "us", "lower", _us("core.hyperop_init")),
    ("core.assoc_us", "us", "lower", _us("core.assoc")),
    ("core.assoc_accept_us", "us", "lower", _us("core.assoc_accept")),
    ("core.assoc_accept_ratio", "ratio", "higher", _accept_ratio),
    ("core.set_product_us", "us", "lower", _us("core.set_product")),
    ("enumeration.sample_us", "us", "lower", _us("enumeration.sample")),
    ("enumeration.odometer_us", "us", "lower", _us("enumeration.odometer")),
    ("enumeration.partition_s_max", "s", "lower", _partition(max)),
    ("enumeration.partition_s_sum", "s", "lower", _partition(sum)),
    ("enumeration.fanout_efficiency", "ratio", "higher", _fanout_efficiency),
    ("enumeration.progress_gap_max_s", "s", "lower", _progress_gap),
    ("enumeration.census_classify_share", "ratio", "lower", _census_classify_share),
    ("classify.classify_us.o2", "us", "lower",
     _us("classify.classify.o2", "enumeration.census_classify.o2")),
    ("classify.classify_us.o3", "us", "lower",
     _us("classify.classify.o3", "enumeration.census_classify.o3")),
    ("classify.classify_us.o4", "us", "lower",
     _us("classify.classify.o4", "enumeration.census_classify.o4")),
    ("classify.elementwise_us", "us", "lower", _us("classify.route.elementwise")),
    ("classify.subset1_us", "us", "lower", _us("classify.route.subset1")),
    ("classify.subset2_us", "us", "lower", _us("classify.route.subset2")),
    ("classify.fuzzy_us", "us", "lower", _us("classify.route.fuzzy")),
    ("classify.fail_share", "ratio", "lower", _fail_share),
    ("classify.verify_us", "us", "lower", _us("classify.verify")),
    ("classify.report_json_us", "us", "lower", _us("classify.report_json")),
    ("fuzzy.compose_point_us", "us", "lower", _us("fuzzy.compose_point")),
    ("fuzzy.compose_chain_point_us", "us", "lower", _us("fuzzy.compose_chain_point")),
    ("fuzzy.compose_us", "us", "lower", _us("fuzzy.compose")),
    ("fuzzy.compose_chain_us", "us", "lower", _us("fuzzy.compose_chain")),
    ("fuzzy.random_subset_us", "us", "lower", _us("fuzzy.random_subset")),
    ("ideals.closure_us", "us", "lower", _us("ideals.closure")),
    ("ideals.meet_identity_us", "us", "lower", _us("ideals.meet_identity")),
    ("ideals.is_ideal_us", "us", "lower", _us("ideals.is_ideal")),
    ("tableio.parse_us", "us", "lower", _us("tableio.parse")),
    ("trace.overhead_pct", "%", "lower", _overhead_pct),
]
