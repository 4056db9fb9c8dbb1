"""The benchmark's workloads and the stretches that measure them.

A workload builds its inputs from the seed, then makes one timed call into
the package's public API per input until its deadline, and checks every
output.  Per-call checks are cheap; the slower ones (an independent oracle
on a few tables, a repeated census) run once in ``finish``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import corpus
import oracle
from tracing import Tracer, install

NPROC = len(os.sched_getaffinity(0))
_UNTRACED = nullcontext()

# Speed calibration.  Other tenants of a shared machine change its speed by
# tens of percent, in steps that come and go within milliseconds to minutes.
# So a fixed task is timed before the first call and after every call, and
# each call's time is divided by the task's mean slowness around it: the
# task's time over its median on the 2-core machine the benchmark was
# written on.  A step slows interpreted Python more than hashing and
# generator set-up in C, so the task is the oracle deciding order-3 tables,
# except for the sampler workload, whose time is mostly string-seeded
# generators: its task mixes in that same set-up.
_CALIBRATION_TABLES = (
    (1, 7, 7, 7, 5, 7, 7, 3, 7), (4, 4, 4, 5, 2, 4, 4, 4, 4),
    (6, 3, 6, 7, 2, 7, 6, 7, 6), (7, 3, 7, 6, 7, 5, 7, 5, 7),
)


def calibration_task() -> float:
    """Slowness of the interpreted task right now (1.0 at reference)."""
    start = perf_counter()
    for cells in _CALIBRATION_TABLES:
        oracle.combination_key(cells, 3)
    return (perf_counter() - start) / 0.575e-3


def sampler_calibration_task() -> float:
    """Slowness of half the interpreted task plus seeded generator set-up
    and draws like the sampler's (1.0 at reference)."""
    start = perf_counter()
    for cells in _CALIBRATION_TABLES[:2]:
        oracle.combination_key(cells, 3)
    for i in range(24):
        rng = random.Random(f"calibration:{i}")
        for _ in range(9):
            rng.randrange(1, 8)
    return (perf_counter() - start) / 0.65e-3


def speed_scale(slowness: list) -> float:
    """Factor taking seconds measured alongside these calibration samples
    to seconds at the reference speed; 1 without samples."""
    return len(slowness) / sum(slowness) if slowness else 1.0


@dataclass
class Tally:
    """What one stretch of a workload did."""

    jobs: int = 1  # worker processes its census calls used
    items: int = 0  # tables through the pipeline
    busy_s: float = 0.0  # summed duration of the timed calls
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    combos: Counter = field(default_factory=Counter)  # class key -> tables
    checks: int = 0  # fuzzy-calculus checks
    census_seen: int = 0
    census_hyper: int = 0
    progress_gaps_s: list = field(default_factory=list)  # longest wait per census
    partitions_s: list = field(default_factory=list)  # gaps between callbacks
    slowness: list = field(default_factory=list)  # calibration samples
    scales: list = field(default_factory=list)  # per timed call, to reference speed

    @property
    def scale(self) -> float:
        return speed_scale(self.slowness)

    def scaled_ms(self) -> list:
        return [ms * k for ms, k in zip(self.latencies_ms, self.scales)]

    def timed(self, items: int, seconds: float) -> None:
        self.items += items
        self.busy_s += seconds
        self.latencies_ms.append(seconds * 1e3)

    def check(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def add_census(self, report, start: float, stamps: list) -> None:
        self.census_seen += report.tables_seen
        self.census_hyper += report.hypersemigroups
        self.combos.update(report.combination_counts)
        gaps = [b - a for a, b in zip([start] + stamps, stamps)]
        self.progress_gaps_s.append(max(gaps, default=0.0))
        self.partitions_s.append(gaps)


def census_record(order: int, tables: int, keys: Counter) -> dict:
    """The exhaustive census report (``to_dict`` form) that a table
    population with these class keys must produce."""
    return {
        "order": order,
        "mode": "exhaustive",
        "sample_count": None,
        "seed": None,
        "tables_seen": tables,
        "hypersemigroups": sum(keys.values()),
        "class_counts": {
            name: sum(n for key, n in keys.items() if key[i] == "1")
            for i, name in enumerate(oracle.CLASS_KEYS)
        },
        "combination_counts": dict(sorted(keys.items())),
        "route_disagreements": 0,
    }


def census_problems(report, tables: int, record=None) -> list:
    problems = []
    try:
        report.validate()
    except ValueError as exc:
        problems.append(f"validate: {exc}")
    got = report.to_dict()
    if got["route_disagreements"]:
        problems.append(f"{got['route_disagreements']} route disagreements")
    if got["tables_seen"] != tables:
        problems.append(f"saw {got['tables_seen']} tables, expected {tables}")
    if got["hypersemigroups"] > got["tables_seen"]:
        problems.append("more hypersemigroups than tables")
    for i, name in enumerate(oracle.CLASS_KEYS):
        implied = sum(n for k, n in got["combination_counts"].items() if k[i] == "1")
        if got["class_counts"].get(name) != implied:
            problems.append(f"{name} count disagrees with the combination counts")
    if record is not None and got != record:
        problems.append("report differs from the census record")
    return problems


def trace_routes(hs, h, tracer: Tracer) -> None:
    """Time each decision route for all five classes, via is_class_*."""
    routes = (
        ("elementwise", lambda cls: hs.is_class_elementwise(h, cls)),
        ("subset1", lambda cls: hs.is_class_subsetdef(h, cls, 1)),
        ("subset2", lambda cls: hs.is_class_subsetdef(h, cls, 2)),
        ("fuzzy", lambda cls: hs.is_class_fuzzy(h, cls)),
    )
    for route, decide in routes:
        with tracer.span(f"classify.route.{route}"):
            for cls in hs.CLASS_ORDER:
                decide(cls)


class Workload:
    name = ""
    census_jobs = 1  # worker processes for the timed census calls
    calibrate = staticmethod(calibration_task)
    fanout_jobs = 1  # worker processes for the traced run's fan-out stretch
    single_call = False  # one call is the whole measurement

    def build(self, hs, seed, pool, scale: float = 1.0):
        """Inputs for this seed; also resets the cursor into them."""
        raise NotImplementedError

    def call(self, hs, inputs, tally: Tally, tracer, jobs: int) -> bool:
        """Make one timed call and check it; False once inputs run out."""
        raise NotImplementedError

    def finish(self, hs, inputs, tally: Tally) -> None:
        """Checks made once, after the measured calls."""

    def describe(self, inputs) -> dict:
        return {}


class CensusSampled(Workload):
    name = "census-sampled-o3"
    calibrate = staticmethod(sampler_calibration_task)
    TABLES = 500  # per census call

    def build(self, hs, seed, pool, scale=1.0):
        base = f"perfbench-{seed}"
        hs.census(3, sample=self.TABLES, seed=f"{base}-warmup")
        self.cursor = 0
        self.first = None
        return base

    def call(self, hs, base, tally, tracer, jobs):
        seed = f"{base}-{self.cursor}"
        self.cursor += 1
        stamps = []
        start = perf_counter()
        report = hs.census(3, sample=self.TABLES, seed=seed, jobs=1,
                           progress=lambda done, total: stamps.append(perf_counter()))
        tally.timed(self.TABLES, perf_counter() - start)
        tally.add_census(report, start, stamps)
        tally.check(census_problems(report, self.TABLES))
        if self.first is None:
            self.first = (seed, report.render())
        return True

    def finish(self, hs, base, tally):
        if self.first is None:  # every call failed, and each was counted
            return
        seed, text = self.first
        again = hs.census(3, sample=self.TABLES, seed=seed, jobs=1).render()
        tally.check([] if again == text else ["census report changed on a rerun"])

    def describe(self, base):
        return {"census_seed_prefix": base, "tables_per_call": self.TABLES}


class CensusExhaustive(Workload):
    def __init__(self, order: int):
        self.order = order
        self.name = f"census-exhaustive-o{order}"
        # worker start-up is most of an order-2 call and its timing swings
        # with the load on the other core, so order 2 times in process and
        # leaves the fan-out to the traced run
        self.census_jobs = NPROC if order == 3 else 1
        self.fanout_jobs = NPROC
        self.single_call = order == 3

    def build(self, hs, seed, pool, scale=1.0):
        # nothing is seeded: the population is every table of the order
        tables = (2 ** self.order - 1) ** (self.order * self.order)
        known = corpus.order2_tables() if self.order == 2 else pool
        record = census_record(self.order, tables, Counter(k for _, k in known))
        if not self.single_call:
            hs.census(self.order, exhaustive=True, jobs=self.census_jobs)
        self.first = None
        return record

    def call(self, hs, record, tally, tracer, jobs):
        stamps = []
        start = perf_counter()
        report = hs.census(self.order, exhaustive=True, allow_large=True, jobs=jobs,
                           progress=lambda done, total: stamps.append(perf_counter()))
        tally.timed(record["tables_seen"], perf_counter() - start)
        tally.add_census(report, start, stamps)
        problems = census_problems(report, record["tables_seen"], record)
        text = report.render()
        if self.first is None:
            self.first = text
        elif text != self.first:
            problems.append("census report bytes differ between calls")
        tally.check(problems)
        return True

    def describe(self, record):
        return {"order": self.order, "tables_per_call": record["tables_seen"],
                "jobs": self.census_jobs, "traced_fanout_jobs": self.fanout_jobs}


class ClassifyCorpus(Workload):
    name = "classify-corpus"
    N3, N4 = 600, 4400
    SPOT = 24  # order-4 tables re-decided by the oracle

    def build(self, hs, seed, pool, scale=1.0):
        entries = corpus.mixed_corpus(
            seed, pool, round(self.N3 * scale), round(self.N4 * scale),
            lambda cells: hs.HyperOp(4, cells).is_hypersemigroup(),
        )
        self.cursor = 0
        self.spot = []
        return [(o, cells, key, corpus.table_text(o, cells)) for o, cells, key in entries]

    def call(self, hs, inputs, tally, tracer, jobs):
        if self.cursor >= len(inputs):
            return False
        order, cells, key, text = inputs[self.cursor]
        self.cursor += 1
        start = perf_counter()
        h = hs.parse_table(text)
        report = hs.classify(h)
        with tracer.span("classify.report_json") if tracer else _UNTRACED:
            rendered = json.dumps(report.to_dict())
        tally.timed(1, perf_counter() - start)

        got = report.combination_key()
        tally.combos[got] += 1
        problems = []
        if h.cells != cells:
            problems.append("parsed cells differ from the document")
        if not report.all_routes_agree:
            problems.append("routes disagree")
        if key is not None and got != key:
            problems.append(f"verdicts {got}, recorded {key}")
        if json.loads(rendered).get("all_routes_agree") is not True:
            problems.append("JSON report does not show route agreement")
        tally.check(problems)
        if key is None and len(self.spot) < self.SPOT:
            self.spot.append((order, cells, got))
        if tracer:
            trace_routes(hs, h, tracer)
        return True

    def finish(self, hs, inputs, tally):
        spot_check(self.spot, tally)

    def describe(self, inputs):
        return corpus_shape((o, key) for o, _, key, _ in inputs)


class FuzzyCalculus(Workload):
    name = "fuzzy-calculus"
    N3, N4 = 1000, 1800
    TRIALS = 4  # random f per class in verify_theorems
    TRIPLES = 3  # (f o g) o k == f o (g o k) per table
    SPOT = 24

    def build(self, hs, seed, pool, scale=1.0):
        entries = corpus.mixed_corpus(
            f"fuzzy-{seed}", pool, round(self.N3 * scale), round(self.N4 * scale),
            lambda cells: hs.HyperOp(4, cells).is_hypersemigroup(),
        )
        rng = random.Random(f"perfbench-fuzzy:{seed}")
        inputs = []
        for order, cells, key in entries:
            def sub():
                return hs.FuzzySubset(corpus.fuzzy_values(rng, order))
            regular = key[0] == "1" if key else oracle.is_regular(cells, order)
            inputs.append((
                order, cells, key, hs.HyperOp(order, cells), rng.randrange(2 ** 32),
                [(sub(), sub(), sub()) for _ in range(self.TRIPLES)],
                (sub(), sub()) if regular else None,
            ))
        self.cursor = 0
        self.spot = []
        return inputs

    def call(self, hs, inputs, tally, tracer, jobs):
        if self.cursor >= len(inputs):
            return False
        order, cells, key, h, verify_seed, triples, pair = inputs[self.cursor]
        self.cursor += 1
        start = perf_counter()
        report = hs.verify_theorems(h, random_trials=self.TRIALS, seed=verify_seed)
        sides = [
            (hs.compose(h, hs.compose(h, f, g), k), hs.compose(h, f, hs.compose(h, g, k)))
            for f, g, k in triples
        ]
        if pair:
            right = hs.right_ideal_closure(h, pair[0])
            left = hs.left_ideal_closure(h, pair[1])
            meet = hs.check_meet_identity(h, right, left)
        tally.timed(1, perf_counter() - start)

        got = "".join("1" if c.verdict else "0" for c in report.checks)
        tally.combos[got] += 1
        tally.checks += sum(c.trials or 1 for c in report.checks) + len(sides) + bool(pair)
        problems = []
        if not report.passed:
            problems.append("verify_theorems failed")
        if key is not None and got != key:
            problems.append(f"verdicts {got}, recorded {key}")
        if any(a != b for a, b in sides):
            problems.append("composition not associative")
        if pair and not (pair[0].leq(right) and pair[1].leq(left) and meet):
            problems.append("ideal closure or meet identity failed")
        tally.check(problems)
        if key is None and len(self.spot) < self.SPOT:
            self.spot.append((order, cells, got))
        if tracer:
            trace_routes(hs, h, tracer)
        return True

    def finish(self, hs, inputs, tally):
        spot_check(self.spot, tally)

    def describe(self, inputs):
        shape = corpus_shape((entry[0], entry[2]) for entry in inputs)
        shape.update(trials_per_class=self.TRIALS, triples_per_table=self.TRIPLES,
                     closure_pairs=sum(entry[6] is not None for entry in inputs))
        return shape


def spot_check(spot: list, tally: Tally) -> None:
    """Re-decide unrecorded tables with the independent oracle."""
    for order, cells, got in spot:
        problems = []
        if not oracle.is_associative(cells, order):
            problems.append("package accepted a non-associative table")
        elif oracle.combination_key(cells, order) != got:
            problems.append(f"verdicts {got} disagree with the oracle")
        tally.check(problems)


def corpus_shape(entries) -> dict:
    by_order = Counter()
    failing = Counter()
    for order, key in entries:
        by_order[order] += 1
        if key is not None and key != corpus.ALL_CLASSES:
            failing[order] += 1
    return {"tables": sum(by_order.values()),
            "by_order": dict(sorted(by_order.items())),
            "recorded_failing_by_order": dict(sorted(failing.items()))}


WORKLOADS = {
    w.name: w
    for w in (CensusExhaustive(2), CensusSampled(), ClassifyCorpus(),
              FuzzyCalculus(), CensusExhaustive(3))
}


def digest(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def measure(w: Workload, hs, inputs, tally: Tally, seconds=None, limit=None,
            tracer=None) -> None:
    """Call ``w`` until the deadline, the call limit or its inputs run out.

    An exception from the package fails that call's check and the run goes
    on, so one bad output cannot hide the rest of the measurement.
    """
    deadline = perf_counter() + seconds if seconds is not None else float("inf")
    calls = 0
    # two samples cannot stand for the speed across one call of minutes,
    # so a single-call workload reports raw times
    calibrate = not w.single_call
    before = w.calibrate() if calibrate else None
    while perf_counter() < deadline and (limit is None or calls < limit):
        calls += 1
        timed = len(tally.latencies_ms)
        try:
            more = w.call(hs, inputs, tally, tracer, tally.jobs)
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            tally.check([f"{type(exc).__name__}: {exc}"])
            more = True
        local = 1.0
        if calibrate:
            after = w.calibrate()
            tally.slowness.extend([before, after])
            local = 2 / (before + after)
            before = after
        tally.scales.extend([local] * (len(tally.latencies_ms) - timed))
        if not more or w.single_call:
            break


@dataclass
class Stats:
    """The stretches of one traced run."""

    normal: Tally  # untraced, the workload's usual worker count
    serial: Tally  # untraced, census calls in this process
    traced: Tally
    tracer: Tracer
    others: list = field(default_factory=list)  # the probe's non-census stretches

    @property
    def tallies(self) -> list:
        stretches = (self.normal, self.serial, self.traced, *self.others)
        return list({id(t): t for t in stretches}.values())


def traced_run(w: Workload, hs, inputs, seconds: float) -> Stats:
    """Untraced stretches, then a traced one on the next inputs.

    A workload with a fan-out stretch runs a quarter untraced on its
    workers (for the fan-out efficiency) and a quarter in process; others
    run half untraced.  The traced half is in process, so the overhead
    compares like with like.
    """
    if w.fanout_jobs > 1:
        normal = Tally(jobs=w.fanout_jobs)
        measure(w, hs, inputs, normal, seconds / 4)
        serial = Tally()
        measure(w, hs, inputs, serial, seconds / 4)
    else:
        normal = serial = Tally(jobs=w.census_jobs)
        measure(w, hs, inputs, normal, seconds / 2)
    stats = Stats(normal, serial, Tally(), Tracer())
    with install(stats.tracer, hs):
        measure(w, hs, inputs, stats.traced, seconds / 2, tracer=stats.tracer)
    return stats


def core_probe(hs, seed, pool, tracer: Tracer, n: int = 2000) -> None:
    """Table construction, the associativity filter and the odometer, timed
    at the benchmark's own call sites on seeded order-3 tables."""
    rng = random.Random(f"perfbench-core:{seed}")
    first = rng.randrange(7 ** 9 - n)
    for index in range(first, first + n):
        cells = corpus.odometer_cells(3, index)
        with tracer.span("core.hyperop_init"):
            h = hs.HyperOp(3, cells)
        with tracer.span("core.assoc"):
            h.is_hypersemigroup()
    for cells, _ in rng.sample(pool, 300):
        h = hs.HyperOp(3, cells)
        with tracer.span("core.assoc_accept"):
            h.is_hypersemigroup()
    stream = hs.enumerate_hypergroupoids(3, allow_large=True)
    for _ in range(n):
        with tracer.span("enumeration.odometer"):
            next(stream)
    for i in range(300):
        hs.random_hypergroupoid(3, f"perfbench-probe-{seed}:{i}")


def probe(hs, seed, pool) -> Stats:
    """Small fixed traffic through every layer, for the layer metrics a
    workload's own traffic does not reach.  Runs in this process only; its
    census stretch is the order-2 exhaustive census on one process."""
    minis = [(CensusExhaustive(2), 2), (ClassifyCorpus(), 12), (FuzzyCalculus(), 6)]
    for w, _ in minis:
        w.census_jobs = w.fanout_jobs = 1
    built = [(w, w.build(hs, f"probe-{seed}", pool, scale=0.01), calls)
             for w, calls in minis]
    untraced = [Tally() for _ in minis]
    for (w, inputs, calls), tally in zip(built, untraced):
        measure(w, hs, inputs, tally, limit=calls)
    stats = Stats(untraced[0], untraced[0], Tally(), Tracer(), untraced[1:])
    with install(stats.tracer, hs):
        for w, inputs, calls in built:
            measure(w, hs, inputs, stats.traced, limit=calls, tracer=stats.tracer)
        core_probe(hs, seed, pool, stats.tracer)
    for (w, inputs, _), tally in zip(built, untraced):
        w.finish(hs, inputs, tally)
    return stats
