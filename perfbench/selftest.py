"""Self-test of the benchmark's seeding and correctness gates.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that one seed builds
byte-identical inputs and another seed different ones, and that each
workload's gate counts a deliberately wrong output as a failure: a census
report with a combination count altered, a classification whose routes
disagree or whose verdict is wrong, a broken composition, a failed meet
identity, an exception.  Exits 1 when any of these does not hold.
"""

from __future__ import annotations

import sys

import run
import workloads


class Tampered:
    """The package, with some public functions replaced."""

    def __init__(self, hs, **replacements):
        self._hs = hs
        self.__dict__.update(replacements)

    def __getattr__(self, name):
        return getattr(self._hs, name)


def _gate_cases(hs):
    def census_count_altered(*args, **kwargs):
        report = hs.census(*args, **kwargs)
        key = next(iter(report.combination_counts))
        report.combination_counts[key] += 1
        return report

    def routes_disagree(h):
        report = hs.classify(h)
        report.classes[hs.CLASS_ORDER[0]].fuzzy ^= True
        return report

    def verdict_flipped(h):
        # all four routes agree on the wrong answer for semisimple
        report = hs.classify(h)
        cr = report.classes[hs.CLASS_ORDER[-1]]
        for route in ("elementwise", "subset_singleton", "subset_all", "fuzzy"):
            setattr(cr, route, not getattr(cr, route))
        return report

    def counterexample_found(h, **kwargs):
        report = hs.verify_theorems(h, **kwargs)
        report.checks[0].counterexample = hs.one(h.order)
        return report

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    sampled, exhaustive = workloads.CensusSampled(), workloads.CensusExhaustive(2)
    classify, fuzzy = workloads.ClassifyCorpus(), workloads.FuzzyCalculus()
    return [
        ("sampled census, count altered", sampled, dict(census=census_count_altered)),
        ("exhaustive census, count altered", exhaustive, dict(census=census_count_altered)),
        ("exhaustive census, crash", exhaustive, dict(census=crash)),
        ("classify, routes disagree", classify, dict(classify=routes_disagree)),
        ("classify, wrong verdict", classify, dict(classify=verdict_flipped)),
        ("classify, crash", classify, dict(parse_table=crash)),
        ("fuzzy, counterexample", fuzzy, dict(verify_theorems=counterexample_found)),
        ("fuzzy, composition broken", fuzzy,
         dict(compose=lambda h, f, g: hs.compose(h, f, f))),
        ("fuzzy, meet identity fails", fuzzy,
         dict(check_meet_identity=lambda h, f, g: False)),
    ]


def failures_on(w, hs, package, pool, calls: int = 40) -> int:
    # the first 40 shuffled corpus tables hold order-3 and order-4 ones
    inputs = w.build(hs, 7, pool)
    tally = workloads.Tally()
    workloads.measure(w, package, inputs, tally, limit=calls)
    w.finish(package, inputs, tally)
    return len(tally.failures)


def main() -> int:
    hs, _ = run.import_package()
    pool = run.corpus.load_o3_pool()
    problems = []

    for name, w in workloads.WORKLOADS.items():
        if name == "census-exhaustive-o3":
            continue
        one = workloads.digest(w.build(hs, 1, pool))
        again = workloads.digest(w.build(hs, 1, pool))
        other = workloads.digest(w.build(hs, 2, pool))
        if one != again:
            problems.append(f"{name}: seed 1 built different inputs twice")
        seeded = not isinstance(w, workloads.CensusExhaustive)
        if seeded and one == other:
            problems.append(f"{name}: seeds 1 and 2 built the same inputs")
        print(f"seed: {name}: repeatable, {'seed-dependent' if seeded else 'not seeded'}")

    for w in {type(w): w for _, w, _ in _gate_cases(hs)}.values():
        if failures_on(w, hs, hs, pool):
            problems.append(f"{w.name}: the untampered package failed its gate")
    for label, w, replacements in _gate_cases(hs):
        caught = failures_on(w, hs, Tampered(hs, **replacements), pool)
        print(f"gate: {label}: {caught} failures counted")
        if not caught:
            problems.append(f"gate missed: {label}")

    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
