"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.  The last line
of standard output is one JSON object; the full record (environment, input
sizes, traffic, span aggregates, failures) goes to perfbench/out/.  The
workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3


def import_package():
    """Import the package from this checkout's src/; exit 1 without it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    try:
        hs = importlib.import_module("hypersemigroups")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the package from {src}: {exc}")
    import_s = perf_counter() - start
    if src.resolve() not in Path(hs.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {hs.__file__}, not the checkout's copy")
    return hs, import_s


def check_declared() -> None:
    """Exit 1 when BENCHMARK.json and metrics.py name different metrics."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        want = [(m["name"], m["unit"], m["better"]) for m in declared.get(key, [])]
        have = [row[:3] for row in table]
        if want != have:
            raise SystemExit(f"perfbench: BENCHMARK.json {key} does not match metrics.py")


def environment() -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": workloads.NPROC,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(w, hs, seed, pool) -> dict:
    """Build the inputs several times, calibrating around each build.

    The builds must be byte-identical.  Returns the last one with the
    median raw and scaled build times and the digest check.
    """
    raw, scaled, digests = [], [], []
    calibration = [w.calibrate()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = w.build(hs, seed, pool)
        raw.append(perf_counter() - start)
        calibration.append(w.calibrate())
        scaled.append(raw[-1] * 2 / sum(calibration[-2:]))
        digests.append(workloads.digest(inputs))
    return {
        "inputs": inputs,
        "build_s": statistics.median(raw),
        "build_scaled_s": statistics.median(scaled),
        "import_scale": 1 / calibration[0],
        "digest": digests[0],
        "problems": [] if len(set(digests)) == 1 else ["one seed built different inputs"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    hs, import_s = import_package()
    check_declared()
    w = workloads.WORKLOADS[args.workload]
    pool = corpus.load_o3_pool()
    built = setup(w, hs, args.seed, pool)
    inputs = built["inputs"]
    setup_raw_s = import_s + built["build_s"]
    setup_s = import_s * built["import_scale"] + built["build_scaled_s"]
    # the inputs and the order-3 pool stay alive for the whole run; keep the
    # collector from walking them during the package's calls
    gc.collect()
    gc.freeze()

    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": {"sha256": built["digest"], **w.describe(inputs)},
        "setup": {"import_s": import_s, "build_s_median": built["build_s"],
                  "builds": SETUP_REPEATS},
    }
    if args.trace:
        stats = workloads.traced_run(w, hs, inputs, args.seconds)
        w.finish(hs, inputs, stats.normal)
        probe = workloads.probe(hs, args.seed, pool)
        tallies = stats.tallies + probe.tallies
        values, source = {}, {}
        for name, unit, _, compute in metrics.PER_LAYER:
            value, where = compute(stats), "workload"
            if value is None:
                value, where = compute(probe), "probe"
            values[name] = (value, unit)
            source[name] = where
        record["layer_source"] = source
        record["spans"] = {"workload": stats.tracer.summary(),
                           "probe": probe.tracer.summary()}
        stretches = [("untraced", stats.normal), ("traced", stats.traced)]
        if stats.serial is not stats.normal:
            stretches.insert(1, ("untraced_in_process", stats.serial))
        record["stretches"] = {label: tally_summary(t) for label, t in stretches}
    else:
        tally = workloads.Tally(jobs=w.census_jobs)
        workloads.measure(w, hs, inputs, tally, args.seconds)
        w.finish(hs, inputs, tally)
        tallies = [tally]
        scaled = tally.scaled_ms()
        values = {name: (compute(setup_s, tally, scaled), unit)
                  for name, unit, _, compute in metrics.END_TO_END}
        record["raw_metrics"] = {name: compute(setup_raw_s, tally, tally.latencies_ms)
                                 for name, _, _, compute in metrics.END_TO_END}
        if w.single_call:
            values["wall_s"] = (scaled[0] / 1e3, "s")
            values["progress_gap_max_s"] = (tally.progress_gaps_s[0] * tally.scales[0], "s")
        record["stretches"] = {"untraced": tally_summary(tally)}

    attempted = 1 + sum(t.attempted for t in tallies)
    failures = built["problems"] + [f for t in tallies for f in t.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    record["failures"] = failures[:50]
    record["result"] = result
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for label, t in record["stretches"].items():
        print(f"{w.name} {label}: {json.dumps(t['traffic'])}")
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def tally_summary(t) -> dict:
    return {
        "jobs": t.jobs,
        "calls": len(t.latencies_ms),
        "items": t.items,
        "busy_s": t.busy_s,
        "calibration_samples": len(t.slowness),
        "speed_scale": t.scale,
        "checks_attempted": t.attempted,
        "checks_failed": len(t.failures),
        "traffic": {
            "combination_counts": dict(sorted(t.combos.items())),
            "classified": sum(t.combos.values()),
            "fail_share": metrics.fail_share(t.combos),
            "fuzzy_checks": t.checks,
            "census_tables_seen": t.census_seen,
            "census_hypersemigroups": t.census_hyper,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
