"""Mutation check: break each route and oracle in one place and require
that the named tests then fail.

Run from anywhere, after the tests pass::

    python tests/mutants.py

pytest does not collect this file.  For each mutant the script copies the
checkout (without ``.git``) to a fresh temporary directory,
asserts that the old text occurs exactly once in the named file (so a stale
mutant fails loudly), applies the new text and runs the named tests there
with ``pytest -x``.  A mutant is killed when a test fails or the run hangs
past ``TIMEOUT_S``.  Before the mutants, the same tests must pass on an
unmutated copy that imports the package from its own ``src/``.  The script
exits 1 unless every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/hypersemigroups/"
TIMEOUT_S = 60

# (name, file, exact old text, new text, test ids that must fail)
MUTANTS = [
    (
        "max for min in the sup-min kernel",
        PKG + "fuzzy.py",
        "best |= fc[y] & gc[z]",
        "best |= fc[y] | gc[z]",
        ["tests/test_fuzzy.py"],
    ),
    (
        "fuzzy sweep skips element 0",
        PKG + "classify.py",
        "    for a in range(h.order):\n        f = point(h.order, a)",
        "    for a in range(1, h.order):\n        f = point(h.order, a)",
        ["tests/test_classify.py"],
    ),
    (
        "associativity filter skips the last z",
        PKG + "core.py",
        "            for z in rng:\n                left = 0",
        "            for z in range(order - 1):\n                left = 0",
        ["tests/test_core.py"],
    ),
    (
        "ideal step swaps its operands",
        PKG + "ideals.py",
        "compose(h, g, top) if right else compose(h, top, g)",
        "compose(h, top, g) if right else compose(h, g, top)",
        ["tests/test_ideals.py"],
    ),
    (
        "census drops its first partition",
        PKG + "enumeration.py",
        "(_census_part, parts)",
        "(_census_part, parts[1:])",
        ["tests/test_enumeration.py"],
    ),
    (
        "REGULAR template swaps a factor",
        PKG + "classify.py",
        "lambda p, s, x: p(p(s, x), s)",
        "lambda p, s, x: p(p(x, s), s)",
        ["tests/test_classify.py"],
    ),
    (
        "verify compares the fuzzy failure with itself",
        PKG + "classify.py",
        'fuzzy_subset=point(h.order, a)),',
        'fuzzy_subset=cr.witnesses[-1].fuzzy_subset),',
        ["tests/test_classify.py"],
    ),
    (
        "subset-2 walks the singletons only",
        PKG + "classify.py",
        "s_masks = range(1, 1 << h.order) if variant == 2 else singletons",
        "s_masks = singletons",
        ["tests/test_classify.py::test_subset2_walks_every_nonempty_mask"],
    ),
    (
        "a class report's routes always agree",
        PKG + "classify.py",
        "    def routes_agree(self) -> bool:\n        return (",
        "    def routes_agree(self) -> bool:\n        return True or (",
        ["tests/test_classify.py::test_a_flipped_route_is_a_disagreement"],
    ),
    (
        "a classification's routes always agree",
        PKG + "classify.py",
        "return all(r.routes_agree for r in self.classes.values())",
        "return True",
        ["tests/test_classify.py::test_a_flipped_route_is_a_disagreement"],
    ),
    (
        "verify records that the routes agree",
        PKG + "classify.py",
        "routes_agree=cr.routes_agree,",
        "routes_agree=True,",
        ["tests/test_classify.py::test_verify_fails_a_class_whose_routes_disagree"],
    ),
    (
        "a theorem check passes whatever the routes say",
        PKG + "classify.py",
        "self.routes_agree\n            and self.counterexample is None",
        "self.counterexample is None",
        ["tests/test_classify.py::test_verify_fails_a_class_whose_routes_disagree"],
    ),
    (
        "census counts no disagreement",
        PKG + "enumeration.py",
        "disagreements += sum(not cr.routes_agree for cr in report.classes.values())",
        "disagreements += 0",
        ["tests/test_enumeration.py::test_census_counts_every_disagreeing_class"],
    ),
    (
        "the shared report tail ignores its verdict",
        PKG + "cli.py",
        "return EXIT_OK if clean else EXIT_FOUND",
        "return EXIT_OK",
        ["tests/test_cli.py::test_classify_exits_1_when_routes_disagree"],
    ),
]

# appended to the copy's conftest: the tests must import the copy's package
IMPORT_PROBE = """
import pathlib as _pathlib
import hypersemigroups as _probed
assert _pathlib.Path(_probed.__file__).resolve().is_relative_to(
    _pathlib.Path(__file__).resolve().parents[1] / "src"
), f"tests import {_probed.__file__}, not the copy"
"""


def _copy_tree(dest: Path) -> None:
    # the whole checkout: the tests also read perfbench/data and the docs
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT, dest, ignore=skip)
    conftest = dest / "tests" / "conftest.py"
    text = conftest.read_text(encoding="utf-8")
    conftest.write_text(text + IMPORT_PROBE, encoding="utf-8")


def _pytest(tree: Path, tests: list[str]) -> tuple[str, float, str]:
    """Run ``tests`` in ``tree``: 'pass', 'fail', 'timeout' or 'error', the
    seconds taken and the tail of pytest's output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={tree / 'src'}", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    # pytest exits 1 when tests failed; any other code is a broken run
    outcome = {0: "pass", 1: "fail"}.get(done.returncode, "error")
    return outcome, time.perf_counter() - start, (done.stdout + done.stderr)[-3000:]


def main() -> int:
    all_tests = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        outcome, seconds, output = _pytest(clean, all_tests)
    print(f"unmutated copy: {outcome} ({seconds:.1f} s)")
    if outcome != "pass":
        print(output, file=sys.stderr)
        return 1
    survivors = 0
    for i, (name, rel, old, new, tests) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            _copy_tree(tree)
            path = tree / rel
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"mutant {i} ({name}): old text occurs {text.count(old)} "
                      f"times in {rel}, expected once", file=sys.stderr)
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            outcome, seconds, output = _pytest(tree, tests)
        killed = outcome in ("fail", "timeout")
        survivors += not killed
        print(f"mutant {i} ({name}): {'killed' if killed else 'SURVIVED'} "
              f"[{outcome}, {seconds:.1f} s]")
        if outcome == "error":
            print(output, file=sys.stderr)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
