"""The README's library tour and the benchmark's patch sites stay in step
with the package."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import hypersemigroups

ROOT = Path(__file__).resolve().parents[1]


def test_readme_tour_runs_verbatim():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "01101\nTrue\n"


def test_benchmark_patch_sites_exist():
    # the tracer skips attributes the package no longer has, which would
    # turn per-layer metrics null without failing; fail here instead
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _, owners in tracing._targets(hypersemigroups) for site in owners]
    assert len(sites) == 31
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in sites
        if owner.__dict__.get(attr) is None
    ]
    assert missing == []
