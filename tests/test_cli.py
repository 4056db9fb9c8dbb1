from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypersemigroups
from hypersemigroups import HyperOp, serialize_table
from hypersemigroups.cli import main

from .util import NON_ASSOCIATIVE_2


@pytest.fixture
def table_file(tmp_path):
    def write(h, name="table.txt"):
        path = tmp_path / name
        path.write_text(serialize_table(h), encoding="utf-8")
        return str(path)

    return write


def test_classify_constant_table(table_file, capsys):
    assert main(["classify", table_file(HyperOp.constant(2))]) == 0
    out = capsys.readouterr().out
    for cls in ("regular", "intra-regular", "left quasi-regular",
                "right quasi-regular", "semisimple"):
        assert f"{cls}: no" in out
    assert "all routes agree: yes" in out


def test_classify_json_carries_the_same_verdicts(table_file, capsys):
    path = table_file(HyperOp.left_zero(2))
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_routes_agree"] is True
    assert [c["verdict"] for c in data["classes"]] == [True] * 5
    assert main(["classify", path]) == 0
    text = capsys.readouterr().out
    assert "regular: yes" in text


def test_classify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "hypertable v1\norder: 2\n0 0: 0\n0 1:\n1 0: 0\n1 1: 0\n", encoding="utf-8"
    )
    assert main(["classify", str(bad)]) == 2
    assert "empty hyperproduct" in capsys.readouterr().err
    assert main(["classify", str(tmp_path / "missing.txt")]) == 2


def test_classify_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"hypertable v1\norder: 1\n0 0: 0 \xe9\n")
    for command in ("classify", "verify"):
        assert main([command, str(bad)]) == 2
        assert "line 3: not UTF-8 text" in capsys.readouterr().err
    assert main(["compose", str(bad), "--f", "1", "--g", "1"]) == 2
    assert main(["ideals", str(bad), "--f", "1"]) == 2


def test_classify_order_above_cap_exits_2(tmp_path, table_file, capsys):
    bad = tmp_path / "big.txt"
    bad.write_text("hypertable v1\norder: 17\n0 0: 0\n", encoding="utf-8")
    assert main(["classify", str(bad)]) == 2
    assert "line 2: order must be positive and at most 16" in capsys.readouterr().err
    # a valid table file, but subset-2 stops at order 12
    path = table_file(HyperOp.constant(13))
    for command in ("classify", "verify"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variant 2 walks 2^13 subsets; cap is order 12\n"


def test_classify_non_associative_exits_3(table_file, capsys):
    assert main(["classify", table_file(NON_ASSOCIATIVE_2)]) == 3
    assert "not a hypersemigroup" in capsys.readouterr().err


def test_verify_passes_on_left_zero(table_file, capsys):
    assert main(["verify", table_file(HyperOp.left_zero(2)), "--trials", "50"]) == 0
    assert "result: pass" in capsys.readouterr().out


def test_verify_json_is_the_report(table_file, capsys):
    h = HyperOp.full(2)
    assert main(["verify", table_file(h), "--trials", "20", "--seed", "j", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = hypersemigroups.verify_theorems(h, random_trials=20, seed="j")
    assert json.loads(captured.out) == expected.to_dict()
    assert expected.passed


def test_verify_rejects_negative_trials(table_file, capsys):
    assert main(["verify", table_file(HyperOp.left_zero(2)), "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert "trials must be nonnegative" in captured.err
    assert "result:" not in captured.out


def test_verify_non_associative_exits_3(table_file):
    assert main(["verify", table_file(NON_ASSOCIATIVE_2)]) == 3


def test_verify_exit_1_when_a_counterexample_is_reported(
    table_file, monkeypatch, capsys
):
    # a real counterexample would refute a theorem, so force one through
    # the report to pin the exit-code mapping
    import hypersemigroups.cli as cli_mod
    from hypersemigroups import FuzzySubset, RegularityClass
    from hypersemigroups.classify import TheoremCheck, VerificationReport

    failing = VerificationReport(
        order=2,
        checks=(
            TheoremCheck(
                cls=RegularityClass.REGULAR,
                routes_agree=True,
                verdict=True,
                trials=1,
                counterexample=FuzzySubset([1, 0]),
            ),
        ),
    )
    monkeypatch.setattr(cli_mod, "verify_theorems", lambda *a, **k: failing)
    assert main(["verify", table_file(HyperOp.left_zero(2))]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_census_exit_1_when_routes_disagree(monkeypatch, capsys):
    import hypersemigroups.cli as cli_mod
    from hypersemigroups import CLASS_ORDER
    from hypersemigroups.enumeration import CensusReport

    disagreeing = CensusReport(
        order=2,
        mode="exhaustive",
        tables_seen=81,
        hypersemigroups=30,
        class_counts={cls.value: 30 for cls in CLASS_ORDER},
        combination_counts={"11111": 30},
        route_disagreements=1,
    )
    monkeypatch.setattr(cli_mod, "census", lambda *a, **k: disagreeing)
    assert main(["census", "--order", "2", "--exhaustive"]) == 1
    assert "route disagreements: 1" in capsys.readouterr().out


def test_unexpected_error_exits_4_with_one_error_line(
    table_file, monkeypatch, capsys
):
    import hypersemigroups.cli as cli_mod

    def broken(h):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli_mod, "classify", broken)
    code = main(["classify", table_file(HyperOp.left_zero(2))])
    assert code == cli_mod.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: internal error: ZeroDivisionError: boom")


def test_census_progress_goes_to_stderr_only(monkeypatch, capsys):
    import hypersemigroups.cli as cli_mod

    report = hypersemigroups.census(1, exhaustive=True)

    def stub(order, **kwargs):
        kwargs["progress"](3, 7)
        return report

    monkeypatch.setattr(cli_mod, "census", stub)
    assert main(["census", "--order", "3", "--exhaustive"]) == 0
    captured = capsys.readouterr()
    assert captured.out == report.render()
    assert captured.err == "census progress: 3/7 tables\n"


@pytest.mark.parametrize("order", ["0", "99"])
def test_census_sampled_impossible_order_exits_2(order, capsys):
    assert main(["census", "--order", order, "--sample", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order must be between 1 and 16, got {order}\n"


def test_census_order2_exhaustive(capsys):
    assert main(["census", "--order", "2", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "tables seen: 81" in out
    assert "hypersemigroups: 30" in out
    assert "route disagreements: 0" in out


def test_census_order1_json(capsys):
    assert main(["census", "--order", "1", "--exhaustive", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hypersemigroups"] == 1
    assert data["combination_counts"] == {"11111": 1}


def test_census_rejects_bad_mode(capsys):
    assert main(["census", "--order", "2"]) == 2
    assert main(["census", "--order", "2", "--exhaustive", "--sample", "5"]) == 2
    assert main(["census", "--order", "4", "--exhaustive"]) == 2


def test_compose_prints_exact_rationals(table_file, capsys):
    path = table_file(HyperOp.full(2))
    code = main(["compose", path, "--f", "3/10,7/10", "--g", "5/10,2/10"])
    assert code == 0
    assert capsys.readouterr().out == "1/2, 1/2\n"


def test_compose_rejects_wrong_arity_and_bad_values(table_file, capsys):
    path = table_file(HyperOp.full(2))
    assert main(["compose", path, "--f", "1", "--g", "0,1"]) == 2
    assert main(["compose", path, "--f", "1,nope", "--g", "0,1"]) == 2
    assert main(["compose", path, "--f", "3/2,0", "--g", "0,1"]) == 2
    assert main(["compose", path, "--f", "1e-5000,0", "--g", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(
        "error: membership degree '1e-5000' is not p/q"
    )


def test_ideals_output(table_file, capsys):
    path = table_file(HyperOp.left_zero(2))
    assert main(["ideals", path, "--f", "1/2,1"]) == 0
    out = capsys.readouterr().out
    assert "fuzzy right ideal: yes" in out
    assert "fuzzy left ideal: no" in out
    assert "right ideal closure: 1/2, 1" in out


def test_census_large_exhaustive_order_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["census", "--order", "400", "--exhaustive"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exhaustive enumeration stops at order 3, got order 400\n"
    )


def test_classify_output_ignores_names_line(tmp_path, capsys):
    text = serialize_table(HyperOp.left_zero(2))
    named = tmp_path / "named.txt"
    named.write_text(text.replace("order: 2\n", "order: 2\nnames: a b\n"))
    plain = tmp_path / "plain.txt"
    plain.write_text(text)
    outputs = []
    for path in (plain, named):
        for extra in ([], ["--json"]):
            assert main(["classify", str(path), *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
    assert outputs[:2] == outputs[2:]


def _child_env() -> dict:
    # the child runs the package this test imported, installed or not
    src = str(Path(hypersemigroups.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hypersemigroups", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_closed_stdout_exits_141_silently():
    # the child reads its table from stdin, so it cannot print before the
    # read end of its stdout pipe is closed
    table = serialize_table(HyperOp.full(3)).encode()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypersemigroups", "classify", "/dev/stdin", "--json"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(table, timeout=60)
    assert proc.returncode == 141
    assert err == b""
