from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypersemigroups
from hypersemigroups import HyperOp, serialize_table
from hypersemigroups.cli import main

from .util import NON_ASSOCIATIVE_2, flipping_routes, o3_pool_failing


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


def test_table_file_with_a_byte_order_mark_reads_as_the_plain_file(
    tmp_path, table_file, capsys
):
    plain = table_file(HyperOp.left_zero(2))
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    outputs = []
    for path in (plain, str(bom)):
        for argv in (["classify", path], ["classify", path, "--json"]):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
    assert outputs[:2] == outputs[2:]
    # the mark is not text: line numbers still count from the first line
    bom.write_bytes(b"\xef\xbb\xbfhypertable v1\norder: 1\n0 0: 0 \xe9\n")
    assert main(["classify", str(bom)]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"


def test_table_file_over_the_read_limit_exits_2(tmp_path, capsys):
    limit = 1 << 20
    table = serialize_table(HyperOp.left_zero(2)).encode()
    path = tmp_path / "padded.txt"
    # blank lines after the last cell parse; only the size is refused
    path.write_bytes(table + b"\n" * (limit - len(table)))
    assert main(["classify", path.as_posix()]) == 0
    capsys.readouterr()
    path.write_bytes(table + b"\n" * (limit + 1 - len(table)))
    for command in ("classify", "verify"):
        assert main([command, path.as_posix()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table file is over 1048576 bytes\n"


def test_classify_order_above_cap_exits_2(tmp_path, table_file, capsys):
    bad = tmp_path / "big.txt"
    bad.write_text("hypertable v1\norder: 17\n0 0: 0\n", encoding="utf-8")
    assert main(["classify", str(bad)]) == 2
    assert "line 2: order must be between 1 and 16, got 17" in capsys.readouterr().err
    # order 16 is the one cap: every command decides order 13
    for h in (HyperOp.full(13), HyperOp.constant(13)):
        path = table_file(h)
        for argv, last in (
            (["classify", path], "all routes agree: yes"),
            (["verify", path, "--trials", "2"], "result: pass"),
        ):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.splitlines()[-1] == last


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


def test_verify_names_a_failure_that_did_not_reverify(
    table_file, monkeypatch, capsys
):
    import hypersemigroups.cli as cli_mod
    from hypersemigroups import RegularityClass
    from hypersemigroups.classify import TheoremCheck, VerificationReport

    failing = VerificationReport(
        order=2,
        checks=(
            TheoremCheck(
                cls=RegularityClass.REGULAR,
                routes_agree=True,
                verdict=False,
                trials=0,
                failure_reverified=False,
            ),
        ),
    )
    monkeypatch.setattr(cli_mod, "verify_theorems", lambda *a, **k: failing)
    assert main(["verify", table_file(HyperOp.constant(2))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "order: 2",
        "regular: verdict=no routes_agree=yes trials=0"
        " failure-witness-did-not-reverify",
        "result: FAIL",
    ]


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


def test_census_exit_1_when_every_table_disagrees(monkeypatch, capsys):
    # the real census, with the fuzzy verdict of one class flipped per table
    from hypersemigroups import enumeration

    monkeypatch.setattr(enumeration, "classify", flipping_routes(enumeration.classify, 1))
    assert main(["census", "--order", "2", "--exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "route disagreements: 30"
    assert captured.err == ""


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


def test_interrupt_exits_130_with_one_error_line(monkeypatch, capsys):
    import hypersemigroups.cli as cli_mod

    def interrupted(order, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "census", interrupted)
    try:
        code = main(["census", "--order", "3", "--exhaustive", "--jobs", "2"])
    except KeyboardInterrupt:  # escaping main would stop pytest itself
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == cli_mod.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: interrupted"]


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


def test_census_sampled_prints_progress_per_range(capsys):
    assert main(["census", "--order", "3", "--sample", "32", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == hypersemigroups.census(3, sample=32, seed=1).render()
    lines = captured.err.splitlines()
    assert len(lines) == 16
    assert all(line.startswith("census progress: ") for line in lines)
    assert lines[-1].endswith(" 32/32 tables")


@pytest.mark.parametrize("order", ["0", "99"])
def test_census_sampled_impossible_order_exits_2(order, capsys):
    assert main(["census", "--order", order, "--sample", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order must be between 1 and 16, got {order}\n"


def test_census_order0_same_error_in_both_modes(capsys):
    errors = []
    for mode in (["--exhaustive"], ["--sample", "0"]):
        assert main(["census", "--order", "0", *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: order must be between 1 and 16, got 0\n"] * 2


def test_census_order2_exhaustive(capsys):
    assert main(["census", "--order", "2", "--exhaustive"]) == 0
    out, err = capsys.readouterr()
    assert err == ""  # too quick to need progress
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


def test_degrees_in_other_scripts_digits_exit_2(table_file, capsys):
    path = table_file(HyperOp.full(2))
    assert main(["compose", path, "--f", "1/2,1", "--g", "0,\u0967"]) == 2
    assert main(["ideals", path, "--f", "\u0660.\u0665,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: membership degree '\u0967' is not p/q with q > 0, "
        "an integer or a plain decimal",
        "error: membership degree '\u0660.\u0665' is not p/q with q > 0, "
        "an integer or a plain decimal",
    ]


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


def test_classify_exits_1_when_routes_disagree(table_file, monkeypatch, capsys):
    import hypersemigroups.cli as cli_mod

    flipped = flipping_routes(cli_mod.classify, 1)
    monkeypatch.setattr(cli_mod, "classify", flipped)
    h = HyperOp.left_zero(2)
    report = flipped(h)
    assert not report.all_routes_agree
    path = table_file(h)
    assert main(["classify", path]) == 1
    assert capsys.readouterr().out == report.render()
    assert main(["classify", path, "--json"]) == 1
    assert capsys.readouterr().out == (
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def test_classify_and_verify_print_their_reports_render(
    order2_hypersemigroups, table_file, capsys
):
    tables = order2_hypersemigroups + o3_pool_failing()
    assert len(tables) == 30 + 501
    for i, h in enumerate(tables):
        path = table_file(h)
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out == hypersemigroups.classify(h).render()
        seed = f"render:{i}"
        assert main(["verify", path, "--trials", "20", "--seed", seed]) == 0
        expected = hypersemigroups.verify_theorems(h, random_trials=20, seed=seed)
        assert capsys.readouterr().out == expected.render()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the patched classify",
)
def test_census_worker_error_names_the_raising_frame(monkeypatch, capsys):
    from hypersemigroups import enumeration

    def broken(h):
        raise RuntimeError("injected")

    monkeypatch.setattr(enumeration, "classify", broken)
    code = main(["census", "--order", "2", "--exhaustive", "--jobs", "2"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal error: RuntimeError: injected "
        f"(at test_cli.py:{broken.__code__.co_firstlineno + 1})\n"
    )
