from __future__ import annotations

import pytest

from hypersemigroups import HyperOp, TableParseError, parse_table, serialize_table

LEFT_ZERO_2 = """hypertable v1
order: 2
0 0: 0
0 1: 0
1 0: 1
1 1: 1
"""


def test_parse_order1_document():
    h = parse_table("hypertable v1\norder: 1\n0 0: 0\n")
    assert h == HyperOp.constant(1)


def test_left_zero_round_trips_byte_identically():
    h = parse_table(LEFT_ZERO_2)
    assert h == HyperOp.left_zero(2)
    assert serialize_table(h) == LEFT_ZERO_2


def test_serialize_is_canonical_fixed_point():
    for h in (HyperOp.full(3), HyperOp.right_zero(4), HyperOp.constant(2, 1)):
        text = serialize_table(h)
        assert serialize_table(parse_table(text)) == text
        assert text.endswith("\n")


def test_unsorted_or_duplicated_indices_normalize():
    text = "hypertable v1\norder: 2\n0 0: 1 0 1\n0 1: 0\n1 0: 1\n1 1: 0 1\n"
    h = parse_table(text)
    assert h.hyper_product(0, 0) == 0b11
    assert serialize_table(h).splitlines()[2] == "0 0: 0 1"


def test_names_line_is_checked_then_dropped():
    named = LEFT_ZERO_2.replace("order: 2\n", "order: 2\nnames: a b\n")
    h = parse_table(named)
    assert h == parse_table(LEFT_ZERO_2) == HyperOp.left_zero(2)
    assert serialize_table(h) == LEFT_ZERO_2


def test_trailing_blank_lines_tolerated():
    assert parse_table(LEFT_ZERO_2 + "\n\n") == HyperOp.left_zero(2)


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("", 1, "empty document"),
        ("hypertable v2\norder: 1\n0 0: 0\n", 1, "unknown version tag"),
        ("hypertable v1\nsize: 1\n0 0: 0\n", 2, "expected 'order: n'"),
        ("hypertable v1\norder: x\n0 0: 0\n", 2, "not an integer"),
        ("hypertable v1\norder: 0\n", 2, "positive"),
        ("hypertable v1\norder: 17\n", 2, "at most 16"),
        ("hypertable v1\norder: 1\n", 3, "expected 1 cell lines, got 0"),
        ("hypertable v1\norder: 1\n0 0: 0\n0 1: 0\n", 5, "expected 1 cell lines"),
        ("hypertable v1\norder: 2\nnames: a\n" + "0 0: 0\n" * 4, 3, "expected 2 names"),
        ("hypertable v1\norder: 1\n0 0:\n", 3, "empty hyperproduct at (0, 0)"),
        ("hypertable v1\norder: 1\n0 0: 1\n", 3, "element 1 out of range"),
        ("hypertable v1\norder: 1\n0 0 0\n", 3, "expected 'x y:"),
        ("hypertable v1\norder: 1\na b: 0\n", 3, "malformed cell position"),
        ("hypertable v1\norder: 1\n0 1: 0\n", 3, "expected cell (0, 0)"),
        ("hypertable v1\norder: 1\n0 0: q\n", 3, "malformed element index"),
        # numbers are ASCII digit strings, whatever else int() would accept
        pytest.param(
            "hypertable v1\norder: 16\n0 0: 1_0\n" + "0 0: 0\n" * 255, 3,
            "malformed element index", id="underscored-element",
        ),
        ("hypertable v1\norder: 1\n0 0: +0\n", 3, "malformed element index"),
        ("hypertable v1\norder: 1\n0 -0: 0\n", 3, "malformed cell position"),
        ("hypertable v1\norder: 2\n0 0: \uff11\n0 1: 0\n1 0: 0\n1 1: 0\n", 3,
         "malformed element index"),
        ("hypertable v1\norder: \u0662\n" + "0 0: 0\n" * 4, 2, "not an integer"),
    ],
)
def test_parse_errors_name_the_offending_line(text, line_no, fragment):
    with pytest.raises(TableParseError) as exc:
        parse_table(text)
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert f"line {line_no}:" in str(exc.value)
