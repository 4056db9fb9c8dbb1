"""The flat-file table format and its canonical serialization.

Canonical form::

    hypertable v1
    order: 2
    0 0: 0
    0 1: 0 1
    1 0: 1
    1 1: 0

One line per cell in row-major order, element indices ascending, single
spaces, newline-terminated; every number is ASCII digits ``[0-9]+``.  An
optional ``names:`` line after ``order:`` is accepted and checked (one name
per element) but not kept: parsing yields a bare ``HyperOp`` and
serialization never writes names.
"""

from __future__ import annotations

from .core import MAX_ORDER, HyperOp, mask_elements

FORMAT_HEADER = "hypertable v1"


class TableParseError(ValueError):
    """A malformed table document; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _number(token: str) -> int:
    # [0-9]+ only: int() alone also takes signs, underscores and non-ASCII digits
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_table(text: str) -> HyperOp:
    """Parse a table document into a HyperOp; a ``names:`` line is checked
    (one name per element) and dropped."""
    lines = text.splitlines()
    # trailing blank lines are tolerated, nothing else is
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise TableParseError(1, "empty document")
    if lines[0].strip() != FORMAT_HEADER:
        raise TableParseError(1, f"unknown version tag {lines[0].strip()!r}")
    if len(lines) < 2 or not lines[1].startswith("order:"):
        raise TableParseError(2, "expected 'order: n'")
    try:
        order = _number(lines[1][len("order:") :].strip())
    except ValueError:
        raise TableParseError(2, "order is not an integer") from None
    if not 1 <= order <= MAX_ORDER:
        raise TableParseError(
            2, f"order must be positive and at most {MAX_ORDER}, got {order}"
        )

    body_start = 2
    if len(lines) > 2 and lines[2].startswith("names:"):
        names = lines[2][len("names:") :].split()
        if len(names) != order:
            raise TableParseError(3, f"expected {order} names, got {len(names)}")
        body_start = 3

    cell_lines = lines[body_start:]
    if len(cell_lines) != order * order:
        raise TableParseError(
            body_start + len(cell_lines) + 1,
            f"expected {order * order} cell lines, got {len(cell_lines)}",
        )

    cells = []
    for i, raw in enumerate(cell_lines):
        line_no = body_start + i + 1
        head, sep, tail = raw.partition(":")
        if not sep:
            raise TableParseError(line_no, "expected 'x y: e1 e2 ...'")
        try:
            x, y = (_number(tok) for tok in head.split())
        except ValueError:
            raise TableParseError(line_no, "malformed cell position") from None
        if (x, y) != (i // order, i % order):
            raise TableParseError(
                line_no, f"expected cell ({i // order}, {i % order}), got ({x}, {y})"
            )
        toks = tail.split()
        if not toks:
            raise TableParseError(line_no, f"empty hyperproduct at ({x}, {y})")
        try:
            members = [_number(tok) for tok in toks]
        except ValueError:
            raise TableParseError(line_no, "malformed element index") from None
        mask = 0
        for e in members:
            if not 0 <= e < order:
                raise TableParseError(
                    line_no, f"element {e} out of range for order {order}"
                )
            mask |= 1 << e
        cells.append(mask)
    return HyperOp(order, cells)


def serialize_table(h: HyperOp) -> str:
    """Canonical text form of a table; bit-exact and round-trip stable."""
    n = h.order
    out = [FORMAT_HEADER, f"order: {n}"]
    out.extend(
        f"{i // n} {i % n}: " + " ".join(str(e) for e in mask_elements(m))
        for i, m in enumerate(h.cells)
    )
    return "\n".join(out) + "\n"
