"""Command-line surface.

Exit codes, mapped from exceptions in ``main`` alone: 0 clean run, 1
``classify``, ``verify`` or ``census`` found a counterexample or a route
disagreement, 2 input/usage error (any ``ValueError``: parse failures and
every argument the library refuses), 3 the input table is not a
hypersemigroup where one is required, 4 an unexpected internal error, 130
(128 + SIGINT) the run was interrupted, e.g. by Ctrl-C, with one
``error: interrupted`` line, 141 (128 + SIGPIPE) stdout was closed early,
e.g. by ``| head``, and nothing is printed.  All diagnostics go to stderr.
A table file over ``MAX_TABLE_BYTES`` bytes is refused.  ``--f`` and
``--g`` take ``p/q``, integers or plain decimals in ASCII digits, not
exponent notation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from .classify import _yes, classify, verify_theorems
from .core import CarrierMismatchError, HyperOp, NotAssociativeError
from .enumeration import census
from .fuzzy import FuzzySubset, compose
from .ideals import (
    is_fuzzy_left_ideal,
    is_fuzzy_right_ideal,
    left_ideal_closure,
    right_ideal_closure,
)
from .tableio import TableParseError, parse_table

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_INPUT = 2
EXIT_NOT_ASSOCIATIVE = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # what a shell reports for a run stopped by SIGINT
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE
MAX_TABLE_BYTES = 1 << 20  # a canonical order-16 table is about 12 KB


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_table(path: str) -> HyperOp:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_TABLE_BYTES + 1)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    if len(data) > MAX_TABLE_BYTES:
        raise ValueError(f"table file is over {MAX_TABLE_BYTES} bytes")
    data = data.removeprefix(b"\xef\xbb\xbf")  # drop a UTF-8 byte-order mark
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TableParseError(line_no, "not UTF-8 text") from None
    return parse_table(text)


def _parse_fuzzy(text: str, order: int) -> FuzzySubset:
    tokens = text.split(",")
    if len(tokens) != order:
        raise CarrierMismatchError(
            f"expected {order} values for this table, got {len(tokens)}"
        )
    return FuzzySubset(tokens)


def _emit(report, as_json: bool, clean: bool) -> int:
    # the one tail of classify, verify and census: the report, then 1 on a finding
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(), end="")
    return EXIT_OK if clean else EXIT_FOUND


def _cmd_classify(args) -> int:
    report = classify(_load_table(args.table))
    return _emit(report, args.json, report.all_routes_agree)


def _cmd_verify(args) -> int:
    h = _load_table(args.table)
    report = verify_theorems(h, random_trials=args.trials, seed=args.seed)
    return _emit(report, args.json, report.passed)


def _cmd_census(args) -> int:
    progress = None
    if not args.exhaustive or args.order >= 3:  # orders 1-2 finish at once

        def progress(done: int, total: int) -> None:
            print(f"census progress: {done}/{total} tables", file=sys.stderr)

    report = census(
        args.order,
        exhaustive=args.exhaustive,
        sample=args.sample,
        seed=args.seed,
        jobs=args.jobs,
        allow_large=args.exhaustive,
        progress=progress,
    )
    return _emit(report, args.json, report.route_disagreements == 0)


def _cmd_compose(args) -> int:
    h = _load_table(args.table)
    f = _parse_fuzzy(args.f, h.order)
    g = _parse_fuzzy(args.g, h.order)
    print(compose(h, f, g))
    return EXIT_OK


def _cmd_ideals(args) -> int:
    h = _load_table(args.table)
    f = _parse_fuzzy(args.f, h.order)
    print(f"f: {f}")
    print(f"fuzzy right ideal: {_yes(is_fuzzy_right_ideal(h, f))}")
    print(f"fuzzy left ideal: {_yes(is_fuzzy_left_ideal(h, f))}")
    print(f"right ideal closure: {right_ideal_closure(h, f)}")
    print(f"left ideal closure: {left_ideal_closure(h, f)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersemigroups",
        description="Classify and verify finite hypersemigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a table file")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="verify the characterization theorems on a table")
    p.add_argument("table")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", default="0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="tally classes over a table population")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", default="0")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("compose", help="sup-min composition of two fuzzy subsets")
    p.add_argument("table")
    p.add_argument("--f", required=True, help="comma-separated rationals, e.g. 3/10,7/10")
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("ideals", help="ideal predicates and closures for a fuzzy subset")
    p.add_argument("table")
    p.add_argument("--f", required=True)
    p.set_defaults(func=_cmd_ideals)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader left; the unflushed rest goes to devnull, not to stderr
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        return _fail("interrupted", EXIT_INTERRUPTED)
    except NotAssociativeError:
        return _fail("input table is not a hypersemigroup", EXIT_NOT_ASSOCIATIVE)
    except ValueError as exc:
        # every exception class the library defines is a ValueError
        return _fail(str(exc), EXIT_INPUT)
    except Exception as exc:
        # a bug, not a finding: one line naming where it was raised, and a
        # code that cannot be mistaken for EXIT_FOUND
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        # a worker process's exception carries its traceback as text on the cause
        tb_text = getattr(exc.__cause__, "tb", "")
        remote = re.findall(r'^  File "(.+)", line (\d+)', tb_text, re.M)
        filename, lineno = remote[-1] if remote else (frame.filename, frame.lineno)
        where = f"{Path(filename).name}:{lineno}"
        return _fail(
            f"internal error: {type(exc).__name__}: {exc} (at {where})",
            EXIT_INTERNAL,
        )


if __name__ == "__main__":
    sys.exit(main())
