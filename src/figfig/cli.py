"""Batch command line driver: generate terms, evaluate series, verify, compare.

Data rows go to standard output (or the --out file where offered); notes
and error messages go to standard error.  Exit status is 0 for success,
1 for a failed verification or comparison, 2 for usage or input-format
problems.  A reader that closes standard output early, as `head` does,
ends the run normally with status 0 and nothing on standard error; an
interrupt (Ctrl-C) ends it with status 130 and one `interrupted` line on
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from typing import Iterable, Sequence

from .bfile import compare_reference, parse_bfile
from .checks import CHECK_NAMES, CheckReport, _run_checks, remainder_table
from .series import MAX_ORDER, a_coeff, eval_a_series, eval_b_series, eval_u_series, u_coeff
from .stream import _rows

__all__ = ["main", "run_cli"]

_OK, _FAILED, _USAGE, _INTERRUPTED = 0, 1, 2, 130

_EVALUATORS = {"a": eval_a_series, "b": eval_b_series, "u": eval_u_series}


def _real(x: float) -> str:
    return format(x, ".15g")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _order_arg(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be in 1..{MAX_ORDER}")
    return value


def _ns_arg(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None
    if not values or values[0] < 1 or any(
        values[i] >= values[i + 1] for i in range(len(values) - 1)
    ):
        raise argparse.ArgumentTypeError("indices must be strictly increasing and >= 1")
    return values


def _decades_arg(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected lo:hi with integer decades") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError("need 0 <= lo <= hi")
    return lo, hi


def _emit(lines: Iterable[str], out: str | None) -> None:
    if out is None:
        for line in lines:
            sys.stdout.write(line)
        return
    with open(out, "w", encoding="utf-8") as sink:
        for line in lines:
            sink.write(line)


def _report_line(report: CheckReport) -> str:
    if report.passed:
        return f"{report.name} [{report.lo}, {report.hi}]: PASS"
    n, detail = report.first_failure
    return f"{report.name} [{report.lo}, {report.hi}]: FAIL at n={n}: {detail}"


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.seq == "triple" and args.format == "bfile":
        print("error: bfile format holds one sequence; use --seq a, b, or u", file=sys.stderr)
        return _USAGE
    rows = islice(_rows(1), args.count)
    if args.seq == "triple":
        if args.format == "csv":
            lines = chain(
                ["n,a,b,u\n"], (f"{r.n},{r.a},{r.b},{r.u}\n" for r in rows)
            )
        else:
            lines = (
                json.dumps({"n": r.n, "a": r.a, "b": r.b, "u": r.u}) + "\n" for r in rows
            )
    else:
        pairs = ((row.n, getattr(row, args.seq)) for row in rows)
        if args.format == "bfile":
            lines = (f"{n} {value}\n" for n, value in pairs)
        elif args.format == "csv":
            lines = chain(
                [f"n,{args.seq}\n"], (f"{n},{value}\n" for n, value in pairs)
            )
        else:
            lines = (json.dumps({"n": n, args.seq: value}) + "\n" for n, value in pairs)
    _emit(lines, args.out)
    return _OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    coeff = u_coeff if args.series == "u" else a_coeff
    line = ", ".join(str(coeff(k)) for k in range(1, args.order + 1)) + "\n"
    _emit([line], args.out)
    return _OK


def _cmd_approx(args: argparse.Namespace) -> int:
    evaluate = _EVALUATORS[args.seq]
    lines = ["n,series\n"]
    lines += [f"{n},{_real(evaluate(n, args.order))}\n" for n in args.n]
    _emit(lines, args.out)
    return _OK


def _cmd_remainder(args: argparse.Namespace) -> int:
    ns = args.ns if args.ns else [10**d for d in range(args.decades[0], args.decades[1] + 1)]
    rows = remainder_table(args.seq, args.order, ns)
    print(
        "note: scaled divides the remainder by the next ladder rung; "
        "the bands it is judged against are conventions of this package",
        file=sys.stderr,
    )
    if args.format == "csv":
        lines = ["n,order,exact,series,remainder,scaled\n"]
        lines += [
            f"{r.n},{r.order},{r.exact},{_real(r.series)},{_real(r.remainder)},{_real(r.scaled)}\n"
            for r in rows
        ]
    else:
        lines = [
            json.dumps(
                {
                    "n": r.n,
                    "order": r.order,
                    "exact": r.exact,
                    "series": r.series,
                    "remainder": r.remainder,
                    "scaled": r.scaled,
                }
            )
            + "\n"
            for r in rows
        ]
    _emit(lines, args.out)
    return _OK


def _cmd_verify(args: argparse.Namespace) -> int:
    names = CHECK_NAMES if args.check == "all" else (args.check,)
    reports = _run_checks(args.upto, names)
    for report in reports:
        print(_report_line(report))
    return _OK if all(report.passed for report in reports) else _FAILED


def _cmd_compare(args: argparse.Namespace) -> int:
    with open(args.bfile, "r", encoding="utf-8") as source:
        records = parse_bfile(source)
    report = compare_reference(records, args.seq)
    print(_report_line(report))
    return _OK if report.passed else _FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="figfig",
        description="Figure-figure sequences: exact terms, series, checks, b-files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit exact sequence terms")
    gen.add_argument("--seq", required=True, choices=("a", "b", "u", "triple"))
    gen.add_argument("--count", required=True, type=_positive_int)
    gen.add_argument("--format", default="bfile", choices=("bfile", "csv", "jsonl"))
    gen.add_argument("--out")
    gen.set_defaults(handler=_cmd_gen)

    coeffs = sub.add_parser("coeffs", help="exact series coefficients")
    coeffs.add_argument("--order", required=True, type=_order_arg)
    coeffs.add_argument("--series", default="u", choices=("u", "a"))
    coeffs.add_argument("--out")
    coeffs.set_defaults(handler=_cmd_coeffs)

    approx = sub.add_parser("approx", help="evaluate the truncated series")
    approx.add_argument("--seq", required=True, choices=("a", "b", "u"))
    approx.add_argument("--order", required=True, type=_order_arg)
    approx.add_argument("--n", required=True, action="append", type=_positive_int)
    approx.add_argument("--out")
    approx.set_defaults(handler=_cmd_approx)

    remainder = sub.add_parser("remainder", help="exact-minus-series table")
    remainder.add_argument("--seq", required=True, choices=("a", "b", "u"))
    remainder.add_argument("--order", required=True, type=_order_arg)
    which = remainder.add_mutually_exclusive_group(required=True)
    which.add_argument("--ns", type=_ns_arg)
    which.add_argument("--decades", type=_decades_arg)
    remainder.add_argument("--format", default="csv", choices=("csv", "jsonl"))
    remainder.add_argument("--out")
    remainder.set_defaults(handler=_cmd_remainder)

    verify = sub.add_parser("verify", help="streamed law checks")
    verify.add_argument("--check", required=True, choices=(*CHECK_NAMES, "all"))
    verify.add_argument("--upto", required=True, type=_positive_int)
    verify.set_defaults(handler=_cmd_verify)

    compare = sub.add_parser("compare", help="diff the generator against a b-file")
    compare.add_argument("--seq", required=True, choices=("a", "b", "u"))
    compare.add_argument("--bfile", required=True)
    compare.set_defaults(handler=_cmd_compare)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse argv (defaults to sys.argv[1:]) and run one subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return _OK if exc.code in (0, None) else _USAGE
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early, as `figfig gen ... | head` does:
        # a normal end.  Point stdout at devnull so that the flush at
        # interpreter exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _OK
    except (OSError, ValueError) as exc:  # BFileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return _INTERRUPTED


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))
