"""Batch command line driver: generate terms, evaluate series, verify, compare.

Data rows go to standard output (or the --out file where offered); notes
and error messages go to standard error.  Exit status is 0 for success,
1 for a failed verification or comparison, 2 for usage or input-format
problems, 70 for an internal error (a traceback, then one `internal
error:` line on standard error) and 130 for an interrupt (Ctrl-C; one
`interrupted` line).  A reader that closes standard output early, as
`head` does, ends the run normally: status 0, nothing on standard error.
An --out file is replaced atomically, so a failed or interrupted run
leaves any earlier file as it was and no partial file behind.

`gen` writes a block of at most 1024 rows, not a window of constant u,
per string: its n column from the cached thousand-line template of
stream._numbered, its window's u by one str.replace, and the a and b
columns by one `%` call.  On the benchmark's `gen` workload (10 seeds,
one CPU) that took the median wall_s from 0.467 s, when one `%` wrote
n, a and b, to 0.403 s.  Each subcommand imports what it alone uses, when it runs: `gen` only the
stream; `verify` the law checks; `remainder` the checks and the series;
`approx` the series; `coeffs` the series and `fractions`; `compare` the
b-file reader, which brings the checks.  Only `remainder --format jsonl`
imports `json`, and none imports `dataclasses`.
"""

import argparse
import os
import stat
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice

from .stream import CHECK_NAMES, SEQUENCE_IDS, _columns, _numbered, _runs

__all__ = ["main", "run_cli"]

_OK, _FAILED, _USAGE, _INTERNAL, _INTERRUPTED = 0, 1, 2, 70, 130

# `figfig gen`: (seq, format) -> (header, (head, tail)).  Each row is
# head, its n, then tail, whose %d fields take the row's other columns
# and whose _U mark takes the u of its window; the jsonl lines are the
# bytes json.dumps gives for ints.  _GEN_BLOCK caps the rows of one
# string, as bfile._CHUNK_LINES does.
_U = "\x01"
_GEN_FORMATS = {
    ("triple", "csv"): ("n,a,b,u\n", ("", f",%d,%d,{_U}\n")),
    ("triple", "jsonl"): ("", ('{"n": ', f', "a": %d, "b": %d, "u": {_U}}}\n')),
    ("a", "bfile"): ("", ("", " %d\n")),
    ("b", "bfile"): ("", ("", " %d\n")),
    ("u", "bfile"): ("", ("", f" {_U}\n")),
    ("a", "csv"): ("n,a\n", ("", ",%d\n")),
    ("b", "csv"): ("n,b\n", ("", ",%d\n")),
    ("u", "csv"): ("n,u\n", ("", f",{_U}\n")),
    ("a", "jsonl"): ("", ('{"n": ', ', "a": %d}\n')),
    ("b", "jsonl"): ("", ('{"n": ', ', "b": %d}\n')),
    ("u", "jsonl"): ("", ('{"n": ', f', "u": {_U}}}\n')),
}
_GEN_BLOCK = 1024


def _real(x: float) -> str:
    return format(x, ".15g")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    if (value := _int(text)) < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _checked(check, value):
    """value if the library's own check accepts it, else an argparse error with its message."""
    try:
        check(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _order_arg(text: str) -> int:
    from .series import _check_order

    return _checked(_check_order, _int(text))


def _ns_arg(text: str) -> list[int]:
    from .checks import _check_ns

    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None
    return _checked(_check_ns, values)


def _decades_arg(text: str) -> tuple[int, int]:
    from .checks import _check_decades

    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected lo:hi with integer decades") from None
    return _checked(lambda span: _check_decades(*span), (lo, hi))


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to stdout, or to `out` by atomic replacement.

    The file is written under a temporary name in its own directory and
    renamed onto `out` only when complete, so an error or an interrupt
    leaves any earlier `out` as it was and no partial file behind.  As with
    a plain open(out, "w"), a symlink is written through, an existing file
    keeps its permission bits and a new one gets 0o666 less the umask; a
    device or pipe, such as /dev/null, cannot be replaced and is written
    in place.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(out)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)  # setting the umask is the only way to read it
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)  # what open() would create
    if not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8") as sink:
            sink.writelines(chunks)
        return
    import tempfile  # here, not at the top: it imports random and shutil

    directory, name = os.path.split(target)
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError as exc:  # name `out`, as open(out, "w") would, not the temporary file
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "w", encoding="utf-8") as sink:
            sink.writelines(chunks)
        os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _report_line(report: "CheckReport") -> str:
    if report.passed:
        return f"{report.name} [{report.lo}, {report.hi}]: PASS"
    n, detail = report.first_failure
    return f"{report.name} [{report.lo}, {report.hi}]: FAIL at n={n}: {detail}"


def _gen_chunks(line: tuple[str, str], seq: str, count: int) -> Iterator[str]:
    """The first `count` rows, one string per block of at most _GEN_BLOCK rows.

    `line` is the (head, tail) of _GEN_FORMATS.  A block's n column comes
    from stream._numbered, its u, constant on a window of constant u, is
    written once by one str.replace, and one `%` then fills the a and b
    columns the line takes.  The others, such as a's running sum, stay
    unbuilt.
    """
    head, tail = line
    end = count + 1
    keep = {"triple": slice(1, 3), "a": slice(1, 2), "b": slice(2, 3), "u": slice(0)}[seq]
    for n, a, first, hi, k in _runs(1):
        width = min(hi - first, end - n)
        columns = tuple(map(iter, _columns(n, a, first, first + width, k)[keep]))
        u, step = str(k), len(columns)
        for lo in range(n, n + width, _GEN_BLOCK):
            rows = min(_GEN_BLOCK, n + width - lo)
            block = _numbered(head, tail, lo, lo + rows).replace(_U, u)
            if columns:
                values = [0] * (rows * step)
                for i, column in enumerate(columns):
                    values[i::step] = islice(column, rows)
                block %= tuple(values)
            yield block
        if n + width == end:
            return


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        header, line = _GEN_FORMATS[args.seq, args.format]
    except KeyError:  # the one pair the table leaves out: a triple as a b-file
        print("error: bfile format holds one sequence; use --seq a, b, or u", file=sys.stderr)
        return _USAGE
    _emit(chain([header], _gen_chunks(line, args.seq, args.count)), args.out)
    return _OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    from .series import a_coeff, u_coeff

    coeff = u_coeff if args.series == "u" else a_coeff
    line = ", ".join(str(coeff(k)) for k in range(1, args.order + 1)) + "\n"
    _emit([line], args.out)
    return _OK


def _cmd_approx(args: argparse.Namespace) -> int:
    from .series import eval_a_series, eval_b_series, eval_u_series

    evaluate = dict(zip(SEQUENCE_IDS, (eval_a_series, eval_b_series, eval_u_series)))[args.seq]
    lines = ["n,series\n"]
    lines += [f"{n},{_real(evaluate(n, args.order))}\n" for n in args.n]
    _emit(lines, args.out)
    return _OK


def _cmd_remainder(args: argparse.Namespace) -> int:
    from .checks import RemainderRow, remainder_table

    ns = args.ns if args.ns else [10**d for d in range(args.decades[0], args.decades[1] + 1)]
    rows = remainder_table(args.seq, args.order, ns)
    print(
        "note: scaled divides the remainder by the next ladder rung; "
        "the bands it is judged against are conventions of this package",
        file=sys.stderr,
    )
    if args.format == "csv":
        lines = [",".join(RemainderRow._fields) + "\n"]
        lines += [
            ",".join(_real(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        ]
    else:
        import json

        lines = [json.dumps(row._asdict()) + "\n" for row in rows]
    _emit(lines, args.out)
    return _OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .checks import _run_checks

    names = CHECK_NAMES if args.check == "all" else (args.check,)
    reports = _run_checks(args.upto, names)
    for report in reports:
        print(_report_line(report))
    return _OK if all(report.passed for report in reports) else _FAILED


def _cmd_compare(args: argparse.Namespace) -> int:
    from .bfile import compare_reference, parse_bfile

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
    gen.add_argument("--seq", required=True, choices=(*SEQUENCE_IDS, "triple"))
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
    approx.add_argument("--seq", required=True, choices=SEQUENCE_IDS)
    approx.add_argument("--order", required=True, type=_order_arg)
    approx.add_argument("--n", required=True, action="append", type=_positive_int)
    approx.add_argument("--out")
    approx.set_defaults(handler=_cmd_approx)

    remainder = sub.add_parser("remainder", help="exact-minus-series table")
    remainder.add_argument("--seq", required=True, choices=SEQUENCE_IDS)
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
    compare.add_argument("--seq", required=True, choices=SEQUENCE_IDS)
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
    except Exception:  # a fault in figfig, not in its input
        import traceback

        traceback.print_exc()
        print("internal error: a bug in figfig; please report the traceback above", file=sys.stderr)
        return _INTERNAL


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))
