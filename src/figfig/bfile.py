"""Reading, writing, and checking OEIS b-files.

A b-file is plain text with one "index value" pair per line; blank lines
and '#' comment lines are allowed and carry no data.  Indices must step
by exactly 1 from the first record.

The read-back is bulk work.  `parse_bfile` takes the source in chunks of
at most _CHUNK_LINES lines, so its working memory beyond the records is
bounded by one chunk, and converts a chunk of plain pairs with a few
whole-chunk calls; any other chunk goes through the line-by-line parser,
which gives the same records and the same errors.  `compare_reference`
scans the records against the generator's column of the sequence in
one C-level pass, and reads a single value only at the first mismatch.
`write_bfile` writes one block of lines per chunk.
"""

from __future__ import annotations

import io
from itertools import compress, count, islice, repeat, starmap
from operator import eq, itemgetter, ne
from typing import IO, Iterable, NamedTuple, Sequence

from .checks import CheckReport
from .stream import _check_seq, _column, value_at

__all__ = [
    "BFileFormatError",
    "BFileRecord",
    "compare_reference",
    "parse_bfile",
    "write_bfile",
]

_CHUNK_LINES = 1024


class BFileFormatError(ValueError):
    """Raised for b-file text that violates the format."""


class BFileRecord(NamedTuple):
    index: int
    value: int


def parse_bfile(source: str | IO[str] | Iterable[str]) -> list[BFileRecord]:
    """Parse b-file text (a string or a line stream) into records.

    Raises BFileFormatError naming the line for malformed lines, and
    naming the gap for indices that do not step by 1.

    The source is read _CHUNK_LINES lines at a time.  A chunk whose lines
    all hold exactly two tokens that `int` accepts, with indices that
    continue the records by steps of 1 (from at least 1), is converted in
    bulk.  Such a line is never blank or a comment, since a token that
    starts with '#' fails `int`, so the line-by-line parser would give the
    same records for it.  Any other chunk is parsed line by line from its
    first line, which raises the first error with its line number.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = iter(source)
    records: list[BFileRecord] = []
    lineno = 1
    while chunk := list(islice(lines, _CHUNK_LINES)):
        if not _extend_plain(records, chunk):
            _parse_lines(records, chunk, lineno)
        lineno += len(chunk)
    return records


def _extend_plain(records: list[BFileRecord], chunk: list[str]) -> bool:
    """Append the chunk's records if it is all plain, contiguous pairs.

    Returns False, with `records` untouched, for any other chunk.
    """
    if set(map(len, map(str.split, chunk))) != {2}:
        return False
    # "\n" keeps tokens of adjacent lines apart when a line has no newline.
    tokens = "\n".join(chunk).split()
    try:
        indices = list(map(int, tokens[0::2]))
        values = list(map(int, tokens[1::2]))
    except ValueError:
        return False
    wanted = records[-1].index + 1 if records else indices[0]
    if wanted < 1 or indices != list(range(wanted, wanted + len(indices))):
        return False
    records.extend(map(tuple.__new__, repeat(BFileRecord), zip(indices, values)))
    return True


def _parse_lines(records: list[BFileRecord], lines: Iterable[str], lineno: int) -> None:
    """Append the records of `lines`, the first of which is line `lineno`."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileFormatError(
                f"line {lineno}: expected 'index value', got {line!r}"
            ) from None
        if index < 1:
            raise BFileFormatError(f"line {lineno}: index must be >= 1, got {index}")
        if records:
            wanted = records[-1].index + 1
            if index > wanted:
                raise BFileFormatError(f"line {lineno}: gap at index {wanted}")
            if index < wanted:
                raise BFileFormatError(
                    f"line {lineno}: index {index} does not advance past {records[-1].index}"
                )
        records.append(BFileRecord(index, value))


def _check_contiguous(records: Sequence[BFileRecord]) -> None:
    if not records or (
        records[0].index >= 1
        and all(map(eq, map(itemgetter(0), records), count(records[0].index)))
    ):
        return
    # Not contiguous from at least 1: walk the records to name the first fault.
    for position, record in enumerate(records):
        if record.index < 1:
            raise ValueError(f"record index must be >= 1, got {record.index}")
        if position and record.index != records[position - 1].index + 1:
            raise ValueError(f"records not contiguous at index {record.index}")


def write_bfile(records: Sequence[BFileRecord], sink: IO[str]) -> None:
    """Emit records as b-file lines; inverse of parse_bfile byte for byte.

    Writes one block of up to _CHUNK_LINES lines per `sink.write` call.
    """
    _check_contiguous(records)
    pending = iter(records)
    while block := "".join(starmap("{} {}\n".format, islice(pending, _CHUNK_LINES))):
        sink.write(block)


def compare_reference(records: Sequence[BFileRecord], seq: str) -> CheckReport:
    """Jump to the first record's index, walk the generator's column of
    `seq` over the record range from there, and report the first mismatch.

    The record values and the column are compared in one C-level scan that
    yields the indices where they differ; the first such index is looked
    up again, by jump-ahead, for the value the report names.
    """
    _check_seq(seq)
    if not records:
        raise ValueError("no records to compare")
    _check_contiguous(records)
    lo, hi = records[0].index, records[-1].index
    name = f"compare:{seq}"
    found = map(itemgetter(1), records)
    index = next(compress(count(lo), map(ne, _column(seq, lo), found)), None)
    if index is None:
        return CheckReport(name, lo, hi, True, None)
    want, have = value_at(seq, index), records[index - lo].value
    return CheckReport(name, lo, hi, False, (index, f"expected {want}, b-file has {have}"))
