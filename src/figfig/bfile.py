"""Reading, writing, and checking OEIS b-files.

A b-file is plain text with one "index value" pair per line; blank lines
and '#' comment lines are allowed and carry no data.  Indices must step
by exactly 1 from the first record.
"""

from __future__ import annotations

import io
from typing import IO, Iterable, NamedTuple, Sequence

from .checks import CheckReport
from .stream import SEQUENCE_IDS, _rows

__all__ = [
    "BFileFormatError",
    "BFileRecord",
    "compare_reference",
    "parse_bfile",
    "write_bfile",
]


class BFileFormatError(ValueError):
    """Raised for b-file text that violates the format."""


class BFileRecord(NamedTuple):
    index: int
    value: int


def parse_bfile(source: str | IO[str] | Iterable[str]) -> list[BFileRecord]:
    """Parse b-file text (a string or a line stream) into records.

    Raises BFileFormatError naming the line for malformed lines, and
    naming the gap for indices that do not step by 1.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    records: list[BFileRecord] = []
    for lineno, raw in enumerate(source, start=1):
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
    return records


def _check_contiguous(records: Sequence[BFileRecord]) -> None:
    for position, record in enumerate(records):
        if record.index < 1:
            raise ValueError(f"record index must be >= 1, got {record.index}")
        if position and record.index != records[position - 1].index + 1:
            raise ValueError(f"records not contiguous at index {record.index}")


def write_bfile(records: Sequence[BFileRecord], sink: IO[str]) -> None:
    """Emit records as b-file lines; inverse of parse_bfile byte for byte."""
    _check_contiguous(records)
    for index, value in records:
        sink.write(f"{index} {value}\n")


def compare_reference(records: Sequence[BFileRecord], seq: str) -> CheckReport:
    """Jump to the first record's index, stream the generator over the
    record range from there, and report the first mismatch."""
    if seq not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence id {seq!r}, expected one of {SEQUENCE_IDS}")
    if not records:
        raise ValueError("no records to compare")
    _check_contiguous(records)
    lo, hi = records[0].index, records[-1].index
    name = f"compare:{seq}"
    for record, row in zip(records, _rows(lo)):
        value = getattr(row, seq)
        if value != record.value:
            return CheckReport(
                name, lo, hi, False,
                (record.index, f"expected {value}, b-file has {record.value}"),
            )
    return CheckReport(name, lo, hi, True, None)
