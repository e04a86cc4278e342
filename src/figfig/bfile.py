"""Reading, writing, and checking OEIS b-files.

A b-file is plain text with one "index value" pair per line; blank lines
and '#' comment lines are allowed and carry no data.  Indices must step
by exactly 1 from the first record.

Since the indices step by 1, the first index and the list of values
describe the records.  `parse_bfile` keeps just those two, in a read-only
`BFileRecords` sequence that hands out a `BFileRecord` only when one is
asked for, so the parsed records cost one int each.

The read-back is bulk work.  `parse_bfile` takes the source in chunks of
at most _CHUNK_LINES lines, so its working memory beyond the values is
bounded by one chunk.  A chunk of plain pairs is converted with a few
whole-chunk calls; any other chunk is read line by line up to its first
malformed line.  Either way one body checks the chunk's indices against
the range that continues the records, in one comparison, and appends its
values.  `compare_reference` compares the values with the generator's
column of the sequence a chunk at a time, by list equality, and scans
only a chunk that differs.  `write_bfile` writes one block of lines per
chunk.
"""

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import count, islice, repeat, starmap
from operator import eq, itemgetter

from .checks import CheckReport
from .stream import _check_seq, _column

__all__ = [
    "BFileFormatError",
    "BFileRecord",
    "BFileRecords",
    "compare_reference",
    "parse_bfile",
    "write_bfile",
]

_CHUNK_LINES = 1024


class BFileFormatError(ValueError):
    """Raised for b-file text that violates the format."""


BFileRecord = namedtuple("BFileRecord", "index value")


def _records(indices: Iterable[int], values: Iterable[int]) -> Iterator[BFileRecord]:
    # tuple.__new__ builds each record in C, with no Python-level call per record.
    return map(tuple.__new__, repeat(BFileRecord), zip(indices, values))


class BFileRecords(Sequence):
    """Contiguous records, held as the first index and a list of values.

    A read-only sequence of `BFileRecord(first + i, values[i])`, made on
    demand: `len`, indexing (negative indices too), iteration and `in` work
    as on the list of those records, and a slice is such a list.  It is
    `==` to a list of the same records (or of plain (index, value) pairs),
    and to another BFileRecords holding the same records; like a list, it
    is never equal to a tuple.  `values` is kept, not copied.
    """

    __slots__ = ("first", "values")

    def __init__(self, first: int, values: list[int]) -> None:
        if first < 1:
            raise ValueError(f"record index must be >= 1, got {first}")
        self.first = first
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        values = self.values[i]  # raises as the list of records would
        indices = range(self.first, self.first + len(self.values))[i]
        if isinstance(i, slice):
            return list(_records(indices, values))
        return BFileRecord(indices, values)

    def __iter__(self) -> Iterator[BFileRecord]:
        return _records(count(self.first), self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BFileRecords):
            return self.values == other.values and (self.first == other.first or not self.values)
        if isinstance(other, list):
            return len(other) == len(self.values) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"BFileRecords(first={self.first}, values={self.values!r})"


def parse_bfile(source: str | Iterable[str]) -> BFileRecords:
    """Parse b-file text (a string or a line stream) into records.

    Raises BFileFormatError naming the line for malformed lines, and
    naming the gap for indices that do not step by 1.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = iter(source)
    records = BFileRecords(1, [])
    lineno = 1
    while chunk := list(islice(lines, _CHUNK_LINES)):
        _extend(records, chunk, lineno)
        lineno += len(chunk)
    return records


def _extend(records: BFileRecords, chunk: list[str], lineno: int) -> None:
    """Append the records of `chunk`, whose first line is line `lineno`.

    Raises BFileFormatError for the chunk's first bad line, and leaves
    `records` untouched then.

    A chunk whose lines all hold exactly two tokens that `int` accepts is
    converted in bulk.  Such a line is never blank or a comment, since a
    token that starts with '#' fails `int`, so reading the chunk line by
    line would give the same pairs.  Any other chunk is read line by line,
    up to its first malformed line.  The pairs read are then checked in
    one comparison against the indices that continue the records (from at
    least 1), and walked only to name the first fault, which comes before
    any malformed line.
    """
    linenos = range(lineno, lineno + len(chunk))
    malformed = None
    try:
        if set(map(len, map(str.split, chunk))) != {2}:
            raise ValueError
        # "\n" keeps tokens of adjacent lines apart when a line has no newline.
        tokens = "\n".join(chunk).split()
        indices = list(map(int, tokens[0::2]))
        values = list(map(int, tokens[1::2]))
    except ValueError:
        indices, values, linenos = [], [], []
        for lineno, raw in enumerate(chunk, start=lineno):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 2:
                    raise ValueError
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                malformed = BFileFormatError(f"line {lineno}: expected 'index value', got {line!r}")
                break
            indices.append(index)
            values.append(value)
            linenos.append(lineno)
    if records.values:
        wanted = records.first + len(records.values)
    else:
        wanted = indices[0] if indices else 1
    if wanted < 1 or indices != list(range(wanted, wanted + len(indices))):
        for index, lineno, expected in zip(indices, linenos, count(wanted)):
            if index < 1:
                raise BFileFormatError(f"line {lineno}: index must be >= 1, got {index}")
            if index > expected:
                raise BFileFormatError(f"line {lineno}: gap at index {expected}")
            if index < expected:
                raise BFileFormatError(
                    f"line {lineno}: index {index} does not advance past {expected - 1}"
                )
    if malformed is not None:
        raise malformed
    if not records.values:
        records.first = wanted
    records.values += values


def _check_contiguous(records: Sequence[BFileRecord]) -> None:
    # Positions [0], not `.index`: on a plain (index, value) tuple that is tuple.index.
    if not records or (
        records[0][0] >= 1
        and all(map(eq, map(itemgetter(0), records), count(records[0][0])))
    ):
        return
    # Not contiguous from at least 1: walk the records to name the first fault.
    for position, index in enumerate(map(itemgetter(0), records)):
        if index < 1:
            raise ValueError(f"record index must be >= 1, got {index}")
        if position and index != records[position - 1][0] + 1:
            raise ValueError(f"records not contiguous at index {index}")


def _first_and_values(records: Sequence[BFileRecord]) -> tuple[int, list[int]]:
    """The first index and the values of `records`, which must be
    contiguous from at least 1 (the first index of no records is 1)."""
    if isinstance(records, BFileRecords):
        return records.first, records.values
    _check_contiguous(records)
    return (records[0][0] if records else 1), list(map(itemgetter(1), records))


def write_bfile(records: Sequence[BFileRecord], sink: io.TextIOBase) -> None:
    """Emit records as b-file lines; inverse of parse_bfile byte for byte.

    Writes one block of up to _CHUNK_LINES lines per `sink.write` call.
    """
    first, values = _first_and_values(records)
    pending = zip(count(first), values)
    while block := "".join(starmap("{} {}\n".format, islice(pending, _CHUNK_LINES))):
        sink.write(block)


def compare_reference(records: Sequence[BFileRecord], seq: str) -> CheckReport:
    """Jump to the first record's index, walk the generator's column of
    `seq` over the record range from there, and report the first mismatch.

    The values are compared with the column _CHUNK_LINES at a time by list
    equality; only a chunk that differs is scanned for its first mismatch.
    """
    _check_seq(seq)
    first, values = _first_and_values(records)
    if not values:
        raise ValueError("no records to compare")
    name, hi = f"compare:{seq}", first + len(values) - 1
    column = _column(seq, first)
    for start in range(0, len(values), _CHUNK_LINES):
        have = values[start : start + _CHUNK_LINES]
        want = list(islice(column, len(have)))
        if have != want:
            for index, expected, found in zip(count(first + start), want, have):
                if expected != found:
                    return CheckReport(
                        name, first, hi, False, (index, f"expected {expected}, b-file has {found}")
                    )
    return CheckReport(name, first, hi, True, None)
