"""Reading, writing, and checking OEIS b-files.

A b-file is plain text with one "index value" pair per line; blank lines
and '#' comment lines are allowed and carry no data.  Indices must step
by exactly 1 from the first record.

Since the indices step by 1, the first index and the values describe
the records.  `parse_bfile` keeps just those two, in a read-only
`BFileRecords` sequence that hands out a `BFileRecord` only when one is
asked for.  The values sit in an array("q"), 8 bytes each, while every
value fits in a signed 64-bit int, as every value of a, b and u below
index 4e9 does.  The first value outside that range turns the store into
a list of ints, once, for the rest of that parse.

The read-back is bulk work.  `parse_bfile` reads a source with `read` (a
file, an io.StringIO, or a string) in blocks of whole lines: _BLOCK_CHARS
(32 Ki) characters from `read`, then the rest of the last line from
`readline`, so its working memory beyond the values is one block.  One
`%` call checks a whole block: the index lines that stream._numbered
writes for the indices that continue the records, filled with the
block's value tokens, must give back the block's text, and then only the
values go through `int`, and into the store by one `fromlist` call.  A
block that fails the check, a b-file's '#' header among them, goes whole
to the line reader, one line at a time, with the records, errors and
line numbers of a line-by-line parse.  Any other source (a list or an
iterator of lines) is read whole by the line reader.

`compare_reference` compares the values with the generator's column of
the sequence a chunk at a time, by list equality (each chunk copied to
a list, whatever the store), and scans only a chunk that differs.
`write_bfile` writes one block of lines per chunk, from the same index
lines of stream._numbered.
"""

import io
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, MutableSequence, Sequence
from itertools import count, islice, repeat
from operator import eq, index, itemgetter

from . import _InputError
from .stream import CheckReport, _check_seq, _column, _numbered

__all__ = [
    "BFileFormatError",
    "BFileRecord",
    "BFileRecords",
    "compare_reference",
    "parse_bfile",
    "write_bfile",
]

_CHUNK_LINES = 1024
_BLOCK_CHARS = 1 << 15


class BFileFormatError(_InputError):
    """Raised for b-file text that violates the format."""


BFileRecord = namedtuple("BFileRecord", "index value")


def _records(indices: Iterable[int], values: Iterable[int]) -> Iterator[BFileRecord]:
    # tuple.__new__ builds each record in C, with no Python-level call per record.
    return map(tuple.__new__, repeat(BFileRecord), zip(indices, values))


class BFileRecords(Sequence):
    """Contiguous records, held as the first index and their values.

    A read-only sequence of `BFileRecord(first + i, values[i])`, made on
    demand: `len`, indexing (negative indices too), iteration and `in` work
    as on the list of those records, and a slice is such a list.  It is
    `==` to a list of the same records (or of plain (index, value) pairs),
    and to another BFileRecords holding the same records, whatever either
    store; like a list, it is never equal to a tuple.  `first` is taken by
    operator.index; `values` is kept, not copied.  `parse_bfile` gives an
    array("q") of the values while every value fits in 64 bits, else a
    list; the repr shows either as a list.
    """

    __slots__ = ("first", "values")

    def __init__(self, first: int, values: MutableSequence[int]) -> None:
        if (first := index(first)) < 1:
            raise _InputError(f"record index must be >= 1, got {first}")
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
        if isinstance(other, BFileRecords) and type(self.values) is type(other.values):
            return self.values == other.values and (self.first == other.first or not self.values)
        if isinstance(other, (BFileRecords, list)):  # an array and a list are never ==
            return len(other) == len(self.values) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"BFileRecords(first={self.first}, values={list(self.values)!r})"


def parse_bfile(source: str | Iterable[str]) -> BFileRecords:
    """Parse b-file text (a string or a line stream) into records.

    Raises BFileFormatError naming the line for malformed lines, and
    naming the gap for indices that do not step by 1.

    A source with `read` (a string is read as an io.StringIO) is taken as
    a text stream with `readline` too, as files and io.StringIO are, whose
    lines end at each newline character, as a file opened with the default
    newline handling gives them; any other source is taken as the lines it
    yields.  So a file opened with newline='' whose lines end in a bare
    carriage return is passed as a list of its lines.

    A text stream is read in blocks of whole lines.  Each block passes the
    one-`%` check of `_extend_plain`, or goes whole to `_read_lines`,
    numbered from its first line; a block that holds a '#' header is of
    the second kind.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    records = BFileRecords(1, array("q"))
    if not hasattr(source, "read"):
        _read_lines(records, source, 1)
        return records
    lineno = 1
    for text in _text_blocks(source):
        if not (taken := _extend_plain(records, text)):
            taken = text.count("\n")
            _read_lines(records, text.split("\n")[:-1], lineno)  # the text ends with a newline
        lineno += taken
    return records


def _text_blocks(source: io.TextIOBase) -> Iterator[str]:
    """Each block of whole lines of `source`: _BLOCK_CHARS characters from
    `read`, then the rest of its last line from `readline`.  A last line
    without a newline is given one, which changes nothing, since each line
    is stripped before it is read."""
    while text := source.read(_BLOCK_CHARS):
        text += source.readline()
        yield text if text.endswith("\n") else text + "\n"


def _extend_plain(records: BFileRecords, text: str) -> int:
    """Append the records of `text`, a block of whole lines, if each line
    is exactly the index that continues the records (from at least 1) as
    '%d' writes it, one space, one value token that `int` accepts, and a
    newline.  Return the number of lines appended, or 0, appending nothing,
    when the block must be read line by line.

    One `%` call fills the expected index lines of stream._numbered with
    the value tokens and rebuilds the whole block, so equal text proves the
    layout and every index at once, and only the values go through `int`.
    Such a line is never blank or a comment, and reading it line by line
    would give the same pair.  The values enter an array store by one
    `fromlist` call, which takes them all or none: on the OverflowError of
    a value past 64 bits the store becomes a list, as in `_read_lines`.
    """
    if text.count(" ") != text.count("\n"):
        return 0  # not one space to a line: spare the split and the rebuild
    tokens = text.split()
    values = tokens[1::2]
    try:
        wanted = records.first + len(records.values) if records.values else int(tokens[0])
        if wanted < 1:
            return 0
        if _numbered("", " %s\n", wanted, wanted + len(values)) % tuple(values) != text:
            return 0
        values = list(map(int, values))
    except (IndexError, ValueError):
        return 0
    if not records.values:
        records.first = wanted
    store = records.values
    if isinstance(store, list):
        store += values
    else:
        try:
            store.fromlist(values)  # all or nothing
        except OverflowError:  # a value past 64 bits: a list from here on
            records.values = store.tolist() + values
    return len(values)


def _read_lines(records: BFileRecords, lines: Iterable[str], lineno: int) -> None:
    """Append the records of `lines`, whose first is line `lineno`, one
    line at a time.

    Blank and '#' lines carry no data.  Raises BFileFormatError for the
    first line that is not two tokens `int` accepts, or whose index is
    below 1 or does not continue the records.
    """
    values = records.values
    wanted = records.first + len(values) if values else None
    for lineno, raw in enumerate(lines, start=lineno):
        parts = raw.split()  # the tokens of raw.strip(), which starts with the first
        if not parts or parts[0].startswith("#"):
            continue
        try:
            index, value = map(int, parts)  # a ValueError unless two int tokens
        except ValueError:
            raise BFileFormatError(f"line {lineno}: expected 'index value', got {raw.strip()!r}") from None
        if index != wanted:
            if index < 1:
                raise BFileFormatError(f"line {lineno}: index must be >= 1, got {index}")
            if wanted is None:
                records.first = index
            elif index > wanted:
                raise BFileFormatError(f"line {lineno}: gap at index {wanted}")
            else:
                raise BFileFormatError(f"line {lineno}: index {index} does not advance past {wanted - 1}")
        try:
            values.append(value)
        except OverflowError:  # a value past 64 bits: a list from here on
            records.values = values = values.tolist()
            values.append(value)
        wanted = index + 1


def _first_and_values(records: Sequence[BFileRecord]) -> tuple[int, Sequence[int]]:
    """The first index and the values of `records`, which must be
    contiguous from at least 1 (the first index of no records is 1)."""
    if isinstance(records, BFileRecords):
        return records.first, records.values
    # Positions [0], not `.index`: on a plain (index, value) tuple that is tuple.index.
    first = records[0][0] if records else 1
    # From max(first, 1), a first index below 1 is the first fault.
    for wanted, index in enumerate(map(itemgetter(0), records), start=max(first, 1)):
        if index != wanted:
            if index < 1:
                raise _InputError(f"record index must be >= 1, got {index}")
            raise _InputError(f"records not contiguous at index {index}")
    return first, list(map(itemgetter(1), records))


def write_bfile(records: Sequence[BFileRecord], sink: io.TextIOBase) -> None:
    """Emit records as b-file lines; inverse of parse_bfile byte for byte.

    Writes one block of up to _CHUNK_LINES lines per `sink.write` call,
    its index lines from stream._numbered and its values spelled by str.
    """
    first, values = _first_and_values(records)
    for start in range(0, len(values), _CHUNK_LINES):
        block = tuple(values[start : start + _CHUNK_LINES])
        sink.write(_numbered("", " %s\n", first + start, first + start + len(block)) % block)


def compare_reference(records: Sequence[BFileRecord], seq: str) -> CheckReport:
    """Jump to the first record's index, walk the generator's column of
    `seq` over the record range from there, and report the first mismatch.

    The values are compared with the column _CHUNK_LINES at a time by list
    equality, each chunk copied to a list whatever the store; only a chunk
    that differs is scanned for its first mismatch.
    """
    _check_seq(seq)
    first, values = _first_and_values(records)
    if not values:
        raise _InputError("no records to compare")
    name, hi = f"compare:{seq}", first + len(values) - 1
    column = _column(seq, first)
    for start in range(0, len(values), _CHUNK_LINES):
        have = list(values[start : start + _CHUNK_LINES])
        want = list(islice(column, len(have)))
        if have != want:
            for index, expected, found in zip(count(first + start), want, have):
                if expected != found:
                    return CheckReport(
                        name, first, hi, False, (index, f"expected {expected}, b-file has {found}")
                    )
    return CheckReport(name, first, hi, True, None)
