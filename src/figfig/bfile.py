"""Reading, writing, and checking OEIS b-files.

A b-file is plain text with one "index value" pair per line; blank lines
and '#' comment lines are allowed and carry no data.  Indices must step
by exactly 1 from the first record.

Since the indices step by 1, the first index and the list of values
describe the records.  `parse_bfile` keeps just those two, in a read-only
`BFileRecords` sequence that hands out a `BFileRecord` only when one is
asked for, so the parsed records cost one int each.

The read-back is bulk work.  `parse_bfile` reads a source with `read` (a
file, an io.StringIO, or a string) in blocks of whole lines, about
_BLOCK_CHARS (32 Ki) characters each, so its working memory beyond the
values is one block.  One `%` call checks a whole block: the index lines
that stream._numbered writes for the indices that continue the records,
filled with the block's value tokens, must give back the block's text,
and then only the values go through `int`.  (With the index lines from
the template in place of a '%d' per line, the median read-back rate on
the benchmark's `gen` workload rose from 2.03 M to 2.44 M records/s.)
A block that fails the check is split into lines.  Its leading blank
and '#' lines (a b-file's header) carry no data, and the rest gets the
check again.  What still fails goes to the chunk
reader: lines that each hold two tokens that `int` accepts (other
spacing, other spellings of a number) are converted in bulk, and any
other chunk is read line by line, with the records, errors and line
numbers of a line-by-line parse.  A source of lines is taken
_CHUNK_LINES lines at a time, and takes the same check when each of its
elements is one whole line, with or without its newline; that each
element ends with its newline is tested only once the check has passed.

`compare_reference` compares the values with the generator's column of
the sequence a chunk at a time, by list equality, and scans only a chunk
that differs.  `write_bfile` writes one block of lines per chunk, from
the same index lines of stream._numbered.
"""

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import count, islice, repeat
from operator import eq, itemgetter

from .checks import CheckReport
from .stream import _check_seq, _column, _numbered

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

    A source with `read` (a string is read as an io.StringIO) is taken as
    text whose lines end at each newline character, as a file opened with
    the default newline handling gives them; any other source is taken as
    the lines it yields.  So a file opened with newline='' whose lines end
    in a bare carriage return is passed as a list of its lines.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    blocks = _text_blocks(source) if hasattr(source, "read") else _line_blocks(source)
    records = BFileRecords(1, [])
    lineno = 1
    for text, lines, joined in blocks:
        lineno += _extend_block(records, text, lines, joined, lineno)
    return records


def _text_blocks(source: io.TextIOBase) -> Iterator[tuple[str, None, None]]:
    """(text, None, None) for each block of whole lines that `source.read`
    gives, _BLOCK_CHARS characters at a time with the last partial line
    carried over.  A last line without a newline is given one, which
    changes nothing, since each line is stripped before it is read."""
    carry = ""
    while text := source.read(_BLOCK_CHARS):
        cut = text.rfind("\n") + 1
        if cut:
            yield carry + text[:cut], None, None
            carry = text[cut:]
        else:
            carry += text
    if carry:
        yield carry + "\n", None, None


def _line_blocks(source: Iterable[str]) -> Iterator[tuple[str | None, list[str], list[str] | None]]:
    """(text, chunk, joined) for each chunk of up to _CHUNK_LINES lines of
    `source`.

    text is the chunk as a block of whole lines, or None: a chunk with no
    newline (as `str.splitlines` gives lines) is joined by newlines, and a
    chunk with one newline to a line is joined as it is.  In that second
    case text stands for the chunk only when each of its lines ends with
    its newline, so the chunk is also given as `joined`, for _extend_plain
    to test once the text has passed its check; joined is None otherwise.
    """
    lines = iter(source)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        text = "".join(chunk)
        newlines = text.count("\n")
        if not newlines:
            yield "\n".join(chunk) + "\n", chunk, None
        elif newlines == len(chunk):
            yield text, chunk, chunk
        else:
            yield None, chunk, None


def _extend_block(
    records: BFileRecords,
    text: str | None,
    lines: list[str] | None,
    joined: list[str] | None,
    lineno: int,
) -> int:
    """Append the records of a block of lines whose first is line `lineno`,
    and return the number of its lines.  The block is `text`, its lines
    joined with their newlines, and `lines`, the same lines with or without
    their newlines; either may be None.  `joined` is as _line_blocks gives it.

    A block that fails the one-`%` check is split into its lines.  Its
    leading blank and '#' lines, such as a b-file's header, carry no data,
    so the rest gets the check again; if that fails too, `_extend` reads
    the rest.
    """
    if text is not None:
        if taken := _extend_plain(records, text, joined):
            return taken
        if lines is None:
            lines = text.split("\n")[:-1]  # the text ends with a newline
    skip = 0
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            break
        skip += 1
    rest = lines[skip:]
    if skip and rest and text is not None:
        if taken := _extend_plain(records, text.split("\n", skip)[skip], joined):
            return skip + taken
    _extend(records, rest, lineno + skip)
    return len(lines)


def _extend_plain(records: BFileRecords, text: str, joined: list[str] | None) -> int:
    """Append the records of `text`, a block of whole lines, if each line
    is exactly the index that continues the records (from at least 1) as
    '%d' writes it, one space, one value token that `int` accepts, and a
    newline.  Return the number of lines appended, or 0, appending nothing,
    when the block must be read some other way.  If `joined` is not None,
    `text` stands for its lines only when each of them ends with its
    newline, which is tested once the text has passed.

    One `%` call fills the expected index lines of stream._numbered with
    the value tokens and rebuilds the whole block, so equal text proves the
    layout and every index at once, and only the values go through `int`.
    Such a line is never blank or a comment, and reading it line by line
    would give the same pair.
    """
    if text.count(" ") != text.count("\n"):
        return 0  # not one space to a line: spare the split and the rebuild
    tokens = text.split()
    if len(tokens) % 2:
        return 0
    values = tokens[1::2]
    try:
        wanted = records.first + len(records.values) if records.values else int(tokens[0])
        if wanted < 1:
            return 0
        if _numbered("", " %s\n", wanted, wanted + len(values)) % tuple(values) != text:
            return 0
        if joined is not None and not all(map(str.endswith, joined, repeat("\n"))):
            return 0
        values = list(map(int, values))
    except (IndexError, ValueError):
        return 0
    if not records.values:
        records.first = wanted
    records.values += values
    return len(values)


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
