"""B-file parsing, writing, and comparison against the generator."""

import io
import sys
from array import array
import tracemalloc
from itertools import accumulate, count, islice
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from figfig import (
    BFileFormatError,
    BFileRecord,
    BFileRecords,
    CheckReport,
    bfile,
    compare_reference,
    parse_bfile,
    write_bfile,
)
from figfig.stream import _column, _rows, _runs

DATA = Path(__file__).parent / "data"

A_FIRST = [1, 3, 7, 12, 18, 26, 35, 45, 56, 69]
B_FIRST = [2, 4, 5, 6, 8, 9, 10, 11, 13, 14]
U_FIRST = [1, 2, 2, 2, 3, 3, 3, 3, 4, 4]


def test_parse_simple_text():
    assert parse_bfile("1 1\n2 3\n") == [(1, 1), (2, 3)]


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\n  1 1\n2\t3\n 3   7 \n"
    assert parse_bfile(text) == [(1, 1), (2, 3), (3, 7)]


def test_parse_accepts_file_objects():
    assert parse_bfile(io.StringIO("1 1\n")) == [(1, 1)]


def test_parse_allows_negative_values_and_offset_starts():
    assert parse_bfile("3 -7\n4 0\n") == [(3, -7), (4, 0)]


def test_parse_reports_gap():
    with pytest.raises(BFileFormatError, match="gap at index 2"):
        parse_bfile("1 1\n3 7\n")


def test_parse_reports_non_advancing_index():
    with pytest.raises(BFileFormatError, match="line 2"):
        parse_bfile("2 3\n2 4\n")
    with pytest.raises(BFileFormatError, match="line 2"):
        parse_bfile("2 3\n1 1\n")


@pytest.mark.parametrize("text", ["x y\n", "1\n", "1 2 3\n", "1 2.5\n"])
def test_parse_reports_malformed_line_with_number(text):
    with pytest.raises(BFileFormatError, match="line 1"):
        parse_bfile(text)


def test_parse_mentions_the_right_line():
    with pytest.raises(BFileFormatError, match="line 3"):
        parse_bfile("# ok\n1 1\nbroken\n")


def test_parse_rejects_nonpositive_index():
    with pytest.raises(BFileFormatError, match="index must be >= 1"):
        parse_bfile("0 2\n")


def test_write_simple():
    sink = io.StringIO()
    write_bfile([BFileRecord(1, 1), BFileRecord(2, 3)], sink)
    assert sink.getvalue() == "1 1\n2 3\n"


def test_write_empty():
    sink = io.StringIO()
    write_bfile([], sink)
    assert sink.getvalue() == ""


def test_write_rejects_bad_records():
    with pytest.raises(ValueError):
        write_bfile([BFileRecord(1, 1), BFileRecord(3, 7)], io.StringIO())
    with pytest.raises(ValueError):
        write_bfile([BFileRecord(0, 1)], io.StringIO())
    with pytest.raises(ValueError, match="^record index must be >= 1, got 0$"):
        BFileRecords(0, [1])
    for first in (1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            BFileRecords(first, [1])


@given(
    start=st.integers(min_value=1, max_value=10**6),
    values=st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=40),
)
def test_write_parse_round_trip(start, values):
    records = [BFileRecord(start + i, v) for i, v in enumerate(values)]
    sink = io.StringIO()
    write_bfile(records, sink)
    assert parse_bfile(sink.getvalue()) == records


def test_compare_published_terms_pass():
    for seq, values in (("a", A_FIRST), ("b", B_FIRST), ("u", U_FIRST)):
        records = [BFileRecord(i + 1, v) for i, v in enumerate(values)]
        report = compare_reference(records, seq)
        assert report.passed
        assert (report.name, report.lo, report.hi) == (f"compare:{seq}", 1, 10)


def test_compare_detects_divergence():
    report = compare_reference([BFileRecord(1, 1), BFileRecord(2, 4)], "a")
    assert not report.passed
    index, detail = report.first_failure
    assert index == 2
    assert "expected 3" in detail


def test_compare_starts_mid_sequence():
    report = compare_reference([BFileRecord(5, 18), BFileRecord(6, 26)], "a")
    assert report.passed
    assert (report.lo, report.hi) == (5, 6)


def test_compare_validations():
    with pytest.raises(ValueError):
        compare_reference([], "a")
    with pytest.raises(ValueError):
        compare_reference([BFileRecord(1, 1)], "c")
    with pytest.raises(ValueError):
        compare_reference([BFileRecord(1, 1), BFileRecord(3, 7)], "a")


@pytest.mark.parametrize(
    "filename,leading",
    [
        ("b005228.txt", A_FIRST),
        ("b030124.txt", B_FIRST),
        ("b225687.txt", U_FIRST),
    ],
)
def test_reference_files_lead_with_published_terms(filename, leading):
    with open(DATA / filename, encoding="utf-8") as source:
        records = parse_bfile(source)
    assert len(records) == 10_000
    assert records[0].index == 1
    assert [r.value for r in records[:10]] == leading


def test_compare_tail_slice_of_reference_file():
    with open(DATA / "b005228.txt", encoding="utf-8") as source:
        tail = parse_bfile(source)[9000:]
    report = compare_reference(tail, "a")
    assert report.passed
    assert (report.lo, report.hi) == (9001, 10_000)
    corrupted = tail[:500] + [BFileRecord(9501, tail[500].value + 1)] + tail[501:]
    report = compare_reference(corrupted, "a")
    assert report.first_failure == (9501, f"expected {tail[500].value}, b-file has {tail[500].value + 1}")


# --- The bulk parser against the line-by-line parser --------------------------


def reference_parse(source):
    """The line-by-line parser, kept as the reference for parse_bfile."""
    if isinstance(source, str):
        source = io.StringIO(source)
    records = []
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


def outcome(parse, source):
    """The records, or the error message, that `parse` gives for `source`."""
    try:
        records = parse(source)
    except BFileFormatError as error:
        return "error", str(error)
    assert type(records) is (BFileRecords if parse is parse_bfile else list)
    assert all(type(record) is BFileRecord for record in records)
    return "records", records


@pytest.fixture(scope="module")
def bfile_path(tmp_path_factory):
    """A file that assert_parses_like_reference rewrites for each text."""
    return tmp_path_factory.mktemp("bfiles") / "b.txt"


def assert_parses_like_reference(text, path):
    """parse_bfile gives reference_parse's records or error for `text` as a
    string, an io.StringIO, a list of its lines with and without their
    newlines, a list of two lines to an element, a list of 7-character
    pieces, and a file at `path` written with LF and with CRLF line ends
    and opened with the default newline handling."""
    lines = text.splitlines(keepends=True)
    shapes = [
        lambda: text,
        lambda: io.StringIO(text),
        lambda: text.splitlines(),
        lambda: lines,
        lambda: ["".join(lines[i : i + 2]) for i in range(0, len(lines), 2)],
        lambda: [text[i : i + 7] for i in range(0, len(text), 7)],
    ]
    for make in shapes:
        assert outcome(parse_bfile, make()) == outcome(reference_parse, make())
    for content in (text, text.replace("\n", "\r\n")):
        path.write_text(content, encoding="utf-8", newline="")
        found = []
        for parse in (parse_bfile, reference_parse):
            with open(path, encoding="utf-8") as source:
                found.append(outcome(parse, source))
        assert found[0] == found[1]


def token(n, style):
    """A spelling of n that int() reads back as n."""
    if style == "plus" and n >= 0:
        return f"+{n}"
    if style == "zeros":
        return f"-00{-n}" if n < 0 else f"00{n}"
    if style == "underscore" and abs(n) >= 10:
        digits = str(n)
        return f"{digits[:-1]}_{digits[-1]}"
    if style == "minus_zero" and n == 0:
        return "-0"
    return str(n)


SPACES = st.sampled_from([" ", "  ", "\t", "\x0c", "\xa0", "\u2003", " \t "])
EDGES = st.sampled_from(["", " ", "\t", "  \x0c"])
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n"])
STYLES = st.sampled_from(["plain", "plain", "plain", "plus", "zeros", "underscore", "minus_zero"])
NOISE = st.sampled_from(
    ["# comment", "#", "#5 5", "  # 1 2", "", "   ", "\t"]  # carry no data
    + ["x y", "1", "1 2 3", "1 2.5", "7 x", "x 7", "1,2", "0x1 1"]  # malformed
)
# What follows the previous record: the next index, or an index fault.
STEPS = st.sampled_from(["next"] * 12 + ["gap", "repeat", "back", "zero", "negative"])


@st.composite
def bfile_texts(draw):
    index = draw(st.sampled_from([1, 1, 2, 9, 99, 10**12]))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 5)) == 0:
            line = draw(NOISE)
        else:
            step = draw(STEPS)
            shown = {
                "next": index, "gap": index + 2, "repeat": index - 1, "back": index - 3,
                "zero": 0, "negative": -index,
            }[step]
            if step == "next":
                index += 1
            value = draw(st.integers(-(10**20), 10**20) | st.integers(-3, index + 3))
            line = (
                token(shown, draw(STYLES)) + draw(SPACES) + token(value, draw(STYLES))
            )
        lines.append(draw(EDGES) + line + draw(EDGES) + draw(ENDINGS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(
    text=bfile_texts(),
    block=st.sampled_from([1, 2, 5, 16, 64, bfile._BLOCK_CHARS]),
)
# Lines without a newline, whose tokens must not run together.
@example(text="1 5\n2 2", block=5)
# One element holding a line and a half, one holding the rest.
@example(text="1 1\n2 3\n", block=64)
def test_parse_matches_the_line_parser_across_chunks(bfile_path, text, block):
    with mock.patch.object(bfile, "_BLOCK_CHARS", block):
        assert_parses_like_reference(text, bfile_path)


def plain_lines(count, start=1):
    return [f"{n} {3 * n - 7}\n" for n in range(start, start + count)]


def plain_records(start, count):
    return BFileRecords(start, [3 * n - 7 for n in range(start, start + count)])


# One line of a plain file replaced, at line 1024 or 1025 of a file of 2053
# lines.  As text it is read in one block, and in blocks that end just
# before the line and just after it.
@pytest.mark.parametrize("line", [bfile._CHUNK_LINES, bfile._CHUNK_LINES + 1])
@pytest.mark.parametrize(
    "replace",
    [
        lambda n: "# comment\n",
        lambda n: "\n",
        lambda n: f"#{n} {n}\n",
        lambda n: f"{n} x\n",
        lambda n: f"{n}\n",
        lambda n: f"{n} 1 2\n",
        lambda n: f"{n + 1} 5\n",
        lambda n: f"{n - 1} 5\n",
        lambda n: f"{n - 2} 5\n",
        lambda n: "0 5\n",
        lambda n: f" +{n}\t0{n}\r\n",
    ],
)
def test_parse_faults_at_a_chunk_boundary(bfile_path, line, replace):
    lines = plain_lines(2 * bfile._CHUNK_LINES + 5)
    lines[line - 1] = replace(line)
    text = "".join(lines)
    for block in (bfile._BLOCK_CHARS, len("".join(lines[: line - 1])), len("".join(lines[:line]))):
        with mock.patch.object(bfile, "_BLOCK_CHARS", block):
            assert_parses_like_reference(text, bfile_path)


def test_parse_bad_value_in_a_plain_chunk_names_its_line():
    lines = plain_lines(bfile._CHUNK_LINES + 10)
    lines[bfile._CHUNK_LINES + 3] = f"{bfile._CHUNK_LINES + 4} 12z\n"
    with pytest.raises(BFileFormatError) as raised:
        parse_bfile("".join(lines))
    assert str(raised.value) == f"line {bfile._CHUNK_LINES + 4}: expected 'index value', got '{bfile._CHUNK_LINES + 4} 12z'"


def test_parse_checks_the_records_after_a_header_in_bulk(monkeypatch):
    # The header fails the one-% check of the first block, which goes whole
    # to the line reader, numbered from line 1; every later block passes
    # the check, and none is read by the line reader.
    read_lines = mock.Mock(wraps=bfile._read_lines)
    monkeypatch.setattr(bfile, "_read_lines", read_lines)
    path = DATA / "b005228.txt"
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#") and text.count("\n") == 10_001
    expected = reference_parse(text)
    assert parse_bfile(io.StringIO(text)) == expected
    with open(path, encoding="utf-8") as source:
        assert parse_bfile(source) == expected
    assert read_lines.call_count == 2
    for call in read_lines.call_args_list:
        _, lines, lineno = call.args
        assert (lines[0], lineno) == (text.split("\n")[0], 1) and len(lines) < 10_001


def test_parse_gives_the_chunk_reader_the_lines_after_a_header(monkeypatch):
    # Tabs fail the % check; the line reader gets the whole block, header
    # and all, numbered from its first line.
    text = "# header\n\n" + "".join(f"{n}\t{3 * n}\n" for n in range(1, 101))
    read_lines = mock.Mock(wraps=bfile._read_lines)
    monkeypatch.setattr(bfile, "_read_lines", read_lines)
    assert parse_bfile(text) == BFileRecords(1, [3 * n for n in range(1, 101)])
    [(_, lines, lineno)] = [call.args for call in read_lines.call_args_list]
    assert (lines[0], len(lines), lineno) == ("# header", 102, 1)


def test_parse_takes_each_element_of_a_list_as_one_line():
    # Joined, the elements would read as two plain lines.
    with pytest.raises(BFileFormatError) as raised:
        parse_bfile(["1 1\n2 ", "3\n"])
    assert str(raised.value) == "line 1: expected 'index value', got '1 1\\n2'"


@pytest.mark.parametrize("tabs", [False, True])
def test_parse_reads_a_list_of_lines_in_one_call(monkeypatch, tabs):
    # A list of lines skips the one-% check and goes whole to the line reader.
    text = (DATA / "b005228.txt").read_text(encoding="utf-8")
    if tabs:
        text = text.replace(" ", "\t")
    lines = text.splitlines(keepends=True)
    read_lines = mock.Mock(wraps=bfile._read_lines)
    monkeypatch.setattr(bfile, "_read_lines", read_lines)
    assert outcome(parse_bfile, lines) == outcome(reference_parse, lines)
    read_lines.assert_called_once()
    assert read_lines.call_args.args[1:] == (lines, 1)


@pytest.mark.parametrize("header", [[], ["# header\n", "\n"]])
def test_parse_element_holding_two_lines_is_read_line_by_line(header):
    # One element holds two lines and another line is cut across two
    # elements: joined, they would read as plain lines (after the header
    # too), but each element is one line, so the element with two lines is
    # named.
    plain = plain_lines(50)
    elements = [*header, *plain[:10], plain[10] + plain[11], *plain[12:20]]
    elements += [plain[20][:2], plain[20][2:], *plain[21:]]
    assert "".join(elements).count("\n") == len(elements)
    with pytest.raises(BFileFormatError) as raised:
        parse_bfile(elements)
    merged = (plain[10] + plain[11]).strip()
    assert str(raised.value) == f"line {len(header) + 11}: expected 'index value', got {merged!r}"
    assert outcome(parse_bfile, elements) == outcome(reference_parse, elements)


def test_parse_checks_every_element_of_a_chunk_after_a_header():
    # The header element holds no newline and the next element two:
    # joined, the text after the header would read as two plain lines.
    with pytest.raises(BFileFormatError) as raised:
        parse_bfile(["#c", "1 1\n2 2\n"])
    assert str(raised.value) == "line 2: expected 'index value', got '1 1\\n2 2'"


@pytest.mark.parametrize("start", [998, 10**12 - 3])
def test_parse_reads_a_canonical_file_by_the_one_check_alone(bfile_path, monkeypatch, start):
    # The thousands prefix of the expected index lines changes inside the
    # first block, and again every thousand lines.
    monkeypatch.setattr(bfile, "_read_lines", mock.Mock(side_effect=AssertionError("read line by line")))
    values = [3 * n - 7 for n in range(start, start + 3 * bfile._CHUNK_LINES)]
    text = "".join(f"{n} {v}\n" for n, v in zip(count(start), values))
    bfile_path.write_text(text, encoding="utf-8")
    assert parse_bfile(text) == parse_bfile(io.StringIO(text)) == BFileRecords(start, values)
    with open(bfile_path, encoding="utf-8") as source:
        assert parse_bfile(source) == BFileRecords(start, values)


@pytest.mark.parametrize("spelling", ["0999", "+1000"])
def test_parse_index_spelled_otherwise_falls_back(bfile_path, monkeypatch, spelling):
    lines = plain_lines(40, start=990)
    index = int(spelling)
    lines[index - 990] = f"{spelling} {3 * index - 7}\n"
    text = "".join(lines)
    read_lines = mock.Mock(wraps=bfile._read_lines)
    monkeypatch.setattr(bfile, "_read_lines", read_lines)
    assert parse_bfile(text) == reference_parse(text) == plain_records(990, 40)
    read_lines.assert_called_once()
    assert_parses_like_reference(text, bfile_path)


def test_parse_reads_a_file_as_lines_ended_by_newline(tmp_path):
    # The default newline handling turns a bare carriage return into a
    # newline; with newline='' the file's text keeps it, and only the list
    # of the lines the file yields splits there.
    path = tmp_path / "cr.txt"
    path.write_text("1 1\r2 3\r", encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as source:
        assert parse_bfile(source) == BFileRecords(1, [1, 3])
    with open(path, encoding="utf-8", newline="") as source:
        assert parse_bfile(list(source)) == BFileRecords(1, [1, 3])
    with open(path, encoding="utf-8", newline="") as source:
        with pytest.raises(BFileFormatError) as raised:
            parse_bfile(source)
    assert str(raised.value) == "line 1: expected 'index value', got '1 1\\r2 3'"


# --- Reads cut across lines ----------------------------------------------------

# Reads of 5 characters cut every line of 10 characters in two, and reads of
# 64 cut the seventh.
BLOCKS = pytest.mark.parametrize("block", [5, 64])


@BLOCKS
@pytest.mark.parametrize(
    "replace",
    [
        lambda n: f"{n} 12z\n",
        lambda n: f"{n} 1 2\n",
        lambda n: f"{n + 1} 5\n",
        lambda n: f"{n - 1} 5\n",
        lambda n: f"+{n} 5\n",
    ],
)
def test_parse_fault_on_a_line_cut_across_two_reads(bfile_path, block, replace):
    lines = plain_lines(30, start=1000)  # 10 characters each
    cut = max(1, block // 10)  # a line cut in two, past the first
    lines[cut] = replace(1000 + cut)
    text = "".join(lines)
    with mock.patch.object(bfile, "_BLOCK_CHARS", block):
        assert_parses_like_reference(text, bfile_path)
        if lines[cut].startswith("+"):  # int() reads "+1006" as 1006
            values = [3 * n - 7 for n in range(1000, 1030)]
            values[cut] = 5
            assert parse_bfile(io.StringIO(text)) == BFileRecords(1000, values)
        else:
            with pytest.raises(BFileFormatError, match=f"^line {cut + 1}: "):
                parse_bfile(io.StringIO(text))


@BLOCKS
@pytest.mark.parametrize("last", ["1029 3080", "1029 30x0", "1031 3080", "# 1029 3080", "  "])
def test_parse_last_line_without_newline(bfile_path, block, last):
    text = "".join(plain_lines(29, start=1000)) + last
    with mock.patch.object(bfile, "_BLOCK_CHARS", block):
        assert_parses_like_reference(text, bfile_path)


# Reads of 128 characters put the header and seven records in the first block.
@pytest.mark.parametrize("block", [5, 64, 128])
def test_parse_after_a_leading_comment_block(bfile_path, block):
    header = "# A005228 Hofstadter's figure-figure sequence\n#\n\n# n a(n)\n"
    lines = plain_lines(30, start=1000)
    with mock.patch.object(bfile, "_BLOCK_CHARS", block):
        records = parse_bfile(io.StringIO(header + "".join(lines)))
        assert records == BFileRecords(1000, [3 * n - 7 for n in range(1000, 1030)])
        assert_parses_like_reference(header + "".join(lines), bfile_path)
        lines[-1] = "1029 x\n"
        with pytest.raises(BFileFormatError, match="^line 34: "):
            parse_bfile(io.StringIO(header + "".join(lines)))
        assert_parses_like_reference(header + "".join(lines), bfile_path)


@BLOCKS
@pytest.mark.parametrize(
    "text, message",
    [
        ("0 5\n1 6\n", "line 1: index must be >= 1, got 0"),
        ("# c\n0 5\n1 6\n", "line 2: index must be >= 1, got 0"),
        ("0 5\n" + "".join(plain_lines(30, start=1)), "line 1: index must be >= 1, got 0"),
        ("-3 5\n-2 6\n", "line 1: index must be >= 1, got -3"),
        # As many spaces as newlines and an odd number of tokens: the one-%
        # check rejects the block, and the line reader names the line.
        ("1 5 6\n\n", "line 1: expected 'index value', got '1 5 6'"),
        ("1 2\n3 \n", "line 2: expected 'index value', got '3'"),
    ],
)
def test_parse_bad_first_index(bfile_path, block, text, message):
    with mock.patch.object(bfile, "_BLOCK_CHARS", block):
        with pytest.raises(BFileFormatError) as raised:
            parse_bfile(io.StringIO(text))
        assert str(raised.value) == message
        assert_parses_like_reference(text, bfile_path)


def test_parse_with_comments_gives_each_record_once():
    lines = plain_lines(3 * bfile._CHUNK_LINES)
    lines[bfile._CHUNK_LINES + 7] = "# comment " + lines[bfile._CHUNK_LINES + 7]
    lines.insert(bfile._CHUNK_LINES + 8, lines[bfile._CHUNK_LINES + 7][len("# comment "):])
    records = parse_bfile("".join(lines))
    assert [r.index for r in records] == list(range(1, 3 * bfile._CHUNK_LINES + 1))
    assert records == reference_parse("".join(lines))


def test_parse_keeps_one_int_per_record():
    # The values take about 8.4 bytes per record in an array("q"), read
    # from a list of lines one at a time; a list of ints took about 40, and
    # a named tuple per record about 140.
    lines = [f"{n} {a}\n" for n, a in zip(range(1, 50_001), _column("a", 1))]
    tracemalloc.start()
    try:
        records = parse_bfile(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == [BFileRecord(n, int(line.split()[1])) for n, line in enumerate(lines, start=1)]
    assert peak < 16 * len(lines)


def test_parse_of_a_file_keeps_one_block_of_work(tmp_path):
    # A block of whole lines costs about 12 bytes per character while it is
    # checked (its text, the rebuilt text, two tokens and an index per line),
    # so the peak may pass the values by that for one block; the whole
    # file at once would take about 9 MB here.  The values themselves sit
    # in an array("q"), 8 bytes each plus the sixteenth that its growth
    # reserves, about 0.4 MB; a list of ints took about 2.2 MB.
    values = list(islice(_column("a", 1), 50_000))
    path = tmp_path / "a.txt"
    path.write_text("".join(f"{n} {a}\n" for n, a in enumerate(values, start=1)), encoding="utf-8")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as source:
            records = parse_bfile(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == BFileRecords(1, values)
    kept = sys.getsizeof(records.values)
    if isinstance(records.values, list):
        kept += sum(map(sys.getsizeof, records.values))
    assert kept <= 8 * (len(values) + len(values) // 16 + 7) + sys.getsizeof(array("q"))
    assert peak - kept < 16 * bfile._BLOCK_CHARS


# --- The value store: an array("q") while every value fits in 64 bits --------

# Each edge value, and the store a parse that meets it ends with.
EDGE_STORES = {2**63 - 1: array, -(2**63): array, 2**63: list, -(2**63) - 1: list}


def edge_file(value, place, layout):
    """(text, canonical text, block size): 300 plain lines from index 1000
    with `value` at the first record or at the 151st, laid out as is, after
    a '#' header, or with tabs, and a block size that puts the edge line in
    the middle of the first block that holds it or at that block's end."""
    lines = plain_lines(300, start=1000)
    at = 0 if place == "first" else 150
    lines[at] = f"{1000 + at} {value}\n"
    canonical = "".join(lines)
    if layout == "tabs":
        lines = [line.replace(" ", "\t") for line in lines]
    head = "# A005228\n\n" if layout == "header" else ""
    text = head + "".join(lines)
    # The first read ends at a newline, so the first block ends there too.
    end = len(head) + len("".join(lines[: at + (1 if place == "block end" else 11)]))
    return text, canonical, end


@pytest.mark.parametrize("value", list(EDGE_STORES))
@pytest.mark.parametrize("place", ["first", "middle", "block end"])
@pytest.mark.parametrize("layout", ["plain", "header", "tabs", "list"])
def test_parse_keeps_each_value_at_the_64_bit_edges(value, place, layout):
    text, canonical, block = edge_file(value, place, layout)
    source = text.splitlines(keepends=True) if layout == "list" else io.StringIO(text)
    with mock.patch.object(bfile, "_BLOCK_CHARS", block):
        records = parse_bfile(source)
    assert type(records.values) is EDGE_STORES[value]
    expected = reference_parse(text)
    assert records == expected and len(records.values) == len(expected) == 300
    assert records[0 if place == "first" else 150].value == value
    sink = io.StringIO()
    write_bfile(records, sink)
    assert sink.getvalue() == canonical


def test_parse_switches_to_a_list_in_a_later_block():
    # 3000 plain lines in 4096-character blocks: seven blocks, and line 2500
    # past 64 bits in the sixth, after five blocks filled the array.  A
    # switch that dropped those blocks, or a fill that appended part of the
    # sixth before it overflowed, would not give the values back.
    values = [3 * n for n in range(1, 3001)]
    values[2499] = 2**63 + 5
    text = "".join(f"{n} {value}\n" for n, value in enumerate(values, start=1))
    # A block ends at the last newline of its read; line 2500's ends at the
    # character before "2501 ".
    assert (text.index("\n2501 ") // 4096, len(text) // 4096) == (5, 6)
    with mock.patch.object(bfile, "_BLOCK_CHARS", 4096):
        records = parse_bfile(io.StringIO(text))
    assert type(records.values) is list and records.values == values
    sink = io.StringIO()
    write_bfile(records, sink)
    assert sink.getvalue() == text


def test_parse_and_compare_values_past_64_bits(tmp_path):
    # a near index 10**12 is about 5e23, past 2**63 from the first record.
    values = list(islice(_column("a", 10**12), 3000))
    assert values[0] > 2**63
    path = tmp_path / "far.txt"
    text = "".join(f"{n} {a}\n" for n, a in zip(count(10**12), values))
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as source:
        records = parse_bfile(source)
    assert type(records.values) is list
    assert records == BFileRecords(10**12, values)
    assert compare_reference(records, "a") == CheckReport("compare:a", 10**12, 10**12 + 2999, True, None)
    sink = io.StringIO()
    write_bfile(records, sink)
    assert sink.getvalue() == text


@pytest.mark.parametrize("first", [1, 998, 10**12])
def test_records_are_equal_across_stores(first):
    values = [3 * n - 7 for n in range(first, first + 40)]
    stored, listed = BFileRecords(first, array("q", values)), BFileRecords(first, values)
    assert stored == listed and listed == stored
    assert not (stored != listed or listed != stored)
    assert repr(stored) == repr(listed) == f"BFileRecords(first={first}, values={values!r})"
    empty = BFileRecords(first, array("q"))
    assert empty == BFileRecords(first + 5, []) and BFileRecords(first + 5, []) == empty
    assert repr(empty) == f"BFileRecords(first={first}, values=[])"
    changed = values.copy()
    changed[17] += 1
    for other in (
        BFileRecords(first, changed),
        BFileRecords(first + 1, values),
        BFileRecords(first, values[:-1]),
        BFileRecords(first, array("q", changed)),
    ):
        assert stored != other and other != stored
        assert not (stored == other or other == stored)
        if type(other.values) is list:
            assert listed != BFileRecords(other.first, array("q", other.values))


@pytest.mark.parametrize("where", [None, 5, bfile._CHUNK_LINES + 500, 3 * bfile._CHUNK_LINES + 4])
def test_compare_reports_alike_on_both_stores(where):
    # Three whole chunks and five values: a mismatch in the first chunk, a
    # middle one, or on the last value, of the last chunk.
    values = list(islice(_column("a", 1), 3 * bfile._CHUNK_LINES + 5))
    expected = CheckReport("compare:a", 1, len(values), True, None)
    if where is not None:
        values[where] += 1
        failure = (where + 1, f"expected {values[where] - 1}, b-file has {values[where]}")
        expected = expected._replace(passed=False, first_failure=failure)
    for store in (array("q", values), values):
        assert compare_reference(BFileRecords(1, store), "a") == expected


@pytest.mark.parametrize("first", [1, 998, 10**12])
def test_write_spells_each_line_as_str_does(first):
    values = [3 * n - 7 for n in range(first, first + 2 * bfile._CHUNK_LINES + 5)]
    values[3] = True
    want = "".join(f"{n} {value}\n" for n, value in zip(count(first), values))
    assert f"{first + 3} True\n" in want
    for records in (
        BFileRecords(first, values),
        [BFileRecord(n, value) for n, value in zip(count(first), values)],
        list(zip(count(first), values)),
    ):
        sink = io.StringIO()
        write_bfile(records, sink)
        assert sink.getvalue() == want


def test_write_makes_one_call_per_block():
    records = [BFileRecord(n, -n) for n in range(5, 5 + 2 * bfile._CHUNK_LINES + 1)]
    sink = mock.Mock()
    write_bfile(tuple(records), sink)
    blocks = [call.args[0] for call in sink.write.call_args_list]
    assert len(blocks) == 3
    assert "".join(blocks) == "".join(f"{index} {value}\n" for index, value in records)


# --- BFileRecords against the list of records it replaces --------------------


SLICE_ENDS = st.none() | st.integers(-15, 15)


@given(
    first=st.sampled_from([1, 2, 9, 10**12]),
    values=st.lists(st.integers(-(10**20), 10**20), max_size=12),
    window=st.builds(slice, SLICE_ENDS, SLICE_ENDS, st.none() | st.integers(-4, 4).filter(bool)),
)
def test_records_behave_like_the_list_they_replace(first, values, window):
    records = BFileRecords(first, list(values))
    expected = [BFileRecord(first + i, value) for i, value in enumerate(values)]
    assert len(records) == len(expected)
    for i in range(-len(expected) - 2, len(expected) + 2):
        if -len(expected) <= i < len(expected):
            assert type(records[i]) is BFileRecord
            assert records[i] == expected[i]
        else:
            with pytest.raises(IndexError):
                records[i]
    assert type(records[window]) is list
    assert all(type(record) is BFileRecord for record in records[window])
    assert records[window] == expected[window]
    assert all(type(record) is BFileRecord for record in records)
    assert list(records) == expected
    assert list(reversed(records)) == expected[::-1]
    # == and != as the list gives them: equal to lists of the same records
    # or pairs, never to a tuple, and unequal to any other list.
    for other in (expected, [tuple(record) for record in expected], BFileRecords(first, list(values))):
        assert records == other and other == records
        assert not (records != other or other != records)
    assert records != tuple(expected) and tuple(expected) != records
    assert not (records == tuple(expected) or tuple(expected) == records)
    longer = expected + [BFileRecord(first + len(expected), 0)]
    others = [longer, tuple(longer)]
    if expected:
        index, value = expected[-1]
        others += [expected[:-1], expected[:-1] + [BFileRecord(index, value + 1)], longer[1:]]
        others += [BFileRecords(first + 1, values), BFileRecords(first, values[:-1])]
    for other in others:
        assert records != other and other != records
        assert not (records == other or other == records)
    with pytest.raises(TypeError):
        hash(records)
    assert not hasattr(records, "append")


# --- compare_reference across windows of constant u -------------------------


@pytest.fixture(scope="module")
def reference_columns():
    columns = {}
    for seq, filename in (("a", "b005228.txt"), ("b", "b030124.txt"), ("u", "b225687.txt")):
        with open(DATA / filename, encoding="utf-8") as source:
            columns[seq] = [record.value for record in parse_bfile(source)]
    return columns


# u = 42 on the window 1038..1086, 43 on 1087..1136 and 44 on 1137..1187,
# so LO and HI sit mid-window and the range spans window starts, middles
# and ends.
LO, HI = 1050, 1160
FAILURE_POINTS = {
    "lo": LO,
    "window start": 1087,
    "mid-window": 1110,
    "window end": 1136,
    "hi": HI,
}


def test_windows_around_the_failure_points(reference_columns):
    u = reference_columns["u"]
    assert u[1037 - 1] == 41 and u[1038 - 1] == u[1086 - 1] == 42
    assert u[1087 - 1] == u[1136 - 1] == 43 and u[1137 - 1] == u[1187 - 1] == 44


@pytest.mark.parametrize("seq", ["a", "b", "u"])
@pytest.mark.parametrize("where", list(FAILURE_POINTS))
def test_compare_reports_the_first_mismatch(reference_columns, seq, where):
    column = reference_columns[seq]
    records = [BFileRecord(n, column[n - 1]) for n in range(LO, HI + 1)]
    at = FAILURE_POINTS[where]
    records[at - LO] = BFileRecord(at, column[at - 1] + 1)
    if at < HI:
        records[HI - LO] = BFileRecord(HI, column[HI - 1] - 1)  # a later mismatch
    report = compare_reference(tuple(records), seq)
    assert report == CheckReport(
        f"compare:{seq}", LO, HI, False,
        (at, f"expected {column[at - 1]}, b-file has {column[at - 1] + 1}"),
    )


@pytest.mark.parametrize("seq", ["a", "b", "u"])
def test_compare_passes_from_mid_window(reference_columns, seq):
    column = reference_columns[seq]
    records = tuple(BFileRecord(n, column[n - 1]) for n in range(LO, HI + 1))
    assert compare_reference(records, seq) == CheckReport(f"compare:{seq}", LO, HI, True, None)


@pytest.mark.parametrize(
    "indices,message",
    [
        ([1, 3], "records not contiguous at index 3"),
        ([3, 2], "records not contiguous at index 2"),
        ([2, 3, 5, 0], "records not contiguous at index 5"),
        ([0, 1], "record index must be >= 1, got 0"),
        ([5, 0], "record index must be >= 1, got 0"),
        ([-4, -3], "record index must be >= 1, got -4"),
    ],
)
def test_non_contiguous_records_are_named(indices, message):
    # Plain (index, value) pairs are named just as the named records are.
    for records in ([BFileRecord(index, 1) for index in indices], [(index, 1) for index in indices]):
        for call in (lambda: compare_reference(records, "a"), lambda: write_bfile(records, io.StringIO())):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message


@pytest.mark.parametrize("seq", ["a", "b", "u"])
@pytest.mark.parametrize("lo", [1, LO])
def test_plain_pairs_are_taken_as_records(reference_columns, seq, lo):
    # Plain (index, value) tuples compare equal to the records, so they are
    # written and compared as the records are.
    column = reference_columns[seq]
    records = [BFileRecord(n, column[n - 1]) for n in range(lo, HI + 1)]
    pairs = [tuple(record) for record in records]
    written = []
    for given_records in (records, pairs):
        sink = io.StringIO()
        write_bfile(given_records, sink)
        written.append(sink.getvalue())
        assert compare_reference(given_records, seq) == CheckReport(f"compare:{seq}", lo, HI, True, None)
    assert written[0] == written[1]


def reference_compare(records, seq):
    """compare_reference as it was before its one C-level scan, kept as the
    reference: one window of constant u at a time, each window's record
    values compared as a list with the window's column, and only a window
    that differs scanned value by value."""
    lo, hi = records[0].index, records[-1].index
    name = f"compare:{seq}"
    found = map(itemgetter(1), records)
    left = len(records)
    for n, a, first, end, k in _runs(lo):
        width = min(end - first, left)
        if seq == "b":
            expected = list(range(first, first + width))
        elif seq == "u":
            expected = [k] * width
        else:
            expected = list(islice(accumulate(range(first, end), initial=a), width))
        got = list(islice(found, width))
        if got != expected:
            for index, want, have in zip(count(n), expected, got):
                if want != have:
                    return CheckReport(
                        name, lo, hi, False,
                        (index, f"expected {want}, b-file has {have}"),
                    )
        left -= width
        if not left:
            return CheckReport(name, lo, hi, True, None)


def parsed(records):
    """The records written as b-file lines and read back by parse_bfile."""
    return parse_bfile(f"{index} {value}\n" for index, value in records)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compare_matches_the_window_by_window_reference(data):
    seq = data.draw(st.sampled_from("abu"), label="seq")
    lo = data.draw(st.integers(1, 20_000), label="lo")
    length = data.draw(st.integers(1, 3000), label="length")
    rows = list(islice(_rows(lo), length))
    values = [getattr(row, seq) for row in rows]
    # Up to three values off by a little: at either end of the records, at
    # the first or last row of a window of constant u, or anywhere.
    places = st.one_of(
        st.just(0),
        st.just(length - 1),
        st.sampled_from([i for i in range(length) if i == 0 or rows[i].u != rows[i - 1].u]),
        st.sampled_from([i for i in range(length) if i == length - 1 or rows[i].u != rows[i + 1].u]),
        st.integers(0, length - 1),
    )
    for _ in range(data.draw(st.integers(0, 3), label="faults")):
        values[data.draw(places)] += data.draw(st.integers(-3, 3).filter(bool))
    container = data.draw(st.sampled_from([list, tuple, parsed]))
    records = container([BFileRecord(lo + i, value) for i, value in enumerate(values)])
    assert compare_reference(records, seq) == reference_compare(records, seq)
