"""B-file parsing, writing, and comparison against the generator."""

import io
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from figfig import BFileFormatError, BFileRecord, compare_reference, parse_bfile, write_bfile

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
