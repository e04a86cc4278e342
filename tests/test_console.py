"""The console program end to end: `python -m figfig` run as a child on the
reference b-files, on files it wrote itself, and far out, with each output
checked byte for byte or line by line here."""

import subprocess
import sys
from collections import deque
from itertools import islice
from pathlib import Path

import pytest

from figfig import value_at
from figfig.stream import _column

from children import run_figfig, run_python, started

DATA = Path(__file__).resolve().parent / "data"
REFERENCES = {"a": "b005228", "b": "b030124", "u": "b225687"}
LAWS = ("partition", "identities", "bounds")
REMAINDER_HEADER = "n,order,exact,series,remainder,scaled"
# A parent that runs its argv as a child and then prints that child's
# peak RSS in KiB.  The test process's own RUSAGE_CHILDREN is the maximum
# over every child it has run, so it would hide the peak of one compare.
# The child gets 50 s, inside the parent's 60, so it cannot outlive it.
PEAK_OF_CHILD = (
    "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, timeout=50); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def reference_lines(seq):
    """The lines of seq's reference b-file, less its one '#' line, which
    gen does not write."""
    lines = (DATA / f"{REFERENCES[seq]}.txt").read_bytes().splitlines(keepends=True)
    return [line for line in lines if not line.startswith(b"#")]


def passes(*laws, upto):
    return "".join(f"{law} [1, {upto}]: PASS\n" for law in laws)


def changed(text, index, change, sep=" "):
    """text with the value on the line of index replaced by change(value),
    the rest as it is."""
    lines = text.splitlines(keepends=True)
    (number,) = [i for i, line in enumerate(lines) if line.split(sep)[0] == str(index)]
    value = lines[number].split(sep)[1].rstrip("\r\n")
    lines[number] = f"{index}{sep}{change(value)}\n"
    return "".join(lines)


def add_1(value):
    return str(int(value) + 1)


def append_1(value):
    return value + "1"


def assert_compare_fails_once(path, seq, prefix):
    # Status 1 and one FAIL line on stdout.
    proc = run_figfig("compare", "--seq", seq, "--bfile", str(path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.count("\n") == 1
    assert proc.stdout.startswith(prefix)


def assert_compare_passes(path, seq, lo, hi):
    proc = run_figfig("compare", "--seq", seq, "--bfile", str(path))
    assert (proc.returncode, proc.stdout) == (0, f"compare:{seq} [{lo}, {hi}]: PASS\n"), proc.stderr


def gen_out(path, *argv):
    """gen's b-file written to path by --out."""
    proc = run_figfig("gen", *argv, "--out", str(path))
    assert proc.returncode == 0, proc.stderr


def gen_stdout(path, *argv):
    """gen's stdout written to path, as a shell redirect writes it."""
    with open(path, "wb") as out:
        proc = run_figfig("gen", *argv, stdout=out)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("seq", "abu")
def test_gen_and_compare_match_the_reference_bfiles(tmp_path, seq):
    # Every data line of the reference file matches byte for byte.
    out = tmp_path / f"{seq}.txt"
    gen_out(out, "--seq", seq, "--count", "10000")
    assert out.read_bytes() == b"".join(reference_lines(seq))
    proc = run_figfig("compare", "--seq", seq, "--bfile", str(DATA / f"{REFERENCES[seq]}.txt"))
    assert proc.returncode == 0, proc.stderr


def test_gen_writes_the_triple_as_csv(tmp_path):
    # All four columns at once: the indices, then the value columns of the
    # three reference b-files.
    out = tmp_path / "triple.csv"
    gen_stdout(out, "--seq", "triple", "--count", "10000", "--format", "csv")
    columns = [[line.split()[1] for line in reference_lines(seq)] for seq in "abu"]
    rows = [b",".join(row) + b"\n" for row in zip((b"%d" % n for n in range(1, 10001)), *columns)]
    assert out.read_bytes() == b"n,a,b,u\n" + b"".join(rows)


def test_gen_writes_the_triple_as_csv_past_one_block(tmp_path):
    # From index 510884 on (u = 986) a window of constant u is wider than
    # the 1024 rows gen formats at a time, and at 10**6 the index column
    # gains a digit.  On every row u = b - n, n steps by 1 and
    # a_{n+1} = a_n + b_n, and the last row is n = 1100000.
    out = tmp_path / "wide.csv"
    gen_stdout(out, "--seq", "triple", "--count", "1100000", "--format", "csv")
    with open(out, encoding="utf-8") as rows:
        assert next(rows) == "n,a,b,u\n"
        n = a = b = 0
        for number, line in enumerate(rows, 2):
            next_n, next_a, next_b, u = map(int, line.split(","))
            laws = next_n == n + 1 and u == next_b - next_n and (number == 2 or next_a == a + b)
            assert laws, f"law broken at line {number}: {line}"
            n, a, b = next_n, next_a, next_b
    assert n == 1100000


def test_verify_passes_the_laws_to_1e8():
    # Exactly the three PASS lines, within 60 s: a window test that
    # stopped taking whole windows would walk 1e8 rows.
    proc = run_figfig("verify", "--check", "all", "--upto", "100000000", timeout=60)
    assert (proc.returncode, proc.stdout) == (0, passes(*LAWS, upto=100000000)), proc.stderr


def test_compare_fails_on_a_changed_value(tmp_path):
    # The a-file with the value at index 500 changed.
    bad = tmp_path / "bad.txt"
    text = (DATA / "b005228.txt").read_text(encoding="utf-8")
    bad.write_text(changed(text, 500, add_1), encoding="utf-8")
    assert_compare_fails_once(bad, "a", "compare:a [1, 10000]: FAIL at n=500: ")


@pytest.mark.parametrize("law", LAWS)
def test_verify_passes_each_law_alone_to_1e7(law):
    proc = run_figfig("verify", "--check", law, "--upto", "10000000", timeout=60)
    assert (proc.returncode, proc.stdout) == (0, passes(law, upto=10000000)), proc.stderr


def test_compare_reads_a_bfile_that_starts_far_in(tmp_path):
    # The a-file from index 5001 on: the comparison jumps there and checks
    # the values a chunk at a time from that first index.
    part = tmp_path / "part.txt"
    part.write_bytes(b"".join(reference_lines("a")[5000:]))
    assert_compare_passes(part, "a", 5001, 10000)


def test_compare_reads_a_bfile_of_250000_lines(tmp_path):
    # compare reads the file back about 32 KiB at a time: over many blocks,
    # with LF and with CRLF line ends, and with the value at index 200000
    # changed (a digit appended).
    long = tmp_path / "long.txt"
    gen_out(long, "--seq", "a", "--count", "250000")
    crlf = tmp_path / "long-crlf.txt"
    crlf.write_bytes(long.read_bytes().replace(b"\n", b"\r\n"))
    for path in long, crlf:
        assert_compare_passes(path, "a", 1, 250000)
    bad = tmp_path / "long-bad.txt"
    bad.write_text(changed(long.read_text(encoding="utf-8"), 200000, append_1), encoding="utf-8")
    assert_compare_fails_once(bad, "a", "compare:a [1, 250000]: FAIL at n=200000: ")


def test_compare_reads_a_million_lines_in_bounded_memory(tmp_path):
    # compare keeps the parsed values in an array("q"), 8 bytes each.  The
    # compare of 1e6 lines must pass and peak less than 16 MiB above a
    # 10-line compare: about 8 MiB above it with the array, about 38 MiB
    # with a list of ints.
    million, ten = tmp_path / "million.txt", tmp_path / "ten.txt"
    gen_out(million, "--seq", "a", "--count", "1000000")
    with open(million, "rb") as lines:
        ten.write_bytes(b"".join(islice(lines, 10)))
    peaks = []
    for path, lines in ((ten, 10), (million, 1000000)):
        compare = (sys.executable, "-m", "figfig", "compare", "--seq", "a", "--bfile", str(path))
        proc = run_python("-c", PEAK_OF_CHILD, *compare, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        result, peak = proc.stdout.splitlines()
        assert result == f"compare:a [1, {lines}]: PASS"
        peaks.append(int(peak))
    base, peak = peaks
    assert peak - base < 16 * 1024, f"compare peak RSS: {base} KiB for 10 lines, {peak} KiB for 1e6 lines"


def far_bfile(first, lines):
    """The first `lines` lines of a's b-file from index first, by a jump there."""
    return "".join(f"{n} {a}\n" for n, a in zip(range(first, first + lines), _column("a", first)))


def test_compare_reads_a_bfile_past_64_bits(tmp_path):
    # 3000 values of a from index 10**12, about 5e23 each, past 2^63 from
    # the first line, so compare keeps them in a list of ints, not an
    # array("q"); then a copy with the value at index 10**12 + 2000
    # changed (a digit appended).
    far, bad = tmp_path / "far.txt", tmp_path / "far-bad.txt"
    far.write_text(far_bfile(10**12, 3000), encoding="utf-8")
    assert_compare_passes(far, "a", 1000000000000, 1000000002999)
    bad.write_text(changed(far.read_text(encoding="utf-8"), 10**12 + 2000, append_1), encoding="utf-8")
    assert_compare_fails_once(bad, "a", "compare:a [1000000000000, 1000000002999]: FAIL at n=1000000002000: ")


def test_compare_reads_a_bfile_that_crosses_2_63_part_way(tmp_path):
    # 6000 values of a around the first index whose value is past 2^63 - 1
    # (near 4.2949e9): 3000 lines that fit in 64 bits, more than one 32 KiB
    # block, then 3000 that do not, so compare turns its array("q") into a
    # list in a later block; then a copy with the value 1000 lines past the
    # crossing changed (a digit appended).
    lo, hi = 1, 2**33
    while lo < hi:  # the first n with a_n >= 2^63
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if value_at("a", mid) >= 2**63 else (mid + 1, hi)
    first, last, bad_index = lo - 3000, lo + 2999, lo + 1000
    cross, bad = tmp_path / "cross.txt", tmp_path / "cross-bad.txt"
    cross.write_text(far_bfile(first, 6000), encoding="utf-8")
    with open(cross, "rb") as lines:
        assert len(b"".join(islice(lines, 3000))) > 32768
    assert_compare_passes(cross, "a", first, last)
    bad.write_text(changed(cross.read_text(encoding="utf-8"), bad_index, append_1), encoding="utf-8")
    assert_compare_fails_once(bad, "a", f"compare:a [{first}, {last}]: FAIL at n={bad_index}: ")


def test_gen_writes_and_compare_reads_indices_past_a_million(tmp_path):
    # gen writes its index column a thousand lines at a time from a
    # template, with the thousands prefix put in.  Each index of a u file
    # is the decimal of its line number, across the prefix's change of
    # width at 10**6; compare reads b-files of a and of b of that length
    # back.
    out = tmp_path / "u.csv"
    gen_stdout(out, "--seq", "u", "--format", "csv", "--count", "1100000")
    number = 0
    with open(out, encoding="utf-8") as lines:
        for number, line in enumerate(lines, 1):
            assert number == 1 or line.partition(",")[0] == str(number - 1), f"line {number}: {line}"
    assert number == 1100001
    for seq in "ab":
        path = tmp_path / f"{seq}.txt"
        gen_out(path, "--seq", seq, "--count", "1100000")
        assert_compare_passes(path, seq, 1, 1100000)


def test_gen_streams_u_past_the_held_head():
    # The stream's lag holds a_1..a_64 and reads a_65 from a nested walk
    # from index 2896929 on.  The last of 3e6 streamed rows, read from the
    # pipe, must be the line of index 3000000 with the u that a jump to it
    # gives, within 60 s.
    argv = ("-m", "figfig", "gen", "--seq", "u", "--count", "3000000")
    with started(*argv, stdout=subprocess.PIPE, text=True) as proc:
        last = deque(proc.stdout, maxlen=1)
        assert proc.wait() == 0
    assert list(last) == [f"3000000 {value_at('u', 3 * 10**6)}\n"]


def test_compare_reads_a_bfile_separated_by_tabs(tmp_path):
    # Tabs fail the one-% check of each block, so the line reader reads the
    # whole file, its '#' header too; then a copy with the value at index
    # 7000 changed.
    lines = (DATA / "b005228.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    tabs, bad = tmp_path / "tabs.txt", tmp_path / "tabs-bad.txt"
    tabbed = (line if line.startswith("#") else line.replace(" ", "\t", 1) for line in lines)
    tabs.write_text("".join(tabbed), encoding="utf-8")
    assert tabs.read_text(encoding="utf-8").startswith("# A005228")
    assert_compare_passes(tabs, "a", 1, 10000)
    bad.write_text(changed(tabs.read_text(encoding="utf-8"), 7000, add_1, "\t"), encoding="utf-8")
    assert_compare_fails_once(bad, "a", "compare:a [1, 10000]: FAIL at n=7000: ")


def exact_column(text):
    return [line.split(",")[2] for line in text.splitlines()]


def test_remainder_gives_a_at_1e12_exactly():
    # The exact column at n = 10**12 holds the value of a recorded on its
    # own, not derived from the walk that computes it.
    proc = run_figfig("remainder", "--seq", "a", "--order", "1", "--ns", "1000000000000")
    assert proc.returncode == 0, proc.stderr
    assert exact_column(proc.stdout) == ["exact", "500000941936492050650505"]


def test_remainder_gives_a_at_1e15_exactly():
    # The jump to n = 10**15 steps over whole runs of windows of constant
    # u, under 10,000 steps; one window at a time it took 4.5e7 steps and
    # about 14 s, past the timeout.  The exact column holds the value
    # recorded in tests/test_stream.py.
    proc = run_figfig("remainder", "--seq", "a", "--order", "1", "--ns", "1000000000000000", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert exact_column(proc.stdout) == ["exact", "500000029809255627825531266625"]


def test_remainder_over_decades_to_1e18():
    # Each index is read by its own jump, about (8n)^(1/4) steps, so the
    # whole table takes well under a second: the header and 18 rows, and
    # at n = 10**15 the exact value recorded in tests/test_stream.py.
    proc = run_figfig("remainder", "--seq", "a", "--order", "2", "--decades", "1:18", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 19
    lines = proc.stdout.splitlines()
    assert lines[0] == REMAINDER_HEADER
    far = [line.split(",")[2] for line in lines if line.startswith("1000000000000000,")]
    assert far == ["500000029809255627825531266625"]


def test_coeffs_approx_and_remainder_run_as_programs():
    # Each subcommand imports its modules only when it runs, so each is
    # run once in a fresh interpreter.
    proc = run_figfig("coeffs", "--order", "4")
    assert (proc.returncode, proc.stdout) == (0, "2, -4/3, 16/15, -128/135\n"), proc.stderr
    for argv in (
        ("approx", "--seq", "a", "--order", "3", "--n", "1000"),
        ("remainder", "--seq", "u", "--order", "1", "--decades", "1:3", "--format", "csv"),
        ("remainder", "--seq", "u", "--order", "1", "--decades", "1:3", "--format", "jsonl"),
    ):
        proc = run_figfig(*argv)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("seq", "au")
def test_remainder_table_over_many_rows(seq):
    # 2858 indices, 1 to 20000 in steps of 7, each row summed by the
    # per-index remainder kernel: exact - series = remainder to
    # 1e-9 * max(1, |exact|) on every row, in doubles.
    ns = ",".join(map(str, range(1, 20001, 7)))
    proc = run_figfig("remainder", "--seq", seq, "--order", "3", "--ns", ns)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == REMAINDER_HEADER
    for number, row in enumerate(rows, 2):
        exact, series, remainder = map(float, row.split(",")[2:5])
        gap = abs(exact - series - remainder)
        assert gap <= 1e-9 * max(1.0, abs(exact)), f"remainder off at line {number}: {row}"
    assert len(rows) == 2858


def test_console_runs_without_site():
    # `python -S` loads no site hook and no installed package, so figfig
    # runs on the standard library alone, from the tree under test, and
    # every annotation is evaluated at import on this Python.
    proc = run_figfig("gen", "--seq", "a", "--count", "10000", flags=("-S",), text=False)
    assert (proc.returncode, proc.stdout) == (0, b"".join(reference_lines("a"))), proc.stderr
    proc = run_figfig("verify", "--check", "all", "--upto", "100000", flags=("-S",))
    assert (proc.returncode, proc.stdout) == (0, passes(*LAWS, upto=100000)), proc.stderr
