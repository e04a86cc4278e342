"""Command line behaviour: output bytes, exit codes, error routing."""

import contextlib
import io
import json
import os
import re
import stat
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from figfig import BFileRecords, cli, compare_reference, parse_bfile, run_cli, stream, value_at, write_bfile

from children import run_figfig, started
from oracle import oracle_triples

COLUMNS = ("n", "a", "b", "u")
GEN_PAIRS = [
    (seq, fmt)
    for seq in ("a", "b", "u", "triple")
    for fmt in ("bfile", "csv", "jsonl")
    if (seq, fmt) != ("triple", "bfile")
]
ORACLE_ROWS = 20_000
# Runs of constant u cover the indices (a_k - k, a_{k+1} - (k + 1)]: 1, 2-4,
# 5-8, 9-13, 14-20, ...  So 20 rows end exactly at a run end, 17 inside one.
RUN_END, MID_RUN = 20, 17


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_bfile_bytes(capsys):
    code, out, err = run(capsys, "gen", "--seq", "a", "--count", "10")
    assert code == 0
    assert out == "1 1\n2 3\n3 7\n4 12\n5 18\n6 26\n7 35\n8 45\n9 56\n10 69\n"
    assert err == ""


def test_gen_output_is_byte_stable(capsys):
    first = run(capsys, "gen", "--seq", "b", "--count", "200")
    second = run(capsys, "gen", "--seq", "b", "--count", "200")
    assert first == second
    assert first[0] == 0


def test_gen_csv_triple(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "triple", "--count", "3", "--format", "csv")
    assert code == 0
    assert out == "n,a,b,u\n1,1,2,1\n2,3,4,2\n3,7,5,2\n"


def test_gen_csv_single_sequence_header(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "u", "--count", "2", "--format", "csv")
    assert code == 0
    assert out == "n,u\n1,1\n2,2\n"


def test_gen_jsonl(capsys):
    code, out, _ = run(capsys, "gen", "--seq", "triple", "--count", "2", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"n": 1, "a": 1, "b": 2, "u": 1}, {"n": 2, "a": 3, "b": 4, "u": 2}]


def test_gen_triple_cannot_be_a_bfile(tmp_path, capsys):
    usage = (2, "", "error: bfile format holds one sequence; use --seq a, b, or u\n")
    assert run(capsys, "gen", "--seq", "triple", "--count", "3") == usage
    target = tmp_path / "triple.txt"
    assert run(capsys, "gen", "--seq", "triple", "--count", "3", "--out", str(target)) == usage
    assert not target.exists()


def test_gen_to_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "a.txt"
    code, out, _ = run(capsys, "gen", "--seq", "a", "--count", "50", "--out", str(target))
    assert code == 0
    assert out == ""
    stdout_code, stdout_text, _ = run(capsys, "gen", "--seq", "a", "--count", "50")
    assert stdout_code == 0
    assert target.read_text(encoding="utf-8") == stdout_text


@lru_cache(maxsize=None)
def oracle_table():
    return tuple(oracle_triples(ORACLE_ROWS))


def expected_gen(seq, fmt, count):
    """What `figfig gen` must print, built row by row from the oracle."""
    names = COLUMNS if seq == "triple" else ("n", seq)
    records = [dict(zip(COLUMNS, row)) for row in oracle_table()[:count]]
    if fmt == "jsonl":
        return "".join(json.dumps({name: r[name] for name in names}) + "\n" for r in records)
    if fmt == "bfile":
        return "".join(f"{r['n']} {r[seq]}\n" for r in records)
    if seq == "triple":
        lines = [f"{r['n']},{r['a']},{r['b']},{r['u']}\n" for r in records]
    else:
        lines = [f"{r['n']},{r[seq]}\n" for r in records]
    return ",".join(names) + "\n" + "".join(lines)


def assert_same_text(got, want):
    """got == want exactly; a mismatch fails at once, naming the first line
    that differs, where pytest's own diff of two long texts can take minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    index = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )
    got_line, want_line = (lines[index] if index < len(lines) else None for lines in (got_lines, want_lines))
    pytest.fail(
        f"first difference at line {index + 1}: got {got_line!r}, expected {want_line!r}"
        f" ({len(got_lines)} lines against {len(want_lines)} expected)"
    )


def test_assert_same_text_names_the_first_differing_line():
    assert_same_text("1 1\n2 3\n", "1 1\n2 3\n")
    for got, want, message in [
        ("1 1\n2 4\n3 7\n", "1 1\n2 3\n3 7\n", "line 2: got '2 4\\n', expected '2 3\\n' (3 lines against 3 "),
        ("1 1\n", "1 1\n2 3\n", "line 2: got None, expected '2 3\\n' (1 lines against 2 "),
        ("1 1\n2 3", "1 1\n2 3\n", "line 2: got '2 3', expected '2 3\\n' (2 lines against 2 "),
    ]:
        with pytest.raises(pytest.fail.Exception, match=re.escape(message)):
            assert_same_text(got, want)


def test_run_end_and_mid_run_counts():
    u = [row[3] for row in oracle_table()]
    assert u[RUN_END - 1] != u[RUN_END]
    assert u[MID_RUN - 1] == u[MID_RUN]


@pytest.mark.parametrize("count", [1, 2, 3, 4, RUN_END, MID_RUN, 5000])
@pytest.mark.parametrize("seq,fmt", GEN_PAIRS)
def test_gen_matches_the_oracle_byte_for_byte(capsys, seq, fmt, count):
    code, out, err = run(capsys, "gen", "--seq", seq, "--count", str(count), "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_text(out, expected_gen(seq, fmt, count))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, ORACLE_ROWS), pair=st.sampled_from(["triple csv", "a jsonl"]))
def test_gen_matches_the_oracle_at_any_count(count, pair):
    seq, fmt = pair.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(["gen", "--seq", seq, "--count", str(count), "--format", fmt]) == 0
    assert_same_text(out.getvalue(), expected_gen(seq, fmt, count))


def wide_window(rows):
    """First and last index of the first oracle window of more than `rows` rows."""
    u = [row[3] for row in oracle_table()]
    lo = 1
    for n in range(2, len(u) + 1):
        if u[n - 1] != u[n - 2]:
            if n - lo > rows:
                return lo, n - 1
            lo = n
    raise AssertionError("no window that wide in the oracle rows")


SMALL_BLOCK = 7
# Where a count ends, relative to the first window more than three small
# blocks wide: on the window boundary before it, on its first block
# boundary, inside its second block, on its own last row, or far past it.
SPLIT_ENDS = {
    "window boundary": lambda lo, hi: lo - 1,
    "block boundary": lambda lo, hi: lo - 1 + SMALL_BLOCK,
    "mid-block": lambda lo, hi: lo - 1 + SMALL_BLOCK + 3,
    "window end": lambda lo, hi: hi,
    "far": lambda lo, hi: 5000,
}


@pytest.mark.parametrize("end", SPLIT_ENDS)
@pytest.mark.parametrize("seq,fmt", GEN_PAIRS)
def test_gen_split_into_small_blocks_matches_the_oracle(monkeypatch, capsys, seq, fmt, end):
    lo, hi = wide_window(3 * SMALL_BLOCK)
    count = SPLIT_ENDS[end](lo, hi)
    monkeypatch.setattr(cli, "_GEN_BLOCK", SMALL_BLOCK)
    code, out, err = run(capsys, "gen", "--seq", seq, "--count", str(count), "--format", fmt)
    assert (code, err) == (0, "")
    assert_same_text(out, expected_gen(seq, fmt, count))


def test_gen_chunks_hold_at_most_one_block_of_rows():
    # Windows of constant u are wider than 1024 rows from index 510884
    # (u = 986) on, so the run below splits some of them.
    assert cli._GEN_BLOCK == 1024
    count = 512_000
    template = cli._GEN_FORMATS["triple", "csv"][1]
    chunks = list(cli._gen_chunks(template, "triple", count))
    sizes = [chunk.count("\n") for chunk in chunks]
    assert (max(sizes), sum(sizes)) == (1024, count)
    # The far chunks: one window's rows each, contiguous, and the laws hold.
    rows = []
    for chunk in chunks[-8:]:
        block = [tuple(map(int, line.split(","))) for line in chunk.splitlines()]
        assert len({u for _, _, _, u in block}) == 1
        rows += block
    assert rows[-1][0] == count
    for (n, a, b, u), (n_next, a_next, _, _) in zip(rows, rows[1:]):
        assert (n_next, a_next, u) == (n + 1, a + b, b - n)


def test_gen_and_bfile_keep_one_line_template_each(monkeypatch, capsys):
    monkeypatch.setattr(stream, "_THOUSANDS", {})
    for seq, fmt in GEN_PAIRS:
        assert run(capsys, "gen", "--seq", seq, "--count", "2500", "--format", fmt)[0] == 0
    sink = io.StringIO()
    write_bfile(BFileRecords(990, list(range(3000))), sink)
    assert parse_bfile(sink.getvalue()) == BFileRecords(990, list(range(3000)))
    lines = {line for _, line in cli._GEN_FORMATS.values()}
    assert set(stream._THOUSANDS) == lines | {("", " %s\n")}


@pytest.mark.parametrize("seq,fmt", GEN_PAIRS)
def test_gen_out_file_matches_stdout_in_every_format(tmp_path, capsys, seq, fmt):
    argv = ["gen", "--seq", seq, "--count", "1000", "--format", fmt]
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("earlier", [None, "earlier contents\n"])
def test_interrupted_gen_leaves_no_partial_out_file(tmp_path, monkeypatch, capsys, earlier):
    target = tmp_path / "a.txt"
    if earlier is not None:
        target.write_text(earlier, encoding="utf-8")
    real_runs = cli._runs

    def one_run_then_interrupt(start):
        yield next(real_runs(start))
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_runs", one_run_then_interrupt)
    code, out, err = run(capsys, "gen", "--seq", "a", "--count", "100", "--out", str(target))
    assert (code, out, err) == (130, "", "interrupted\n")
    if earlier is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text(encoding="utf-8") == earlier


def test_gen_into_a_missing_directory_names_the_out_file(tmp_path, capsys):
    target = tmp_path / "missing" / "a.txt"
    code, out, err = run(capsys, "gen", "--seq", "a", "--count", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_replaces_an_existing_out_file(tmp_path, capsys):
    target = tmp_path / "a.txt"
    target.write_text("a longer earlier file\n" * 10, encoding="utf-8")
    assert run(capsys, "gen", "--seq", "a", "--count", "3", "--out", str(target))[0] == 0
    assert target.read_text(encoding="utf-8") == "1 1\n2 3\n3 7\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.skipif(os.name != "posix", reason="permission bits are POSIX")
@pytest.mark.parametrize(
    "earlier,umask,mode",
    [(None, 0o022, 0o644), (None, 0o077, 0o600), (None, 0o002, 0o664), (0o600, 0o022, 0o600)],
)
def test_out_file_mode_is_that_of_a_plain_open(tmp_path, capsys, earlier, umask, mode):
    target = tmp_path / "a.txt"
    if earlier is not None:
        target.write_text("earlier\n", encoding="utf-8")
        target.chmod(earlier)
    previous = os.umask(umask)
    try:
        code = run(capsys, "gen", "--seq", "a", "--count", "3", "--out", str(target))[0]
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


@pytest.mark.skipif(os.name != "posix", reason="symlinks and pipes are POSIX")
def test_out_writes_through_a_symlink(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("earlier\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert run(capsys, "gen", "--seq", "a", "--count", "3", "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "1 1\n2 3\n3 7\n"
    assert sorted(tmp_path.iterdir()) == [link, real]


@pytest.mark.skipif(os.name != "posix", reason="symlinks and pipes are POSIX")
def test_out_to_a_pipe_writes_into_it(tmp_path, capsys):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = subprocess.Popen(
        [sys.executable, "-c", "import sys; print(open(sys.argv[1]).read(), end='')", str(pipe)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        code = run(capsys, "gen", "--seq", "a", "--count", "3", "--out", str(pipe))[0]
        received, _ = reader.communicate(timeout=60)
    finally:
        reader.kill()
        reader.wait()
    assert (code, received) == (0, "1 1\n2 3\n3 7\n")
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert list(tmp_path.iterdir()) == [pipe]


def test_coeffs_default_series(capsys):
    code, out, err = run(capsys, "coeffs", "--order", "4")
    assert code == 0
    assert out == "2, -4/3, 16/15, -128/135\n"
    assert err == ""


def test_coeffs_summed_series(capsys):
    code, out, _ = run(capsys, "coeffs", "--order", "3", "--series", "a")
    assert code == 0
    assert out == "8/3, -32/15, 256/135\n"


# The last stderr line argparse prints after its usage line, by bad --order.
BAD_ORDER_LINES = {
    "0": "argument --order: series order must be in 1..64",
    "65": "argument --order: series order must be in 1..64",
    "x": "argument --order: expected an integer, got 'x'",
}


@pytest.mark.parametrize("order", ["0", "65", "x"])
def test_coeffs_rejects_bad_order(capsys, order):
    code, _, err = run(capsys, "coeffs", "--order", order)
    assert code == 2
    assert err.startswith("usage: figfig coeffs ")
    assert err.splitlines()[-1] == f"figfig coeffs: error: {BAD_ORDER_LINES[order]}"


@pytest.mark.parametrize("order", ["0", "65"])
@pytest.mark.parametrize(
    "argv", [["approx", "--seq", "u", "--n", "5"], ["remainder", "--seq", "u", "--ns", "5"]]
)
def test_series_commands_reject_bad_order(capsys, argv, order):
    code, out, err = run(capsys, *argv, "--order", order)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: figfig {argv[0]} ")
    assert err.splitlines()[-1] == f"figfig {argv[0]}: error: {BAD_ORDER_LINES[order]}"


def test_approx_single_point(capsys):
    code, out, _ = run(capsys, "approx", "--seq", "u", "--order", "1", "--n", "8")
    assert code == 0
    assert out == "n,series\n8,4\n"


def test_approx_repeatable_points(capsys):
    code, out, _ = run(capsys, "approx", "--seq", "b", "--order", "1", "--n", "2", "--n", "8")
    assert code == 0
    assert out == "n,series\n2,4\n8,12\n"


def test_approx_formats_fifteen_significant_digits(capsys):
    code, out, _ = run(capsys, "approx", "--seq", "u", "--order", "2", "--n", "8")
    assert code == 0
    assert out == "n,series\n8,2.11438191683587\n"


def test_approx_stdout_is_pinned(capsys):
    # data/approx_stdout.txt is the stdout of `figfig approx` for seq a, b, u
    # and, within each, order 1, 2, 3, 8, 64, one run each with every n
    # below: the bytes every series kernel must keep, on every Python
    # that runs the tests.
    ns = [1, 2, 3, 10, 10**3, 10**6, 10**9, 10**12, 10**15, 10**18]
    outs = []
    for seq in "abu":
        for order in (1, 2, 3, 8, 64):
            code, out, _ = run(capsys, "approx", "--seq", seq, "--order", str(order), *(f"--n={n}" for n in ns))
            assert code == 0
            outs.append(out)
    assert "".join(outs) == (Path(__file__).parent / "data" / "approx_stdout.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("seq, n", [("u", "1" + "0" * 400), ("b", "1" + "0" * 309), ("a", "1" + "0" * 155)])
def test_approx_past_the_double_range_is_an_input_error(capsys, seq, n):
    # The last --n is too large for a double-precision series; nothing is
    # written for the good one before it.
    code, out, err = run(capsys, "approx", "--seq", seq, "--order", "1", "--n", "8", "--n", n)
    assert (code, out) == (2, "")
    assert err.startswith("error: index too large for double-precision series: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("points", [("--ns", "1" + "0" * 160), ("--decades", "1:309")])
def test_remainder_past_the_double_range_is_an_input_error(capsys, monkeypatch, points):
    # Checked before any jump, which there would run for ever.
    def jump(start):
        raise AssertionError(f"jumped to {start}")

    monkeypatch.setattr(stream, "_runs", jump)
    seq = "a" if points[0] == "--ns" else "u"
    code, out, err = run(capsys, "remainder", "--seq", seq, "--order", "1", *points)
    assert (code, out) == (2, "")
    assert err.startswith("error: index too large for double-precision series: ")
    assert err.count("\n") == 1


def test_remainder_named_points(capsys):
    code, out, err = run(capsys, "remainder", "--seq", "u", "--order", "1", "--ns", "2,8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,order,exact,series,remainder,scaled"
    assert lines[1] == "2,1,2,2,0,0"
    assert lines[2].startswith("8,1,3,4,-1,-0.70710678118654")
    assert "note:" in err


def test_remainder_decades(capsys):
    code, out, _ = run(capsys, "remainder", "--seq", "u", "--order", "1", "--decades", "1:3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "100", "1000"]


def test_remainder_jsonl(capsys):
    code, out, _ = run(
        capsys, "remainder", "--seq", "a", "--order", "2", "--ns", "8", "--format", "jsonl"
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["n"] == 8
    assert row["order"] == 2
    assert row["exact"] == 45


def remainder_pins():
    """(argv, stdout) for each run recorded in data/remainder_stdout.txt."""
    text = (Path(__file__).parent / "data" / "remainder_stdout.txt").read_text(encoding="utf-8")
    pins = []
    for line in text.splitlines(keepends=True):
        if line.startswith("== "):
            seq, *points, fmt = line.split()[1:]
            argv = ["remainder", "--seq", seq, "--order", "2", *points, "--format", fmt]
            pins.append((argv, []))
        elif not line.startswith("#"):
            pins[-1][1].append(line)
    return [pytest.param(argv, "".join(lines), id=" ".join(argv[2:])) for argv, lines in pins]


@pytest.mark.parametrize("argv, expected", remainder_pins())
def test_remainder_stdout_is_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize("ns", ["5,3", "0,4", "7,7"])
def test_remainder_rejects_bad_points(capsys, ns):
    code, _, err = run(capsys, "remainder", "--seq", "u", "--order", "1", "--ns", ns)
    assert code == 2
    assert err.startswith("usage: figfig remainder ")
    assert err.splitlines()[-1] == (
        "figfig remainder: error: argument --ns: ns must be strictly increasing positive integers"
    )


def test_remainder_rejects_points_that_are_not_integers(capsys):
    code, out, err = run(capsys, "remainder", "--seq", "u", "--order", "1", "--ns", "1,x")
    assert (code, out) == (2, "")
    assert err.startswith("usage: figfig remainder ")
    assert err.splitlines()[-1] == (
        "figfig remainder: error: argument --ns: expected comma-separated integers"
    )


@pytest.mark.parametrize("decades", ["3", "1:2:3", "a:3", "1:", ""])
def test_remainder_rejects_malformed_decades(capsys, decades):
    code, _, err = run(capsys, "remainder", "--seq", "u", "--order", "1", "--decades", decades)
    assert code == 2
    assert err.splitlines()[-1] == (
        "figfig remainder: error: argument --decades: expected lo:hi with integer decades"
    )


def test_remainder_rejects_bad_decades(capsys):
    code, _, err = run(capsys, "remainder", "--seq", "u", "--order", "1", "--decades", "5:2")
    assert code == 2
    assert err.startswith("usage: figfig remainder ")
    assert err.splitlines()[-1] == (
        "figfig remainder: error: argument --decades: need 0 <= first decade <= last decade"
    )


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--check", "all", "--upto", "500")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith("PASS") for line in lines)
    assert lines[0].startswith("partition [1, 500]")


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "bounds", "--upto", "300")
    assert code == 0
    assert out == "bounds [1, 300]: PASS\n"


def test_verify_all_reaches_1e9(capsys):
    code, out, err = run(capsys, "verify", "--check", "all", "--upto", "1000000000")
    assert (code, err) == (0, "")
    assert out == "".join(
        f"{name} [1, 1000000000]: PASS\n" for name in ("partition", "identities", "bounds")
    )


def test_verify_identities_needs_two_terms(capsys):
    code, out, err = run(capsys, "verify", "--check", "identities", "--upto", "1")
    assert (code, out, err) == (2, "", "error: upto must be >= 2\n")


def test_verify_validates_every_check_before_output(capsys):
    code, out, err = run(capsys, "verify", "--check", "all", "--upto", "1")
    assert (code, out, err) == (2, "", "error: upto must be >= 2\n")


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_verify", interrupted)
    code, out, err = run(capsys, "verify", "--check", "all", "--upto", "5")
    assert (code, out, err) == (130, "", "interrupted\n")


@pytest.mark.parametrize("fault", [RuntimeError("broken invariant"), TypeError("bad operand")])
def test_internal_error_exits_70_with_its_traceback(monkeypatch, capsys, fault):
    def faulty(args):
        raise fault

    monkeypatch.setattr(cli, "_cmd_verify", faulty)
    code, out, err = run(capsys, "verify", "--check", "all", "--upto", "5")
    assert (code, out) == (70, "")
    assert err.startswith("Traceback (most recent call last):\n")
    lines = err.splitlines()
    assert lines[-2] == f"{type(fault).__name__}: {fault}"
    assert lines[-1].startswith("internal error: ")
    assert sum(line.startswith("internal error:") for line in lines) == 1


def test_a_bug_that_raises_value_error_exits_70(monkeypatch, capsys):
    # Only rejected input exits 2; a ValueError from figfig's own code is
    # a fault like any other.
    def faulty(*args):
        raise ValueError("incomplete format")

    monkeypatch.setattr(cli, "_gen_chunks", faulty)
    code, out, err = run(capsys, "gen", "--seq", "a", "--count", "5")
    assert (code, out) == (70, "")
    assert err.startswith("Traceback (most recent call last):\n")
    lines = err.splitlines()
    assert lines[-2] == "ValueError: incomplete format"
    assert sum(line.startswith("internal error:") for line in lines) == 1


def test_compare_of_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe1 1\n")
    code, out, err = run(capsys, "compare", "--seq", "a", "--bfile", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


@pytest.mark.parametrize("argv", [("gen", "--seq", "a", "--count", "3", "--out"), ("compare", "--seq", "a", "--bfile")])
def test_a_path_with_a_null_byte_is_an_input_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, str(tmp_path / "a\0b"))
    assert (code, out, err) == (2, "", "error: embedded null byte\n")
    assert list(tmp_path.iterdir()) == []


def test_compare_passing_file(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    run(capsys, "gen", "--seq", "u", "--count", "80", "--out", str(path))
    code, out, _ = run(capsys, "compare", "--seq", "u", "--bfile", str(path))
    assert code == 0
    assert out == "compare:u [1, 80]: PASS\n"


def test_gen_a_bfile_past_a_million(tmp_path, capsys):
    # The index prefix of the written lines gains a digit at 10**6.
    path, n = tmp_path / "a.txt", 1_000_500
    assert run(capsys, "gen", "--seq", "a", "--count", str(n), "--out", str(path)) == (0, "", "")
    with open(path, encoding="utf-8") as source:
        records = parse_bfile(source)
    assert compare_reference(records, "a").passed
    with open(path, "rb") as source:
        source.seek(-100, os.SEEK_END)
        last = source.read().decode().splitlines()[-1]
    assert last == f"{n} {value_at('a', n)}"


def test_compare_divergent_file(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text("1 1\n2 3\n3 8\n", encoding="utf-8")
    code, out, _ = run(capsys, "compare", "--seq", "a", "--bfile", str(path))
    assert code == 1
    assert "FAIL at n=3" in out


def test_compare_missing_file(capsys):
    code, _, err = run(capsys, "compare", "--seq", "a", "--bfile", "nowhere.txt")
    assert code == 2
    assert "error:" in err


def test_compare_malformed_file(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text("1 1\nbroken line\n", encoding="utf-8")
    code, _, err = run(capsys, "compare", "--seq", "a", "--bfile", str(path))
    assert code == 2
    assert "line 2" in err


def test_compare_gapped_file(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text("1 1\n3 7\n", encoding="utf-8")
    code, _, err = run(capsys, "compare", "--seq", "a", "--bfile", str(path))
    assert code == 2
    assert "gap at index 2" in err


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "gen", "--seq", "z", "--count", "3")[0] == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--seq", "a", "--count", "0"],
    ["verify", "--check", "all", "--upto", "0"],
    ["approx", "--seq", "u", "--order", "1", "--n", "0"],
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: figfig {argv[0]} ")
    assert err.splitlines()[-1] == f"figfig {argv[0]}: error: argument {argv[-2]}: must be >= 1"


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "gen" in out


def test_module_entry_point():
    proc = run_figfig("gen", "--seq", "a", "--count", "3")
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n2 3\n3 7\n"


def test_closed_stdout_ends_normally():
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with started("-m", "figfig", "gen", "--seq", "a", "--count", "200000", **pipes) as proc:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()  # as `| head -2` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
    assert head == [b"1 1\n", b"2 3\n"]
    assert err == b""
