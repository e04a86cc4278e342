"""Generator behaviour against published terms and the brute-force oracle."""

from functools import lru_cache
from itertools import islice, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from figfig import (
    Triple,
    TripleStream,
    compare_reference,
    decade_remainder_means,
    remainder_table,
    stream,
    value_at,
)
from figfig.checks import a_upper_bound_holds, sqrt_window_bound_holds
from figfig.stream import (
    SEQUENCE_IDS,
    _a_values,
    _column,
    _columns,
    _numbered,
    _recorded,
    _rows,
    _runs,
)

from oracle import oracle_triples

JUMP_LIMIT = 20_000
JUMP_ROWS = 5  # rows compared after each jump
RUN_STEPS = 3  # windows of _runs compared after each start
RUN_ROWS = 1000  # more than RUN_STEPS windows hold near JUMP_LIMIT

# Leading terms as published for A005228, A030124, and A225687.
A_FIRST = [1, 3, 7, 12, 18, 26, 35, 45, 56, 69]
B_FIRST = [2, 4, 5, 6, 8, 9, 10, 11, 13, 14]
U_FIRST = [1, 2, 2, 2, 3, 3, 3, 3, 4, 4]


def recorded_rows(prefix):
    """The rows from n = 1, with the run bounds a_1, a_2, ... read so far in `prefix`."""
    return _rows(1, _recorded(_a_values(), prefix))


def test_first_ten_rows_match_published_terms():
    rows = TripleStream().take(10)
    assert [r.n for r in rows] == list(range(1, 11))
    assert [r.a for r in rows] == A_FIRST
    assert [r.b for r in rows] == B_FIRST
    assert [r.u for r in rows] == U_FIRST


def test_single_steps_and_checkpoints():
    stream = TripleStream()
    assert stream.next_triple() == (1, 1, 2, 1)
    assert stream.next_triple() == (2, 3, 4, 2)
    rest = stream.take(18)
    assert rest[7] == (10, 69, 14, 4)
    assert rest[-1] == (20, 260, 25, 5)


def test_take_returns_leading_rows():
    assert TripleStream().take(3) == [(1, 1, 2, 1), (2, 3, 4, 2), (3, 7, 5, 2)]
    assert TripleStream().take(1) == [(1, 1, 2, 1)]


def test_b_jumps_over_a_values():
    rows = TripleStream().take(21)
    # 18 and 26 are a-values, so b skips them
    assert [r.b for r in rows[11:14]] == [16, 17, 19]
    assert rows[20].b == 27


def test_take_rejects_bad_count():
    with pytest.raises(ValueError):
        TripleStream().take(0)


def test_value_at_checkpoints():
    assert value_at("a", 5) == 18
    assert value_at("u", 9) == 4
    assert value_at("b", 21) == 27
    assert value_at("a", 1) == 1


def test_value_at_rejects_bad_arguments():
    with pytest.raises(ValueError):
        value_at("c", 5)
    with pytest.raises(ValueError):
        value_at("a", 0)


def test_matches_oracle_deeply():
    rows = TripleStream().take(2000)
    assert [tuple(r) for r in rows] == oracle_triples(2000)


def test_fresh_streams_are_identical():
    assert TripleStream().take(500) == TripleStream().take(500)


def test_iteration_protocol_matches_take():
    assert list(islice(TripleStream(), 5)) == TripleStream().take(5)


def test_monotonicity_and_u_steps():
    rows = TripleStream().take(1500)
    assert rows[0].u == 1
    for before, after in zip(rows, rows[1:]):
        assert after.a > before.a
        assert after.b > before.b
        assert after.u - before.u in (0, 1)


def test_shift_identity():
    for row in TripleStream().take(1500):
        assert row.b == row.n + row.u


def test_prefix_tracks_leading_a_values():
    prefix = []
    rows = list(islice(recorded_rows(prefix), 400))
    assert prefix == [r.a for r in rows[: len(prefix)]]
    last_u = rows[-1].u
    assert last_u + 1 <= len(prefix) <= last_u + 2


def test_prefix_starts_at_one():
    prefix = []
    next(recorded_rows(prefix))
    assert prefix[0] == 1


def test_prefix_stays_sublinear():
    prefix = []
    rows = recorded_rows(prefix)
    for _ in range(20_000):
        row = next(rows)
    assert len(prefix) <= row.u + 2


@pytest.mark.parametrize(
    "call",
    [
        lambda seq: value_at(seq, 5),
        lambda seq: compare_reference([(1, 1)], seq),
        lambda seq: remainder_table(seq, 1, [10]),
        lambda seq: decade_remainder_means(seq, 1, 1, 2),
    ],
)
def test_unknown_sequence_id_message(call):
    with pytest.raises(ValueError) as raised:
        call("c")
    assert str(raised.value) == "unknown sequence id 'c', expected one of ('a', 'b', 'u')"


def test_counting_window_bracket():
    prefix = []
    for row in islice(recorded_rows(prefix), 300):
        low = prefix[row.u - 1] - row.u
        high = prefix[row.u] - (row.u + 1)
        assert low < row.n <= high


@lru_cache(maxsize=None)
def oracle_table() -> tuple[tuple[int, int, int, int], ...]:
    return tuple(oracle_triples(JUMP_LIMIT + RUN_ROWS))


@lru_cache(maxsize=None)
def streamed_table() -> tuple[tuple[int, int, int, int], ...]:
    return tuple(TripleStream().take(JUMP_LIMIT + JUMP_ROWS))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, JUMP_LIMIT), seq=st.sampled_from("abu"))
def test_jump_ahead_matches_stream_and_oracle(n, seq):
    jumped = [tuple(row) for row in islice(_rows(n), JUMP_ROWS)]
    assert jumped == list(streamed_table()[n - 1 : n - 1 + JUMP_ROWS])
    assert jumped == list(oracle_table()[n - 1 : n - 1 + JUMP_ROWS])
    assert value_at(seq, n) == oracle_table()[n - 1]["nabu".index(seq)]


def test_jump_ahead_at_every_run_boundary_near_the_start():
    stream_rows = streamed_table()
    for n in range(1, 400):
        assert tuple(next(_rows(n))) == stream_rows[n - 1]


def check_runs_from(start: int) -> None:
    """The first RUN_STEPS windows of _runs(start) against the oracle."""
    table = oracle_table()
    runs = list(islice(_runs(start), RUN_STEPS))
    n, a, first, _, k = runs[0]
    assert (n, a, first, k) == table[start - 1]  # begins at b_start
    for (n, a, first, hi, k), after in zip(runs, runs[1:]):
        width = hi - first
        next_n, next_a, next_first, _, next_k = after
        assert next_n == n + width
        assert next_a == a + (first + hi - 1) * width // 2
        assert (next_first, next_k) == (hi + 1, k + 1)
    rows = []
    for n, a, first, hi, k in runs:
        assert hi == table[k][1]  # the run ends below a_{k+1}
        for b in range(first, hi):
            rows.append((n, a, b, k))
            n, a = n + 1, a + b
    assert rows == list(table[start - 1 : start - 1 + len(rows)])


def test_runs_flatten_to_the_oracle_rows_near_the_start():
    for start in range(1, 201):
        check_runs_from(start)


@settings(max_examples=200, deadline=None)
@given(start=st.integers(1, JUMP_LIMIT))
def test_runs_flatten_to_the_oracle_rows(start):
    check_runs_from(start)


@pytest.mark.parametrize("start", [10**9, 10**12])
def test_laws_hold_far_out(start):
    rows = list(islice(_rows(start), 51))
    assert [row.n for row in rows] == list(range(start, start + 51))
    for row, after in zip(rows, rows[1:]):
        assert row.b == row.n + row.u
        assert after.a - row.a == row.b
        assert after.u - row.u in (0, 1)
        assert after.b > row.b
        assert sqrt_window_bound_holds(row.n, row.u)
        assert sqrt_window_bound_holds(row.n, row.b - row.n)
        assert 2 * row.a >= row.n * (row.n + 1)
        assert a_upper_bound_holds(row.n, row.a)


def test_far_jump_agrees_with_streaming_from_an_earlier_jump():
    start = 10**9
    streamed = list(islice(_rows(start - 3000), 3050))[3000:]
    assert streamed == list(islice(_rows(start), 50))


def test_prefix_length_tracks_u_all_along():
    prefix = []
    for row in islice(recorded_rows(prefix), 5000):
        assert row.u + 1 <= len(prefix) <= row.u + 2


def check_columns(window, widths):
    """_columns of `window` cut to each of `widths` leading rows: every column
    holds exactly that many values, and zipped they are the oracle rows."""
    n, a, first, hi, k = window
    rows = oracle_table()[n - 1 : n - 1 + hi - first]
    for width in widths:
        columns = [list(column) for column in _columns(n, a, first, first + width, k)]
        assert [len(column) for column in columns] == [width] * 4
        assert list(zip(*columns)) == list(rows[:width])


def check_column_from(start):
    """The first 500 values of each _column(seq, start) against the oracle."""
    rows = oracle_table()[start - 1 : start + 499]
    for position, seq in enumerate(SEQUENCE_IDS, start=1):
        assert list(islice(_column(seq, start), 500)) == [row[position] for row in rows]


def test_columns_match_the_oracle_near_the_start():
    # Every start up to 200 begins a window at, inside or at the last row
    # of a window of constant u, so the first windows include width-1 ones.
    for start in range(1, 201):
        for window in islice(_runs(start), RUN_STEPS):
            check_columns(window, range(window[3] - window[2] + 1))
        check_column_from(start)


@settings(max_examples=100, deadline=None)
@given(start=st.integers(1, JUMP_LIMIT), cut=st.integers(0, 10**6))
def test_columns_match_the_oracle(start, cut):
    for window in islice(_runs(start), RUN_STEPS):
        full = window[3] - window[2]
        check_columns(window, (0, 1, cut % (full + 1), full))
    check_column_from(start)


def reference_rows(start, lag=None):
    """The rows from `start`, each window of _runs walked row by row with
    a stepping by b: the reference for _rows, which zips its columns."""
    for n, a, first, hi, k in _runs(start, lag):
        for b in range(first, hi):
            yield Triple(n, a, b, k)
            a += b
            n += 1


def check_rows_from(start, count):
    """The first `count` rows of _rows(start) are reference_rows' and are Triples."""
    rows = list(islice(_rows(start), count))
    assert rows == list(islice(reference_rows(start), count))
    assert {type(row) for row in rows} == {Triple}


def test_rows_match_the_reference_near_the_start():
    for start in range(1, 301):
        check_rows_from(start, 3000)


@settings(max_examples=100, deadline=None)
@given(start=st.integers(1, JUMP_LIMIT))
def test_rows_match_the_reference(start):
    check_rows_from(start, 3000)


@pytest.mark.parametrize("start", [1, 2, 5, 1000])
def test_rows_pass_a_recorded_lag_through(start):
    # The same rows, and the lag read just as far: _rows asks _runs for a
    # window only when the rows before it are used up.
    prefix, expected = [], []
    rows = list(islice(_rows(start, _recorded(_a_values(), prefix)), 20_000))
    assert rows == list(islice(reference_rows(start, _recorded(_a_values(), expected)), 20_000))
    assert prefix == expected


def test_readme_window_counts():
    # README: the walk to 1e6 takes about 1,400 windows and the one to 1e9
    # about 45,000.  The window holding index n is window u_n.
    windows = sum(1 for _ in takewhile(lambda window: window[0] <= 10**6, _runs(1)))
    assert windows == value_at("u", 10**6) == 1384
    assert 44_000 < value_at("u", 10**9) < 45_500


# --- Numbered lines from the cached thousand-line template --------------------

# Where the thousands prefix gains a digit, and where ints pass 64 bits.
NUMBER_EDGES = [1, 999, 1000, 9_999, 10_000, 999_999, 10**6, 10**18 - 1, 10**18, 2**64]
HEADS = st.sampled_from(["", '{"n": ', "x"])
TAILS = st.sampled_from([" %s\n", ",%d,%d,\x01\n", ', "a": %d}\n', "\n", "", "%%"])


@settings(max_examples=300, deadline=None)
@given(
    head=HEADS,
    tail=TAILS,
    edge=st.sampled_from(NUMBER_EDGES),
    before=st.integers(-5, 2_500),
    after=st.integers(-5, 2_500),
)
def test_numbered_matches_one_line_per_index(head, tail, edge, before, after):
    lo, hi = edge - before, edge + after  # an empty range when hi <= lo
    got, want = _numbered(head, tail, lo, hi), "".join(f"{head}{n}{tail}" for n in range(lo, hi))
    if got != want:  # name the first difference; a diff of the whole text takes minutes
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), len(want))
        pytest.fail(f"from character {at}: got {got[at:at + 40]!r}, expected {want[at:at + 40]!r}")


def test_numbered_keeps_one_template_per_head_and_tail(monkeypatch):
    monkeypatch.setattr(stream, "_THOUSANDS", {})
    for lo in (0, 998, 5_000, 10**12 - 3):
        for tail in (" %s\n", ",%d\n"):
            assert _numbered("", tail, lo, lo + 3_000).count("\n") == 3_000
    assert _numbered("", " %s\n", 998, 998) == ""
    assert sorted(stream._THOUSANDS) == [("", " %s\n"), ("", ",%d\n")]
    assert [len(t) for t in stream._THOUSANDS.values()] == [8_000, 8_000]
