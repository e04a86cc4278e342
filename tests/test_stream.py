"""Generator behaviour against published terms and the brute-force oracle."""

import tracemalloc
from functools import lru_cache
from itertools import islice, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

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
    _rows,
    _runs,
)

from oracle import oracle_triples

JUMP_LIMIT = 20_000
JUMP_ROWS = 5  # rows compared after each jump
RUN_STEPS = 3  # windows of _runs compared after each start
RUN_ROWS = 1000  # more than RUN_STEPS windows hold near JUMP_LIMIT

# a at index 10**15, as the walk of window after window found it.
A_AT_1E15 = 500000029809255627825531266625

# Leading terms as published for A005228, A030124, and A225687.
A_FIRST = [1, 3, 7, 12, 18, 26, 35, 45, 56, 69]
B_FIRST = [2, 4, 5, 6, 8, 9, 10, 11, 13, 14]
U_FIRST = [1, 2, 2, 2, 3, 3, 3, 3, 4, 4]


def lag_reads(monkeypatch):
    """Patch stream._a_values so that each lag it makes records the values
    read from it; return the list of those value lists, in the order the
    lags were made.  A walk makes its one lag first, and the lags nested
    in it as it reads past the held head."""
    real = stream._a_values
    reads = []

    def recording():
        values = []
        reads.append(values)
        return (values.append(value) or value for value in real())

    monkeypatch.setattr(stream, "_a_values", recording)
    return reads


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
    for count in (2.5, 0.5, "2"):
        with pytest.raises(TypeError):
            TripleStream().take(count)


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


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_value_at_rejects_non_integer_indices(n):
    with pytest.raises(TypeError):
        value_at("a", n)


def test_value_at_takes_any_integer_index():
    class Index:
        def __index__(self):
            return 3

    assert value_at("a", Index()) == 7 and type(value_at("a", Index())) is int
    assert value_at("u", True) == 1


def test_value_at_far_index_is_pinned():
    # Recorded on their own, not derived from the walk under test; the one
    # at 10**15 came from the one-level walk that the level-2 jump replaced.
    assert value_at("a", 10**12) == 500000941936492050650505
    assert value_at("a", 10**15) == A_AT_1E15


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


def test_a_values_are_the_a_column():
    # The held head a_1..a_64, then the a column of the walk from index 65.
    expected = [row[1] for row in oracle_table()]
    assert list(islice(_a_values(), len(expected))) == expected


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
    a = list(islice(_a_values(), 30))
    for row in islice(_rows(1), 300):
        assert a[row.u - 1] - row.u < row.n <= a[row.u] - (row.u + 1)


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


@pytest.mark.parametrize("start", [10**9, 10**12, 10**15, 10**18])
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
    # Also jump to the first index of the next window of constant u, so
    # that the rows streamed up to it cross a window's end.
    for start in (10**9, 10**18):
        _, _, _, hi, k = next(_runs(start))
        for jump in (start, hi - k):
            streamed = list(islice(_rows(jump - 3000), 3050))[3000:]
            assert streamed == list(islice(_rows(jump), 50))


@pytest.mark.parametrize("n", [10**9, 10**18])
def test_walked_windows_match_a_jump_to_each(n):
    # Past its first window the walk takes each bound by the closed form
    # and reads its lag only as u_k steps up.  Start just before the last
    # window k with u_k = m, for m = u_{u_n}, so the walk crosses into
    # level-2 window m + 1: each whole window it walks must equal the
    # first window of a jump to its first index.
    m = value_at("u", value_at("u", n))
    k = value_at("a", m + 1) - m - 1
    assert (value_at("u", k), value_at("u", k + 1)) == (m, m + 1)
    windows = list(islice(_runs(value_at("a", k) - k), 5))
    assert [window[4] for window in windows] == [k - 1, k, k + 1, k + 2, k + 3]
    for window in windows[1:]:
        assert window == next(_runs(window[0]))


def test_lag_length_tracks_u_all_along(monkeypatch):
    # The walk from 1 reads a_{m+1} from its one lag as k enters level-2
    # window m, so at a row of u it has read up to a_{m+1} for m = u_u,
    # about (8n)^(1/4) values at index n.  That lag is the walk from 4,
    # whose lag reads up to about the fourth root of that, and so on down
    # to a walk from 4 that reads only the given 1, 3, 7: three lags and
    # 25 values at 20000 rows, where a walk with a second lag of its own
    # made ten lags and read 222 values.
    monkeypatch.setattr(stream, "_HEAD", (1, 3, 7))
    reads = lag_reads(monkeypatch)
    u = [row[3] for row in oracle_table()]
    for row in islice(_rows(1), 20_000):
        assert len(reads[0]) == u[row.u - 1] + 1  # the last index read
    assert reads[0] == [row[1] for row in oracle_table()[: len(reads[0])]]
    assert [len(values) for values in reads] == [
        18,  # the walk from 1, up to a_18
        4,  # the walk from 4 in its lag, up to a_4
        3,  # the walk from 4 in that one's lag, which yields a_4
    ]


def test_head_holds_the_first_64_a_values():
    assert stream._HEAD == tuple(row[1] for row in oracle_table()[:64])


# The first indices at which a jump's lag, or a walk's, reads a_63, a_64,
# a_65 and a_66: from 2896929 on it reads past the head.
FIRST_READS = {63: 2_559_949, 64: 2_724_669, 65: 2_896_929, 66: 3_076_947}


def test_jumps_within_the_head_make_no_nested_lag(monkeypatch):
    # Below FIRST_READS[65] every a-value the jump reads is in the head, so
    # its lag is the only one made; past it the lag makes nested ones.
    reads = lag_reads(monkeypatch)
    for start in (1, 2, 7, 100, 12_345, 10**5, FIRST_READS[65] - 1):
        reads.clear()
        next(_runs(start))
        assert len(reads) == 1 and len(reads[0]) <= 64, start
    reads.clear()
    next(_runs(FIRST_READS[65]))
    assert len(reads) > 1 and len(reads[0]) == 65


@pytest.mark.parametrize("j", sorted(FIRST_READS))
def test_values_where_the_jump_leaves_the_head_match_the_seeded_walk(monkeypatch, j):
    n = FIRST_READS[j]
    reads = lag_reads(monkeypatch)
    for start, count in ((n - 1, j - 1), (n, j)):
        reads.clear()
        next(_runs(start))
        assert len(reads[0]) == count
    held = [value_at(seq, m) for seq in SEQUENCE_IDS for m in (n - 1, n, n + 1)]
    monkeypatch.setattr(stream, "_HEAD", (1, 3, 7))
    assert held == [value_at(seq, m) for seq in SEQUENCE_IDS for m in (n - 1, n, n + 1)]


def test_rows_across_the_head_edge_match_the_seeded_walk(monkeypatch):
    # The walk from 3000 rows below FIRST_READS[65] reads a_65, past the
    # held head, as it streams over that index, and its lag nests a walk
    # there.  Every row matches the stream from the seeded head.
    start = FIRST_READS[65] - 3000
    reads = lag_reads(monkeypatch)
    rows = _rows(start)
    held = list(islice(rows, 3000))
    assert len(reads) == 1 and len(reads[0]) == 64
    held += islice(rows, 3000)
    assert len(reads) > 1 and len(reads[0]) == 65
    monkeypatch.setattr(stream, "_HEAD", (1, 3, 7))
    assert held == list(islice(_rows(start), 6000))


def test_jump_reads_about_a_fourth_root_of_its_index(monkeypatch):
    # The one-level walk read the 1.4e6 leading a-values to reach 10**12.
    # The jump's lag reads about (8 n)^(1/4) = 1682 of them, and the lags
    # its lag makes in turn only a few dozen more.
    reads = lag_reads(monkeypatch)
    assert value_at("a", 10**12) == 500000941936492050650505
    assert abs(len(reads[0]) - (8 * 10**12) ** 0.25) < 50  # the jump's own lag: 1649
    assert sum(map(len, reads)) <= 2 * 10**3


def stream_peak(rows):
    """The tracemalloc peak, in bytes, of a TripleStream made and read for
    `rows` rows from index 1."""
    tracemalloc.start()
    try:
        for _ in islice(TripleStream(), rows):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_memory_does_not_grow_with_n():
    # The lags are generators over the windows and keep no a-values: the
    # peak is about 5 KiB at 1e4 rows and at 2e5.  A lag that kept the
    # sqrt(2n) a-values it read would hold over 600 ints by 2e5.
    small, large = stream_peak(10**4), stream_peak(2 * 10**5)
    assert small < 16 * 1024 and large < 16 * 1024, (small, large)
    assert abs(large - small) < 1024, (small, large)


def test_far_apart_indices_cost_a_jump_each(monkeypatch):
    # A walk of the windows from 10 to 10**12 read about 1.4e6 a-values;
    # two jumps read a few thousand.
    reads = lag_reads(monkeypatch)
    rows = remainder_table("u", 1, [10, 10**12])
    assert sum(map(len, reads)) <= 4 * 10**3
    assert [row.exact for row in rows] == [4, value_at("u", 10**12)]
    assert remainder_table("a", 1, [10, 10**15])[1].exact == A_AT_1E15


def reference_locate(start):
    """(k, a_k, a_{k+1}, s) by the walk that the level-2 jump replaced,
    kept as the reference: one window of constant u at a time, its bounds
    read from the oracle's a column, about sqrt(2 start) steps."""
    lag = iter(oracle_a_column())
    k, lo, hi = 1, next(lag), next(lag)
    u_sum = 0  # sum of u over the whole windows below window k
    while hi - (k + 1) < start:
        u_sum += k * (hi - lo - 1)
        k, lo, hi = k + 1, hi, next(lag)
    return k, lo, hi, u_sum


@lru_cache(maxsize=None)
def oracle_a_column():
    """a_1 .. a_45000, enough for reference_locate up to start = 1e9."""
    return tuple(row[1] for row in oracle_triples(45_000))


def check_locate(start):
    """The first window of _runs(start), the jump's, against reference_locate."""
    k, a_k, a_next, u_sum = reference_locate(start)
    a = 1 + (start - 1) * start // 2 + u_sum + k * (start - 1 - (a_k - k))
    assert next(_runs(start)) == (start, a, start + k, a_next, k)


def test_locate_matches_the_reference_near_the_start():
    # Starts 1 to 3 lie in windows 1 and 2 of level-2 windows 1 and 2.
    for start in range(1, 3001):
        check_locate(start)


@settings(max_examples=200, deadline=None)
@given(start=st.integers(1, 10**9))
@example(start=10**9)
def test_locate_matches_the_reference(start):
    check_locate(start)


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


def reference_rows(start):
    """The rows from `start`, each window of _runs walked row by row with
    a stepping by b: the reference for _rows, which zips its columns."""
    for n, a, first, hi, k in _runs(start):
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
def test_rows_pass_a_recorded_lag_through(monkeypatch, start):
    # The same rows, and every lag read just as far: _rows asks _runs for
    # a window only when the rows before it are used up.
    reads = lag_reads(monkeypatch)
    rows = list(islice(_rows(start), 20_000))
    read = list(reads)
    reads.clear()
    assert rows == list(islice(reference_rows(start), 20_000))
    assert reads == read


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
