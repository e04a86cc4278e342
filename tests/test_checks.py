"""Check reports, exact bound predicates, and remainder diagnostics."""

import math
import pickle
import tracemalloc
from collections import deque
from functools import lru_cache, partial, reduce
from itertools import islice, product, takewhile
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from figfig import (
    CheckReport,
    RemainderRow,
    a_coeff,
    check_all,
    check_bounds,
    check_identities,
    check_partition,
    compare_reference,
    decade_remainder_means,
    eval_u_series,
    parse_bfile,
    remainder_table,
    run_cli,
    u_coeff,
    value_at,
)
from figfig import checks, remainders, stream
from figfig.checks import a_upper_bound_holds, sqrt_window_bound_holds
from figfig.stream import Triple, _a_values, _rows, _runs
from oracle import oracle_triples

CHECK_NAMES = ("partition", "identities", "bounds")
CHECKS = (check_partition, check_identities, check_bounds)


@pytest.mark.parametrize("upto", [1, 2, 14, 10_000])
def test_partition_passes(upto):
    report = check_partition(upto)
    assert report.passed
    assert report.first_failure is None
    assert (report.name, report.lo, report.hi) == ("partition", 1, upto)


@pytest.mark.parametrize("upto", [2, 10, 10_000])
def test_identities_pass(upto):
    report = check_identities(upto)
    assert report.passed
    assert (report.name, report.lo, report.hi) == ("identities", 1, upto)


@pytest.mark.parametrize("upto", [1, 20, 10_000, True])
def test_bounds_pass(upto):
    report = check_bounds(upto)
    assert report.passed
    assert (report.name, report.lo, report.hi) == ("bounds", 1, upto)
    assert type(report.hi) is int  # upto is taken by operator.index, so True is 1


def test_checks_reject_bad_ranges():
    with pytest.raises(ValueError):
        check_partition(0)
    with pytest.raises(ValueError):
        check_identities(1)
    with pytest.raises(ValueError):
        check_bounds(0)
    # A float upto is not a range of integers, even when it is whole.
    for check in (check_partition, check_identities, check_bounds, check_all):
        for upto in (10.5, 10.0):
            with pytest.raises(TypeError):
                check(upto)


def test_reports_are_deterministic():
    assert check_partition(200) == check_partition(200)


def test_report_consistency_is_enforced():
    with pytest.raises(ValueError):
        CheckReport("x", 1, 2, True, (1, "boom"))
    with pytest.raises(ValueError):
        CheckReport("x", 1, 2, False, None)


def test_replace_cannot_break_report_consistency():
    report = CheckReport("x", 1, 2, True)
    assert report._replace(hi=5) == CheckReport("x", 1, 5, True, None)
    with pytest.raises(ValueError):
        report._replace(passed=False)
    with pytest.raises(ValueError):
        report._replace(first_failure=(1, "boom"))
    with pytest.raises(ValueError):
        CheckReport._make(("x", 1, 2, False, None))


def test_check_and_compare_reports_share_one_class():
    # The law checks and the b-file compare hand out the stream's
    # CheckReport, whose consistency rule holds for both.
    reports = (check_partition(10), compare_reference(parse_bfile("1 1\n2 3\n"), "a"))
    assert reports == (CheckReport("partition", 1, 10, True), CheckReport("compare:a", 1, 2, True))
    for report in reports:
        assert isinstance(report, stream.CheckReport)
        with pytest.raises(ValueError):
            report._replace(passed=False)


def test_records_are_tuples():
    failed = CheckReport("partition", 1, 10, False, (3, "no sequence value covers 3"))
    row = remainder_table("u", 2, [1000])[0]
    for record in (failed, row):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
    name, lo, hi, passed, first_failure = failed
    assert (name, lo, hi, passed, first_failure) == tuple(failed)
    assert failed == ("partition", 1, 10, False, (3, "no sequence value covers 3"))
    assert repr(CheckReport("partition", 1, 10, True)) == (
        "CheckReport(name='partition', lo=1, hi=10, passed=True, first_failure=None)"
    )
    assert repr(failed) == (
        "CheckReport(name='partition', lo=1, hi=10, passed=False, "
        "first_failure=(3, 'no sequence value covers 3'))"
    )
    assert repr(RemainderRow(10, 1, 4, 4.5, -0.5, -0.25)) == (
        "RemainderRow(n=10, order=1, exact=4, series=4.5, remainder=-0.5, scaled=-0.25)"
    )


def test_sqrt_window_bound_is_exact_at_scale():
    # At this size a float sqrt cannot tell the two sides apart.
    n = 10**40
    largest = (math.isqrt(8 * n - 1) + 1) // 2
    assert sqrt_window_bound_holds(n, largest)
    assert not sqrt_window_bound_holds(n, largest + 1)


def test_a_upper_bound_is_exact_at_scale():
    n = 10**30
    limit = math.isqrt(32 * n**3 - 1)
    largest = (n * n + (limit - 2) // 3) // 2
    assert a_upper_bound_holds(n, largest)
    assert not a_upper_bound_holds(n, largest + 1)
    assert a_upper_bound_holds(n, n)  # far below the boundary


def test_remainder_rows_for_u():
    rows = remainder_table("u", 1, [2, 8])
    first, second = rows
    assert (first.n, first.order, first.exact) == (2, 1, 2)
    assert first.series == 2.0
    assert first.remainder == 0.0
    assert first.scaled == 0.0
    assert (second.n, second.exact) == (8, 3)
    assert second.series == 4.0
    assert second.remainder == -1.0
    assert second.scaled == pytest.approx(-1 / math.sqrt(2), rel=1e-14)


def test_remainder_row_for_a():
    row = remainder_table("a", 1, [8])[0]
    assert row.exact == 45
    assert row.series == pytest.approx(32 + 64 / 3, rel=1e-14)
    assert row.remainder == pytest.approx(13 - 64 / 3, rel=1e-14)
    assert row.scaled == pytest.approx((13 - 64 / 3) / (4 * math.sqrt(2)), rel=1e-14)


def test_remainder_b_rows_share_u_geometry():
    ns = [5, 50, 500]
    for b_row, u_row in zip(remainder_table("b", 3, ns), remainder_table("u", 3, ns)):
        assert b_row.remainder == u_row.remainder
        assert b_row.scaled == u_row.scaled
        assert b_row.exact == u_row.exact + b_row.n
        assert b_row.series == pytest.approx(u_row.series + b_row.n, rel=1e-15)


def test_remainder_matches_direct_difference():
    for row in remainder_table("u", 2, [10, 100, 1000]):
        assert row.remainder == pytest.approx(row.exact - row.series, abs=1e-9)


def test_remainder_single_and_multi_target_agree():
    combined = remainder_table("u", 2, [10, 100])
    assert combined[0] == remainder_table("u", 2, [10])[0]
    assert combined[1] == remainder_table("u", 2, [100])[0]


def test_remainder_table_validations():
    with pytest.raises(ValueError):
        remainder_table("c", 1, [10])
    with pytest.raises(ValueError):
        remainder_table("u", 0, [10])
    with pytest.raises(ValueError):
        remainder_table("u", 65, [10])
    with pytest.raises(ValueError):
        remainder_table("u", 1, [])
    with pytest.raises(ValueError):
        remainder_table("u", 1, [10, 10])
    with pytest.raises(ValueError):
        remainder_table("u", 1, [0, 10])
    for order in (2.0, 0.5):
        with pytest.raises(TypeError):
            remainder_table("u", order, [10])


@pytest.mark.parametrize("ns", [[2.5, 10], [2, 10.0], ["2", 10]])
def test_remainder_table_rejects_non_integer_indices(ns):
    with pytest.raises(TypeError):
        remainder_table("u", 1, ns)


def test_remainder_table_takes_any_integer_index():
    assert remainder_table("u", 1, range(9, 11)) == remainder_table("u", 1, [9, 10])
    (row,) = remainder_table("a", 1, [True])
    assert type(row.n) is int and (row.n, row.exact) == (1, 1)


def test_decade_means_drift_toward_next_coefficient():
    means = decade_remainder_means("u", 1, 2, 3)
    assert [d for d, _ in means] == [2, 3]
    target = -4 / 3
    assert abs(means[1][1] - target) < abs(means[0][1] - target)


@pytest.mark.parametrize("call", [
    lambda order: remainder_table("u", order, [10]),
    lambda order: decade_remainder_means("u", order, 1, 2),
], ids=["remainder_table", "decade_remainder_means"])
@pytest.mark.parametrize("order", [0, 65])
def test_order_validation_message(call, order):
    with pytest.raises(ValueError, match=r"^series order must be in 1\.\.64$"):
        call(order)


def test_decade_means_validations():
    with pytest.raises(ValueError):
        decade_remainder_means("c", 1, 2, 3)
    with pytest.raises(ValueError):
        decade_remainder_means("u", 1, -1, 3)
    with pytest.raises(ValueError):
        decade_remainder_means("u", 1, 3, 2)
    for order in (2.0, 0.5):
        with pytest.raises(TypeError):
            decade_remainder_means("u", order, 1, 2)
    for decades in ((1.0, 2), (1, 2.0), (3, 2.0), (-1.0, 2)):
        with pytest.raises(TypeError):
            decade_remainder_means("u", 1, *decades)


def forbid_jumps(monkeypatch):
    """Make every jump into the stream fail the test at once: past the
    float range a jump runs for ever."""

    def jump(start):
        raise AssertionError(f"jumped to {start}")

    monkeypatch.setattr(stream, "_runs", jump)
    monkeypatch.setattr(remainders, "_runs", jump)


# (seq, the least power of ten past its series' float range): n/2 for u,
# n for b, n^2/2 for a.
PAST_THE_FLOAT_RANGE = [("u", 309), ("b", 309), ("a", 155)]


@pytest.mark.parametrize("seq, power", PAST_THE_FLOAT_RANGE)
def test_indices_past_the_float_range_raise_before_any_jump(monkeypatch, seq, power):
    forbid_jumps(monkeypatch)
    too_large = r"^index too large for double-precision series: "
    with pytest.raises(ValueError, match=too_large):
        remainder_table(seq, 1, [10, 10**power])
    with pytest.raises(ValueError, match=too_large):
        decade_remainder_means(seq, 2, 1, power - 1)  # its last index is 10**power - 1
    # One power of ten lower, both tools get as far as the jump.
    with pytest.raises(AssertionError, match="jumped"):
        remainder_table(seq, 1, [10 ** (power - 1)])
    with pytest.raises(AssertionError, match="jumped"):
        decade_remainder_means(seq, 2, power - 2, power - 2)


def _two_ladder_row(seq, order, n, value=value_at):
    """The remainder row as computed with a separate ladder for the next
    rung: the series sum climbs `order` square roots from n/2, then the
    rung climbs `order + 1` more from n/2 again.  `value(seq, n)` gives
    the exact terms."""
    half = n / 2
    root, u_series, a_tail = half, 0.0, 0.0
    for k in range(1, order + 1):
        root = math.sqrt(root)
        u_series += float(u_coeff(k)) * root
        a_tail += float(a_coeff(k)) * root * half
    rung = half
    for _ in range(order + 1):
        rung = math.sqrt(rung)
    exact = value(seq, n)
    if seq == "a":
        remainder = (2 * exact - n * n) / 2 - a_tail
        return RemainderRow(n, order, exact, n * n / 2 + a_tail, remainder, remainder / (half * rung))
    remainder = value("u", n) - u_series
    series = n + u_series if seq == "b" else u_series
    return RemainderRow(n, order, exact, series, remainder, remainder / rung)


@pytest.mark.parametrize("seq", ["a", "b", "u"])
def test_one_ladder_remainders_are_bit_identical(seq):
    ns = [1, 2, 3, 8, 99, 1000, 12_345, 10**6 + 7, 10**9]
    for order in (1, 2, 3, 7, 20, 63, 64):
        assert remainder_table(seq, order, ns) == [_two_ladder_row(seq, order, n) for n in ns]


@lru_cache(maxsize=None)
def rounded_coefficients(seq, order):
    """float(c_k), k = 1..order, of the a-series for seq "a", else of the u-series."""
    coeff = a_coeff if seq == "a" else u_coeff
    return tuple(float(coeff(k)) for k in range(1, order + 1))


def reference_series_parts(seq, order, row):
    """(exact, series, remainder, scaled) at one row, by a scalar ladder
    built here from the exact coefficients, apart from the package's
    kernel.  A u-term is scaled by 1.0, which changes no bit."""
    n = row.n
    half = n / 2
    scale = half if seq == "a" else 1.0
    root, total = half, 0.0
    for coeff in rounded_coefficients(seq, order):
        root = math.sqrt(root)
        total += coeff * root * scale
    if seq == "a":
        remainder = (2 * row.a - n * n) / 2 - total
        return row.a, n * n / 2 + total, remainder, remainder / (half * math.sqrt(root))
    remainder = row.u - total
    scaled = remainder / math.sqrt(root)
    if seq == "b":
        return row.b, n + total, remainder, scaled
    return row.u, total, remainder, scaled


def reference_decade_means(seq, order, first_decade, last_decade):
    """The decade means by one walk of Triple rows from 10^first_decade:
    one scalar ladder per index, each scaled remainder added to its
    decade's sum in turn."""
    lo = 10**first_decade
    hi = 10 ** (last_decade + 1)  # exclusive
    sums = [0.0] * (last_decade - first_decade + 1)
    counts = [0] * len(sums)
    slot, boundary = 0, 10 * lo
    for row in _rows(lo):
        if row.n >= hi:
            break
        if row.n >= boundary:
            slot += 1
            boundary *= 10
        sums[slot] += reference_series_parts(seq, order, row)[3]
        counts[slot] += 1
    return [(first_decade + i, sums[i] / counts[i]) for i in range(len(sums))]


@pytest.mark.parametrize("seq", ["a", "b", "u"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 20, 63, 64])
def test_decade_means_match_the_row_at_a_time_reference(seq, order):
    for span in ((0, 0), (0, 3), (2, 3)):
        assert decade_remainder_means(seq, order, *span) == reference_decade_means(seq, order, *span)


@settings(max_examples=25, deadline=None)
@given(
    seq=st.sampled_from("abu"),
    order=st.integers(1, 64),
    span=st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted),
)
def test_decade_means_match_the_reference_on_any_span(seq, order, span):
    assert decade_remainder_means(seq, order, *span) == reference_decade_means(seq, order, *span)


@pytest.mark.parametrize("seq", ["a", "b", "u"])
@pytest.mark.parametrize("span", [(1, 1), (2, 4)], ids=["1-1", "2-4"])
def test_decade_means_cut_windows_at_decade_edges(seq, span):
    # Each decade's walk starts by a jump into the window holding 10^d and
    # cuts its last window at 10^(d+1).  Every edge here lies inside a
    # window of constant u, so each window is cut in two, and no bit of
    # the means changes.
    edges = [10**d for d in range(span[0], span[1] + 2)]
    assert all(value_at("u", edge - 1) == value_at("u", edge) for edge in edges)
    for order in (1, 3):
        assert decade_remainder_means(seq, order, *span) == reference_decade_means(seq, order, *span)


@pytest.mark.parametrize("seq", ["a", "b", "u"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 64])
def test_decade_means_match_the_oracle(seq, order):
    # Exact terms from the brute-force oracle, series from the two-ladder
    # arithmetic, each decade summed left to right.
    table = oracle_triples(999)

    def value(name, n):
        return table[n - 1]["nabu".index(name)]

    expected = []
    for decade in range(3):
        lo, hi = 10**decade, 10 ** (decade + 1)
        scaled = (_two_ladder_row(seq, order, n, value).scaled for n in range(lo, hi))
        expected.append((decade, reduce(add, scaled, 0.0) / (hi - lo)))
    assert decade_remainder_means(seq, order, 0, 2) == expected


def test_decade_means_work_in_bounded_memory():
    # One window of constant u, a few hundred indices here, is fed to the
    # kernel at a time, and each decade's walk holds only its lags, so the
    # peak does not grow with the 10^5 indices walked: at order 3, by an
    # unrolled body, and at order 4, by the loop over ranges.
    for seq, order in product("au", (3, 4)):
        decade_remainder_means(seq, order, 0, 0)  # build the cached coefficients first
        tracemalloc.start()
        try:
            decade_remainder_means(seq, order, 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (seq, order)


def test_decade_means_take_the_unrolled_bodies_at_orders_1_to_3(monkeypatch):
    # With the looped kernel out of reach, orders 1-3 still give the
    # reference's means, so the exact-equality tests above hold the
    # unrolled bodies; order 4 reaches the loop.
    class Looped(Exception):
        pass

    def looped(*args):
        raise Looped

    monkeypatch.setattr(remainders, "_scaled_sum", looped)
    for seq in "abu":
        for order in (1, 2, 3):
            assert decade_remainder_means(seq, order, 0, 3) == reference_decade_means(seq, order, 0, 3)
        with pytest.raises(Looped):
            decade_remainder_means(seq, 4, 0, 3)


@pytest.mark.parametrize("order", [4, 64])
def test_deep_decade_means_hand_the_loop_whole_windows(monkeypatch, order):
    # At orders 4 to 64 _window_sum passes each window to the looped
    # kernel as it is: a range of indices, and the first exact value and
    # its step as ints, with no column built to zip against.
    calls = []
    scaled_sum = remainders._scaled_sum

    def recorded(summed, coeffs, ns, exact, step, total):
        calls.append((summed, ns, exact, step))
        return scaled_sum(summed, coeffs, ns, exact, step, total)

    monkeypatch.setattr(remainders, "_scaled_sum", recorded)
    for seq in "abu":
        calls.clear()
        assert decade_remainder_means(seq, order, 0, 3) == reference_decade_means(seq, order, 0, 3)
        assert calls
        for summed, ns, exact, step in calls:
            assert summed == ("a" if seq == "a" else "u")
            assert type(ns) is range and type(exact) is int and type(step) is int
            assert step == (2 * value_at("u", ns[0]) - 1 if seq == "a" else 0)


def float_edge_windows():
    """(summed, ns, exact, step, past) windows of 40 indices around the
    2^52 and 2^53 edges of _window_sum's float counters, past telling
    whether the window has reached 2^52: its last index, or |e_n| plus its
    width times the step of e_n for a."""
    width, step = 40, 2 * 1_000_001 - 1
    windows = []
    for edge in (2**52, 2**53):
        for last in (edge - 1, edge, edge + 1):
            ns = range(last - width + 1, last + 1)
            windows.append(("u", ns, 1_000_001, 0, last >= 2**52))
            windows.append(("a", ns, -12_345, step, last >= 2**52))
    ns = range(10**6, 10**6 + width)
    for sign in (1, -1):
        for reach in (2**52 - 1, 2**52, 2**52 + 1):
            windows.append(("a", ns, sign * (reach - width * step), step, reach >= 2**52))
    return windows


@pytest.mark.parametrize("order", [1, 2, 3])
def test_window_sum_hands_windows_past_the_float_edge_to_the_loop(monkeypatch, order):
    # Below 2^52 the unrolled bodies carry n/2 and e_n/2 as floats, exactly,
    # and give _scaled_sum's float; a window that reaches 2^52 goes to it.
    class Looped(Exception):
        pass

    def looped(*args):
        raise Looped

    scaled_sum = remainders._scaled_sum
    for summed, ns, exact, step, past in float_edge_windows():
        coeffs = remainders._PREFIXES[summed][order]
        expected = scaled_sum(summed, coeffs, ns, exact, step, 0.25)[0]
        assert remainders._window_sum(summed, coeffs, ns, exact, step, 0.25) == expected
        with monkeypatch.context() as patched:
            patched.setattr(remainders, "_scaled_sum", looped)
            if past:
                with pytest.raises(Looped):
                    remainders._window_sum(summed, coeffs, ns, exact, step, 0.25)
            else:
                assert remainders._window_sum(summed, coeffs, ns, exact, step, 0.25) == expected


def near(*edges):
    """Integers within 3000 of one of edges."""
    return st.sampled_from(edges).flatmap(lambda edge: st.integers(edge - 3000, edge + 3000))


@settings(max_examples=300, deadline=None)
@given(
    summed=st.sampled_from("au"),
    order=st.integers(1, 3),
    n0=st.one_of(st.integers(1, 2**53), near(2**52, 2**53 - 3000, 2**53)).map(lambda n: min(max(n, 1), 2**53)),
    width=st.integers(1, 3000),
    k=st.integers(1, 2**27),
    e=st.one_of(st.integers(-(2**54), 2**54), near(2**52, -(2**52), 2**53, -(2**53))),
)
def test_window_sum_matches_the_loop_on_any_window(summed, order, n0, width, k, e):
    # A guard raised to 2^54 fails this: from 2^53 on, n/2 += 0.5 sticks at 2^52.
    coeffs = remainders._PREFIXES[summed][order]
    exact, step = (e, 2 * k - 1) if summed == "a" else (k, 0)
    ns = range(n0, n0 + width)
    expected = remainders._scaled_sum(summed, coeffs, ns, exact, step, 0.0)[0]
    assert remainders._window_sum(summed, coeffs, ns, exact, step, 0.0) == expected


def test_remainder_table_reaches_far_indices():
    row = remainder_table("u", 1, [10**9])[0]
    assert row.exact == value_at("u", 10**9)
    assert row.series == eval_u_series(10**9, 1)
    assert row.remainder == row.exact - row.series


def jump_heads(ns):
    """(a_n, b_n, u_n) at each n, each by its own jump, written out here
    as the reference that remainders._heads must match."""
    heads = []
    for n in ns:
        _, a, first, _, k = next(_runs(n))
        heads.append((a, first, k))
    return heads


def assert_one_walk_matches_jumps(ns):
    assert remainders._heads(ns) == jump_heads(ns)
    for seq in "abu":
        assert remainder_table(seq, 2, ns) == [remainder_table(seq, 2, [n])[0] for n in ns]


# WINDOWS (below) lists (first index, last index, first b, hi) of the
# windows of constant u up to index 20_001, the window of u = k at k - 1.
def test_one_walk_several_indices_in_one_window():
    first, last, _, _ = WINDOWS[49]  # u = 50
    assert last - first > 6
    assert_one_walk_matches_jumps([first + 1, first + 3, last - 1])
    assert_one_walk_matches_jumps(list(range(first, last + 1)))


def test_one_walk_at_window_ends():
    for first, last, _, _ in (WINDOWS[0], WINDOWS[1], WINDOWS[2], WINDOWS[99], WINDOWS[-2]):
        assert_one_walk_matches_jumps(sorted({first, last, last + 1}))  # u = 1 has one index
    assert_one_walk_matches_jumps([first for first, _, _, _ in WINDOWS])
    assert_one_walk_matches_jumps([last for _, last, _, _ in WINDOWS])


def test_one_walk_across_many_windows():
    assert_one_walk_matches_jumps(list(range(1, 20_000, 37)))
    assert_one_walk_matches_jumps([1, 10, 1000, 10**5, 10**6 + 7])


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 20_000), min_size=1, max_size=40).map(sorted))
def test_one_walk_matches_jumps_anywhere(ns):
    assert_one_walk_matches_jumps(ns)


def flat_rows(windows):
    """The (n, a, b, u) rows of a stream of windows (n, a, first, hi, k)."""
    for n, a, first, hi, k in windows:
        for b in range(first, hi):
            yield n, a, b, k
            a += b
            n += 1


def reference_run_checks(upto, names):
    """The row-at-a-time check driver that the window-at-a-time one replaced,
    kept as the reference: every law tested at every row.  It reads the
    windows of figfig.checks._runs flattened into rows, and the run bounds
    a_i for i <= upto + 2 from figfig.checks._a_values, so it sees the same
    stream and bounds, faults included, as the driver under test.  A
    faulty u past those gets its bounds from value_at."""
    min_upto = {"partition": 1, "identities": 2, "bounds": 1}
    for name in names:
        if upto < min_upto[name]:
            raise ValueError(f"upto must be >= {min_upto[name]}")
    reports = {}
    partition, identities, bounds = (name in names for name in CHECK_NAMES)

    def report(name, failure):
        reports[name] = CheckReport(name, 1, upto, failure is None, failure)

    expect = 1
    pending_a = deque()
    next_n, u_sum = 1, 0
    previous_a = previous_b = 0
    a_values, recorded = checks._a_values(), []

    def a_at(i):
        if i > upto + 2:
            return value_at("a", i)
        while len(recorded) < i:
            recorded.append(next(a_values))
        return recorded[i - 1]

    for n, a, b, u in flat_rows(checks._runs(1)):
        if partition:
            failure = None
            if a <= upto:
                pending_a.append(a)
            while pending_a and pending_a[0] < b:
                value = pending_a.popleft()
                if value != expect:
                    failure = (expect, f"a-value {value} arrived, expected {expect}")
                    break
                expect += 1
                if expect > upto:
                    break
            else:
                if b > expect:
                    failure = (expect, f"no sequence value covers {expect}")
                elif b < expect:
                    failure = (expect, f"b-value {b} repeats covered ground")
                else:
                    expect += 1
            if failure or expect > upto:
                report("partition", failure)
                partition = False
        if identities:
            failure = None
            if n != next_n:
                failure = (next_n, f"index {n} arrived, expected {next_n}")
            elif n > 1 and a - previous_a != previous_b:
                failure = (
                    n - 1,
                    f"a({n}) - a({n - 1}) = {a - previous_a}, expected b({n - 1}) = {previous_b}",
                )
            elif n > upto:
                pass
            elif b != n + u:
                failure = (n, f"b = {b} but n + u = {n + u}")
            elif a != 1 + (n - 1) * n // 2 + u_sum:
                failure = (n, f"a = {a} but 1 + (n-1)n/2 + sum(u) = {1 + (n - 1) * n // 2 + u_sum}")
            elif u < 1:
                failure = (n, f"u = {u} below 1 has no counting window")
            else:
                window_lo = a_at(u) - u
                window_hi = a_at(u + 1) - (u + 1)
                if not window_lo < n <= window_hi:
                    failure = (n, f"counting window ({window_lo}, {window_hi}] misses n")
            if failure or n > upto:
                report("identities", failure)
                identities = False
            next_n, u_sum = n + 1, u_sum + u
            previous_a, previous_b = a, b
        if bounds:
            failure = None
            if u < 1:
                failure = (n, f"u = {u} below 1")
            elif not sqrt_window_bound_holds(n, u):
                failure = (n, f"u = {u} not below sqrt(2n) + 1/2")
            elif b < n + 1:
                failure = (n, f"b = {b} below n + 1")
            elif not sqrt_window_bound_holds(n, b - n):
                failure = (n, f"b = {b} not below n + sqrt(2n) + 1/2")
            elif 2 * a < n * (n + 1):
                failure = (n, f"a = {a} below n^2/2 + n/2")
            elif not a_upper_bound_holds(n, a):
                failure = (n, f"a = {a} not below n^2/2 + (2^1.5/3) n^1.5 - 1/3")
            if failure or n >= upto:
                report("bounds", failure)
                bounds = False
        if not (partition or identities or bounds):
            return tuple(reports[name] for name in names)


def corrupting_runs(real, index, changes):
    """A stand-in for _runs that corrupts row `index`.

    The window holding that row is split into the rows before it, the row
    itself as a window of width 1, (n, a, b, b + 1, u), with `changes`
    applied, and the rows after it.  Flattened, this is the true stream
    with one row replaced.
    """

    def runs(start):
        for n, a, first, hi, k in real(start):
            offset = index - n
            if not 0 <= offset < hi - first:
                yield n, a, first, hi, k
                continue
            b = first + offset
            row_a = a + (first + b - 1) * offset // 2
            if offset:
                yield n, a, first, b, k
            row = Triple(index, row_a, b, k)._replace(**changes)
            yield row.n, row.a, row.b, row.b + 1, row.u
            if b + 1 < hi:
                yield index + 1, row_a + b, b + 1, hi, k

    return runs


WINDOW_FIELDS = ("n", "a", "first", "hi", "k")


def corrupting_window(real, position, changes):
    """A stand-in for _runs that yields its window `position` (from 0) whole,
    with `changes` to the fields of WINDOW_FIELDS applied.  The windows
    after it are the true ones, so a changed n, first or hi leaves the index
    column with a gap or an overlap where the next window starts."""

    def runs(start):
        for i, window in enumerate(real(start)):
            if i == position:
                window = tuple(changes.get(field, value) for field, value in zip(WINDOW_FIELDS, window))
            yield window

    return runs


# Failure paths: the checks read their windows through figfig.checks._runs,
# so replacing that name with corrupting_runs feeds every check the same
# faulty stream.  Each case lists the first failure of (partition,
# identities, bounds) at upto = 2000; None means that check still passes.
# At that upto the windows of u = 56, 57 and 58 cover the indices
# 1823-1886, 1887-1951 and 1952-2017, and the b-values of u = 57 run
# from 1944 to 2008, past upto.
FAULT_UPTO = 2000
FAULTS = {
    "repeated_b": (20, {"b": 24}, (
        (25, "b-value 24 repeats covered ground"),
        (20, "b = 24 but n + u = 25"),
        None,
    )),
    "skipped_integer": (30, {"b": 38}, (
        (37, "no sequence value covers 37"),
        (30, "b = 38 but n + u = 37"),
        None,
    )),
    "a_off_by_one": (40, {"a": 983}, (
        (982, "no sequence value covers 982"),
        (39, "a(40) - a(39) = 48, expected b(39) = 47"),
        None,
    )),
    "wrong_u": (50, {"u": 10}, (
        None,
        (50, "b = 59 but n + u = 60"),
        None,
    )),
    "b_too_large": (10, {"b": 110}, (
        (14, "a-value 18 arrived, expected 14"),
        (10, "b = 110 but n + u = 14"),
        (10, "b = 110 not below n + sqrt(2n) + 1/2"),
    )),
    "a_zero_at_first_row": (1, {"a": 0}, (
        (1, "a-value 0 arrived, expected 1"),
        (1, "a = 0 but 1 + (n-1)n/2 + sum(u) = 1"),
        (1, "a = 0 below n^2/2 + n/2"),
    )),
    "a_just_past_upto": (2001, {"a": 2_077_848}, (
        None,
        (2000, "a(2001) - a(2000) = 2059, expected b(2000) = 2058"),
        None,
    )),
    "b_just_past_upto": (2001, {"b": 5000}, (None, None, None)),
    "b_at_window_first": (1823, {"b": 1878}, (
        (1879, "a-value 1878 arrived, expected 1879"),
        (1823, "b = 1878 but n + u = 1879"),
        None,
    )),
    "a_at_window_first": (1952, {"a": 1}, (
        None,
        (1951, "a(1952) - a(1951) = -1976172, expected b(1951) = 2008"),
        (1952, "a = 1 below n^2/2 + n/2"),
    )),
    "b_at_window_last": (1886, {"b": 5000}, (
        (1942, "a-value 1943 arrived, expected 1942"),
        (1886, "b = 5000 but n + u = 1942"),
        (1886, "b = 5000 not below n + sqrt(2n) + 1/2"),
    )),
    "a_at_window_last": (1951, {"a": 10**7}, (
        None,
        (1950, "a(1951) - a(1950) = 8025834, expected b(1950) = 2007"),
        (1951, "a = 10000000 not below n^2/2 + (2^1.5/3) n^1.5 - 1/3"),
    )),
    "b_in_window_straddling_upto": (1940, {"b": 1998}, (
        (1997, "no sequence value covers 1997"),
        (1940, "b = 1998 but n + u = 1997"),
        None,
    )),
    "u_in_window_holding_upto": (2000, {"u": 59}, (
        None,
        (2000, "b = 2058 but n + u = 2059"),
        None,
    )),
    "a_at_first_row_of_window_straddling_upto": (1887, {"a": 5}, (
        (1944, "a-value 5 arrived, expected 1944"),
        (1886, "a(1887) - a(1886) = -1847794, expected b(1886) = 1942"),
        (1887, "a = 5 below n^2/2 + n/2"),
    )),
    "a_inside_the_b_values_of_the_window_before_it": (57, {"a": 1900}, (
        (1901, "a-value 1900 arrived, expected 1901"),
        (56, "a(57) - a(56) = 22, expected b(56) = 65"),
        None,
    )),
    "a_equal_to_own_b_in_window_straddling_upto": (1900, {"a": 1957}, (
        (1958, "a-value 1957 arrived, expected 1958"),
        (1899, "a(1900) - a(1899) = -1871178, expected b(1899) = 1956"),
        (1900, "a = 1957 below n^2/2 + n/2"),
    )),
    # A consistent pair (u, b = n + u): the shift law and the closed form
    # hold, so the counting window decides, for a u past every window the
    # walk has reached (a_200 = 22232, a_(10^7) = 50029364025646) and for
    # a u below 1, which has no counting window.
    "u_past_the_walk": (1900, {"u": 200, "b": 2100}, (
        (1957, "no sequence value covers 1957"),
        (1900, "counting window (22032, 22249] misses n"),
        (1900, "u = 200 not below sqrt(2n) + 1/2"),
    )),
    "u_far_past_the_walk": (500, {"u": 10**7, "b": 10**7 + 500}, (
        (528, "a-value 529 arrived, expected 528"),
        (500, "counting window (50029354025646, 50029364030061] misses n"),
        (500, "u = 10000000 not below sqrt(2n) + 1/2"),
    )),
    "u_zero": (500, {"u": 0, "b": 500}, (
        (528, "b-value 500 repeats covered ground"),
        (500, "u = 0 below 1 has no counting window"),
        (500, "u = 0 below 1"),
    )),
    "u_negative": (500, {"u": -3, "b": 497}, (
        (528, "b-value 497 repeats covered ground"),
        (500, "u = -3 below 1 has no counting window"),
        (500, "u = -3 below 1"),
    )),
    "u_zero_at_first_row": (1, {"u": 0, "b": 1}, (
        (2, "a-value 1 arrived, expected 2"),
        (1, "u = 0 below 1 has no counting window"),
        (1, "u = 0 below 1"),
    )),
}


@pytest.fixture(params=sorted(FAULTS))
def fault(request, monkeypatch):
    """Corrupt one row of the stream the checks read; return the expected
    first failures."""
    index, changes, expected = FAULTS[request.param]
    monkeypatch.setattr(checks, "_runs", corrupting_runs(checks._runs, index, changes))
    return expected


def _report(name, failure):
    return CheckReport(name, 1, FAULT_UPTO, failure is None, failure)


def test_fault_table_corrupts_real_values():
    for index, changes, _ in FAULTS.values():
        row = next(_rows(index))
        assert all(getattr(row, key) != value for key, value in changes.items())


def test_corrupting_runs_replaces_exactly_one_row():
    true_rows = list(islice(flat_rows(checks._runs(1)), 2100))
    for index, changes, _ in FAULTS.values():
        expected = list(true_rows)
        expected[index - 1] = tuple(Triple(*expected[index - 1])._replace(**changes))
        runs = corrupting_runs(checks._runs, index, changes)
        assert list(islice(flat_rows(runs(1)), 2100)) == expected


def test_each_check_reports_its_first_failure(fault):
    for name, check, failure in zip(CHECK_NAMES, CHECKS, fault):
        assert check(FAULT_UPTO) == _report(name, failure)


def test_fused_checks_fail_independently(fault):
    expected = tuple(_report(name, failure) for name, failure in zip(CHECK_NAMES, fault))
    assert check_all(FAULT_UPTO) == expected
    assert reference_run_checks(FAULT_UPTO, CHECK_NAMES) == expected


def test_verify_all_prints_every_failure(fault, capsys):
    code = run_cli(["verify", "--check", "all", "--upto", str(FAULT_UPTO)])
    out = capsys.readouterr().out
    assert code == (1 if any(fault) else 0)
    lines = out.splitlines()
    assert len(lines) == 3
    for line, name, failure in zip(lines, CHECK_NAMES, fault):
        prefix = f"{name} [1, {FAULT_UPTO}]: "
        if failure is None:
            assert line == prefix + "PASS"
        else:
            assert line == prefix + f"FAIL at n={failure[0]}: {failure[1]}"


@pytest.mark.parametrize("upto", [2, 14, 500, 10_000, 10**6])
def test_check_all_matches_single_checks(upto):
    reference = reference_run_checks(upto, CHECK_NAMES)
    assert check_all(upto) == reference
    assert tuple(check(upto) for check in CHECKS) == reference


# The partition ends where upto is an a-value (a_4 = 12, a_57 = 1943),
# with that a-value's row corrupted.
@pytest.mark.parametrize("upto, index, changes, failure", [
    (12, 4, {"a": 13}, (12, "no sequence value covers 12")),
    (1943, 57, {"a": 1944}, (1943, "no sequence value covers 1943")),
    (1943, 57, {"a": 1942}, (1943, "a-value 1942 arrived, expected 1943")),
])
def test_partition_ending_at_an_a_value(monkeypatch, upto, index, changes, failure):
    monkeypatch.setattr(checks, "_runs", corrupting_runs(checks._runs, index, changes))
    expected = CheckReport("partition", 1, upto, False, failure)
    assert check_partition(upto) == expected
    assert reference_run_checks(upto, ("partition",)) == (expected,)


def test_identities_to_1e18_end_at_an_early_fault(monkeypatch):
    # Nothing is sized from upto: the check stops at the faulty row 20 as
    # it would at upto = 2000, with little memory and at once.
    monkeypatch.setattr(checks, "_runs", corrupting_runs(checks._runs, 20, {"b": 24}))
    tracemalloc.start()
    try:
        reports = checks._run_checks(10**18, ("identities",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reports == (CheckReport("identities", 1, 10**18, False, (20, "b = 24 but n + u = 25")),)
    assert peak < 64 * 1024


# The window of u = 11 holds the indices 73-86; moved to start at 75, the
# rows 73 and 74 are never read.  At upto = 74 the next row read is 75,
# past upto, where only its index and the difference law are tested.
@pytest.mark.parametrize("upto", [74, 100])
def test_identities_fail_where_the_index_column_skips(monkeypatch, upto):
    monkeypatch.setattr(checks, "_runs", corrupting_window(checks._runs, 10, {"n": 75}))
    expected = (
        CheckReport("partition", 1, upto, True),
        CheckReport("identities", 1, upto, False, (73, "index 75 arrived, expected 73")),
        CheckReport("bounds", 1, upto, True),
    )
    assert check_all(upto) == expected
    assert reference_run_checks(upto, CHECK_NAMES) == expected


@pytest.mark.parametrize("names", [CHECK_NAMES, *((name,) for name in CHECK_NAMES)])
def test_window_tests_run_the_row_code_once_per_window(monkeypatch, names):
    # On the true stream each window test runs its check's row code on the
    # window's first row only.  A fast path that stopped firing would give
    # the same reports, only slower, so the calls are counted.
    upto = 10**6
    calls = dict.fromkeys(names, 0)
    for name in names:
        check = checks._CHECKS[name]

        def counted(self, *row, name=name, row_code=check.row):
            calls[name] += 1
            return row_code(self, *row)

        monkeypatch.setattr(check, "row", counted)
    windows = sum(1 for _ in takewhile(lambda window: window[0] <= upto + 1, checks._runs(1)))
    assert checks._run_checks(upto, names) == tuple(CheckReport(name, 1, upto, True) for name in names)
    assert all(count <= windows + 2 for count in calls.values()), (windows, calls)


@pytest.mark.parametrize("upto, windows", [(10**6, 1384), (10**9, 44534)])
def test_verify_reads_one_window_per_value_of_u(monkeypatch, upto, windows):
    # The walk to upto reads the windows of constant u up to the one that
    # holds upto, which is window u_upto, and stops there.
    real, read = checks._runs, []

    def counted(start):
        return (read.append(window) or window for window in real(start))

    monkeypatch.setattr(checks, "_runs", counted)
    assert checks._run_checks(upto, CHECK_NAMES) == tuple(CheckReport(name, 1, upto, True) for name in CHECK_NAMES)
    assert len(read) == windows == value_at("u", upto)


def misrecorded(position, delta):
    """A stand-in for checks._a_values whose a_{position + 1}, a bound the
    counting window reads, is off by delta; the stream itself stays true."""

    def a_values():
        for i, value in enumerate(_a_values()):
            yield value + delta if i == position else value

    return a_values


# A misread run bound a_{k+1} shifts the upper end of window k's counting
# window and the lower end of window k + 1's.  The window of u = 58 holds
# upto = 2000, so only its rows up to 2000 are checked.
@pytest.mark.parametrize("upto, position, delta, failure", [
    (20, 3, 1, (9, "counting window (9, 13] misses n")),
    (2000, 56, -1, (1886, "counting window (1822, 1885] misses n")),
    (2000, 56, -10, (1877, "counting window (1822, 1876] misses n")),
    (2000, 56, 1, (1887, "counting window (1887, 1951] misses n")),
    (2000, 58, -10, None),
    (2000, 58, -20, (1998, "counting window (1951, 1997] misses n")),
])
def test_counting_window_failures(monkeypatch, upto, position, delta, failure):
    monkeypatch.setattr(checks, "_a_values", misrecorded(position, delta))
    expected = CheckReport("identities", 1, upto, failure is None, failure)
    assert check_identities(upto) == expected
    assert check_all(upto) == reference_run_checks(upto, CHECK_NAMES)
    assert check_all(upto)[1] == expected


def _windows(limit):
    """(first index, last index, first b, hi) of every window up to limit."""
    windows = []
    for n, _, first, hi, _ in checks._runs(1):
        if n > limit:
            return windows
        windows.append((n, n + hi - first - 1, first, hi))


WINDOWS = _windows(20_001)
A_VALUES = list(takewhile((20_000).__ge__, _a_values()))


@st.composite
def faulty_runs(draw):
    upto = draw(st.one_of(st.integers(2, 20_000), st.sampled_from(A_VALUES[1:])))
    names = tuple(draw(st.lists(st.sampled_from(CHECK_NAMES), min_size=1, max_size=3, unique=True)))
    if draw(st.booleans()):
        # One window the checks reach, whole, with its first index, a, first
        # b, bound hi or u moved by 1 to 50 either way; it keeps a row.
        position = draw(st.integers(0, sum(w[0] <= upto + 1 for w in WINDOWS) - 1))
        n, _, first, hi = WINDOWS[position]
        field = draw(st.sampled_from(WINDOW_FIELDS))
        true_value = dict(zip(WINDOW_FIELDS, (n, next(_rows(n)).a, first, hi, position + 1)))[field]
        changes = {field: true_value + draw(st.integers(-50, 50).filter(bool))}
        assume(changes.get("hi", hi) > changes.get("first", first))
        return upto, partial(corrupting_window, position=position, changes=changes), names
    place = draw(st.sampled_from([
        "any", "a_value_row", "window_first", "window_last", "b_reaches_upto", "upto", "upto + 1",
    ]))
    if place == "any":
        index = draw(st.integers(1, upto + 1))
    elif place == "a_value_row":
        # A row whose a-value the partition holds until b reaches it.
        index = draw(st.integers(1, sum(value <= upto for value in A_VALUES) + 1))
    elif place == "b_reaches_upto":
        # A row of the window whose b-values run past upto.
        n, last, _, _ = next(w for w in WINDOWS if w[3] > upto)
        index = draw(st.integers(n, last))
    elif place == "upto":
        index = upto
    elif place == "upto + 1":
        index = upto + 1
    else:
        ends = [w[:2] for w in WINDOWS if w[place == "window_last"] <= upto + 1]
        index = draw(st.sampled_from(ends))[place == "window_last"]
    # One field, or u with b = n + u so that the shift law still holds.
    field = draw(st.sampled_from(["a", "b", "u", "u and b"]))
    row = next(_rows(index))
    true_value = getattr(row, field[0])
    # A value off by a little or a lot, one near the row's own b, or one
    # among those the partition covers up to upto.
    value = draw(st.one_of(
        st.integers(-3, 3).map(true_value.__add__),
        st.integers(-10**7, 10**7).map(true_value.__add__),
        st.integers(-2, 2).map(row.b.__add__),
        st.integers(-2, upto + 2),
    ).filter(true_value.__ne__))
    changes = {"u": value, "b": index + value} if field == "u and b" else {field: value}
    return upto, partial(corrupting_runs, index=index, changes=changes), names


@settings(max_examples=200, deadline=None)
@given(faulty_runs())
def test_windowed_checks_match_reference_under_any_fault(case):
    upto, corrupt, names = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_runs", corrupt(checks._runs))
        assert checks._run_checks(upto, names) == reference_run_checks(upto, names)


def test_check_all_reaches_1e9():
    assert all(report.passed for report in check_all(10**9))
