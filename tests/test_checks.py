"""Check reports, exact bound predicates, and remainder diagnostics."""

import math

import pytest

from figfig import (
    CheckReport,
    RemainderRow,
    a_coeff,
    check_all,
    check_bounds,
    check_identities,
    check_partition,
    decade_remainder_means,
    eval_u_series,
    remainder_table,
    run_cli,
    u_coeff,
    value_at,
)
from figfig import checks
from figfig.checks import a_upper_bound_holds, sqrt_window_bound_holds

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


@pytest.mark.parametrize("upto", [1, 20, 10_000])
def test_bounds_pass(upto):
    report = check_bounds(upto)
    assert report.passed
    assert (report.name, report.lo, report.hi) == ("bounds", 1, upto)


def test_checks_reject_bad_ranges():
    with pytest.raises(ValueError):
        check_partition(0)
    with pytest.raises(ValueError):
        check_identities(1)
    with pytest.raises(ValueError):
        check_bounds(0)


def test_reports_are_deterministic():
    assert check_partition(200) == check_partition(200)


def test_report_consistency_is_enforced():
    with pytest.raises(ValueError):
        CheckReport("x", 1, 2, True, (1, "boom"))
    with pytest.raises(ValueError):
        CheckReport("x", 1, 2, False, None)


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


def test_decade_means_drift_toward_next_coefficient():
    means = decade_remainder_means("u", 1, 2, 3)
    assert [d for d, _ in means] == [2, 3]
    target = -4 / 3
    assert abs(means[1][1] - target) < abs(means[0][1] - target)


def test_decade_means_validations():
    with pytest.raises(ValueError):
        decade_remainder_means("c", 1, 2, 3)
    with pytest.raises(ValueError):
        decade_remainder_means("u", 1, -1, 3)
    with pytest.raises(ValueError):
        decade_remainder_means("u", 1, 3, 2)


def _two_ladder_row(seq, order, n):
    """The remainder row as computed with a separate ladder for the next
    rung: the series sum climbs `order` square roots from n/2, then the
    rung climbs `order + 1` more from n/2 again."""
    half = n / 2
    root, u_series, a_tail = half, 0.0, 0.0
    for k in range(1, order + 1):
        root = math.sqrt(root)
        u_series += float(u_coeff(k)) * root
        a_tail += float(a_coeff(k)) * root * half
    rung = half
    for _ in range(order + 1):
        rung = math.sqrt(rung)
    exact = value_at(seq, n)
    if seq == "a":
        remainder = (2 * exact - n * n) / 2 - a_tail
        return RemainderRow(n, order, exact, n * n / 2 + a_tail, remainder, remainder / (half * rung))
    remainder = value_at("u", n) - u_series
    series = n + u_series if seq == "b" else u_series
    return RemainderRow(n, order, exact, series, remainder, remainder / rung)


@pytest.mark.parametrize("seq", ["a", "b", "u"])
def test_one_ladder_remainders_are_bit_identical(seq):
    ns = [1, 2, 3, 8, 99, 1000, 12_345, 10**6 + 7, 10**9]
    for order in (1, 2, 3, 7, 20, 63, 64):
        assert remainder_table(seq, order, ns) == [_two_ladder_row(seq, order, n) for n in ns]


def test_remainder_table_reaches_far_indices():
    row = remainder_table("u", 1, [10**9])[0]
    assert row.exact == value_at("u", 10**9)
    assert row.series == eval_u_series(10**9, 1)
    assert row.remainder == row.exact - row.series


# Failure paths: the checks read their rows through figfig.checks._rows, so
# replacing that name with a corrupting wrapper feeds every check the same
# faulty stream.  Each case lists the first failure of (partition,
# identities, bounds) at upto = 2000; None means that check still passes.
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
}


@pytest.fixture(params=sorted(FAULTS))
def fault(request, monkeypatch):
    """Corrupt one row of the stream the checks read; return the expected
    first failures."""
    index, changes, expected = FAULTS[request.param]
    real = checks._rows

    def rows(start, lag=None):
        for row in real(start, lag):
            yield row._replace(**changes) if row.n == index else row

    monkeypatch.setattr(checks, "_rows", rows)
    return expected


def _report(name, failure):
    return CheckReport(name, 1, FAULT_UPTO, failure is None, failure)


def test_fault_table_corrupts_real_values():
    for index, changes, _ in FAULTS.values():
        row = next(checks._rows(index))
        assert all(getattr(row, key) != value for key, value in changes.items())


def test_each_check_reports_its_first_failure(fault):
    for name, check, failure in zip(CHECK_NAMES, CHECKS, fault):
        assert check(FAULT_UPTO) == _report(name, failure)


def test_fused_checks_fail_independently(fault):
    assert check_all(FAULT_UPTO) == tuple(
        _report(name, failure) for name, failure in zip(CHECK_NAMES, fault)
    )


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


@pytest.mark.parametrize("upto", [2, 14, 500, 10_000])
def test_check_all_matches_single_checks(upto):
    assert check_all(upto) == tuple(check(upto) for check in CHECKS)
