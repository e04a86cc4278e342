"""Streamed verification of the sequence laws, plus remainder diagnostics.

The law checks share one driver that walks the triple stream once and
hands each row to every selected check still running, so `check_all`
verifies the partition, the identities and the bounds in a single pass.
A check stops at its first violation and reports it instead of raising;
a passing report covers the whole requested range.  The bound checks
compare in exact integer arithmetic (squared rearrangements of the
square-root bounds) so they cannot be fooled by rounding at any index.

The remainder table measures how fast the truncated series approaches
the exact values.  The remainder is divided by the next rung of the
power ladder, the term a one-order-deeper truncation would add; on that
scale it settles near the next coefficient.  Where it should settle, and
how tightly, is a convention of this package's test suite rather than a
proved enclosure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .series import _a_tail, _u_sum, MAX_ORDER
from .stream import Triple, _a_values, _check_seq, _recorded, _rows

__all__ = [
    "CHECK_NAMES",
    "CheckReport",
    "RemainderRow",
    "check_all",
    "check_bounds",
    "check_identities",
    "check_partition",
    "decade_remainder_means",
    "remainder_table",
    "sqrt_window_bound_holds",
    "a_upper_bound_holds",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one streamed verification over indices [lo, hi]."""

    name: str
    lo: int
    hi: int
    passed: bool
    first_failure: tuple[int, str] | None = None

    def __post_init__(self) -> None:
        if self.passed != (self.first_failure is None):
            raise ValueError("passed must match the absence of a failure")


@dataclass(frozen=True)
class RemainderRow:
    """Exact value, truncated series, and scaled remainder at one index."""

    n: int
    order: int
    exact: int
    series: float
    remainder: float
    scaled: float


def sqrt_window_bound_holds(n: int, value: int) -> bool:
    """value < sqrt(2n) + 1/2, decided in integers (needs value >= 1).

    Squaring the rearranged 2*value - 1 < sqrt(8n) is exact, and the left
    side is odd while 8n is even, so equality never blurs the verdict.
    """
    return (2 * value - 1) ** 2 < 8 * n


def a_upper_bound_holds(n: int, a: int) -> bool:
    """a < n^2/2 + (2 sqrt 2 / 3) n^(3/2) - 1/3, decided in integers."""
    # Multiply through by 6 and square: 3*(2a - n^2) + 2 < 4 sqrt(2 n^3).
    lhs = 3 * (2 * a - n * n) + 2
    return lhs <= 0 or lhs * lhs < 32 * n**3


# Each law check and the smallest upto it accepts, in the order check_all
# and `figfig verify --check all` report them.
_MIN_UPTO = {"partition": 1, "identities": 2, "bounds": 1}
CHECK_NAMES = tuple(_MIN_UPTO)


def _report(name: str, upto: int, failure: tuple[int, str] | None) -> CheckReport:
    return CheckReport(name, 1, upto, failure is None, failure)


def _run_checks(upto: int, names: Sequence[str]) -> tuple[CheckReport, ...]:
    """One walk of the triple stream feeding every named check, for n in [1, upto].

    Each check keeps its own state and finishes on its own pass or first
    failure; the walk ends once all of them have finished, at row upto + 1
    at the latest.  Reports come back in the order of `names`.  Every
    range is validated before the first row is read.
    """
    for name in names:
        if upto < _MIN_UPTO[name]:
            raise ValueError(f"upto must be >= {_MIN_UPTO[name]}")
    reports: dict[str, CheckReport] = {}
    partition, identities, bounds = (name in names for name in CHECK_NAMES)
    # partition: the smallest integer not yet covered, and the a-values
    # <= upto that have been generated but not yet reached.
    expect = 1
    pending_a: deque[int] = deque()
    # identities: u_1 + ... + u_{n-1} and the previous row's a and b.
    u_sum = 0
    previous_a = previous_b = 0
    # The run bounds a_1..a_{u+1} read so far, for the counting window.
    prefix: list[int] = []
    for n, a, b, u in _rows(1, _recorded(_a_values(), prefix)):
        if partition:
            # Cover, in order, the pending a-values below b and then b itself.
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
                reports["partition"] = _report("partition", upto, failure)
                partition = False
        if identities:
            # The four laws of check_identities; row upto + 1 is read only
            # for the difference law at n = upto.
            failure = None
            if n > 1 and a - previous_a != previous_b:
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
            else:
                window_lo = prefix[u - 1] - u
                window_hi = prefix[u] - (u + 1)
                if not window_lo < n <= window_hi:
                    failure = (n, f"counting window ({window_lo}, {window_hi}] misses n")
            if failure or n > upto:
                reports["identities"] = _report("identities", upto, failure)
                identities = False
            u_sum += u
            previous_a, previous_b = a, b
        if bounds:
            # The six bounds of check_bounds, each at every n.
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
            if failure or n == upto:
                reports["bounds"] = _report("bounds", upto, failure)
                bounds = False
        if not (partition or identities or bounds):
            return tuple(reports[name] for name in names)
    raise AssertionError("unreachable: the stream is infinite")


def check_partition(upto: int) -> CheckReport:
    """Every integer in [1, upto] is hit exactly once by the a and b values."""
    return _run_checks(upto, ("partition",))[0]


def check_identities(upto: int) -> CheckReport:
    """The four per-index laws tying a, b, and u together, for n in [1, upto].

    Difference (a_{n+1} - a_n = b_n), shift (b_n = n + u_n), the summed
    closed form a_n = 1 + (n-1)n/2 + sum of u_1..u_{n-1}, and the counting
    window a(u_n) - u_n < n <= a(u_n + 1) - (u_n + 1).  The window reads
    early a-values from the leading slice the stream has consumed.
    """
    return _run_checks(upto, ("identities",))[0]


def check_bounds(upto: int) -> CheckReport:
    """The six two-sided bounds on u, b, and a, for n in [1, upto]."""
    return _run_checks(upto, ("bounds",))[0]


def check_all(upto: int) -> tuple[CheckReport, CheckReport, CheckReport]:
    """(partition, identities, bounds) reports from one shared walk of the stream.

    Equal to calling the three checks one by one; upto must be >= 2.
    """
    return _run_checks(upto, CHECK_NAMES)


def _series_parts(seq: str, order: int, row: Triple) -> tuple[int, float, float, float]:
    """(exact, series, remainder, scaled) for one row of one sequence.

    For b everything except the reported exact and series values is taken
    from the u computation, since the two differ by exactly n on both the
    exact and the series side.  For a the remainder subtracts the n^2/2
    head in integers before any float enters, to dodge cancellation.  The
    next rung (n/2)^(1/2^(order+1)) is one square root past the last rung
    of the ladder that summed the series.
    """
    n = row.n
    if seq == "a":
        tail, rung = _a_tail(n, order)
        series = n * n / 2 + tail
        remainder = (2 * row.a - n * n) / 2 - tail
        scaled = remainder / ((n / 2) * math.sqrt(rung))
        return row.a, series, remainder, scaled
    u_series, rung = _u_sum(n, order)
    remainder = row.u - u_series
    scaled = remainder / math.sqrt(rung)
    if seq == "b":
        return row.b, n + u_series, remainder, scaled
    return row.u, u_series, remainder, scaled


def remainder_table(seq: str, order: int, ns: Sequence[int]) -> list[RemainderRow]:
    """RemainderRow for each requested index, each reached by O(sqrt n) jump-ahead.

    ns must be non-empty and strictly increasing; order is the truncation
    depth whose next rung scales the remainder.
    """
    _check_seq(seq)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"series order must be in 1..{MAX_ORDER}")
    if not ns:
        raise ValueError("ns must be non-empty")
    if any(ns[i] >= ns[i + 1] for i in range(len(ns) - 1)) or ns[0] < 1:
        raise ValueError("ns must be strictly increasing positive integers")
    return [
        RemainderRow(n, order, *_series_parts(seq, order, next(_rows(n))))
        for n in ns
    ]


def decade_remainder_means(
    seq: str, order: int, first_decade: int, last_decade: int
) -> list[tuple[int, float]]:
    """Mean scaled remainder over each decade [10^d, 10^(d+1)).

    One streaming pass covering d = first_decade..last_decade, started by
    jump-ahead at 10^first_decade; the means drift toward the next
    coefficient as the decades climb.
    """
    _check_seq(seq)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"series order must be in 1..{MAX_ORDER}")
    if first_decade < 0 or last_decade < first_decade:
        raise ValueError("need 0 <= first_decade <= last_decade")
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
        sums[slot] += _series_parts(seq, order, row)[3]
        counts[slot] += 1
    return [
        (first_decade + i, sums[i] / counts[i])
        for i in range(len(sums))
    ]
