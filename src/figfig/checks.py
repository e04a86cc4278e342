"""Streamed verification of the sequence laws, plus remainder diagnostics.

Each check walks the triple stream once, stops at the first violation,
and reports it instead of raising; a passing report covers the whole
requested range.  The bound checks compare in exact integer arithmetic
(squared rearrangements of the square-root bounds) so they cannot be
fooled by rounding at any index.

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
from .stream import SEQUENCE_IDS, TripleStream, Triple, _rows

__all__ = [
    "CheckReport",
    "RemainderRow",
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


def _passed(name: str, lo: int, hi: int) -> CheckReport:
    return CheckReport(name, lo, hi, True, None)


def _failed(name: str, lo: int, hi: int, n: int, detail: str) -> CheckReport:
    return CheckReport(name, lo, hi, False, (n, detail))


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


def check_partition(upto: int) -> CheckReport:
    """Every integer in [1, upto] is hit exactly once by the a and b values."""
    if upto < 1:
        raise ValueError("upto must be >= 1")
    name = "partition"
    expect = 1  # smallest integer not yet covered
    pending_a: deque[int] = deque()
    for row in _rows(1):
        if row.a <= upto:
            pending_a.append(row.a)
        while pending_a and pending_a[0] < row.b:
            value = pending_a.popleft()
            if value != expect:
                return _failed(name, 1, upto, expect, f"a-value {value} arrived, expected {expect}")
            expect += 1
            if expect > upto:
                return _passed(name, 1, upto)
        if row.b > expect:
            return _failed(name, 1, upto, expect, f"no sequence value covers {expect}")
        if row.b < expect:
            return _failed(name, 1, upto, expect, f"b-value {row.b} repeats covered ground")
        expect += 1
        if expect > upto:
            return _passed(name, 1, upto)
    raise AssertionError("unreachable: the stream is infinite")


def check_identities(upto: int) -> CheckReport:
    """The four per-index laws tying a, b, and u together, for n in [1, upto].

    Difference (a_{n+1} - a_n = b_n), shift (b_n = n + u_n), the summed
    closed form a_n = 1 + (n-1)n/2 + sum of u_1..u_{n-1}, and the counting
    window a(u_n) - u_n < n <= a(u_n + 1) - (u_n + 1).  The window reads
    early a-values straight from the stream's retained slice.
    """
    if upto < 2:
        raise ValueError("upto must be >= 2")
    name = "identities"
    stream = TripleStream()
    u_sum = 0  # u_1 + ... + u_{n-1}
    previous: Triple | None = None
    for n in range(1, upto + 2):
        row = stream.next_triple()
        if previous is not None and row.a - previous.a != previous.b:
            return _failed(
                name, 1, upto, previous.n,
                f"a({n}) - a({previous.n}) = {row.a - previous.a}, expected b({previous.n}) = {previous.b}",
            )
        if n <= upto:
            if row.b != n + row.u:
                return _failed(name, 1, upto, n, f"b = {row.b} but n + u = {n + row.u}")
            if row.a != 1 + (n - 1) * n // 2 + u_sum:
                return _failed(
                    name, 1, upto, n,
                    f"a = {row.a} but 1 + (n-1)n/2 + sum(u) = {1 + (n - 1) * n // 2 + u_sum}",
                )
            window_lo = stream.early_a(row.u) - row.u
            window_hi = stream.early_a(row.u + 1) - (row.u + 1)
            if not window_lo < n <= window_hi:
                return _failed(name, 1, upto, n, f"counting window ({window_lo}, {window_hi}] misses n")
        u_sum += row.u
        previous = row
    return _passed(name, 1, upto)


def check_bounds(upto: int) -> CheckReport:
    """The six two-sided bounds on u, b, and a, for n in [1, upto]."""
    if upto < 1:
        raise ValueError("upto must be >= 1")
    name = "bounds"
    for n, row in zip(range(1, upto + 1), _rows(1)):
        if row.u < 1:
            return _failed(name, 1, upto, n, f"u = {row.u} below 1")
        if not sqrt_window_bound_holds(n, row.u):
            return _failed(name, 1, upto, n, f"u = {row.u} not below sqrt(2n) + 1/2")
        if row.b < n + 1:
            return _failed(name, 1, upto, n, f"b = {row.b} below n + 1")
        if not sqrt_window_bound_holds(n, row.b - n):
            return _failed(name, 1, upto, n, f"b = {row.b} not below n + sqrt(2n) + 1/2")
        if 2 * row.a < n * (n + 1):
            return _failed(name, 1, upto, n, f"a = {row.a} below n^2/2 + n/2")
        if not a_upper_bound_holds(n, row.a):
            return _failed(name, 1, upto, n, f"a = {row.a} not below n^2/2 + (2^1.5/3) n^1.5 - 1/3")
    return _passed(name, 1, upto)


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
    if seq not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence id {seq!r}, expected one of {SEQUENCE_IDS}")
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
    if seq not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence id {seq!r}, expected one of {SEQUENCE_IDS}")
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
