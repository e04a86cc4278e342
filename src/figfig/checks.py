"""Streamed verification of the sequence laws, plus remainder diagnostics.

The law checks share one driver that walks the stream once, a window of
constant u at a time, and hands each window to every selected check
still running, so `check_all` verifies the partition, the identities and
the bounds in a single pass.  A check tests each law once per window,
at the window's ends, where that is proved to cover every index in it;
it walks a window index by index, with the same per-index tests, where
such a test fails or does not apply.  So a failure names the same first
index and detail as an index-by-index walk would.  A check stops at its
first violation and reports it instead of raising; a passing report
covers the whole requested range.  The bound checks compare in exact
integer arithmetic (squared rearrangements of the square-root bounds) so
they cannot be fooled by rounding at any index.  Reports and remainder
rows are named tuples, so loading this module imports no `dataclasses`.

The remainder table measures how fast the truncated series approaches
the exact values.  The remainder is divided by the next rung of the
power ladder, the term a one-order-deeper truncation would add; on that
scale it settles near the next coefficient.  Where it should settle, and
how tightly, is a convention of this package's test suite rather than a
proved enclosure.  Both remainder tools climb the ladder index by index
with the same float operations, in the same order, as the series
evaluators take, and add each scaled remainder to a running float: the
table by one kernel that climbs in a flat loop, the decade means one
window of constant u at a time, by an unrolled body at orders 1 to 3 and
by that loop deeper.  So the decade means' working memory stays a few
windows' worth however many decades they span; each decade's scaled
values are added left to right, one at a time, so the means are the
same floats an index-by-index walk gives.
"""

import math
from collections import deque, namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat, takewhile

from . import _int_arg
from .stream import CHECK_NAMES, SEQUENCE_IDS, _a_values, _check_seq, _columns, _heads, _runs

__all__ = [
    "CheckReport",
    "RemainderRow",
    "check_all",
    "check_bounds",
    "check_identities",
    "check_partition",
    "decade_remainder_means",
    "remainder_table",
]


class CheckReport(namedtuple("_CheckReportFields", "name lo hi passed first_failure", defaults=(None,))):
    """Outcome of one streamed verification over indices [lo, hi]; any way of
    building one with passed != (first_failure is None) raises ValueError."""

    __slots__ = ()

    def __new__(cls, name: str, lo: int, hi: int, passed: bool, first_failure: tuple[int, str] | None = None):
        if passed != (first_failure is None):
            raise ValueError("passed must match the absence of a failure")
        return super().__new__(cls, name, lo, hi, passed, first_failure)

    @classmethod
    def _make(cls, iterable: Iterable) -> "CheckReport":  # the base's skips __new__; _replace calls it
        return cls(*iterable)


RemainderRow = namedtuple("RemainderRow", "n order exact series remainder scaled")
RemainderRow.__doc__ = "Exact value, truncated series, and scaled remainder at one index."


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


class _Partition:
    """Every integer in [1, upto] is covered once, in order."""

    def __init__(self, upto: int) -> None:
        self.upto = upto
        self.failure: tuple[int, str] | None = None
        # The smallest integer not yet covered, and the a-values <= upto
        # that have been generated but not yet reached.
        self.expect = 1
        self.pending: deque[int] = deque()

    def window(self, n: int, a: int, first: int, hi: int, k: int) -> bool:
        pending, upto = self.pending, self.upto
        if not (
            hi <= a
            and pending
            and pending[0] == self.expect == first - 1
            and (len(pending) == 1 or pending[1] >= hi)
        ):
            return any(map(self.row, *_columns(n, a, first, hi, k)))
        pending.popleft()
        self.expect = hi
        if a <= upto:  # a grows, so no later window has a-values to queue either
            pending.extend(takewhile(upto.__ge__, _columns(n, a, first, hi, k)[1]))
        return hi > upto

    def row(self, n: int, a: int, b: int, u: int) -> bool:
        # Cover, in order, the pending a-values below b and then b itself.
        upto, pending, expect = self.upto, self.pending, self.expect
        failure = None
        if a <= upto:
            pending.append(a)
        while pending and pending[0] < b:
            value = pending.popleft()
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
        self.expect, self.failure = expect, failure
        return failure is not None or expect > upto


class _Identities:
    """The four laws of check_identities."""

    def __init__(self, upto: int) -> None:
        self.upto = upto
        self.failure: tuple[int, str] | None = None
        # a_k and a_{k+1} of the last window k reached, from a lag of its own.
        self.a_values = _a_values()
        self.k, self.a_k, self.a_next = 0, 0, next(self.a_values)
        # u_1 + ... + u_{n-1} and the previous row's a and b.
        self.u_sum = 0
        self.previous_a = self.previous_b = 0

    def counting_window(self, u: int) -> tuple[int, int] | None:
        """(a_u - u, a_{u+1} - (u + 1)), or None for u < 1.

        The lag steps a window as u does; any other u, which only a faulty
        row carries (and fails here), gets its bounds by a jump to index u.
        """
        if u < 1:
            return None
        if u == self.k + 1:
            self.k, self.a_k, self.a_next = u, self.a_next, next(self.a_values)
        if u == self.k:
            return self.a_k - u, self.a_next - (u + 1)
        (a_u, _, _), (a_next, _, _) = _heads((u, u + 1))
        return a_u - u, a_next - (u + 1)

    def window(self, n: int, a: int, first: int, hi: int, k: int) -> bool:
        upto = self.upto
        last = n + hi - first - 1
        if (n > 1 and a - self.previous_a != self.previous_b) or (
            n <= upto
            and not (
                first == n + k
                and a == 1 + (n - 1) * n // 2 + self.u_sum
                and (bounds := self.counting_window(k))
                and bounds[0] < n
                and min(last, upto) <= bounds[1]
            )
        ):
            return any(map(self.row, *_columns(n, a, first, hi, k)))
        if last > upto:
            return True
        self.u_sum += k * (hi - first)
        self.previous_a = a + (first + hi - 2) * (hi - first - 1) // 2
        self.previous_b = hi - 1
        return False

    def row(self, n: int, a: int, b: int, u: int) -> bool:
        # Row upto + 1 is read only for the difference law at n = upto.
        upto = self.upto
        failure = None
        if n > 1 and a - self.previous_a != self.previous_b:
            failure = (
                n - 1,
                f"a({n}) - a({n - 1}) = {a - self.previous_a}, expected b({n - 1}) = {self.previous_b}",
            )
        elif n > upto:
            pass
        elif b != n + u:
            failure = (n, f"b = {b} but n + u = {n + u}")
        elif a != 1 + (n - 1) * n // 2 + self.u_sum:
            failure = (n, f"a = {a} but 1 + (n-1)n/2 + sum(u) = {1 + (n - 1) * n // 2 + self.u_sum}")
        elif (bounds := self.counting_window(u)) is None:
            failure = (n, f"u = {u} below 1 has no counting window")
        elif not bounds[0] < n <= bounds[1]:
            failure = (n, f"counting window ({bounds[0]}, {bounds[1]}] misses n")
        self.failure = failure
        self.u_sum += u
        self.previous_a, self.previous_b = a, b
        return failure is not None or n > upto


class _Bounds:
    """The six bounds of check_bounds."""

    def __init__(self, upto: int) -> None:
        self.upto = upto
        self.failure: tuple[int, str] | None = None

    def window(self, n: int, a: int, first: int, hi: int, k: int) -> bool:
        # The first row decides the whole window (see _run_checks).
        return self.row(n, a, first, k) or n + hi - first > self.upto

    def row(self, n: int, a: int, b: int, u: int) -> bool:
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
        self.failure = failure
        return failure is not None or n == self.upto


# Each law check by name, in the order of CHECK_NAMES.
_CHECKS = dict(zip(CHECK_NAMES, (_Partition, _Identities, _Bounds)))


def _run_checks(upto: int, names: Sequence[str]) -> tuple[CheckReport, ...]:
    """One walk of the windows of constant u feeding every named check, for n in [1, upto].

    A window (n, a, first, hi, k) of `_runs` holds the rows n, ..., n + w - 1
    (w = hi - first) with b = first, ..., hi - 1, u = k throughout, and each
    row's a the previous row's a plus its b.  Each check tests a window as
    a whole where a few exact tests at its ends prove its laws on every row
    of it (below); otherwise, and wherever such a test fails, it walks the
    window row by row with its per-row code (`row`), so a failure names the
    same first n and the same detail as a walk of every row would.  Each
    check finishes on its own pass or first failure; the walk ends once all
    of them have finished.  Reports come back in the order of `names`.
    Every range is validated before the first window is read.

    Partition.  Say a >= hi, and the pending a-values are a_k = first - 1
    = expect and then only values >= hi.  The window's own a-values grow
    by b >= first > expect >= 1 from a, so they too lie at or above hi.
    Then the rows pop a_k, cover first, ..., hi - 1 in turn and reach no
    other pending value.  As expect <= upto while the check runs, it
    passes in this window if hi > upto; otherwise expect becomes hi and
    the window's a-values <= upto join the pending ones.  In a stream
    without faults only the first two windows, whose a-values lie among
    their own b-values, are walked.

    Identities.  Inside a window a_{m+1} - a_m = b_m holds by construction,
    so the difference law is tested at the window's start only.  b - n =
    first - n on every row, so the shift law holds on all of them if
    first == n + k.  Given that, the closed form's right side and a both
    grow by n + k per row, so it holds on all of them if it holds at n.
    The counting window (a_k - k, a_{k+1} - (k + 1)] is an interval, so it
    holds on the rows n, ..., min(n + w - 1, upto) if it holds at both
    ends.  Rows past upto are held only to the difference law, so a window
    that passes and holds row upto + 1 ends the check.

    Bounds.  With d = b - n = first - n and u = k constant on the window,
    each of the six bounds at the window's first row implies it at every
    later row m:
    * u >= 1 and b >= n + 1 do not change.
    * (2k - 1)^2 < 8m and (2d - 1)^2 < 8m are weakest at the smallest m.
    * The slack 2a - m(m + 1) grows by 2b - 2(m + 1) = 2(d - 1) >= 0 per
      step.
    * a < f(m) = m^2/2 + (2^1.5/3) m^1.5 - 1/3: since (m + 1)^1.5 - m^1.5
      > 1.5 m^0.5, f(m + 1) - f(m) > m + 1/2 + sqrt(2m).  a grows by
      b = m + d, and the b bound at n gives d < sqrt(2n) + 1/2 <=
      sqrt(2m) + 1/2, so the step of a is smaller and a stays below f.
      (Where the shift law holds d = k, and this is the u bound.)
    """
    upto = _int_arg(upto, "upto", 2 if "identities" in names else 1)
    running = {name: _CHECKS[name](upto) for name in names}
    reports: dict[str, CheckReport] = {}
    for window in _runs(1):
        for name, check in list(running.items()):
            if check.window(*window):
                reports[name] = CheckReport(name, 1, upto, check.failure is None, check.failure)
                del running[name]
        if not running:
            return tuple(reports[name] for name in names)
    raise AssertionError("unreachable: the stream is infinite")


def check_partition(upto: int) -> CheckReport:
    """Every integer in [1, upto] is hit exactly once by the a and b values."""
    return _run_checks(upto, ("partition",))[0]


def check_identities(upto: int) -> CheckReport:
    """The four per-index laws tying a, b, and u together, for n in [1, upto].

    Difference (a_{n+1} - a_n = b_n), shift (b_n = n + u_n), the summed
    closed form a_n = 1 + (n-1)n/2 + sum of u_1..u_{n-1}, and the counting
    window a(u_n) - u_n < n <= a(u_n + 1) - (u_n + 1), whose bounds come
    from a walk of the check's own that keeps pace with the rows checked.
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


def _scaled_sum(
    summed: str, coeffs: tuple[float, ...], ns: Iterable[int], exact: Iterable[int], total: float = 0.0
) -> tuple[float, float, float]:
    """(total plus the scaled remainder at each index of ns, in turn; the last index's tail and remainder).

    ns is non-empty.  `exact` holds u_n at each n for the u-series ("u"),
    and e_n = 2 a_n - n^2 for the a-series tail ("a"); `coeffs` is the
    family's first `order` float coefficients.  The b remainder is the u
    remainder, since b and its series both exceed u and its series by
    exactly n.  For a, the n^2/2 head is subtracted in integers (inside
    e_n) before any float enters, to dodge cancellation.  Each index
    climbs the ladder in a flat loop by the float operations of
    eval_u_series and eval_a_series, so its tail equals theirs bit for
    bit; one more square root of its last rung (n/2)^(1/2^order) gives the
    next rung, which scales the remainder.  The first rung is taken out of
    the loop: the evaluators add its term to 0.0, and 0.0 + x is x for
    every double but -0.0, which that term never is, since n >= 1 makes
    the root positive and the first coefficient of each family is
    positive.  This is the remainder table's kernel, and the decade
    means' at orders 4 to 64; at orders 1 to 3 they take _window_sum's
    unrolled bodies, which make these float operations in this order.
    """
    sqrt = math.sqrt
    first, rest = coeffs[0], coeffs[1:]
    if summed == "a":
        for n, e in zip(ns, exact):
            half = n / 2
            root = sqrt(half)
            tail = first * root * half
            for coeff in rest:
                root = sqrt(root)
                tail += coeff * root * half
            remainder = e / 2 - tail
            total += remainder / (half * sqrt(root))
    else:
        for n, u in zip(ns, exact):
            root = sqrt(n / 2)
            tail = first * root
            for coeff in rest:
                root = sqrt(root)
                tail += coeff * root
            remainder = u - tail
            total += remainder / sqrt(root)
    return total, tail, remainder


def _window_sum(summed: str, coeffs: tuple[float, ...], ns: range, exact: int, step: int, total: float) -> float:
    """total plus the scaled remainder at each index of ns, one window of constant u, in turn.

    `exact` is the window's u for the u-series ("u"); for the a-series
    ("a") it is e_n = 2 a_n - n^2 at the first index, which steps by
    `step` = 2k - 1.  Orders 1 to 3 take an unrolled body: the rungs
    r1 = sqrt(n/2), r2 = sqrt(r1), r3 = sqrt(r2), the tail
    c1*r1 + c2*r2 + c3*r3 summed left to right (each product times n/2
    for a), and one more root to scale.  These are _scaled_sum's float
    operations in its order, so each scaled remainder, and the total, is
    the same float; the body only spares its zip and inner loop on every
    index.  Deeper orders go to _scaled_sum.
    """
    order = len(coeffs)
    if order > 3:
        exacts = range(exact, exact + step * len(ns), step) if summed == "a" else repeat(exact, len(ns))
        return _scaled_sum(summed, coeffs, ns, exacts, total)[0]
    sqrt = math.sqrt
    c1, c2, c3 = coeffs + (0.0,) * (3 - order)
    if summed == "u":
        u = exact
        if order == 1:
            for n in ns:
                r1 = sqrt(n / 2)
                total += (u - c1 * r1) / sqrt(r1)
        elif order == 2:
            for n in ns:
                r1 = sqrt(n / 2)
                r2 = sqrt(r1)
                total += (u - (c1 * r1 + c2 * r2)) / sqrt(r2)
        else:
            for n in ns:
                r1 = sqrt(n / 2)
                r2 = sqrt(r1)
                r3 = sqrt(r2)
                total += (u - (c1 * r1 + c2 * r2 + c3 * r3)) / sqrt(r3)
        return total
    e = exact
    if order == 1:
        for n in ns:
            half = n / 2
            r1 = sqrt(half)
            total += (e / 2 - c1 * r1 * half) / (half * sqrt(r1))
            e += step
    elif order == 2:
        for n in ns:
            half = n / 2
            r1 = sqrt(half)
            r2 = sqrt(r1)
            total += (e / 2 - (c1 * r1 * half + c2 * r2 * half)) / (half * sqrt(r2))
            e += step
    else:
        for n in ns:
            half = n / 2
            r1 = sqrt(half)
            r2 = sqrt(r1)
            r3 = sqrt(r2)
            total += (e / 2 - (c1 * r1 * half + c2 * r2 * half + c3 * r3 * half)) / (half * sqrt(r3))
            e += step
    return total


def _check_ns(ns: Iterable[int]) -> list[int]:
    """ns as a list of ints; ValueError unless it is a non-empty, strictly increasing run of indices >= 1."""
    lo = 0  # each index must pass the one before it
    try:
        ns = [lo := _int_arg(n, "ns", lo + 1) for n in ns]
    except ValueError:
        raise ValueError("ns must be strictly increasing positive integers") from None
    if not ns:
        raise ValueError("ns must be non-empty")
    return ns


def _check_decades(lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi) as ints; ValueError unless 0 <= lo <= hi, a span of decades [10^lo, 10^(hi+1))."""
    try:
        return (lo := _int_arg(lo, "first decade", 0)), _int_arg(hi, "last decade", lo)
    except ValueError:
        raise ValueError("need 0 <= first decade <= last decade") from None


# Each series is its _scaled_sum tail plus this head (0 + tail is tail: the u tail is positive).
_SERIES_HEADS = {"a": lambda n: n * n / 2, "b": lambda n: n, "u": lambda n: 0}


def remainder_table(seq: str, order: int, ns: Sequence[int]) -> list[RemainderRow]:
    """RemainderRow for each requested index, all read off one walk of the stream.

    ns must be non-empty and strictly increasing ints (operator.index);
    order is the truncation depth whose next rung scales the remainder.  The walk starts by
    O(n^(1/4)) jump-ahead at the first index and goes on window by window
    to the last, through the u_last - u_first windows between them.
    Each row's series is summed on its own, by one flat climb of the ladder.
    """
    from .series import _PREFIXES, _check_order

    _check_seq(seq)
    order = _check_order(order)
    ns = _check_ns(ns)
    summed = "a" if seq == "a" else "u"
    coeffs = _PREFIXES[summed][order]
    position, head = SEQUENCE_IDS.index(seq), _SERIES_HEADS[seq]
    rows = []
    for n, values in zip(ns, _heads(ns)):
        a, _, u = values
        scaled, tail, remainder = _scaled_sum(summed, coeffs, (n,), (2 * a - n * n if seq == "a" else u,))
        rows.append(RemainderRow(n, order, values[position], head(n) + tail, remainder, scaled))
    return rows


def decade_remainder_means(
    seq: str, order: int, first_decade: int, last_decade: int
) -> list[tuple[int, float]]:
    """Mean scaled remainder over each decade [10^d, 10^(d+1)).

    The means drift toward the next coefficient as the decades climb.
    Each decade is one walk of the windows of constant u, started by
    jump-ahead at 10^d (about (8 10^d)^(1/4) steps against its 9 10^d
    indices), with its last window cut at 10^(d+1).  A window's exact
    values come in closed form, u = k throughout and e_n = 2 a_n - n^2
    stepping by 2k - 1, with no per-index big-integer product, and its
    scaled remainders go to the decade's running sum: by an unrolled body
    at orders 1 to 3, the orders of the paper's remainder analysis, and by
    _scaled_sum's loop deeper.  Both make the evaluators' float operations
    in their order, so each scaled value is the same float either way.
    The working memory stays a few windows' worth, whatever the span.  Each
    decade's scaled values are added one at a time, left to right in index
    order, not by sum(), which compensates from Python 3.12 on; so every
    mean equals, bit for bit, the one a walk index by index gives.
    """
    from .series import _PREFIXES, _check_order

    _check_seq(seq)
    order = _check_order(order)
    first_decade, last_decade = _check_decades(first_decade, last_decade)
    summed = "a" if seq == "a" else "u"
    coeffs = _PREFIXES[summed][order]
    means = []
    for decade in range(first_decade, last_decade + 1):
        lo, hi = 10**decade, 10 ** (decade + 1)
        total = 0.0
        for n, a, first, end, k in _runs(lo):
            width = min(end - first, hi - n)
            exact, step = (2 * a - n * n, 2 * k - 1) if summed == "a" else (k, 0)
            total = _window_sum(summed, coeffs, range(n, n + width), exact, step, total)
            if n + width == hi:
                break
        means.append((decade, total / (hi - lo)))
    return means
