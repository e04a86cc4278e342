"""Streamed verification of the sequence laws.

The law checks share one driver that walks the stream once, a window of
constant u at a time, and hands each window to every selected check
still running, so `check_all` verifies the partition, the identities and
the bounds in a single pass.  Each law is written once, in a check's
per-index code.  A check runs that code on a window's first index, then
makes one test of what that index cannot show about the rest of the
window, proved to cover every index in it; where that test fails it
walks the rest index by index with the same per-index code.  So a
failure names the same first index and detail as an index-by-index walk
would.  A check stops at its first violation and reports it instead of
raising; a passing report covers the whole requested range.  The bound
checks compare in exact integer arithmetic (squared rearrangements of
the square-root bounds) so they cannot be fooled by rounding at any
index.  Reports are the named tuples of `stream.CheckReport`, which the
b-file compare returns too, so loading this module imports no
`dataclasses`.
"""

from collections import deque
from collections.abc import Sequence
from itertools import takewhile

from . import _int_arg
from .stream import CHECK_NAMES, CheckReport, _a_values, _columns, _heads, _runs

__all__ = ["check_all", "check_bounds", "check_identities", "check_partition"]


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
        if self.row(n, a, first, k):
            return True
        pending, upto = self.pending, self.upto
        if not (pending[0] >= hi if pending else a > upto):
            return any(map(self.row, *_columns(n + 1, a + first, first + 1, hi, k)))
        self.expect = hi
        if a <= upto:  # a grows, so no later window has a-values to queue either
            pending.extend(takewhile(upto.__ge__, _columns(n + 1, a + first, first + 1, hi, k)[1]))
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
    """The laws of check_identities."""

    def __init__(self, upto: int) -> None:
        self.upto = upto
        self.failure: tuple[int, str] | None = None
        # a_k and a_{k+1} of the last window k reached, from a lag of its own.
        self.a_values = _a_values()
        self.k, self.a_k, self.a_next = 0, 0, next(self.a_values)
        # The index due next, u_1 + ... + u_{n-1} and the previous row's a and b.
        self.next_n, self.u_sum = 1, 0
        self.previous_a = self.previous_b = 0

    def counting_window(self, u: int) -> tuple[int, int]:
        """(a_u - u, a_{u+1} - (u + 1)), for u >= 1.

        The lag steps a window as u does; any other u, which only a faulty
        row carries (and fails here), gets its bounds by jumps to u and u + 1.
        """
        if u == self.k + 1:
            self.k, self.a_k, self.a_next = u, self.a_next, next(self.a_values)
        if u == self.k:
            return self.a_k - u, self.a_next - (u + 1)
        (a_u, _, _), (a_next, _, _) = _heads((u, u + 1))
        return a_u - u, a_next - (u + 1)

    def window(self, n: int, a: int, first: int, hi: int, k: int) -> bool:
        upto, last = self.upto, n + hi - first - 1
        if self.row(n, a, first, k):
            return True
        # Row n held, so k is the lag's window (see counting_window).
        if min(last, upto) > self.a_next - (k + 1):
            return any(map(self.row, *_columns(n + 1, a + first, first + 1, hi, k)))
        if last > upto:
            return True
        self.next_n, self.u_sum = last + 1, self.u_sum + k * (hi - first - 1)
        self.previous_a = a + (first + hi - 2) * (hi - first - 1) // 2
        self.previous_b = hi - 1
        return False

    def row(self, n: int, a: int, b: int, u: int) -> bool:
        # Row upto + 1 is read only for its index and the difference law at n = upto.
        upto = self.upto
        failure = None
        if n != self.next_n:
            failure = (self.next_n, f"index {n} arrived, expected {self.next_n}")
        elif n > 1 and a - self.previous_a != self.previous_b:
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
        elif u < 1:
            failure = (n, f"u = {u} below 1 has no counting window")
        elif not (bounds := self.counting_window(u))[0] < n <= bounds[1]:
            failure = (n, f"counting window ({bounds[0]}, {bounds[1]}] misses n")
        self.failure = failure
        self.next_n, self.u_sum = n + 1, self.u_sum + u
        self.previous_a, self.previous_b = a, b
        return failure is not None or n > upto


class _Bounds:
    """The six bounds of check_bounds."""

    def __init__(self, upto: int) -> None:
        self.upto = upto
        self.failure: tuple[int, str] | None = None

    def window(self, n: int, a: int, first: int, hi: int, k: int) -> bool:
        # Row n's bounds imply them on the rest of the window (see _run_checks).
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
        return failure is not None or n >= self.upto


# Each law check by name, in the order of CHECK_NAMES.
_CHECKS = dict(zip(CHECK_NAMES, (_Partition, _Identities, _Bounds)))


def _run_checks(upto: int, names: Sequence[str]) -> tuple[CheckReport, ...]:
    """One walk of the windows of constant u feeding every named check, for n in [1, upto].

    A window (n, a, first, hi, k) of `_runs` holds the rows n, ..., n + w - 1
    (w = hi - first) with b = first, ..., hi - 1, u = k throughout, and each
    row's a the previous row's a plus its b.  Each check runs its per-row
    code (`row`) on the window's first row, then makes one exact test of
    what that row cannot show about the rows after it (below).  Where the
    test holds, the check sets its state as a walk of those rows would;
    where it fails, it walks them with `row`.  So each law is written once,
    and a failure names the same first n and the same detail as a walk of
    every row would.  Each check finishes on its own pass or first failure;
    the walk ends once all of them have finished.  Reports come back in the
    order of `names`.  Every range is validated before the first window is
    read.

    Partition.  Row n has covered first, so first >= 1 and expect = first
    + 1 <= upto.  Say the front of the pending a-values is >= hi, or none
    is pending and a > upto.  The rows after n have b < hi, so none of
    them pops a value: in the first case their a-values queue behind that
    front, and in the second they grow from a by b > 0, stay above upto
    and are not queued.  So these rows cover first + 1, ..., hi - 1 in
    turn.  The check passes in this window if hi > upto; otherwise expect
    becomes hi and the window's a-values <= upto join the pending ones.
    Without faults only the window of u = 2 is walked: none is pending
    there, and its a = 3.

    Identities.  Row n has held, so n <= upto, and at n every law holds
    with u = k, which is then the lag's window (see counting_window).  The
    rows after n follow on in index, and a_{m+1} - a_m = b_m holds by
    construction.  b - m = first - n = k on every row, so the shift law
    holds on all of them.  The closed form's right side and a both grow by
    m + k per row, so it holds on all of them too.  The counting window
    (a_k - k, a_{k+1} - (k + 1)] is an interval that holds n, so it holds
    on the rows n, ..., min(n + w - 1, upto) if its upper end is at least
    min(n + w - 1, upto).  Rows past upto are held only to their index and
    the difference law, so a window that passes and holds row upto + 1
    ends the check.

    Bounds.  With d = b - n = first - n and u = k constant on the window,
    each of the six bounds at row n implies it at every later row m, so
    only the window's end is left to test:
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
    checks = [_CHECKS[name](upto) for name in names]
    running = list(checks)
    for window in _runs(1):
        for check in running:
            if check.window(*window):
                running = [other for other in running if other is not check]
                if not running:
                    return tuple(
                        CheckReport(name, 1, upto, finished.failure is None, finished.failure)
                        for name, finished in zip(names, checks)
                    )
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
    The rows must come at the consecutive indices 1, 2, ..., upto + 1: the
    first that does not fails at the index that was due.
    """
    return _run_checks(upto, ("identities",))[0]


def check_bounds(upto: int) -> CheckReport:
    """The six two-sided bounds on u, b, and a, for n in [1, upto].

    Each row is held to them at the index it carries; that the indices run
    1, 2, ... without a gap is a law of check_identities.
    """
    return _run_checks(upto, ("bounds",))[0]


def check_all(upto: int) -> tuple[CheckReport, CheckReport, CheckReport]:
    """(partition, identities, bounds) reports from one shared walk of the stream.

    Equal to calling the three checks one by one; upto must be >= 2.
    """
    return _run_checks(upto, CHECK_NAMES)
