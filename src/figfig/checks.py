"""Streamed verification of the sequence laws.

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
they cannot be fooled by rounding at any index.  Reports are the named
tuples of `stream.CheckReport`, which the b-file compare returns too, so
loading this module imports no `dataclasses`.
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
        row carries (and fails here), gets its bounds by jumps to u and u + 1.
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
