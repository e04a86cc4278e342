"""Generation of the figure-figure triple (n, a_n, b_n, u_n) by runs.

The sequence pair is pinned down by three conditions: the a-values and
b-values together cover every positive integer exactly once, b lists the
consecutive differences of a, and a is lexicographically least (which
forces b to be increasing).  So a_1 = 1, a_{n+1} = a_n + b_n, and b runs
through every integer strictly between consecutive a-values:

    b takes the values a_k + 1, ..., a_{k+1} - 1 in order   (a run)
    u_n = b_n - n = k  throughout that run

A run of b is therefore just a range, and its index window is
(a_k - k, a_{k+1} - (k + 1)], of width b_k - 1.  The windows k that
share one value u_k = m form a level-2 window, k from a_m - m + 1 to
a_{m+1} - m - 1, on which a_{k+1} = a_k + k + m.  So each bound comes
from the one before by that closed form, and the walk reads an a-value
only where k enters a new level-2 window: at index n it has read up to
a_{m+1} for m = u_{u_n}, about (8 n)^(1/4) values.  It reads them from
a second walk that lags behind it, the a column of the same walk, which
in turn reads about the fourth root of that, so the nesting is
O(log log n) deep and each row costs amortized O(1) integer operations.

Random access follows from the windows.  Since a_n = 1 + (n-1)n/2 + the
sum of u_i over i < n, and u is constant on each window, that sum is
k * (width of window k) over the whole windows below n plus one partial
window, and closed sums of k and k^2 step over a whole level-2 window
at once.  So the jump to the window holding index n reads about
(8 n)^(1/4) leading a-values, within 50 of that at n = 1e12
(tests/test_stream.py::test_jump_reads_about_a_fourth_root_of_its_index),
the same values the walk from 1 reads on its way there, and keeps no
table but a held head of 64 values.

The jump and the walk live in one generator, `_runs(start)`, with one
lag, `_a_values()`.  It yields a window at a time as
(n, a_n, first, hi, k): the b-values are range(first, hi), the indices
run from n, u = k throughout, and the next window's a is a_n plus the
sum of that range.  Every lag starts in `_HEAD`, the first 64 a-values,
built once at import by the seeded walk; past a_64 it goes on by a walk
of its own, so a jump or a walk to n below about 2.9e6, which reads at
most a_64, makes no nested lag.  The law checks and the decade means
read the windows themselves.  `_columns` gives one window's n, a, b and
u columns as C-level iterables, which the law checks and `figfig gen`
read; `_column(seq, start)` chains one of them across the windows from
`start`, which the b-file compare reads; `_heads` reads the values at a
few sparse indices, one jump each, for value_at and the remainder table;
and `_rows` zips each window's columns into `Triple` rows for
TripleStream.

The index column, which counts up by 1, is written as text by
`_numbered`, for `figfig gen` and for the b-file reader's check and its
writer: a thousand lines at a time from a cached template, with only the
thousands prefix converted, in place of one int-to-decimal conversion
per line.

`CheckReport`, the outcome of a law check and of a b-file compare, lives
here beside CHECK_NAMES rather than with the law checks: the b-file
reader returns it too, and this module is the one both load, so reading
or comparing a b-file does not load the checks.
"""

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, islice, repeat

from . import _InputError, _int_arg

__all__ = ["CheckReport", "SEQUENCE_IDS", "Triple", "TripleStream", "value_at"]

SEQUENCE_IDS = ("a", "b", "u")

# The law checks of figfig.checks, in the order check_all and `figfig
# verify --check all` report them.  Kept here, in the module every
# command loads, so the command line can offer them without loading the
# checks.
CHECK_NAMES = ("partition", "identities", "bounds")


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


def _check_seq(seq: str) -> None:
    """Raise _InputError unless `seq` is one of SEQUENCE_IDS."""
    if seq not in SEQUENCE_IDS:
        raise _InputError(f"unknown sequence id {seq!r}, expected one of {SEQUENCE_IDS}")


Triple = namedtuple("Triple", "n a b u")
Triple.__doc__ = "One row of the joint stream: the index and all three values there."


_HEAD = (1, 3, 7)  # the seed of the walk; a_1..a_64 once the module has loaded


def _a_values() -> Iterator[int]:
    """a_1, a_2, ...: the held head _HEAD, then the a column of _runs past it.

    The recursion ends: a walk up to index j asks its lag only for a_{m+1},
    with m = u_{u_j}, about (8 j)^(1/4) and far below j, or for values in
    the head.  The head is seeded with the given a_1..a_3 and, at the end
    of this module, replaced by a_1..a_64 from that seeded walk, so a walk
    up to about n = 2.9e6, whose lag reads at most a_64, makes no nested
    lag.
    """
    return chain(_HEAD, _column("a", len(_HEAD) + 1))


def _runs(start: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Windows of constant u from index `start` (>= 1) on, one per step.

    Each step is (n, a, first, hi, k): the window's first index n, a_n,
    and its b-values range(first, hi), on which u = k.  The first window
    is the part of window k from `start` on, so its `first` is b_start.

    Window k holds the indices (a_k - k, a_{k+1} - (k + 1)], b_k - 1 of
    them, on which u = k.  Since b_i = i + u_i,

        a_k = 1 + k (k - 1) / 2 + (sum of u_i over i < k)
        s = (k - 1) k (k - 2) / 3 + (sum of i u_i over i < k)

    for s the sum of u below window k.  The windows i with one value
    u_i = m are level-2 window m, i from a_m - m + 1 to a_{m+1} - m - 1,
    so each such run adds m times its length to the first sum and m times
    the sum of its i to the second.  The jump steps over whole level-2
    windows, reading a_{m+1} from a lag of a-values, about (8 start)^(1/4)
    steps, and bisects the last one for k.  Past it each bound is
    a_{k+1} = a_k + k + m, and the lag is read for the next a_{m+1} only
    when k leaves level-2 window m.
    """
    lag = _a_values()
    m, lo, hi = 1, next(lag), next(lag)  # a_m and a_{m+1}
    q = r = 0  # the sums of u_i and of i u_i over the windows i below level-2 window m

    def last(k: int) -> int:
        """a_{k+1} - (k + 1), the last index of window k, for k in level-2 window m."""
        return k * (k - 1) // 2 + q + m * (k + m - lo)

    # last(hi - m - 1), inlined: the last index of level-2 window m's last window.
    while (hi - m - 1) * (hi - m - 2) // 2 + q + m * (hi - lo - 1) < start:
        q += m * (hi - lo - 1)
        r += m * (lo + hi - 2 * m) * (hi - lo - 1) // 2
        m, lo, hi = m + 1, hi, next(lag)
    first = lo - m + 1
    k = bisect_left(range(hi - m), start, first, key=last)
    a_k = 1 + k * (k - 1) // 2 + q + m * (k - first)
    s = (k - 1) * k * (k - 2) // 3 + r + m * (first + k - 1) * (k - first) // 2
    top = a_k + k + m  # a_{k+1}, the hi of window k
    n = start
    a = 1 + (n - 1) * n // 2 + s + k * (n - 1 - (a_k - k))
    first = n + k  # b_n
    while True:
        yield n, a, first, top, k
        n, a = n + top - first, a + (first + top - 1) * (top - first) // 2
        k, first = k + 1, top + 1
        if k == hi - m:
            m, hi = m + 1, next(lag)
        top += k + m


def _columns(n: int, a: int, first: int, hi: int, k: int) -> tuple[Iterable[int], ...]:
    """The n, a, b and u columns of the window (n, a, first, hi, k) of _runs.

    Each holds hi - first values, for the indices n, n + 1, ...: b runs
    through range(first, hi), u = k throughout, and each a is the one
    before plus the b before.  `hi` may be cut below the window's own
    bound to take only its leading rows.
    """
    width = hi - first
    b = range(first, hi)
    return range(n, n + width), islice(accumulate(b, initial=a), width), b, repeat(k, width)


def _column(seq: str, start: int) -> Iterator[int]:
    """The values of sequence "a", "b" or "u" from index `start` (>= 1) on."""
    position = SEQUENCE_IDS.index(seq) + 1
    return chain.from_iterable(_columns(*window)[position] for window in _runs(start))


def _heads(ns: Sequence[int]) -> list[tuple[int, int, int]]:
    """(a_n, b_n, u_n) at each index of ns (each >= 1), each by its own O(n^(1/4)) jump.

    The first window of _runs(n) starts at n, so its a and first are
    a_n and b_n, and its k is u_n.
    """
    return [(a, first, k) for _, a, first, _, k in map(next, map(_runs, ns))]


def _rows(start: int) -> Iterator[Triple]:
    """Rows from index `start` (>= 1) on: the columns of each window of _runs, zipped."""
    # tuple.__new__ builds each Triple in C, with no Python-level call per row.
    return chain.from_iterable(
        map(tuple.__new__, repeat(Triple), zip(*_columns(*window))) for window in _runs(start)
    )


# (head, tail) -> head + "\0" + "%03d" % j + tail for j = 0 .. 999, one
# template of a thousand lines per pair that _numbered is asked for.
_THOUSANDS: dict[tuple[str, str], str] = {}


def _numbered(head: str, tail: str, lo: int, hi: int) -> str:
    """The lines head + str(n) + tail for n in range(lo, hi), as one string.

    From 1000 on, each aligned thousand of lines is cut out of a cached
    template of a thousand lines by slicing, and its thousands prefix is
    written in by one str.replace of the template's NUL mark; lower n are
    converted one by one.  head and tail hold no NUL.  A `%` field in tail
    is left for the caller, whose `%` comes after the mark is replaced.
    """
    text = "".join([head + str(n) + tail for n in range(lo, min(hi, 1000))])
    lo = max(lo, 1000)
    if lo >= hi:
        return text
    thousand = _THOUSANDS.get((head, tail))
    if thousand is None:
        thousand = "".join([f"{head}\0{j:03d}{tail}" for j in range(1000)])
        _THOUSANDS[head, tail] = thousand
    width = len(thousand) // 1000
    parts = [text]
    for prefix in range(lo // 1000, (hi - 1) // 1000 + 1):
        base = prefix * 1000
        cut = thousand[width * max(lo - base, 0) : width * min(hi - base, 1000)]
        parts.append(cut.replace("\0", str(prefix)))
    return "".join(parts)


class TripleStream:
    """Stateful producer of Triple rows in index order, one owner at a time.

    Two fresh instances always produce identical streams; there is no
    hidden configuration and no randomness.  The instance is also a plain
    infinite iterator, so ``for row in TripleStream()`` works.
    """

    def __init__(self) -> None:
        self._rows = _rows(1)

    def next_triple(self) -> Triple:
        """Advance one index and return the new row."""
        return next(self._rows)

    def take(self, count: int) -> list[Triple]:
        """The next `count` rows as a list (count >= 1)."""
        return [self.next_triple() for _ in range(_int_arg(count, "count", 1))]

    def __iter__(self) -> Iterator[Triple]:
        return self

    __next__ = next_triple


def value_at(seq: str, n: int) -> int:
    """The n-th term of sequence "a", "b", or "u", by O(n^(1/4)) jump-ahead; n is an int (operator.index).

    The jump reads about (8n)^(1/4) leading a-values, within 50 of that
    at n = 1e12 (tests/test_stream.py::test_jump_reads_about_a_fourth_root_of_its_index),
    and its time grows with them: past about n = 1e18 a call takes tenths
    of a second and more.  No index is refused for its size: a jump that
    steps over windows of every depth, not only levels 1 and 2, is the
    fix (ROADMAP item 9).
    """
    _check_seq(seq)
    return _heads((_int_arg(n, "index", 1),))[0][SEQUENCE_IDS.index(seq)]


_HEAD = tuple(islice(_a_values(), 64))
