"""Generation of the figure-figure triple (n, a_n, b_n, u_n) by runs.

The sequence pair is pinned down by three conditions: the a-values and
b-values together cover every positive integer exactly once, b lists the
consecutive differences of a, and a is lexicographically least (which
forces b to be increasing).  So a_1 = 1, a_{n+1} = a_n + b_n, and b runs
through every integer strictly between consecutive a-values:

    b takes the values a_k + 1, ..., a_{k+1} - 1 in order   (a run)
    u_n = b_n - n = k  throughout that run

A run of b is therefore just a range, and its index window is
(a_k - k, a_{k+1} - (k + 1)], of width b_k - 1.  The bounds a_k are
themselves read from a lagging copy of the same generator: the run at
index n needs a-values only up to index u_n + 1, about sqrt(2 n), and
that copy in turn needs only about sqrt(2 sqrt(2 n)), so the nesting is
O(log log n) deep and each row costs amortized O(1) integer operations.

Random access follows from the windows.  Since a_n = 1 + (n-1)n/2 + the
sum of u_i over i < n, and u is constant on each window, that sum is
k * (width of window k) over the whole windows below n plus one partial
window.  Jumping to index n therefore walks only the ~sqrt(2 n) leading
a-values and precomputes no table.

The walk lives in one generator, `_runs(start)`, which yields a window
at a time as (n, a_n, first, hi, k): the b-values are range(first, hi),
the indices run from n, u = k throughout, and the next window's a is
a_n plus the sum of that range.  This module turns windows into values
(the decade means' column of 2 a_n - n^2, one range per window, aside).
`_columns` gives one window's n, a, b and u columns as C-level
iterables, which the law checks and `figfig gen` read; `_column(seq,
start)` chains one of them across the windows from `start`, which the
b-file compare and the decade means read; `_heads` reads the values at a
few sparse indices, for value_at and the remainder table; and `_rows`
zips each window's columns into `Triple` rows for TripleStream.

The index column, which counts up by 1, is written as text by
`_numbered`, for `figfig gen` and for the b-file reader's check and its
writer: a thousand lines at a time from a cached template, with only the
thousands prefix converted, in place of one int-to-decimal conversion
per line.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, islice, repeat

__all__ = ["SEQUENCE_IDS", "Triple", "TripleStream", "value_at"]

SEQUENCE_IDS = ("a", "b", "u")

# The law checks of figfig.checks, in the order check_all and `figfig
# verify --check all` report them.  Kept here, in the module every
# command loads, so the command line can offer them without loading the
# checks.
CHECK_NAMES = ("partition", "identities", "bounds")


def _check_seq(seq: str) -> None:
    """Raise ValueError unless `seq` is one of SEQUENCE_IDS."""
    if seq not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence id {seq!r}, expected one of {SEQUENCE_IDS}")


Triple = namedtuple("Triple", "n a b u")
Triple.__doc__ = "One row of the joint stream: the index and all three values there."


def _a_values() -> Iterator[int]:
    """a_1, a_2, ... as running sums of the runs of b.

    The run bounds come from a lagging instance of this generator.  The
    first three values are given and the summing starts at b_3 = 5, inside
    the run between a_2 = 3 and a_3 = 7, so the lag serves those bounds
    from its own given values.  An instance asks its lag for a_4 only
    after yielding a_5, so each copy stays well behind the one it feeds.
    """
    yield from (1, 3, 7)
    lag = _a_values()
    for _ in range(3):
        hi = next(lag)
    a, first = 7, 5
    while True:
        for b in range(first, hi):
            a += b
            yield a
        first, hi = hi + 1, next(lag)


def _runs(
    start: int, lag: Iterator[int] | None = None
) -> Iterator[tuple[int, int, int, int, int]]:
    """Windows of constant u from index `start` (>= 1) on, one per step.

    Each step is (n, a, first, hi, k): the window's first index n, a_n,
    and its b-values range(first, hi), on which u = k.  The first window
    is the part of window k from `start` on, so its `first` is b_start.
    First walks whole windows of the a-values from `lag` (a fresh
    _a_values() by default) to find the run k holding `start` and the sum
    of u below it, about sqrt(2 start) steps.  The bound of the next
    window is drawn from `lag` only when that window is asked for.
    """
    lag = _a_values() if lag is None else lag
    k, lo, hi = 1, next(lag), next(lag)
    u_sum = 0  # sum of u over the whole windows below window k
    while hi - (k + 1) < start:
        u_sum += k * (hi - lo - 1)
        k, lo, hi = k + 1, hi, next(lag)
    n = start
    u_sum += k * (n - 1 - (lo - k))
    a = 1 + (n - 1) * n // 2 + u_sum
    first = n + k  # b_n
    while True:
        yield n, a, first, hi, k
        n, a = n + hi - first, a + (first + hi - 1) * (hi - first) // 2
        k, first, hi = k + 1, hi + 1, next(lag)


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
    """(a_n, b_n, u_n) at each index of ns (strictly increasing, >= 1).

    One walk of the windows of constant u, started by jump-ahead at
    ns[0]: the window (m, a, first, hi, k) holding n gives, with d = n - m,
    b_n = first + d, u_n = k and a_n = a + d first + d (d - 1) / 2.
    """
    windows = _runs(ns[0])
    m, a, first, hi, k = next(windows)
    heads = []
    for n in ns:
        while n - m >= hi - first:
            m, a, first, hi, k = next(windows)
        d = n - m
        heads.append((a + d * first + d * (d - 1) // 2, first + d, k))
    return heads


def _rows(start: int, lag: Iterator[int] | None = None) -> Iterator[Triple]:
    """Rows from index `start` (>= 1) on: the columns of each window of _runs, zipped."""
    # tuple.__new__ builds each Triple in C, with no Python-level call per row.
    return chain.from_iterable(
        map(tuple.__new__, repeat(Triple), zip(*_columns(*window))) for window in _runs(start, lag)
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


def _recorded(values: Iterator[int], into: list[int]) -> Iterator[int]:
    """`values` passed through, each also appended to `into`.

    As the lag of _runs(1) this records the run bounds a_1..a_{u+1} read
    so far, a leading slice that stays O(sqrt n) long at index n.
    """
    for value in values:
        into.append(value)
        yield value


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
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.next_triple() for _ in range(count)]

    def __iter__(self) -> Iterator[Triple]:
        return self

    def __next__(self) -> Triple:
        return self.next_triple()


def value_at(seq: str, n: int) -> int:
    """The n-th term of sequence "a", "b", or "u", by O(sqrt n) jump-ahead."""
    _check_seq(seq)
    if n < 1:
        raise ValueError("index must be >= 1")
    return _heads((n,))[0][SEQUENCE_IDS.index(seq)]
