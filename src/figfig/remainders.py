"""Remainder diagnostics: the exact values against the truncated series.

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
same floats an index-by-index walk gives.  The unrolled bodies count in
floats, n/2 by 0.5 and e_n/2 by half its step, which hold every value
exactly below 2^52; a window that reaches 2^52 goes to the loop, which
makes the same float operations from ints.  Remainder rows are named
tuples, so loading this module imports no `dataclasses`.
"""

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat

from . import _InputError, _int_arg
from .series import _EVALUATORS, _PREFIXES, _check_order
from .stream import SEQUENCE_IDS, _check_seq, _heads, _runs

__all__ = ["RemainderRow", "decade_remainder_means", "remainder_table"]


RemainderRow = namedtuple("RemainderRow", "n order exact series remainder scaled")
RemainderRow.__doc__ = "Exact value, truncated series, and scaled remainder at one index."


def _scaled_sum(
    summed: str, coeffs: tuple[float, ...], ns: Iterable[int], exact: int, step: int, total: float
) -> tuple[float, float, float]:
    """(total plus the scaled remainder at each index of ns, in turn; the last index's tail and remainder).

    ns is a non-empty window of consecutive indices, and `exact` the
    exact value at its first index: u_n for the u-series ("u"), constant
    on a window of constant u, and e_n = 2 a_n - n^2 for the a-series tail
    ("a"), which steps by `step` = 2k - 1 from one index to the next.  The
    remainder table passes each row as a window of one index with step 0.
    `coeffs` is the family's first `order` float coefficients.  The b
    remainder is the u remainder, since b and its series both exceed u and
    its series by exactly n.  For a, the n^2/2 head is subtracted in
    integers (inside e_n) before any float enters, to dodge cancellation.
    Each index climbs the ladder in a flat loop by the float operations of
    eval_u_series and eval_a_series, so its tail equals theirs bit for
    bit; one more square root of its last rung (n/2)^(1/2^order) gives the
    next rung, which scales the remainder.  The first rung is taken out of
    the loop: the evaluators add its term to 0.0, and 0.0 + x is x for
    every double but -0.0, which that term never is, since n >= 1 makes
    the root positive and the first coefficient of each family is
    positive.  This is the remainder table's kernel, and the decade
    means' at orders 4 to 64; at orders 1 to 3 they take _window_sum's
    unrolled bodies, which make these float operations in this order from
    float counters, except on a window that reaches 2^52, which comes here.
    """
    sqrt = math.sqrt
    first, rest = coeffs[0], coeffs[1:]
    if summed == "a":
        for n in ns:
            half = n / 2
            root = sqrt(half)
            tail = first * root * half
            for coeff in rest:
                root = sqrt(root)
                tail += coeff * root * half
            remainder = exact / 2 - tail
            total += remainder / (half * sqrt(root))
            exact += step
    else:
        for n in ns:
            root = sqrt(n / 2)
            tail = first * root
            for coeff in rest:
                root = sqrt(root)
                tail += coeff * root
            remainder = exact - tail
            total += remainder / sqrt(root)
    return total, tail, remainder


def _window_sum(summed: str, coeffs: tuple[float, ...], ns: range, exact: int, step: int, total: float) -> float:
    """total plus the scaled remainder at each index of ns, one window of constant u, in turn.

    The window is _scaled_sum's: `exact` is the window's u for the
    u-series ("u"); for the a-series ("a") it is e_n = 2 a_n - n^2 at the
    first index, which steps by `step` = 2k - 1.  Orders 1 to 3 take an
    unrolled body: the rungs r1 = sqrt(n/2), r2 = sqrt(r1), r3 = sqrt(r2),
    the tail c1*r1 + c2*r2 + c3*r3 summed left to right (each product
    times n/2 for a), and one more root to scale.  These are _scaled_sum's
    float operations in its order, so each scaled remainder, and the
    total, is the same float; the body only spares the inner loop over
    the coefficients on every index.  Its counters are floats: n/2 steps
    by 0.5 from the window's first index, u is converted once, and e_n/2
    steps by step/2, so no index pays for an int or a mixed int-float
    operation.  Each counter is an integer or a half-integer below 2^52,
    which a float holds exactly, so every root and difference gets the
    input _scaled_sum gives it.  A window whose last index, or whose
    |e_n| + width * step, reaches 2^52 goes to _scaled_sum, as do deeper
    orders.
    """
    order, width = len(coeffs), len(ns)
    if order > 3 or ns.stop > 2**52 or abs(exact) + width * step >= 2**52:
        return _scaled_sum(summed, coeffs, ns, exact, step, total)[0]
    sqrt = math.sqrt
    c1, c2, c3 = coeffs + (0.0,) * (3 - order)
    half = ns.start / 2
    if summed == "u":
        exact = float(exact)
        if order == 1:
            for _ in repeat(None, width):
                r1 = sqrt(half)
                half += 0.5
                total += (exact - c1 * r1) / sqrt(r1)
        elif order == 2:
            for _ in repeat(None, width):
                r1 = sqrt(half)
                half += 0.5
                r2 = sqrt(r1)
                total += (exact - (c1 * r1 + c2 * r2)) / sqrt(r2)
        else:
            for _ in repeat(None, width):
                r1 = sqrt(half)
                half += 0.5
                r2 = sqrt(r1)
                r3 = sqrt(r2)
                total += (exact - (c1 * r1 + c2 * r2 + c3 * r3)) / sqrt(r3)
        return total
    e, de = exact / 2, step / 2
    if order == 1:
        for _ in repeat(None, width):
            r1 = sqrt(half)
            total += (e - c1 * r1 * half) / (half * sqrt(r1))
            half += 0.5
            e += de
    elif order == 2:
        for _ in repeat(None, width):
            r1 = sqrt(half)
            r2 = sqrt(r1)
            total += (e - (c1 * r1 * half + c2 * r2 * half)) / (half * sqrt(r2))
            half += 0.5
            e += de
    else:
        for _ in repeat(None, width):
            r1 = sqrt(half)
            r2 = sqrt(r1)
            r3 = sqrt(r2)
            total += (e - (c1 * r1 * half + c2 * r2 * half + c3 * r3 * half)) / (half * sqrt(r3))
            half += 0.5
            e += de
    return total


def _check_ns(ns: Iterable[int]) -> list[int]:
    """ns as a list of ints; ValueError unless it is a non-empty, strictly increasing run of indices >= 1."""
    lo = 0  # each index must pass the one before it
    try:
        ns = [lo := _int_arg(n, "ns", lo + 1) for n in ns]
    except ValueError:
        raise _InputError("ns must be strictly increasing positive integers") from None
    if not ns:
        raise _InputError("ns must be non-empty")
    return ns


def _check_decades(lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi) as ints; ValueError unless 0 <= lo <= hi, a span of decades [10^lo, 10^(hi+1))."""
    try:
        return (lo := _int_arg(lo, "first decade", 0)), _int_arg(hi, "last decade", lo)
    except ValueError:
        raise _InputError("need 0 <= first decade <= last decade") from None


def remainder_table(seq: str, order: int, ns: Sequence[int]) -> list[RemainderRow]:
    """RemainderRow for each requested index, each read off its own jump into the stream.

    ns must be non-empty and strictly increasing ints (operator.index);
    order is the truncation depth whose next rung scales the remainder.
    Each index is read by its own O(n^(1/4)) jump-ahead, however far
    apart the indices are.  The series column is the series evaluator's
    own value, computed for every index before any jump, so an index past
    the evaluator's range raises its ValueError first.  Each row's
    remainder is summed on its own, by one flat climb of the ladder.
    """
    _check_seq(seq)
    order = _check_order(order)
    ns = _check_ns(ns)
    # Past the float range the evaluator raises its ValueError at once,
    # where the jump there would run for ever.
    series = [_EVALUATORS[seq](n, order) for n in ns]
    summed = "a" if seq == "a" else "u"
    coeffs = _PREFIXES[summed][order]
    position = SEQUENCE_IDS.index(seq)
    rows = []
    for n, truncated, values in zip(ns, series, _heads(ns)):
        a, _, u = values
        scaled, _, remainder = _scaled_sum(summed, coeffs, (n,), 2 * a - n * n if seq == "a" else u, 0, 0.0)
        rows.append(RemainderRow(n, order, values[position], truncated, remainder, scaled))
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
    mean equals, bit for bit, the one a walk index by index gives.  A last
    decade past the range of the series evaluator raises its ValueError.
    """
    _check_seq(seq)
    order = _check_order(order)
    first_decade, last_decade = _check_decades(first_decade, last_decade)
    _EVALUATORS[seq](10 ** (last_decade + 1) - 1, order)  # as in remainder_table
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
