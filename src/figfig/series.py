"""Exact expansion coefficients and truncated-series evaluation.

The counting companion u admits an expansion in the fractional powers
(n/2)^(1/2), (n/2)^(1/4), (n/2)^(1/8), ... with exact rational
coefficients; the b-series is the same thing shifted by n, and the
a-series follows by summing (integrating) the u-series term by term,
which multiplies coefficient k by 2^(k+1) / (2^k + 1) and raises its
power to 1 + 1/2^k on top of the leading n^2/2.  The ladder is asymptotic
in n and does not converge in the order: at n = 1e6, 1e12 and 1e18 the
terms alternate in sign at every order, and none past order 8 is below
0.8388 in magnitude.

Coefficients are kept as Fractions so truncations of any order agree
digit for digit across runs.  Evaluation is ordinary double precision:
the fractional powers come from repeated square roots, which keeps every
intermediate in range and loses well under 1e-12 relative accuracy for
arguments up to 1e18.  An index whose head term leaves the double range
raises ValueError: n/2 for the u-series (n from about 3.6e308), n for
the b-series (from about 1.8e308) and n^2/2 for the a-series (from
about 1.9e154).

The evaluators take their float coefficients straight from the exact
integer ratios, so `fractions` is imported only by u_coeff and a_coeff.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, truediv
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MAX_ORDER",
    "a_coeff",
    "eval_a_series",
    "eval_b_series",
    "eval_u_series",
    "root_pow",
    "u_coeff",
]

# Beyond 64 halvings the exponent 1/2^k is below double-precision ulp, so
# every further term is numerically constant; orders stop here.
MAX_ORDER = 64


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError("sequence index must be >= 1")


def _check_position(k: int) -> None:
    if k < 1:
        raise ValueError("coefficient position must be >= 1")


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"series order must be in 1..{MAX_ORDER}")


def _ratio(k: int, summed: str) -> tuple[int, int]:
    """(p, q), p / q the coefficient at position k of the u-series ("u") or the a-series ("a").

    The one home of the coefficient formula; p and q are not reduced.
    """
    _check_position(k)
    p = (-1) ** (k + 1) * 2 ** (1 + (k - 1) * k // 2)
    q = math.prod(2**j + 1 for j in range(1, k))
    if summed == "a":
        p, q = p * 2 ** (k + 1), q * (2**k + 1)
    return p, q


@lru_cache(maxsize=None)
def u_coeff(k: int) -> Fraction:
    """Exact coefficient of (n/2)^(1/2^k) in the u-series.

    Signs alternate starting positive: 2, -4/3, 16/15, -128/135, ...
    Successive magnitudes shrink by 2^k / (2^k + 1) and settle toward a
    limit just below 0.84.
    """
    from fractions import Fraction

    return Fraction(*_ratio(k, "u"))


@lru_cache(maxsize=None)
def a_coeff(k: int) -> Fraction:
    """Exact coefficient of (n/2)^(1 + 1/2^k) in the a-series.

    Term-by-term summation of the u-series scales position k by
    2^(k+1) / (2^k + 1), giving 8/3, -32/15, 256/135, ...
    """
    from fractions import Fraction

    return Fraction(*_ratio(k, "a"))


def root_pow(x: float, k: int) -> float:
    """x^(1/2^k) by k successive square roots (x >= 0, 1 <= k <= 64)."""
    if x < 0:
        raise ValueError("root_pow needs a non-negative argument")
    _check_order(k)
    for _ in range(k):
        x = math.sqrt(x)
    return x


@lru_cache(maxsize=None)
def _floats(summed: str) -> tuple[float, ...]:
    # The coefficients of one family as floats, positions 1..MAX_ORDER.
    # Built on first use, not at import, which every CLI run would pay.
    # Int / int true division is correctly rounded, so p / q is the same
    # double as float(Fraction(p, q)).
    return tuple(p / q for p, q in (_ratio(k, summed) for k in range(1, MAX_ORDER + 1)))


def _ladder(n: int, order: int, summed: str) -> tuple[float, float]:
    """(sum, last rung) of the u-series (`summed` "u") or the a-series tail ("a").

    Both climb the ladder (n/2)^(1/2^k), k = 1..order, by the same square
    roots as root_pow and add the terms in order of k.  An a-term is
    coefficient * (n/2)^(1/2^k) * (n/2), its power 1 + 1/2^k split so no
    intermediate exceeds n; a u-term is scaled by 1.0, which changes no
    bit.  One more square root of the last rung (n/2)^(1/2^order) gives
    the next term's power without climbing the ladder again.
    """
    half = n / 2
    scale = 1.0 if summed == "u" else half
    root, total = half, 0.0
    for coeff in _floats(summed)[:order]:
        root = math.sqrt(root)
        total += coeff * root * scale
    return total, root


def _ladder_column(
    ns: Sequence[int], order: int, summed: str
) -> tuple[list[float], list[float]]:
    """_ladder at every index of ns, as (sums, last rungs) lists in the order of ns.

    Each rung is climbed once for the whole column, with the same float
    operations in the same order as _ladder takes for each index alone,
    so every entry equals _ladder(n, order, summed) bit for bit.  The u
    terms skip _ladder's multiplication by 1.0, which changes no bit.
    """
    halves = list(map(truediv, ns, repeat(2)))
    roots, totals = halves, repeat(0.0)
    for coeff in _floats(summed)[:order]:
        roots = list(map(math.sqrt, roots))
        terms = map(mul, repeat(coeff), roots)
        if summed == "a":
            terms = map(mul, terms, halves)
        totals = list(map(add, totals, terms))
    return totals, roots


def _too_large(what: str) -> ValueError:
    return ValueError(f"index too large for double-precision series: {what} exceeds the float range")


def eval_u_series(n: int, order: int) -> float:
    """Truncated u-series at index n, positions 1..order summed in order."""
    _check_index(n)
    _check_order(order)
    try:
        return _ladder(n, order, "u")[0]
    except OverflowError:  # n / 2, the ladder's first step
        raise _too_large("n/2") from None


def eval_b_series(n: int, order: int) -> float:
    """Truncated b-series at index n: exactly n plus the u-series value."""
    u = eval_u_series(n, order)
    try:
        return n + u
    except OverflowError:
        raise _too_large("n") from None


def eval_a_series(n: int, order: int) -> float:
    """Truncated a-series at index n: n^2/2 plus the summed tail."""
    _check_index(n)
    _check_order(order)
    try:
        head = n * n / 2
    except OverflowError:
        raise _too_large("n^2/2") from None
    return head + _ladder(n, order, "a")[0]
