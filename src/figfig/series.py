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
about 1.9e154); a float index raises where an int of its size does, and
the float inf with it.

The exact integer ratios come from a recurrence, one big-integer step per
position.  The float coefficients are their correctly rounded quotients,
so `fractions` is imported only by u_coeff and a_coeff, and each family
keeps them as one tuple per order, built when the module loads.
eval_u_series and eval_a_series each climb the ladder in a flat loop of
their own; none of this changes a bit of any result.
"""

import math
from itertools import accumulate, islice

from . import _InputError, _int_arg

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


def _check_args(n: int, order: int) -> None:
    if not n >= 1:  # not `n < 1`: a NaN index fails this too
        raise _InputError("sequence index must be >= 1")
    _check_order(order)


def _check_order(order: int) -> int:
    return _int_arg(order, "series order", 1, MAX_ORDER)


def _ratios(summed: str) -> "Iterator[tuple[int, int]]":
    """(p, q) at positions k = 1, 2, ...: p / q the coefficient of the u-series ("u") or the a-series ("a").

    The one home of the coefficient formula: p_1 = 2, q_1 = 1, p_{k+1} = -2^k p_k,
    q_{k+1} = (2^k + 1) q_k, exact and not reduced, one big-integer step per position.
    """
    p, q, power = 2, 1, 2  # power = 2^k
    while True:
        yield (2 * power * p, (power + 1) * q) if summed == "a" else (p, q)
        p, q, power = -power * p, (power + 1) * q, 2 * power


def _fraction(k: int, summed: str) -> "Fraction":
    from fractions import Fraction

    return Fraction(*next(islice(_ratios(summed), _int_arg(k, "coefficient position", 1) - 1, None)))


def u_coeff(k: int) -> "Fraction":
    """Exact coefficient of (n/2)^(1/2^k) in the u-series.

    Signs alternate starting positive: 2, -4/3, 16/15, -128/135, ...
    Successive magnitudes shrink by 2^k / (2^k + 1) and settle toward a
    limit just below 0.84.
    """
    return _fraction(k, "u")


def a_coeff(k: int) -> "Fraction":
    """Exact coefficient of (n/2)^(1 + 1/2^k) in the a-series.

    Term-by-term summation of the u-series scales position k by
    2^(k+1) / (2^k + 1), giving 8/3, -32/15, 256/135, ...
    """
    return _fraction(k, "a")


def root_pow(x: float, k: int) -> float:
    """x^(1/2^k) by k successive square roots (x >= 0, 1 <= k <= 64)."""
    if not x >= 0:  # not `x < 0`: a NaN argument fails this too
        raise _InputError("root_pow needs a non-negative argument")
    for _ in range(_check_order(k)):
        x = math.sqrt(x)
    return x


def _floats(summed: str) -> tuple[float, ...]:
    # One family's coefficients at positions 1..MAX_ORDER.  Int / int true
    # division is correctly rounded: p / q is the double float(Fraction(p, q)).
    return tuple(p / q for p, q in islice(_ratios(summed), MAX_ORDER))


# family -> prefixes, prefixes[order] = (c_1, ..., c_order).
_PREFIXES = {summed: tuple(accumulate(zip(_floats(summed)), initial=())) for summed in "ua"}


def _too_large(what: str) -> ValueError:
    return _InputError(f"index too large for double-precision series: {what} exceeds the float range")


def eval_u_series(n: int, order: int) -> float:
    """Truncated u-series at index n, positions 1..order summed in order."""
    try:
        if not n >= 1 or not 1 <= order <= MAX_ORDER:
            _check_args(n, order)
        coeffs = _PREFIXES["u"][order]
    except TypeError:
        _check_order(order)  # a float or str order: _int_arg's TypeError
        raise
    try:
        if (root := n / 2) == math.inf:  # the float inf
            raise OverflowError
    except OverflowError:
        raise _too_large("n/2") from None
    sqrt, total = math.sqrt, 0.0
    for coeff in coeffs:
        root = sqrt(root)
        total += coeff * root
    return total


def eval_b_series(n: int, order: int) -> float:
    """Truncated b-series at index n: exactly n plus the u-series value."""
    u = eval_u_series(n, order)
    try:
        return n + u
    except OverflowError:
        raise _too_large("n") from None


def eval_a_series(n: int, order: int) -> float:
    """Truncated a-series at index n: n^2/2 plus the summed tail."""
    try:
        if not n >= 1 or not 1 <= order <= MAX_ORDER:
            _check_args(n, order)
        coeffs = _PREFIXES["a"][order]
    except TypeError:
        _check_order(order)  # a float or str order: _int_arg's TypeError
        raise
    try:
        head, half = n * n / 2, n / 2
        # A float n * n overflows from 2^512 on; half * n is n^2/2 rounded once, as for an int n.
        if head == math.inf and (head := half * n) == math.inf:
            raise OverflowError
    except OverflowError:
        raise _too_large("n^2/2") from None
    sqrt, root, tail = math.sqrt, half, 0.0
    for coeff in coeffs:
        root = sqrt(root)
        tail += coeff * root * half  # power 1 + 1/2^k split: no intermediate exceeds n
    return head + tail


# The evaluator of each sequence id, for the command line and the remainder tools.
_EVALUATORS = {"a": eval_a_series, "b": eval_b_series, "u": eval_u_series}
