"""Coefficient exactness and series evaluation accuracy."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from figfig import remainders, series
from figfig import (
    MAX_ORDER,
    a_coeff,
    eval_a_series,
    eval_b_series,
    eval_u_series,
    root_pow,
    u_coeff,
)


def test_u_coefficients_first_four_exact():
    assert [u_coeff(k) for k in range(1, 5)] == [
        Fraction(2),
        Fraction(-4, 3),
        Fraction(16, 15),
        Fraction(-128, 135),
    ]


def test_a_coefficients_first_four_exact():
    assert [a_coeff(k) for k in range(1, 5)] == [
        Fraction(8, 3),
        Fraction(-32, 15),
        Fraction(256, 135),
        Fraction(-4096, 2295),
    ]


def test_u_coefficient_recurrence_exact():
    for k in range(1, 41):
        assert u_coeff(k + 1) == -u_coeff(k) * Fraction(2**k, 2**k + 1)


def test_signs_alternate_and_magnitudes_shrink():
    for k in range(1, 41):
        assert (u_coeff(k) > 0) == (k % 2 == 1)
        assert abs(u_coeff(k + 1)) < abs(u_coeff(k))


def test_magnitudes_settle_below_one():
    assert abs(u_coeff(4)) < 1
    assert 0.8 < abs(u_coeff(MAX_ORDER)) < 0.85


@pytest.mark.parametrize("n", [10**6, 10**12, 10**18])
def test_u_series_is_asymptotic_not_convergent_in_the_order(n):
    # The terms alternate in sign at every order and never shrink below
    # about 0.84, so adding orders does not converge: the ladder is
    # asymptotic in n, not convergent in the order.
    terms = [float(u_coeff(k)) * root_pow(n / 2, k) for k in range(1, MAX_ORDER + 1)]
    assert all(before * after < 0 for before, after in zip(terms, terms[1:]))
    assert min(map(abs, terms[8:])) >= 0.8388


def test_a_coefficients_are_summed_u_coefficients():
    for k in range(1, 31):
        assert a_coeff(k) == u_coeff(k) * Fraction(2 ** (k + 1), 2**k + 1)


def test_coefficient_strings_are_stable():
    assert [str(u_coeff(k)) for k in range(1, 5)] == ["2", "-4/3", "16/15", "-128/135"]
    assert [str(a_coeff(k)) for k in range(1, 3)] == ["8/3", "-32/15"]


@pytest.mark.parametrize("bad", [0, -1])
def test_coefficient_domain_errors(bad):
    with pytest.raises(ValueError):
        u_coeff(bad)
    with pytest.raises(ValueError):
        a_coeff(bad)
    for coeff in (u_coeff, a_coeff):
        with pytest.raises(TypeError):  # a position is an int, by operator.index
            coeff(2.0)


def test_root_pow_values():
    assert root_pow(4.0, 1) == 2.0
    assert root_pow(16.0, 2) == 2.0
    assert root_pow(1.0, MAX_ORDER) == 1.0
    assert root_pow(0.0, 3) == 0.0


def test_root_pow_domain_errors():
    for x in (-1.0, -math.inf, math.nan):  # NaN is not >= 0 either
        with pytest.raises(ValueError, match="non-negative"):
            root_pow(x, 1)
    with pytest.raises(ValueError):
        root_pow(4.0, 0)
    with pytest.raises(ValueError):
        root_pow(4.0, MAX_ORDER + 1)
    for k in (2.0, 0.5):
        with pytest.raises(TypeError):
            root_pow(4.0, k)


def test_root_pow_tracks_pow():
    for exponent in range(0, 19, 3):
        x = 10.0**exponent
        for k in (1, 2, 5, 10, 20):
            assert root_pow(x, k) == pytest.approx(x ** (0.5**k), rel=1e-12)


@given(
    x=st.floats(min_value=1e-6, max_value=1e18, allow_nan=False, allow_infinity=False),
    j=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
)
def test_root_pow_composes(x, j, k):
    assert root_pow(root_pow(x, j), k) == pytest.approx(root_pow(x, j + k), rel=1e-10)


def test_eval_u_small_values():
    assert eval_u_series(2, 1) == 2.0
    assert eval_u_series(8, 1) == 4.0
    assert eval_u_series(8, 2) == pytest.approx(4 - (4 / 3) * math.sqrt(2), rel=1e-14)


def test_eval_u_matches_explicit_term_sum():
    for n in (1, 2, 8, 1000, 10**6):
        for order in (1, 2, 5, 12):
            total = 0.0
            for k in range(1, order + 1):
                total += float(u_coeff(k)) * root_pow(n / 2, k)
            assert eval_u_series(n, order) == total


def test_eval_b_is_shifted_u():
    for n in (1, 2, 8, 999, 10**6):
        for order in (1, 3, 64):
            assert eval_b_series(n, order) == n + eval_u_series(n, order)


def test_eval_b_minus_u_is_n_seeded():
    rng = random.Random(1729)
    for _ in range(100):
        n = rng.randrange(1, 1_000_001)
        order = rng.randint(1, MAX_ORDER)
        assert eval_b_series(n, order) - eval_u_series(n, order) == n


def test_eval_a_values():
    assert eval_a_series(2, 1) == pytest.approx(2 + 8 / 3, rel=1e-14)
    assert eval_a_series(8, 1) == pytest.approx(32 + 64 / 3, rel=1e-14)


def test_eval_a_head_term_dominates():
    for n in (1, 10, 1000):
        assert eval_a_series(n, 1) > n * n / 2


@pytest.mark.parametrize("call", [
    lambda: eval_u_series(0, 1),
    lambda: eval_u_series(8, 0),
    lambda: eval_u_series(8, MAX_ORDER + 1),
    lambda: eval_a_series(0, 1),
    lambda: eval_a_series(8, 0),
    # Orders that operator.index refuses: 0.5 fails the range test, 2.0
    # passes it and "2" raises a TypeError of its own there, so only the
    # fallback to _check_order names the last two.
    *(
        partial(evaluate, 100, order)
        for evaluate in (eval_u_series, eval_b_series, eval_a_series)
        for order in (2.0, 0.5, "2")
    ),
    # Float indices: past the float range (as an int of that size is), the
    # float inf, and NaN, which fails no `n < 1` test.
    *(
        partial(evaluate, n, 2)
        for evaluate, ns in (
            (eval_u_series, (math.inf, math.nan)),
            (eval_b_series, (math.inf, math.nan)),
            (eval_a_series, (1e160, 1e308, math.inf, math.nan)),
        )
        for n in ns
    ),
])
def test_eval_domain_errors(call):
    if isinstance(call, partial) and isinstance(call.args[0], float):
        n = call.args[0]
        message = "^sequence index must be >= 1$" if math.isnan(n) else " exceeds the float range$"
        with pytest.raises(ValueError, match=message):
            call()
    elif isinstance(call, partial):
        kind = type(call.args[1]).__name__
        with pytest.raises(TypeError, match=f"^'{kind}' object cannot be interpreted as an integer$"):
            call()
    else:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "evaluate, n", [(eval_u_series, "5"), (eval_b_series, None), (eval_a_series, "5")]
)
def test_eval_non_number_index_raises_the_comparison_type_error(evaluate, n):
    # A valid order leaves the TypeError of the index's own `n >= 1` test
    # as it is, with no message of the package's in its place.
    kind = type(n).__name__
    with pytest.raises(TypeError, match=f"^'>=' not supported between instances of '{kind}' and 'int'$"):
        evaluate(n, 2)


# The first index whose head term leaves the double range, for each
# series: ints from 2^1024 - 2^970 on round to 2^1024, past the largest
# double.  n/2 (u) reaches that at twice the limit, n itself (b) at the
# limit, and n^2/2 (a) at the first n with n^2 at twice the limit.
FLOAT_LIMIT = 2**1024 - 2**970
FIRST_TOO_LARGE = {
    "u": 2 * FLOAT_LIMIT,
    "b": FLOAT_LIMIT,
    "a": math.isqrt(2 * FLOAT_LIMIT - 1) + 1,
}
EVALUATORS = {"u": eval_u_series, "b": eval_b_series, "a": eval_a_series}


@pytest.mark.parametrize("seq", ["u", "b", "a"])
@pytest.mark.parametrize("order", [1, MAX_ORDER])
def test_eval_at_the_edge_of_the_double_range(seq, order):
    evaluate, first = EVALUATORS[seq], FIRST_TOO_LARGE[seq]
    assert math.isfinite(evaluate(first - 1, order))
    for n in (first, first + 1, 10**400):
        with pytest.raises(ValueError, match="exceeds the float range"):
            evaluate(n, order)


@pytest.mark.parametrize("n", [2.0**512, 1.5e154, 1.89e154, 1.9e154])
def test_eval_a_float_index_as_its_int(n):
    # A float n * n overflows from 2^512 on, before n^2/2 does: the float
    # gives the int's value, or its error.
    try:
        expected = eval_a_series(int(n), MAX_ORDER)
    except ValueError:
        with pytest.raises(ValueError, match="exceeds the float range"):
            eval_a_series(n, MAX_ORDER)
    else:
        assert eval_a_series(n, MAX_ORDER) == expected


def test_a_series_range_ends_near_1_9e154():
    assert 1.89e154 < FIRST_TOO_LARGE["a"] < 1.9e154


def _reference_ladder(n: int, order: int) -> tuple[float, float, float]:
    """(u-series, a-series tail, last rung) at index n, built from the
    rounded exact coefficients and root_pow alone, so that it shares no
    code with the package's ladder kernels.  Terms are added in order of
    k; an a-term is coefficient * rung * (n/2), in that order."""
    half = n / 2
    u_total = a_tail = 0.0
    for k in range(1, order + 1):
        rung = root_pow(half, k)
        u_total += float(u_coeff(k)) * rung
        a_tail += float(a_coeff(k)) * rung * half
    return u_total, a_tail, rung


@settings(max_examples=300, deadline=None)
@given(
    # n log-uniform in [1, 1e18], or the last index of a series' range.
    n=st.one_of(
        st.floats(min_value=0, max_value=18).map(lambda e: round(10**e)),
        st.sampled_from([FIRST_TOO_LARGE[seq] - 1 for seq in "uba"]),
    ),
    order=st.integers(min_value=1, max_value=MAX_ORDER),
)
@example(n=1, order=1)
@example(n=10**18, order=MAX_ORDER)
@example(n=FIRST_TOO_LARGE["u"] - 1, order=MAX_ORDER)
@example(n=FIRST_TOO_LARGE["a"] - 1, order=MAX_ORDER)
def test_series_kernels_equal_an_independent_ladder(n, order):
    # Bit for bit, not approximately: each kernel must do the same float
    # operations in the same order as the plain ladder.  The remainder
    # kernel, given the exact value 1, returns its scaled remainder (which
    # holds the next rung, one square root past the last), tail and
    # remainder.
    u_total, a_tail, rung = _reference_ladder(n, order)
    assert eval_u_series(n, order) == u_total
    remainder = 1 - u_total
    expected = (remainder / math.sqrt(rung), u_total, remainder)
    assert remainders._scaled_sum("u", series._PREFIXES["u"][order], (n,), 1, 0, 0.0) == expected
    if n < FIRST_TOO_LARGE["b"]:
        assert eval_b_series(n, order) == n + u_total
    if n < FIRST_TOO_LARGE["a"]:
        assert eval_a_series(n, order) == n * n / 2 + a_tail
        remainder = 1 / 2 - a_tail
        expected = (remainder / (n / 2 * math.sqrt(rung)), a_tail, remainder)
        assert remainders._scaled_sum("a", series._PREFIXES["a"][order], (n,), 1, 0, 0.0) == expected


def test_float_coefficients_are_the_rounded_fractions():
    # The evaluators' coefficients come from integer ratios without
    # Fraction; they must be the very doubles float(Fraction) gives.
    for summed, coeff in (("u", u_coeff), ("a", a_coeff)):
        floats = series._floats(summed)
        assert len(floats) == MAX_ORDER
        for k in range(1, MAX_ORDER + 1):
            assert floats[k - 1].hex() == float(coeff(k)).hex(), (summed, k)


# Pins the module docstring's claim: evaluation loses well under 1e-12
# relative accuracy for arguments up to 1e18.  The reference sums the same
# truncated series in 60-digit decimal arithmetic, taking the ladder of
# fractional powers by repeated Decimal square roots.
ACCURACY_NS = [1, 2, 10] + [10**k for k in range(3, 19)]
ACCURACY_ORDERS = [1, 2, 3, 8, 64]


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _reference_series(n: int, order: int) -> tuple[Decimal, Decimal]:
    """(u-series, a-series) at index n, truncated after `order` terms."""
    with localcontext() as ctx:
        ctx.prec = 60
        half = Decimal(n) / 2
        root, u_total, a_tail = half, Decimal(0), Decimal(0)
        for k in range(1, order + 1):
            root = root.sqrt()
            u_total += _decimal(u_coeff(k)) * root
            a_tail += _decimal(a_coeff(k)) * root * half
        return u_total, half * n + a_tail


def _relative_error(value: float, reference: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs((Decimal(value) - reference) / reference)


@pytest.mark.parametrize("order", ACCURACY_ORDERS)
def test_series_evaluation_is_accurate_to_1e18(order):
    limit = Decimal("1e-12")
    for n in ACCURACY_NS:
        u_reference, a_reference = _reference_series(n, order)
        assert _relative_error(eval_u_series(n, order), u_reference) < limit, n
        assert _relative_error(eval_b_series(n, order), n + u_reference) < limit, n
        assert _relative_error(eval_a_series(n, order), a_reference) < limit, n
