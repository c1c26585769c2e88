import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from shelflife.solver import closed_form_value
from shelflife.special import (
    _harmonic_block,
    _psi_exact,
    _trigamma_block,
    harmonic_diff,
    trigamma_diff,
)

# Benchmark-scale arguments: the optimal thresholds near 10^6 and full-range sums.
LARGE_PAIRS = [(1, 10**6), (120381, 417188), (406000, 975000), (1000, 999999),
               (417188, 10**6)]


def harmonic_oracle(k, n):
    """Exact-rational reference: sum of 1/j for j in [k, n)."""
    return float(sum(Fraction(1, j) for j in range(k, n)))


def trigamma_oracle(k, s):
    """Exact-rational reference: -sum of 1/j^2 for j in (k, s]."""
    return float(-sum(Fraction(1, j * j) for j in range(k + 1, s + 1)))


class TestHarmonicDiff:
    def test_empty_sum(self):
        assert harmonic_diff(5, 5) == 0.0

    def test_single_term(self):
        assert harmonic_diff(1, 2) == 1.0

    def test_exact_rational(self):
        # 1/3 + ... + 1/9 = 3349/2520
        assert harmonic_diff(3, 10) == pytest.approx(harmonic_oracle(3, 10), abs=1e-14)
        assert harmonic_oracle(3, 10) == pytest.approx(3349 / 2520, abs=0)

    def test_against_scipy_digamma(self):
        for k, n in [(1, 2), (3, 10), (17, 400), (250, 251), (1, 5000)]:
            expected = float(scipy.special.digamma(n) - scipy.special.digamma(k))
            assert harmonic_diff(k, n) == pytest.approx(expected, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic_diff(5, 3)
        with pytest.raises(ValueError):
            harmonic_diff(0, 3)

    @given(st.integers(1, 400), st.integers(0, 60), st.integers(0, 60))
    def test_telescoping(self, k, d1, d2):
        m = k + d1
        n = m + d2
        lhs = harmonic_diff(k, n)
        rhs = harmonic_diff(k, m) + harmonic_diff(m, n)
        assert abs(lhs - rhs) <= 1e-12


class TestTrigammaDiff:
    def test_empty_sum(self):
        assert trigamma_diff(4, 4) == 0.0

    def test_single_term(self):
        assert trigamma_diff(1, 2) == -0.25

    def test_exact_rational(self):
        # -(1/9 + 1/16 + 1/25) = -769/3600
        assert trigamma_diff(2, 5) == pytest.approx(trigamma_oracle(2, 5), abs=1e-15)
        assert trigamma_oracle(2, 5) == pytest.approx(-769 / 3600, abs=0)

    def test_against_scipy_polygamma(self):
        for k, s in [(1, 2), (2, 5), (7, 300), (99, 100)]:
            expected = float(
                scipy.special.polygamma(1, s + 1) - scipy.special.polygamma(1, k + 1)
            )
            assert trigamma_diff(k, s) == pytest.approx(expected, abs=1e-10)

    def test_never_positive(self):
        assert all(trigamma_diff(k, k + 5) <= 0 for k in range(1, 50))

    @given(st.integers(1, 200), st.integers(0, 100))
    def test_monotone_nonincreasing_in_s(self, k, d):
        s = k + d
        assert trigamma_diff(k, s + 1) <= trigamma_diff(k, s)

    def test_domain(self):
        with pytest.raises(ValueError):
            trigamma_diff(5, 4)
        with pytest.raises(ValueError):
            trigamma_diff(0, 4)


class TestHighPrecision:
    """Both sums against mpmath's digamma and trigamma at 30 digits."""

    @pytest.mark.parametrize("k, n", LARGE_PAIRS)
    def test_harmonic_diff(self, k, n):
        with mpmath.workdps(30):
            expected = mpmath.digamma(n) - mpmath.digamma(k)
            assert abs(harmonic_diff(k, n) - expected) <= 1e-14

    @pytest.mark.parametrize("k, s", LARGE_PAIRS)
    def test_trigamma_diff(self, k, s):
        with mpmath.workdps(30):
            expected = mpmath.polygamma(1, s + 1) - mpmath.polygamma(1, k + 1)
            assert abs(trigamma_diff(k, s) - expected) <= 1e-14


# Both sides of the switch from exact terms to the series at argument 32, and
# horizons of 10^15, where an O(n) sum could not even allocate its terms.
SWITCH_PAIRS = [(k, k + d) for k in (1, 2, 31, 32, 33) for d in (30, 31, 32, 33, 100)]
HUGE_PAIRS = [(1, 10**15), (10**15 - 40, 10**15), (417188356134188, 10**15)]


class TestSeriesAgainstMpmath:
    """The O(1) sums against mpmath with 30 digits left in the difference:
    50 working digits, since psi(10^15) ~ 34.5 and the shortest range is 4e-14."""

    @pytest.mark.parametrize("k, n", SWITCH_PAIRS + HUGE_PAIRS)
    def test_harmonic_diff_within_2_ulp(self, k, n):
        with mpmath.workdps(50):
            expected = float(mpmath.digamma(n) - mpmath.digamma(k))
        assert abs(harmonic_diff(k, n) - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("k, n", SWITCH_PAIRS + HUGE_PAIRS)
    def test_harmonic_block_within_2_ulp(self, k, n):
        """The elementwise series, also where harmonic_diff sums exactly
        (n - k < 32); the empty range at k = n is +0.0."""
        with mpmath.workdps(50):
            expected = float(mpmath.digamma(n) - mpmath.digamma(k))
        got, empty = _harmonic_block(np.array([k, n], dtype=np.float64), n).tolist()
        assert abs(got - expected) <= 2 * math.ulp(expected)
        assert math.copysign(1.0, empty) == 1.0 and empty == 0.0

    @pytest.mark.parametrize("k, s", SWITCH_PAIRS + HUGE_PAIRS)
    def test_trigamma_diff_within_1e_16(self, k, s):
        with mpmath.workdps(50):
            expected = mpmath.polygamma(1, s + 1) - mpmath.polygamma(1, k + 1)
            assert abs(trigamma_diff(k, s) - expected) <= 1e-16

    @pytest.mark.parametrize("k, s", SWITCH_PAIRS + HUGE_PAIRS)
    def test_trigamma_block_within_1e_16(self, k, s):
        """The elementwise series, also where trigamma_diff sums exactly
        (s - k < 32); the empty range at k = s is +0.0."""
        with mpmath.workdps(50):
            expected = mpmath.polygamma(1, s + 1) - mpmath.polygamma(1, k + 1)
            got, empty = _trigamma_block(np.array([k, s], dtype=np.float64), s).tolist()
            assert abs(got - expected) <= 1e-16
        assert math.copysign(1.0, empty) == 1.0 and empty == 0.0

    def test_empty_ranges_are_positive_zero(self):
        for k in (1, 31, 32, 10**15):
            assert math.copysign(1.0, harmonic_diff(k, k)) == 1.0
            assert math.copysign(1.0, trigamma_diff(k, k)) == 1.0


# .hex() of the three float routes at fixed arguments, recorded before the series
# was unrolled: both sides of argument 32, k = n, the thresholds near 10^6 and
# 10^15, and the 10^154 cap.  A rewrite of the series or of the closed form
# must keep every bit.
CAP = 10**154
GOLDEN_BITS = [
    (harmonic_diff, (5, 5), "0x0.0p+0"),
    (harmonic_diff, (1, 2), "0x1.0000000000000p+0"),
    (harmonic_diff, (1, 31), "0x1.ff5bbd019f39cp+1"),
    (harmonic_diff, (1, 32), "0x1.01be62a1d7defp+2"),
    (harmonic_diff, (1, 33), "0x1.03be62a1d7defp+2"),
    (harmonic_diff, (2, 34), "0x1.8b5dbd81bf41cp+1"),
    (harmonic_diff, (31, 63), "0x1.6f4fceafcd2b5p-1"),
    (harmonic_diff, (32, 63), "0x1.5ecbada78b1adp-1"),
    (harmonic_diff, (31, 64), "0x1.777050b7edad5p-1"),
    (harmonic_diff, (32, 64), "0x1.66ec2fafab9cdp-1"),
    (harmonic_diff, (33, 65), "0x1.5eec2fafab9cep-1"),
    (harmonic_diff, (12, 41), "0x1.4237ea3894a77p+0"),
    (harmonic_diff, (41, 100), "0x1.cc34086518649p-1"),
    (harmonic_diff, (1, 10**6), "0x1.cc91358900333p+3"),
    (harmonic_diff, (120381, 417188), "0x1.3e2d440bede5fp+0"),
    (harmonic_diff, (417188, 10**6), "0x1.bf99a2974ccc4p-1"),
    (harmonic_diff, (999969, 10**6), "0x1.040d0eea467d4p-15"),
    (harmonic_diff, (10**6, 10**6), "0x0.0p+0"),
    (harmonic_diff, (1, CAP), "0x1.632ce1c546239p+8"),
    (harmonic_diff, (31, CAP), "0x1.5f2e2a4b42e52p+8"),
    (harmonic_diff, (CAP // 10, CAP), "0x1.26bb1bbb55516p+1"),
    (harmonic_diff, (CAP - 31, CAP), "0x1.4c837db13bcadp-507"),
    (harmonic_diff, (CAP - 32, CAP), "0x1.573d68f903ea2p-507"),
    (trigamma_diff, (4, 4), "0x0.0p+0"),
    (trigamma_diff, (1, 2), "-0x1.0000000000000p-2"),
    (trigamma_diff, (1, 32), "-0x1.3a7421a83d52bp-1"),
    (trigamma_diff, (1, 33), "-0x1.3aec7dcecad71p-1"),
    (trigamma_diff, (31, 62), "-0x1.01f1e58df0aa8p-6"),
    (trigamma_diff, (30, 62), "-0x1.12fe6abfc13fbp-6"),
    (trigamma_diff, (31, 63), "-0x1.0612a9a25272bp-6"),
    (trigamma_diff, (32, 64), "-0x1.f4255344a4e55p-7"),
    (trigamma_diff, (12, 41), "-0x1.c99f8ade5f349p-5"),
    (trigamma_diff, (120381, 417188), "-0x1.8c9bc2779fbb7p-18"),
    (trigamma_diff, (1, 10**6), "-0x1.4a34aabc72d27p-1"),
    (trigamma_diff, (999969, 10**6), "-0x1.10afe3723defcp-35"),
    (trigamma_diff, (1, CAP), "-0x1.4a34cc4a60fa6p-1"),
    (trigamma_diff, (CAP // 10, CAP), "-0x1.8225161824676p-509"),
    (closed_form_value, (1, 2, 2), "0x1.0000000000000p-2"),
    (closed_form_value, (1, 3, 10), "0x1.0c892ef955fbcp-1"),
    (closed_form_value, (3, 4, 10), "0x1.8bc8bc8bc8bc8p-2"),
    (closed_form_value, (12, 41, 100), "0x1.a906975a82f68p-2"),
    (closed_form_value, (120, 417, 1000), "0x1.9ea9a32b5d6bbp-2"),
    (closed_form_value, (31, 33, 300), "0x1.31bb5957a6108p-2"),
    (closed_form_value, (32, 64, 65), "0x1.393da4e37ae12p-3"),
    (closed_form_value, (120381, 417188, 10**6), "0x1.9d850b31917ddp-2"),
    (closed_form_value, (1, 10**6, 10**6), "0x1.92e3d70c622c7p-13"),
    (closed_form_value, (999969, 10**6, 10**6), "0x1.10ae800000000p-31"),
    (closed_form_value, (120381306662926, 417188356134188, 10**15), "0x1.9d84c0562e159p-2"),
    (closed_form_value, (120381 * 10**148, 417188 * 10**148, CAP), "0x1.9d84c0562b66cp-2"),
    (closed_form_value, (CAP // 10, 4 * CAP // 10, CAP), "0x1.9a7af3c986386p-2"),
]


@pytest.mark.parametrize("fn, args, bits", GOLDEN_BITS,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(GOLDEN_BITS)])
def test_bits_match_recorded_values(fn, args, bits):
    assert fn(*args).hex() == bits


class TestPsiExact:
    """The Decimal psi and psi_1 behind the solver's near-tie margins, at the
    solver's precision rule (digits(x) + 30) against mpmath 40 digits beyond.
    Below 32 the error is the series' truncation at argument 32, 3.7e-25;
    from there on the truncation falls as x^-16, and at large x only rounding
    is left."""

    @pytest.mark.parametrize("x", [1, 31, 32, 33, 10**6, 10**15, 10**100, 10**154],
                             ids=["1", "31", "32", "33", "1e6", "1e15", "1e100", "1e154"])
    def test_against_mpmath(self, x):
        prec = len(str(x)) + 30
        with localcontext() as ctx:
            ctx.prec = prec
            psi, psi1 = _psi_exact(x)
        with mpmath.workdps(prec + 40):
            errors = [abs(mpmath.mpf(str(psi)) - mpmath.digamma(x)),
                      abs(mpmath.mpf(str(psi1)) - mpmath.polygamma(1, x))]
        for error in errors:
            # 32 and 33 carry the truncation at about their own argument,
            # 1.2e-23 and 7.4e-24 times x, so they share the bound below 32
            assert error < 1e-24 if x <= 33 else x * error < 1e-25, (x, errors)


@pytest.mark.parametrize(
    "evaluate",
    [harmonic_diff, trigamma_diff, lambda k1, k2: closed_form_value(k1, k2, 10)],
    ids=["harmonic_diff", "trigamma_diff", "closed_form_value"],
)
@pytest.mark.parametrize(
    "args", [(1.5, 3), (2.0, 4), (2, 4.0), (2, np.float64(4)), (True, 3), (2, True),
             (np.True_, 3), (2, np.False_), (np.array(5), 7), (2, Fraction(4)),
             (Decimal(3), 5)]
)
def test_integer_arguments_checked_by_one_rule(evaluate, args):
    with pytest.raises(ValueError, match="must be an integer"):
        evaluate(*args)


def test_numpy_integers_accepted():
    assert harmonic_diff(np.int64(3), np.int64(10)) == harmonic_diff(3, 10)
    assert trigamma_diff(np.int32(2), np.int64(5)) == trigamma_diff(2, 5)
    assert closed_form_value(np.int64(1), np.int64(4), 10) == closed_form_value(1, 4, 10)
    big = np.uint64(2**64 - 1)
    assert harmonic_diff(np.int64(3), big) == harmonic_diff(3, 2**64 - 1)
    assert trigamma_diff(np.uint8(2), big) == trigamma_diff(2, 2**64 - 1)
    assert closed_form_value(1, 4, big) == closed_form_value(1, 4, 2**64 - 1)

