"""Integer-argument digamma and trigamma differences.

The solver needs psi and psi_1 only as differences at integer arguments,
sums of 1/j and 1/j**2.  Each costs O(1): math.fsum adds the terms below
argument 32 exactly, and the asymptotic series of psi and psi_1 through B_14
(first omitted term below 1e-24 from 32 on) gives the rest, with its leading
differences as exact rationals rounded once: psi within 2 ulp, psi_1 within
1e-16.  `_series`, one Horner expression, also gives `_harmonic_block` and
`_trigamma_block` the series over an array of k (each log by math.log1p, as in
harmonic_diff, so the bits follow the libm, not numpy's CPU dispatch) and
`_psi_exact` both series in Decimal.
"""

import math

import numpy as np

from ._validate import _check_horizon, _check_int

_SERIES_FROM = 32
# B_2..B_14 as (numerator, denominator): psi(x) ~ log x - 1/(2x) -
# sum_j B_2j/(2j x^2j) and psi_1(x) ~ 1/x + 1/(2x^2) + sum_j B_2j/x^(2j+1)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))
_PSI_FLOAT = tuple(p / (2 * j * q) for j, (p, q) in enumerate(_BERNOULLI, 1))
_PSI1_FLOAT = tuple(p / q for p, q in _BERNOULLI)


def _series(c, y):
    """sum_j c[j-1] y^j for j = 1..7, by Horner (y = 1/x^2): floats, arrays or Decimals."""
    return ((((((c[6] * y + c[5]) * y + c[4]) * y + c[3]) * y + c[2]) * y + c[1]) * y + c[0]) * y


def harmonic_diff(k: int, n: int) -> float:
    """psi(n) - psi(k) for integers 1 <= k <= n, i.e. sum of 1/j for j in [k, n).

    Returns exactly 0.0 when k == n.
    """
    n = _check_horizon(n, "n", 1)
    k = _check_int(k, "k", 1, n)
    if n - k < _SERIES_FROM:
        return math.fsum([1.0 / j for j in range(k, n)])
    lo = max(k, _SERIES_FROM)  # psi(n) - psi(lo) by the series
    terms = (math.log1p((n - lo) / lo), (n - lo) / (2 * n * lo),
             _series(_PSI_FLOAT, 1.0 / (lo * lo)), -_series(_PSI_FLOAT, 1.0 / (n * n)))
    head = range(k, lo)  # 1/j below lo, exactly
    return math.fsum([*terms, *(1.0 / j for j in head)] if head else terms)


def _harmonic_block(k, n):
    """psi(n) - psi(k) over a float array of integers 1 <= k <= n, each entry a function
    of its k and n alone: harmonic_diff's series from k = 32 on, harmonic_diff below."""
    log = np.fromiter(map(math.log1p, ((n - k) / k).tolist()), float, len(k))
    with np.errstate(over="ignore"):  # 2nk overflows from 9e307: the lost term is < 1e-154 H
        H = log + ((n - k) / (2.0 * n * k) + (
            _series(_PSI_FLOAT, 1.0 / (k * k)) - _series(_PSI_FLOAT, 1.0 / (n * n))))
    head = k < _SERIES_FROM
    H[head] = [harmonic_diff(int(j), n) for j in k[head].tolist()]
    return H


def trigamma_diff(k: int, s: int) -> float:
    """psi_1(s+1) - psi_1(k+1) for integers 1 <= k <= s.

    Equals -sum of 1/j**2 for j in (k, s]; zero when k == s, never positive.
    """
    s = _check_horizon(s, "s", 1)
    k = _check_int(k, "k", 1, s)
    if s - k < _SERIES_FROM:  # 0.0 - keeps the empty sum at +0.0
        return 0.0 - math.fsum([1.0 / (j * j) for j in range(k + 1, s + 1)])
    hi, lo = s + 1, max(k + 1, _SERIES_FROM)  # psi_1(lo) - psi_1(hi) by the series
    terms = ((hi - lo) / (lo * hi), (hi * hi - lo * lo) / (2 * (lo * hi) ** 2),
             _series(_PSI1_FLOAT, 1.0 / (lo * lo)) / lo,
             -_series(_PSI1_FLOAT, 1.0 / (hi * hi)) / hi)
    head = range(k + 1, lo)  # 1/j^2 below lo, exactly
    return -math.fsum([*terms, *(1.0 / (j * j) for j in head)] if head else terms)


def _trigamma_block(k, s):
    """psi_1(s+1) - psi_1(k+1) over a float array of integers 1 <= k <= s, each entry a
    function of its k and s alone: trigamma_diff's series from k = 32 on, trigamma_diff below."""
    lo, hi = k + 1.0, s + 1  # (hi - lo)/(lo hi) + (hi^2 - lo^2)/(2 (lo hi)^2), factored
    T = 0.0 - ((hi - lo) / (lo * hi) * (1.0 + (1.0 / lo + 1.0 / hi) / 2.0) + (
        _series(_PSI1_FLOAT, 1.0 / (lo * lo)) / lo - _series(_PSI1_FLOAT, 1.0 / (hi * hi)) / hi))
    head = k < _SERIES_FROM
    T[head] = [trigamma_diff(int(j), s) for j in k[head].tolist()]
    return T


def _psi_exact(x):
    """(psi(x), psi_1(x)) for an integer x >= 1 as Decimals in the current context: the series
    at y = max(x, 32), then the recurrences.  Beyond rounding, the error is its truncation
    0.44/y^16: 3.7e-25 for x <= 32, where no tie falls (solver._TIE), 1e-25/x at x = 45."""
    from decimal import Decimal  # imported here: only near-ties need it
    y = max(x, _SERIES_FROM)
    inv = Decimal(1) / (y * y)
    psi_coeffs = [Decimal(p) / (2 * j * q) for j, (p, q) in enumerate(_BERNOULLI, 1)]
    psi = Decimal(y).ln() - Decimal(1) / (2 * y) - _series(psi_coeffs, inv)
    psi1 = (1 + Decimal(1) / (2 * y) + _series([Decimal(p) / q for p, q in _BERNOULLI], inv)) / y
    for j in range(x, y):
        psi, psi1 = psi - Decimal(1) / j, psi1 + Decimal(1) / (j * j)
    return psi, psi1

