"""Integer-argument digamma/trigamma differences and the Lambert W function.

The solver only ever needs psi and psi_1 at integer arguments, and only as
differences, so both reduce to finite sums of 1/j and 1/j**2 -- no
gamma-function machinery.  Each is one numpy reduction, whose pairwise
summation keeps the rounding error near a few ulp even at horizons of 10^6,
where the results feed differences of near-equal magnitudes.
"""

import math

import numpy as np

from ._validate import _check_int


def harmonic_diff(k: int, n: int) -> float:
    """psi(n) - psi(k) for integers 1 <= k <= n, i.e. sum of 1/j for j in [k, n).

    Returns exactly 0.0 when k == n.
    """
    _check_int(k, "k")
    _check_int(n, "n")
    if k < 1 or n < k:
        raise ValueError(f"harmonic_diff needs 1 <= k <= n, got k={k}, n={n}")
    return float(np.sum(1.0 / np.arange(n - 1, k - 1, -1.0)))


def trigamma_diff(k: int, s: int) -> float:
    """psi_1(s+1) - psi_1(k+1) for integers 1 <= k <= s.

    Equals -sum of 1/j**2 for j in (k, s]; zero when k == s, never positive.
    """
    _check_int(k, "k")
    _check_int(s, "s")
    if k < 1 or s < k:
        raise ValueError(f"trigamma_diff needs 1 <= k <= s, got k={k}, s={s}")
    j = np.arange(s, k, -1.0)
    return float(np.sum(-1.0 / (j * j)))


_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function: the w >= -1 with w*e^w = z.

    Defined for z >= -1/e.  Halley iteration; the initial guess is z itself
    for small |z|, log1p(z) for large z, and a series in sqrt(2(1 + e*z))
    near the branch point, where a log-based start stalls (W' blows up
    at z = -1/e).
    """
    if not math.isfinite(z) or z < _BRANCH_POINT:
        raise ValueError(f"lambert_w0 requires finite z >= -1/e, got {z!r}")
    if z == 0.0:
        return 0.0
    if z < -0.3:
        # max() guards the z = -1/e case, where rounding of e*z can push the
        # radicand a few ulp below zero
        p = math.sqrt(max(0.0, 2.0 * (1.0 + math.e * z)))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif abs(z) < 0.3:
        w = z
    else:
        w = math.log1p(z)
    tol = 1e-15 * max(1.0, abs(z))
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w
