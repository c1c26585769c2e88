"""Argument rules shared by every module: one integer check and what is built on it.

A float, even an integral one such as 2.0, and a bool are rejected; any
numbers.Integral (numpy registers its integer scalars as such) is returned as a
Python int, so that arithmetic on it cannot wrap around as numpy integers do.
"""

import numbers

MAX_HORIZON = 10**154  # the closed forms take 1/n**2; n * n overflows a float from 1.34e154


def _check_int(x, name, lo=None, hi=None):
    """x as a Python int; reject anything but a non-bool integer in lo..hi (hi optional)."""
    if type(x) is not int:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if lo is not None and (x < lo or (hi is not None and x > hi)):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bounds}, got {x}")
    return x


def _check_horizon(n):
    n = _check_int(n, "horizon", 2)
    if n > MAX_HORIZON:
        raise ValueError(f"horizon must be at most 10**154, got a {len(str(n))}-digit number")
    return n


def _check_policy(policy, n):
    """Unpack a threshold pair (k1, k2), which must satisfy 0 <= k1 <= k2 <= n."""
    try:
        k1, k2 = policy
    except (TypeError, ValueError):
        raise ValueError(f"policy must be a pair (k1, k2), got {policy!r}") from None
    k1 = _check_int(k1, "k1")
    k2 = _check_int(k2, "k2")
    if not 0 <= k1 <= k2 <= n:
        raise ValueError(f"need 0 <= k1 <= k2 <= {n}, got ({k1}, {k2})")
    return k1, k2
