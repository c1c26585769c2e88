"""Argument rules shared by every module: an integer and a real check, which word every bound.

A float, even an integral one such as 2.0, and a bool are rejected; any
numbers.Integral (numpy registers its integer scalars as such) is returned as a
Python int, so that arithmetic on it cannot wrap around as numpy integers do.
"""

import numbers
from collections.abc import Mapping, Set

MAX_HORIZON = 10**154  # the closed forms take 1/n**2; n * n overflows a float from 1.34e154


def _word(x):
    """x as messages print it: an int in full up to 20 digits, beyond as 10**d for a power
    of ten, else by its digit count; anything else by its repr, cut to 40 characters."""
    if not isinstance(x, int):
        return f"{x!r:.40}"
    d = int(abs(x).bit_length() * 0.30103) + 1  # its digits or one more; str refuses 4,301
    d -= abs(x) < 10 ** (d - 1)
    if d <= 20:
        return str(x)
    if abs(x) == 10 ** (d - 1):
        return f"{'-' * (x < 0)}10**{d - 1}"
    return f"a {'negative ' * (x < 0)}{d}-digit number"


def _check_int(x, name, lo=None, hi=None, one_bound=False):
    """x as a Python int; reject anything but a non-bool integer in lo..hi (hi optional),
    worded `in lo..hi`, or with one_bound by the bound broken, `>= lo` or `at most hi`."""
    if type(x) is not int:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {_word(x)}")
        x = int(x)
    if lo is not None and (x < lo or (hi is not None and x > hi)):
        bounds = (f">= {_word(lo)}" if hi is None or one_bound and x < lo else
                  f"at most {_word(hi)}" if one_bound else f"in {_word(lo)}..{_word(hi)}")
        raise ValueError(f"{name} must be {bounds}, got {_word(x)}")
    return x


def _check_horizon(n, name="horizon", lo=2, hi=MAX_HORIZON):
    return _check_int(n, name, lo, hi, one_bound=True)


def _check_real(x, name, lo=None, hi=None):
    """x as a float in (lo, hi], or any float without bounds; reject a bool and anything
    but a numbers.Real, which numpy's bool, text, Decimal and arrays are not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_word(x)}")
    if lo is not None and not (lo < x <= hi and lo < float(x)):  # float(x) may round to lo
        raise ValueError(f"{name} must be in ({lo}, {hi}], got {_word(x)}")
    try:
        return float(x)
    except OverflowError:  # an int or a Fraction beyond the floats, where no bound is set
        raise ValueError(f"{name} must fit a float, got {_word(x)}") from None


def _check_policy(policy, n):
    """Unpack a threshold pair 0 <= k1 <= k2 <= n; text, a mapping or a set is no pair."""
    try:  # a tuple skips the abstract-class checks, which take about a microsecond
        if not isinstance(policy, tuple) and isinstance(policy, (str, bytes, Mapping, Set)):
            raise TypeError
        k1, k2 = policy
    except (TypeError, ValueError):
        raise ValueError(f"policy must be a pair (k1, k2), got {_word(policy)}") from None
    k1 = _check_int(k1, "k1")
    k2 = _check_int(k2, "k2")
    if not 0 <= k1 <= k2 <= n:
        raise ValueError(f"need 0 <= k1 <= k2 <= {_word(n)}, got ({_word(k1)}, {_word(k2)})")
    return k1, k2
