"""Reference implementations that the library is checked against.

They compute the same quantities as ``shelflife.solver`` by independent or
slower routes: expectations summed over the end-time pmf, the mean operator
as a direct sum over the embedded chain, and backward induction as a per-k
Python loop over plain floats.
"""

import math

import numpy as np

from shelflife.solver import (
    PolicyThresholds,
    SolveResult,
    _check_horizon,
    _payoff_tables,
    duration_pmf,
)


def _payoff_lists(n):
    _, phi1, phi2 = _payoff_tables(n)
    return phi1.tolist(), phi2.tolist()


def payoff_from_pmf(k: int, r: int, n: int) -> float:
    """Oracle for ``payoff``: the expectation summed over duration_pmf."""
    pmf = duration_pmf(k, r, n)
    return math.fsum(p * (t - k) for t, p in pmf.items()) / n


def mean_operator_direct(k: int, n: int) -> float:
    """Oracle for ``mean_operator``: direct sum of p(k, j)(phi(j,1) + phi(j,2))."""
    _check_horizon(n)
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    p1, p2 = _payoff_lists(n)
    kk = float(k * (k - 1))
    return math.fsum(
        kk / (j * (j - 1) * (j - 2)) * (p1[j] + p2[j]) for j in range(k + 1, n + 1)
    )


def solve_loop(n: int) -> SolveResult:
    """Oracle for ``solve``: backward induction one k at a time.

    Each state takes max(stop, continue) on its own, so this does not assume
    that the stop regions are one-sided.
    """
    _check_horizon(n)
    p1, p2 = _payoff_lists(n)
    w1 = [0.0] * (n + 1)
    w2 = [0.0] * (n + 1)
    cont = [0.0] * (n + 2)
    for k in range(n, 1, -1):
        c = cont[k + 1]
        f1 = p1[k]
        f2 = p2[k]
        stop1 = f1 >= c
        stop2 = f2 >= c
        v1 = f1 if stop1 else c
        v2 = f2 if stop2 else c
        w1[k] = v1
        w2[k] = v2
        cont[k] = (v1 + v2 + (k - 2) * c) / k if (stop1 or stop2) else c
    w1[1] = p1[1] if p1[1] >= cont[2] else cont[2]
    cont[1] = w1[1]

    k1 = 0
    for k in range(n, 0, -1):
        if p1[k] < cont[k + 1]:
            k1 = k
            break
    k2 = 0
    for k in range(n, 1, -1):
        if p2[k] < cont[k + 1]:
            k2 = k
            break
    if k1 == 0:
        k2 = 0

    state_values = np.full((3, n + 1), np.nan)
    state_values[1, 1:] = w1[1:]
    state_values[2, 2:] = w2[2:]
    return SolveResult(
        thresholds=PolicyThresholds(k1, k2),
        value=cont[1],
        state_values=state_values,
        continuation=np.array(cont),
    )


def policy_value_loop(policy, n: int) -> float:
    """Oracle for ``policy_value``: the forced-decision recursion one k at a time."""
    k1, k2 = policy
    p1, p2 = _payoff_lists(n)
    c = 0.0
    for k in range(n, 1, -1):
        v1 = p1[k] if k > k1 else c
        v2 = p2[k] if k > k2 else c
        c = (v1 + v2 + (k - 2) * c) / k
    return p1[1] if k1 == 0 else c
