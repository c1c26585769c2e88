"""Exact finite-horizon machinery for the best-or-second-best duration problem.

Items arrive in random order; the relative rank Y_k of the k-th item is
independent and uniform on {1..k}.  An item is a *candidate* while it is
relatively best or second best.  Selecting a candidate at time k earns the
normalized duration (T - k)/n, where T is the first time the selection drops
out of the top two (n+1 if it never does).  This module provides the duration
distributions, the stop payoff, the embedded-chain transition law, the
backward-induction solver and the two-threshold closed forms.

State (k, r) means: item k is relatively r-th best among the first k, with
r in {1, 2}.  A threshold pair (k1, k2) stops at (k, 1) iff k > k1 and at
(k, 2) iff k > k2.
"""

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._validate import _check_horizon, _check_int, _check_policy, _check_time
from .special import harmonic_diff, trigamma_diff


class PolicyThresholds(NamedTuple):
    """Stop on a relatively best item at k iff k > k1; on a second-best iff k > k2."""

    k1: int
    k2: int


class SolveResult(NamedTuple):
    """Output of :func:`solve`.

    state_values[r][k] is w(k, r), the optimal value at state (k, r); row 0 is
    unused and state (1, 2) does not exist (NaN).  continuation[k] is the
    value w~(k) of arriving at time k with nothing held; continuation[n+1] = 0.
    """

    thresholds: PolicyThresholds
    value: float
    state_values: np.ndarray
    continuation: np.ndarray


# Point queries (payoff, mean_operator, --table-out) hit one horizon at a time,
# and one entry holds about 24 MB at n = 10^6, so keep only a few.  The
# harmonic tail H[k] = sum_{j=k}^{n-1} 1/j is needed only to build phi1 and M.
@lru_cache(maxsize=8)
def _payoff_tables(n: int):
    """(phi1, phi2, M) over k = 0..n: phi_r[k] = payoff(k, r, n) and
    M[k] = mean_operator(k, n) (index 0 unused)."""
    H = np.zeros(n + 1)
    H[1:n] = np.cumsum(1.0 / np.arange(n - 1, 0, -1.0))[::-1]
    k = np.arange(0, n + 1, dtype=np.float64)
    phi1 = (k / n**2) * (1.0 + k - n + 2.0 * n * H)
    phi2 = k * (n - k + 1.0) / n**2
    # M = 2(x^2 - x + xH) with x = k/n, built in the memory of k and H so
    # that the build never holds more than five arrays
    x = np.divide(k, n, out=k)
    M = 2.0 * (x * x - x + np.multiply(x, H, out=H))
    return phi1, phi2, M


def duration_pmf(i: int, r: int, n: int) -> dict:
    """Distribution of the candidacy end time for a rank-r item held from time i.

    Keys i+1..n map to the probability that the item leaves the top two
    exactly then; key n+1 carries the mass of surviving through the horizon.
    A relatively best item (r=1) cannot leave at i+1 -- it must first be
    overtaken by a new best and only the next candidate after that ends its
    candidacy -- so the i+1 entry is exactly 0 for r=1.
    """
    _check_horizon(n)
    _check_time(i, n, "i")
    if r not in (1, 2):
        raise ValueError(f"rank must be 1 or 2, got {r}")
    if r > i:
        raise ValueError(f"rank {r} impossible at time {i}")
    pmf = {}
    if r == 2:
        for k in range(i + 1, n + 1):
            pmf[k] = 2.0 * (i - 1) * i / ((k - 2) * (k - 1) * k)
        pmf[n + 1] = i * (i - 1) / (n * (n - 1))
    else:
        for k in range(i + 1, n + 1):
            if k == i + 1:
                pmf[k] = 0.0
            else:
                pmf[k] = 2.0 * i * (k - i - 1) / ((k - 2) * (k - 1) * k)
        pmf[n + 1] = (2.0 * n * i - i * i - i) / (n * (n - 1))
    return pmf


def payoff(k: int, r: int, n: int) -> float:
    """Expected normalized duration E[(T - k)/n] of stopping at state (k, r).

    phi(k, 1) = (k/n^2)(1 + k - n + 2n(psi(n) - psi(k))),
    phi(k, 2) = k(n - k + 1)/n^2, and 0 for any rank beyond the candidate set.
    """
    _check_horizon(n)
    _check_time(k, n)
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if r > 2:
        return 0.0
    phi1, phi2, _ = _payoff_tables(n)
    return float(phi1[k] if r == 1 else phi2[k])


def transition_prob(k: int, s: Optional[int], n: int) -> float:
    """Embedded-chain step probability from a candidate at k.

    For k < s <= n, p(k, s) = k(k-1)/(s(s-1)(s-2)) is the probability that the
    next candidate appears at time s *with a given relative rank* (best and
    second-best each carry this mass).  ``s=None`` queries the absorption
    mass: no further candidate by n, which telescopes to k(k-1)/(n(n-1)).
    Rows normalize as 2*sum_s p(k, s) + p(k, None) = 1.
    """
    _check_horizon(n)
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    if s is None:
        return k * (k - 1) / (n * (n - 1))
    if not k < s <= n:
        raise ValueError(f"s must be in {k + 1}..{n} or None, got {s}")
    return k * (k - 1) / (s * (s - 1) * (s - 2))


def mean_operator(k: int, n: int) -> float:
    """Expected payoff of passing at k and stopping at the next candidate epoch.

    Closed form 2[(k/n)^2 - k/n + (k/n)(psi(n) - psi(k))]; rank-independent
    because the transition law does not depend on the current rank.  Valid
    from k = 1 (the direct-sum oracle needs k >= 2).
    """
    _check_horizon(n)
    _check_time(k, n)
    return float(_payoff_tables(n)[2][k])


def _continuation(phi1, M, k1, k2, n):
    """w~(k) for k = 1..n+1 (index 0 unused) under the threshold pair k1 <= k2.

    The recursion w~(k) = [v1 + v2 + (k-2) w~(k+1)]/k is linear in each stop
    region:
      all-stop, k > max(k2, 1): passing at k-1 and stopping at the next
        candidate, so w~(k) = M(k-1), copied from the table (M(n) = 0);
      rank-1 only, k1 < k <= k2: w~(k)/(k-1) sums phi1/(k(k-1)) on top of
        w~(k2+1)/k2;
      both continue, k <= k1: flat, w~(k) = w~(k1+1) exactly.
    At k = 1 only rank 1 exists, so w~(1) = phi1(1) when k1 = 0.
    """
    cont = np.zeros(n + 2)
    lo = max(k2, 1) + 1
    cont[lo:] = M[lo - 1 :]
    lo = max(k1, 1) + 1
    if lo <= k2:
        k = np.arange(lo, k2 + 1, dtype=np.float64)
        tail = phi1[lo : k2 + 1] / (k * (k - 1.0))
        cont[lo : k2 + 1] = (np.cumsum(tail[::-1])[::-1] + cont[k2 + 1] / k2) * (k - 1.0)
    if k1 == 0:
        cont[1] = phi1[1]
    else:
        cont[1 : k1 + 1] = cont[k1 + 1]
    return cont


def _last_below(phi, ref, lo, hi):
    """Largest k in lo..hi with phi[k] < ref[k], or 0 if there is none."""
    hits = np.flatnonzero(phi[lo : hi + 1] < ref[lo : hi + 1])
    return lo + int(hits[-1]) if hits.size else 0


def solve(n: int) -> SolveResult:
    """Optimal two-threshold policy and value by backward induction.

    w~(n+1) = 0; for k from n down to 2:
    w(k, r) = max(phi(k, r), w~(k+1)) and
    w~(k) = [w(k,1) + w(k,2) + (k-2) w~(k+1)]/k, where the average collapses
    to w~(k+1) exactly when both ranks continue.  At k = 1 only rank 1 exists
    and w~(1) = w(1, 1) is the value.

    Thresholds are k_r = max{k : phi(k, r) < w~(k+1)} (0 when stopping is
    optimal everywhere).  The stop regions are one-sided, so the optimum is
    the threshold-policy recursion of :func:`policy_value` at the last
    crossings.  Every candidate after k2 is accepted, so w~(k+1) = M(k) for
    k >= k2 and k2 is the last k with phi(k, 2) < M(k).  One continuation
    that stops only on rank 1 up to k2 then gives k1; its values above k1 do
    not depend on k1, so flattening the head below k1 completes it.  A
    policy with k1 = 0 stops at the first item and never consults k2, so that
    degenerate case is reported canonically as (0, 0).  Ties between stopping
    and continuing are resolved by stopping.
    """
    _check_horizon(n)
    phi1, phi2, M = _payoff_tables(n)
    k2 = _last_below(phi2, M, 2, n)
    cont = _continuation(phi1, M, 0, k2, n)
    k1 = _last_below(phi1, cont[1:], 1, k2)
    cont[1 : k1 + 1] = cont[k1 + 1]

    state_values = np.full((3, n + 1), np.nan)
    state_values[1, 1:] = np.maximum(phi1[1:], cont[2:])
    state_values[2, 2:] = np.maximum(phi2[2:], cont[3:])
    return SolveResult(
        thresholds=PolicyThresholds(k1, k2 if k1 else 0),
        value=float(cont[1]),
        state_values=state_values,
        continuation=cont,
    )


def policy_value(policy, n: int) -> float:
    """Exact value of an arbitrary threshold pair: the solve() recursion with
    the stop/continue decision forced by the policy instead of maximized."""
    _check_horizon(n)
    k1, k2 = _check_policy(policy, n)
    phi1, _, M = _payoff_tables(n)
    return float(_continuation(phi1, M, k1, k2, n)[1])


def closed_form_value(k1: int, k2: int, n: int) -> float:
    """Digamma/trigamma closed form for the two-threshold value.

    v~(k1, k2) = sum_{j=k1+1}^{k2} [k1/(j(j-1))] phi(j, 1) + (k1/k2) Tphi(k2)
    reduced to special-function terms: with D = psi(k2) - psi(k1),
    E = psi(n) - psi(k2) and Q = sum_{m=k1}^{k2-1} 1/m^2,

        v~ = (k1/n^2)[(2-n)D + (k2-k1) + n(D^2 - Q) + 2nD E]
             + 2 k1 k2/n^2 - 2 k1/n + (2 k1/n) E.

    Equals the optimal value when (k1, k2) are the optimal thresholds (the
    continuation value is flat below k1 and the tail honors Tphi = w~ in the
    all-stop region).
    """
    _check_horizon(n)
    _check_int(k1, "k1")
    _check_int(k2, "k2")
    if not 1 <= k1 < k2 <= n:
        raise ValueError(f"need 1 <= k1 < k2 <= n, got ({k1}, {k2}) with n={n}")
    D = harmonic_diff(k1, k2)
    E = harmonic_diff(k2, n)
    Q = 1.0 / (k1 * k1) - 1.0 / (k2 * k2) - trigamma_diff(k1, k2)
    head = (k1 / n**2) * ((2.0 - n) * D + (k2 - k1) + n * (D * D - Q) + 2.0 * n * D * E)
    return head + 2.0 * k1 * k2 / n**2 - 2.0 * k1 / n + (2.0 * k1 / n) * E
