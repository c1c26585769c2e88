"""Exact finite-horizon machinery for the best-or-second-best duration problem.

Items arrive in random order; the relative rank Y_k of the k-th item is
independent and uniform on {1..k}.  An item is a *candidate* while it is
relatively best or second best.  Selecting a candidate at time k earns the
normalized duration (T - k)/n, where T is the first time the selection drops
out of the top two (n+1 if it never does).  This module provides the duration
distributions, the stop payoffs and mean operator (closed forms in psi(n) -
psi(k), built a block of k at a time and never cached), the embedded-chain
transition law, the backward-induction solver and the two-threshold closed forms.

State (k, r) means: item k is relatively r-th best among the first k, with
r in {1, 2}.  A threshold pair (k1, k2) stops at (k, 1) iff k > k1 and at
(k, 2) iff k > k2.
"""

import math
import sys
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from ._validate import _check_horizon, _check_int, _check_policy
from .asymptotic import asymptotic_solution
from .special import _harmonic_block, _psi_exact, _trigamma_block, harmonic_diff, trigamma_diff

# The searches start at floor(a n + delta1) and floor(b n + delta2), for the limits a, b of k1/n,
# k2/n: delta1 is empirical, delta2 solves phi(k, 2) = M(k) to order 1/n (see TestThresholdRules).
_A_LIMIT, _B_LIMIT, _ = asymptotic_solution()
_DELTA1, _DELTA2 = 0.0783, (1 - 2 * _B_LIMIT) / (5 - 6 * _B_LIMIT + 2 * math.log(_B_LIMIT))
ROWS = 1 << 10  # rows per block of every O(n) array and of the per-k CLI output
MAX_FLOATS = sys.maxsize // 8  # the longest float64 array numpy can shape, whatever the memory


class PolicyThresholds(NamedTuple):
    """Stop on a relatively best item at k iff k > k1; on a second-best iff k > k2."""

    k1: int
    k2: int


class SolveResult:
    """Output of :func:`solve`: ``thresholds``, ``value`` and ``continuation``, which takes
    O(n) time and memory, so it is built on first read and kept.  continuation[k] is the
    value w~(k) of arriving at time k with nothing held (entry 0 unused, continuation[n+1]
    = 0), under the searched k2 also where the thresholds read (0, 0).  The optimal value
    at state (k, r) is max(payoff(k, r, n), continuation[k + 1])."""

    def __init__(self, thresholds, value, n, k2):
        self.thresholds, self.value = thresholds, value
        self._n, self._k2 = n, k2  # the searched k2, which the canonical (0, 0) hides

    @cached_property
    def continuation(self):
        return _continuation(self.thresholds.k1, self._k2, self._n, self.value)


def _payoff_block(lo: int, hi: int, n: int):
    """(phi1, phi2) at k = lo..hi-1, 1 <= lo <= hi <= n + 1: phi_r[k - lo] =
    payoff(k, r, n), and phi1 - phi2 = mean_operator(k, n).  Each entry is a
    function of k and n alone, so a block of one row gives every cell of a
    longer block bit for bit."""
    k = np.arange(lo, hi, dtype=np.float64)
    phi1 = (k / n**2) * (1.0 + (k - n) + 2.0 * n * _harmonic_block(k, n))
    phi2 = k * (n - k + 1.0) / n**2
    return phi1, phi2


def _pmf_survive(i: int, r: int, n: int):
    """Check (i, r, n) as duration_pmf does; return i, n as ints and the mass of key n + 1."""
    # beyond 10**102, the denominator (k-2)(k-1)k at k = n overflows a float
    n = _check_horizon(n, "pmf horizon", hi=10**102)
    i = _check_int(i, "i", 1, n)
    r = _check_int(r, "rank", 1, 2)
    if r > i:
        raise ValueError(f"rank {r} impossible at time {i}")
    num = i * (i - 1) if r == 2 else 2.0 * n * i - i * i - i
    return i, n, num / (n * (n - 1))


def _pmf_block(i: int, r: int, lo: int, hi: int) -> np.ndarray:
    """:func:`duration_pmf` at k = lo..hi-1 (i < lo <= hi <= n + 1) as an array.

    The denominator (k-2)(k-1)k is rounded to float once: up to k = 94906267
    the pair (k-2)(k-1) <= 2^53 is exact in float64; beyond, the product is a
    Python int."""
    if hi <= 94906268:
        k = np.arange(lo, hi)
        den = ((k - 2) * (k - 1)).astype(np.float64) * k
    else:
        den = np.array([float((j - 2) * (j - 1) * j) for j in range(lo, hi)])
    num = 2.0 * (i - 1) * i if r == 2 else 2.0 * i * np.arange(lo - i - 1, hi - i - 1)
    # den is 0 only at k = 2 (i = 1, r = 1), where the item cannot leave
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def duration_pmf(i: int, r: int, n: int) -> dict:
    """Distribution of the candidacy end time for a rank-r item held from time i.

    Keys i+1..n map to the probability that the item leaves the top two
    exactly then; key n+1 carries the mass of surviving through the horizon.
    A relatively best item (r=1) cannot leave at i+1 -- it must first be
    overtaken by a new best and only the next candidate after that ends its
    candidacy -- so the i+1 entry is exactly 0 for r=1.  The dict holds n - i + 1
    keys at about 100 bytes each, so a horizon near 10**8 needs gigabytes.
    """
    i, n, survive = _pmf_survive(i, r, n)
    # allocated first: a size it cannot hold fails at once, one numpy cannot shape is refused
    values = np.full(_check_int(n + 1 - i, "pmf keys n + 1 - i", 1, MAX_FLOATS), survive)
    for a in range(i + 1, n + 1, ROWS):
        b = min(a + ROWS, n + 1)
        values[a - i - 1 : b - i - 1] = _pmf_block(i, r, a, b)
    return dict(zip(range(i + 1, n + 2), values.tolist()))


def payoff(k: int, r: int, n: int) -> float:
    """Expected normalized duration E[(T - k)/n] of stopping at state (k, r).

    phi(k, 1) = (k/n^2)(1 + k - n + 2n(psi(n) - psi(k))),
    phi(k, 2) = k(n - k + 1)/n^2, and 0 for any rank beyond the candidate set.
    """
    n = _check_horizon(n)
    k = _check_int(k, "k", 1, n)
    r = _check_int(r, "rank", 1)
    if r > 2:
        return 0.0
    return float(_payoff_block(k, k + 1, n)[r - 1][0])


def transition_prob(k: int, s: Optional[int], n: int) -> float:
    """Embedded-chain step probability from a candidate at k.

    For k < s <= n, p(k, s) = k(k-1)/(s(s-1)(s-2)) is the probability that the
    next candidate appears at time s *with a given relative rank* (best and
    second-best each carry this mass).  ``s=None`` queries the absorption
    mass: no further candidate by n, which telescopes to k(k-1)/(n(n-1)).
    Rows normalize as 2*sum_s p(k, s) + p(k, None) = 1.
    """
    n = _check_horizon(n)
    k = _check_int(k, "k", 2, n)
    if s is None:
        return k * (k - 1) / (n * (n - 1))
    s = _check_int(s, "s", k + 1, n)
    return k * (k - 1) / (s * (s - 1) * (s - 2))


def mean_operator(k: int, n: int) -> float:
    """Expected payoff of passing at k and stopping at the next candidate epoch.

    Closed form 2[(k/n)^2 - k/n + (k/n)(psi(n) - psi(k))]; rank-independent
    because the transition law does not depend on the current rank.  Valid
    from k = 1 (the direct-sum oracle needs k >= 2).
    """
    n = _check_horizon(n)
    k = _check_int(k, "k", 1, n)
    phi1, phi2 = _payoff_block(k, k + 1, n)
    return float(phi1[0] - phi2[0])


def _continuation(k1, k2, n, value):
    """w~(k) for k = 1..n+1 (entry 0 unused) under the pair (k1, k2), w~(1) = value.  Each
    stop region has a closed form, evaluated `ROWS` rows at a time; every entry is a function
    of its k alone, so any block size gives the same bits:
      none, k <= k1 + 1: the value;
      rank-1 only, k1 + 2 <= k <= k2: v~(k-1, k2) from _sums' D, E and Q of (k-1, k2);
      all-stop, k > max(k2, 1): M(k-1) = phi1 - phi2 at k-1 (M(n) = 0)."""
    cont = np.zeros(_check_horizon(n, "continuation horizon", hi=MAX_FLOATS - 2) + 2)
    cont[1 : k1 + 2] = value
    for a in range(k1 + 2, k2 + 1, ROWS):
        j = np.arange(a - 1, min(a + ROWS, k2 + 1) - 1, dtype=np.float64)
        Q = 1.0 / (j * j) - 1.0 / (k2 * k2) - _trigamma_block(j, k2)
        cont[a : a + len(j)] = _closed_form(_harmonic_block(j, k2), harmonic_diff(k2, n), Q,
                                            j, k2, n)
    for a in range(max(k2, 1) + 1, n + 2, ROWS):
        b = min(a + ROWS, n + 2)
        np.subtract(*_payoff_block(a - 1, b - 1, n), out=cont[a:b])
    return cont


def _last_true(test, lo, hi, guess, *args):
    """(k, test(k, *args)) at the largest k in lo..hi where the test holds, or (0, None);
    the test returns None where it fails and holds on an initial segment.  Gallops from
    the guess by doubling steps until the sign change is bracketed, then bisects: the
    guess sets only the cost, O(log |answer - guess|) tests, never the answer."""
    good, bad = lo - 1, hi + 1  # the test is taken to hold at lo - 1 and fail at hi + 1
    k, step, held = min(max(guess, lo), hi), 1, None
    while bad - good > 1:
        if not good < k < bad:  # bracketed: bisect from here on
            k, step = (good + bad) // 2, 0
        if (result := test(k, *args)) is not None:
            good, held, k = k, result, k + step
        else:
            bad, k = k, k - step
        step *= 2
    return good if good >= lo else 0, held


# Float margins within _TIE * scale of 0 are evaluated again in Decimal.  Float error:
# under 4e-16 scale, 1/25 of the _TIE * scale / 100 that TestTieBand asserts to 10^154.
# Decimal error: at most 3n times _psi_exact's 3.7e-25 below argument 32; but no
# margin is in the band before n = 300, nor after it at an argument below 32.
_TIE = 1e-12


def _rank2_margin(k, n, H):
    """n(M(k) - phi(k, 2)) = 2n(psi(n) - psi(k)) - 3(n - k) - 1, scale n, from
    H = psi(n) - psi(k) in float or Decimal; it falls until k = 2n/3 and is <= -1 after."""
    return 2 * n * H - 3 * (n - k) - 1


def _rank1_margin(k, k2, n, D, E, Q):
    """(n^2/k)(v~(k, k2) - phi(k, 1)), scale n^2/k, from closed_form_value's D, E and Q
    of (k, k2) in float or Decimal; tested on 1..k2-1, as v~(k2, k2) = M(k2) < phi(k2, 1)."""
    return n * (D * (D + 2 * E - 3) - Q) + 2 * D + 3 * k2 - 2 * k - 1 - n


def _decimal(n):  # the context that settles the near-ties of horizon n, at digits(n) + 30
    from decimal import Context, localcontext  # only ties need it; 3.10 lacks prec=
    return localcontext(Context(prec=len(str(n)) + 30))


def _rank2_continues(k, n, psi):
    """H = psi(n) - psi(k) in float where phi(k, 2) < M(k), an initial segment of 2..n,
    else None; a margin within _TIE * n of 0 is settled in Decimal from psi(n), psi(k)."""
    H = harmonic_diff(k, n)
    m = _rank2_margin(k, n, H)
    if abs(m) < _TIE * n:
        with _decimal(n):
            m = _rank2_margin(k, n, psi(n)[0] - psi(k)[0])
    return H if m > 0 else None


def _rank1_continues(k, k2, n, psi, E):
    """(D, E, Q) = _sums(k, k2, n, E) in float where phi(k, 1) < v~(k, k2), an initial
    segment of 1..k2-1, else None; within _TIE * n^2/k of 0, settled in Decimal from psi."""
    sums = _sums(k, k2, n, E)
    m = _rank1_margin(k, k2, n, *sums)
    if abs(m) < _TIE * n * n / k:
        with _decimal(n):
            (p_k, q_k), (p_k2, q_k2), (p_n, _) = map(psi, (k, k2, n))
            m = _rank1_margin(k, k2, n, p_k2 - p_k, p_n - p_k2, q_k - q_k2)
    return sums if m > 0 else None


def solve(n: int) -> SolveResult:
    """Optimal two-threshold policy and value, in O(log n) time and O(1) memory.

    Backward induction from w~(n+1) = 0 sets w(k, r) = max(phi(k, r), w~(k+1))
    and w~(k) = [w(k,1) + w(k,2) + (k-2) w~(k+1)]/k; w~(1) is the value.  The
    thresholds k_r = max{k : phi(k, r) < w~(k+1)} are each the one sign change
    of a closed form, searched from the second-order rules floor(a n + delta1)
    and floor(b n + delta2): w~(k+1) = M(k) for k >= k2, and v~(k, k2) below.
    Each search returns the float sums of its test at its answer: E = psi(n) -
    psi(k2) from the k2 search serves every k1 test, and the value is the
    closed form v~(k1, k2) from the D, E and Q of the test at k1, bit for bit
    :func:`policy_value` of the thresholds.  A policy with k1 = 0 stops at the
    first item and never consults k2, so it is reported canonically as (0, 0).
    Ties between stopping and continuing are resolved by stopping.
    """
    n = _check_horizon(n)
    memo = {}  # psi by argument: one horizon's ties share one precision; psi(n), psi(k2) recur
    psi = lambda x: memo[x] if x in memo else memo.setdefault(x, _psi_exact(x))
    k2, E = _last_true(_rank2_continues, 2, n, int(_B_LIMIT * n + _DELTA2), n, psi)
    k1, sums = _last_true(_rank1_continues, 1, k2 - 1, int(_A_LIMIT * n + _DELTA1), k2, n, psi, E)
    value = _closed_form(*sums, k1, k2, n) if k1 else payoff(1, 1, n)
    return SolveResult(PolicyThresholds(k1, k2 if k1 else 0), value, n, k2)


def policy_value(policy, n: int) -> float:
    """Exact value of an arbitrary threshold pair (k1, k2): payoff(1, 1, n)
    when k1 = 0 (stop at once), mean_operator(k1, n) when k1 = k2 (stop at
    the next candidate), and the closed form v~(k1, k2) otherwise."""
    n = _check_horizon(n)
    k1, k2 = _check_policy(policy, n)
    if k1 == 0:
        return payoff(1, 1, n)
    if k1 == k2:
        return mean_operator(k1, n)
    return closed_form_value(k1, k2, n)


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
    n = _check_horizon(n)
    k2 = _check_int(k2, "k2", 2, n)
    k1 = _check_int(k1, "k1", 1, k2 - 1)
    return _closed_form(*_sums(k1, k2, n), k1, k2, n)


def _sums(k1, k2, n, E=None):
    """The float D = psi(k2) - psi(k1), E = psi(n) - psi(k2), computed unless
    given, and Q = sum_{m=k1}^{k2-1} 1/m^2 of the closed form v~(k1, k2)."""
    D = harmonic_diff(k1, k2)
    E = harmonic_diff(k2, n) if E is None else E
    return D, E, 1.0 / (k1 * k1) - 1.0 / (k2 * k2) - trigamma_diff(k1, k2)


def _closed_form(D, E, Q, k1, k2, n):  # see closed_form_value
    head = (k1 / n**2) * ((2.0 - n) * D + (k2 - k1) + n * (D * D - Q) + 2.0 * n * D * E)
    tail = 2.0 * k1 * k2 / n**2
    if k2 > 9e153 and tail == math.inf:  # 2 k1 k2 overflowed a float: take it in two steps
        tail = 2.0 * (k1 / n) * (k2 / n)
    return head + tail - 2.0 * k1 / n + (2.0 * k1 / n) * E
