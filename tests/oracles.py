"""Reference implementations that the library is checked against.

They compute the same quantities as ``shelflife.solver``,
``shelflife.simulate`` and ``shelflife.cli`` by independent or slower routes:
the end-time pmf one key at a time, expectations summed over it, the mean
operator as a direct sum over the embedded chain, backward induction as a
per-k Python loop over plain floats or exact rationals, thresholds by a scan
of the full payoff tables, policy values by enumerating all n! rank
sequences, Monte Carlo trials as full rank sequences scanned one column at a
time (drawn from numpy's Philox, a generator independent of the library's),
the library's SplitMix64 uniforms one Python integer at a time, a Monte
Carlo estimate with each reduction block drawn and rolled out whole, the
continuation and state values over whole-horizon arrays, and CLI output as
one csv.writer row per line or one json.dump.
``realized_outcome`` traces one explicit rank sequence position by
position.  The n!-sequence sum is built on it, so it checks
``shelflife.simulate.exhaustive_policy_value``, which traces its rank
classes on its own, by a separate route.
"""

import csv
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from shelflife._validate import _check_horizon
from shelflife.simulate import BLOCK, McEstimate, _payoffs, _uniforms, _work
from shelflife.solver import (
    PolicyThresholds,
    _payoff_block,
    duration_pmf,
    payoff,
    solve,
)


def payoff_tables(n):
    """(phi1, phi2, M) over k = 0..n (index 0 unused) from the solver's
    payoff kernel in one block, with M = phi1 - phi2."""
    phi1, phi2 = (np.append(0.0, phi) for phi in _payoff_block(1, n + 1, n))
    return phi1, phi2, phi1 - phi2


def continuation_whole(k1, k2, n, value):
    """Oracle for ``solver._continuation``: the same closed forms over whole-horizon
    arrays, the rank-1 region as one cumsum from k2 down."""
    cont = np.zeros(n + 2)
    cont[1 : k1 + 2] = value
    lo = max(k2, 1) + 1
    np.subtract(*_payoff_block(lo - 1, n + 1, n), out=cont[lo:])
    if k2 >= k1 + 2:
        k = np.arange(k1 + 2, k2 + 1, dtype=np.float64)
        tail = _payoff_block(k1 + 2, k2 + 1, n)[0] / (k * (k - 1.0))
        cont[k1 + 2 : k2 + 1] = (np.cumsum(tail[::-1])[::-1] + cont[k2 + 1] / k2) * (k - 1.0)
    return cont


def state_values_whole(cont, n):
    """Oracle for ``SolveResult.state_values`` from its continuation, over whole-horizon arrays."""
    phi1, phi2 = _payoff_block(1, n + 1, n)
    state_values = np.full((3, n + 1), np.nan)
    state_values[1, 1:] = np.maximum(phi1, cont[2:])
    state_values[2, 2:] = np.maximum(phi2[1:], cont[3:])
    return state_values


def _payoff_lists(n):
    phi1, phi2, _ = payoff_tables(n)
    return phi1.tolist(), phi2.tolist()


def duration_pmf_loop(i: int, r: int, n: int) -> dict:
    """Oracle for ``duration_pmf``: one key at a time, each denominator
    (k-2)(k-1)k an exact int that the division rounds to float once."""
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


def solve_loop(n: int) -> SimpleNamespace:
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
    return SimpleNamespace(
        thresholds=PolicyThresholds(k1, k2),
        value=cont[1],
        state_values=state_values,
        continuation=np.array(cont),
    )


def _last_below(phi, ref, lo, hi):
    """Largest k in lo..hi with phi[k] < ref[k], or 0 if there is none."""
    hits = np.flatnonzero(phi[lo : hi + 1] < ref[lo : hi + 1])
    return lo + int(hits[-1]) if hits.size else 0


def solve_scan(n: int) -> PolicyThresholds:
    """Oracle for ``solve``'s threshold search: each threshold read off the
    full tables as the last k where continuing is strictly better, k2 against
    the mean operator and k1 against one continuation pass that stops only on
    rank 1 up to k2."""
    _check_horizon(n)
    phi1, phi2, M = payoff_tables(n)
    k2 = _last_below(phi2, M, 2, n)
    cont = continuation_whole(0, k2, n, np.nan)  # w~ under (0, k2); cont[1] is not read
    k1 = _last_below(phi1, cont[1:], 1, k2)
    return PolicyThresholds(k1, k2 if k1 else 0)


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


def continuation_fraction(policy, n: int) -> list:
    """Oracle for ``SolveResult.continuation``: w~(k) at k = 0..n+1 (entry 0
    unused) under a threshold pair, by the forced-decision recursion of
    :func:`policy_value_loop` in exact rationals, with the payoffs from their
    closed forms phi(k, 1) = (k/n^2)(1 + k - n + 2n sum_{j=k}^{n-1} 1/j) and
    phi(k, 2) = k(n - k + 1)/n^2.  w~(1) is the policy's value."""
    k1, k2 = policy
    H = [Fraction(0)] * (n + 1)
    for k in range(n - 1, 0, -1):
        H[k] = H[k + 1] + Fraction(1, k)

    def phi1(k):
        return Fraction(k, n * n) * (1 + k - n + 2 * n * H[k])

    cont = [Fraction(0)] * (n + 2)
    for k in range(n, 1, -1):
        c = cont[k + 1]
        v1 = phi1(k) if k > k1 else c
        v2 = Fraction(k * (n - k + 1), n * n) if k > k2 else c
        cont[k] = (v1 + v2 + (k - 2) * c) / k
    cont[1] = phi1(1) if k1 == 0 else cont[2]
    return cont


def policy_value_fraction(policy, n: int) -> Fraction:
    """Oracle for ``policy_value`` and ``exhaustive_policy_value``: w~(1) of
    :func:`continuation_fraction`."""
    return continuation_fraction(policy, n)[1]


def payoff_fraction(k: int, r: int, n: int) -> Fraction:
    """Oracle for ``payoff`` in exact rationals, from the closed forms used by
    :func:`continuation_fraction`."""
    if r == 2:
        return Fraction(k * (n - k + 1), n * n)
    H = sum((Fraction(1, j) for j in range(k, n)), Fraction(0))
    return Fraction(k, n * n) * (1 + k - n + 2 * n * H)


class TrialOutcome(NamedTuple):
    """One trial: where the policy stopped and how long the selection lasted."""

    stop_time: Optional[int]
    stop_rank: Optional[int]
    end_time: Optional[int]
    normalized_payoff: float


def realized_outcome(seq, policy) -> TrialOutcome:
    """Trace one rank sequence under a threshold policy.

    The policy stops at the first k with (y_k = 1 and k > k1) or (y_k = 2 and
    k > k2).  A second-best selection leaves the top two at the next arrival
    with rank in {1, 2}.  A best selection survives until a new best appears
    (it is then relatively second) and leaves at the next {1, 2} arrival after
    that.  end_time is n+1 when the selection stays in the top two throughout;
    a policy that never stops earns 0.
    """
    k1, k2 = policy
    n = len(seq)
    stop = 0
    for t in range(1, n + 1):
        y = seq[t - 1]
        if (y == 1 and t > k1) or (y == 2 and t > k2):
            stop = t
            break
    if stop == 0:
        return TrialOutcome(None, None, None, 0.0)
    end = n + 1
    if seq[stop - 1] == 2:
        for t in range(stop + 1, n + 1):
            if seq[t - 1] <= 2:
                end = t
                break
    else:
        s = 0
        for t in range(stop + 1, n + 1):
            if seq[t - 1] == 1:
                s = t
                break
        if s:
            for t in range(s + 1, n + 1):
                if seq[t - 1] <= 2:
                    end = t
                    break
    return TrialOutcome(stop, seq[stop - 1], end, (end - stop) / n)


def exhaustive_policy_value_fsum(policy, n: int) -> float:
    """Oracle for ``exhaustive_policy_value``: all n! rank sequences, each of
    probability 1/n!, traced by ``realized_outcome`` and summed with math.fsum."""
    total = math.fsum(
        realized_outcome((1,) + tail, policy).normalized_payoff
        for tail in itertools.product(*(range(1, k + 1) for k in range(2, n + 1)))
    )
    return total / math.factorial(n)


def write_table_out_rows(path, n: int) -> None:
    """Oracle for ``shelflife solve --table-out``: one csv.writer row per k,
    every payoff read through ``payoff``."""
    res = solve(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "phi1", "phi2", "continuation", "stop1", "stop2"])
        for k in range(1, n + 1):
            f1 = payoff(k, 1, n)
            row = [k, repr(f1)]
            if k >= 2:
                row.append(repr(payoff(k, 2, n)))
            else:
                row.append("")
            row.append(repr(float(res.continuation[k])))
            row.append(int(k > res.thresholds.k1))
            row.append(int(k > res.thresholds.k2) if k >= 2 else "")
            w.writerow(row)


def write_pmf_rows(fh, i: int, r: int, n: int, as_csv: bool) -> None:
    """Oracle for ``shelflife pmf``: a csv.writer row per k, or one json.dump of
    the record with the pmf as a string-keyed dict, over ``duration_pmf_loop``."""
    pmf = duration_pmf_loop(i, r, n)
    survive = pmf.pop(n + 1)
    if as_csv:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "probability"])
        for k in sorted(pmf):
            w.writerow([k, repr(pmf[k])])
        w.writerow(["survive", repr(survive)])
    else:
        record = {
            "n": n,
            "i": i,
            "rank": r,
            "pmf": {str(k): pmf[k] for k in sorted(pmf)},
            "survive": survive,
        }
        json.dump(record, fh)
        fh.write("\n")


MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
MIX64_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def mix64(z: int) -> int:
    """SplitMix64's output function on a Python int in 0..2**64 - 1."""
    z = ((z ^ (z >> 30)) * MIX64_MULTIPLIERS[0]) & MASK64
    z = ((z ^ (z >> 27)) * MIX64_MULTIPLIERS[1]) & MASK64
    return z ^ (z >> 31)


def unmix64(z: int) -> int:
    """The inverse of :func:`mix64`: each xor-shift and product undone in turn."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(MIX64_MULTIPLIERS[1], -1, 2**64)) & MASK64, 27)
    return unshift((z * pow(MIX64_MULTIPLIERS[0], -1, 2**64)) & MASK64, 30)


def splitmix64_uniforms(seed: int, start: int, m: int) -> list:
    """Oracle for ``simulate._uniforms``: m rows of five floats, one Python
    integer at a time.  Entry j of trial t is output 5t + j of the SplitMix64
    stream from state mix64(seed), mapped to ((z >> 11) + 1) * 2**-53."""
    key = mix64(seed)
    return [
        [((mix64((key + (5 * t + j + 1) * GAMMA) & MASK64) >> 11) + 1) * 2.0**-53
         for j in range(5)]
        for t in range(start, start + m)
    ]


def whole_block_monte_carlo(n: int, policy, trials: int, seed: int) -> McEstimate:
    """Oracle for ``monte_carlo``'s sub-blocks: each block of ``BLOCK`` trials
    is drawn and rolled out by one ``_payoffs(_uniforms(...))`` call, then
    reduced by np.sum of the payoffs and of their squares, and the block sums
    by math.fsum."""
    sums, squares = [], []
    for start in range(0, trials, BLOCK):
        m = min(BLOCK, trials - start)
        p = _payoffs(_uniforms(seed, start, m, _work(m)), n, *policy)
        sums.append(float(np.sum(p)))
        squares.append(float(np.sum(p * p)))
    s1, s2 = math.fsum(sums), math.fsum(squares)
    if trials > 1:
        var = max(0.0, (s2 - s1 * s1 / trials) / (trials - 1))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return McEstimate(mean=s1 / trials, std_error=std_error, trials=trials, seed=seed)


def generate_rank_sequence(n: int, rng: np.random.Generator) -> tuple:
    """Draw (y_1, ..., y_n) with y_k independent uniform on {1..k}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(int(v) for v in rng.integers(1, np.arange(2, n + 2)))


def permutation_to_ranks(perm) -> tuple:
    """Relative ranks of a permutation: y_k = #{i <= k: perm[i] <= perm[k]}."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("input is not a permutation of 1..n")
    return tuple(
        sum(1 for x in perm[:k] if x <= perm[k - 1]) for k in range(1, n + 1)
    )


def _batch_outcomes(Y, k1, k2):
    """Vectorized ``realized_outcome`` over a (trials, n) rank matrix.

    Returns (stop_time, stop_rank, end_time, payoff) arrays; the no-stop
    outcome is encoded as stop_time = stop_rank = end_time = 0.
    """
    B, n = Y.shape
    t = np.arange(1, n + 1)
    stop_mask = ((Y == 1) & (t > k1)) | ((Y == 2) & (t > k2))
    has_stop = stop_mask.any(axis=1)
    stop_idx = np.where(has_stop, stop_mask.argmax(axis=1), n)  # 0-based; n = none

    # next-candidate / next-best indices at or after each column, with two
    # sentinel columns (value n) so that "none" lands on end_time = n + 1
    cols = np.arange(n)
    idx_c = np.where(Y <= 2, cols, n)
    nxt_c = np.minimum.accumulate(idx_c[:, ::-1], axis=1)[:, ::-1]
    nxt_c = np.concatenate([nxt_c, np.full((B, 2), n)], axis=1)
    idx_b = np.where(Y == 1, cols, n)
    nxt_b = np.minimum.accumulate(idx_b[:, ::-1], axis=1)[:, ::-1]
    nxt_b = np.concatenate([nxt_b, np.full((B, 2), n)], axis=1)

    rows = np.arange(B)
    stop_rank = Y[rows, np.minimum(stop_idx, n - 1)]
    end_second = nxt_c[rows, np.minimum(stop_idx + 1, n + 1)]
    new_best = nxt_b[rows, np.minimum(stop_idx + 1, n + 1)]
    end_best = nxt_c[rows, np.minimum(new_best + 1, n + 1)]
    end_idx = np.where(stop_rank == 2, end_second, end_best)

    stop_time = np.where(has_stop, stop_idx + 1, 0)
    end_time = np.where(has_stop, end_idx + 1, 0)
    payoff = np.where(has_stop, (end_time - stop_time) / n, 0.0)
    return stop_time, np.where(has_stop, stop_rank, 0), end_time, payoff


def dense_monte_carlo(n: int, policy, trials: int, seed: int):
    """Oracle for ``monte_carlo``: (mean, std_error) from full rank sequences.

    Draws every relative rank of every trial and scans the (trials, n) matrix
    with :func:`_batch_outcomes`, in chunks of about 4M cells.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    highs = np.arange(2, n + 2)
    rows = max(1, (1 << 22) // n)
    total = total_sq = 0.0
    for done in range(0, trials, rows):
        Y = rng.integers(1, highs, size=(min(rows, trials - done), n))
        p = _batch_outcomes(Y, *policy)[3]
        total += float(np.sum(p))
        total_sq += float(np.sum(p * p))
    mean = total / trials
    var = (total_sq - total * total / trials) / (trials - 1)
    return mean, math.sqrt(var / trials)
