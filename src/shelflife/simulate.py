"""Monte Carlo and exhaustive-enumeration checks of the exact solver.

Rank sequences are simulated directly -- the relative ranks Y_k are
independent with Y_k uniform on {1..k} -- so a trial is O(n) with no
order-statistics bookkeeping.  Permutations of actual values are kept as a
cross-check path (`permutation_to_ranks`).

PRNG: numpy Philox (counter-based).  Trials are drawn in fixed blocks of
``BLOCK`` trials; block b uses the substream keyed by (seed, b*BLOCK), so the
randomness of trial t is a pure function of (seed, t) and the estimate is
bit-identical regardless of how blocks are scheduled across threads.  The
environment variable DURATION_SOLVER_THREADS caps the worker pool (default 1).
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional

import numpy as np

from .solver import _check_policy

BLOCK = 32768
# keep per-chunk rank matrices around 32 MB even for large horizons
_CHUNK_ELEMS = 1 << 22


class TrialOutcome(NamedTuple):
    """One trial: where the policy stopped and how long the selection lasted."""

    stop_time: Optional[int]
    stop_rank: Optional[int]
    end_time: Optional[int]
    normalized_payoff: float


class McEstimate(NamedTuple):
    mean: float
    std_error: float
    trials: int
    seed: int


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


def _batch_outcomes(Y, k1, k2):
    """Vectorized realized_outcome over a (trials, n) rank matrix.

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


def monte_carlo(n: int, policy, trials: int, seed: int) -> McEstimate:
    """Estimate a policy's expected normalized duration by simulation.

    Deterministic for fixed (seed, trials) independent of thread count; see
    the module docstring for the substream layout.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k1, k2 = _check_policy(policy, n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")

    highs = np.arange(2, n + 2)
    rows_per_chunk = max(1, _CHUNK_ELEMS // n)

    def run_block(start):
        m = min(BLOCK, trials - start)
        rng = np.random.Generator(np.random.Philox(key=(seed, start)))
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < m:
            r = min(rows_per_chunk, m - done)
            Y = rng.integers(1, highs, size=(r, n))
            p = _batch_outcomes(Y, k1, k2)[3]
            total += float(np.sum(p))
            total_sq += float(np.dot(p, p))
            done += r
        return total, total_sq

    starts = range(0, trials, BLOCK)
    threads = max(1, int(os.environ.get("DURATION_SOLVER_THREADS", "1")))
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_block, starts))
    else:
        partials = [run_block(s) for s in starts]

    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    mean = s1 / trials
    if trials > 1:
        var = max(0.0, (s2 - s1 * s1 / trials) / (trials - 1))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, trials=trials, seed=seed)


def exhaustive_policy_value(policy, n: int) -> float:
    """Exact policy value by enumerating every rank sequence.

    Each sequence (y_1..y_n) has probability prod_k 1/k = 1/n!; the n <= 10
    guard keeps the n! enumeration tractable.  Accumulation is compensated
    (math.fsum).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 10:
        raise ValueError(f"exhaustive enumeration is limited to n <= 10, got {n}")
    _check_policy(policy, n)
    total = math.fsum(
        realized_outcome((1,) + tail, policy).normalized_payoff
        for tail in itertools.product(*(range(1, k + 1) for k in range(2, n + 1)))
    )
    return total / math.factorial(n)
