"""Monte Carlo and exhaustive-enumeration checks of the exact solver.

The relative ranks Y_k are independent with Y_k uniform on {1..k}, so from
time t the next rank-1 arrival R and the next candidate C (rank 1 or 2) obey
P(R > s) = t/s and P(C > s) = t(t-1)/(s(s-1)), and each is one inverted
uniform.  A trial jumps between these epochs on five uniforms (see
`_payoffs`), so it costs O(1) whatever the horizon.  The exhaustive oracle
`exhaustive_policy_value` instead traces every class of rank sequences at
once, as boolean first-index searches over one int8 matrix of classes.

PRNG: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) evaluated as a counter
(Salmon et al., SC 2011) in numpy uint64 arithmetic, so only numpy core is
loaded.  Uniform j of trial t is output 5t + j of the stream from state
mix64(seed): a pure function of (seed, 5t + j), whatever block holds the
trial.  Trials are reduced in blocks of ``BLOCK`` (np.sum of the payoffs and
of their squares per block, math.fsum over blocks), so an estimate is
bit-identical however it is run.  Each block is drawn and rolled out
``CHUNK`` trials at a time into arrays that each thread keeps from call to
call, which keeps the temporaries cache-sized and the memory flat in the
trial count; the sub-block size changes no bit of an estimate.  A draw
allocates nothing, and a call no array larger than CHUNK payoffs: when each
call freed its own draw arrays, glibc could trim them off the heap top, and
in some heap layouts every later call faulted those pages in again, 40%
slower.
"""

import math
import threading
from typing import NamedTuple

import numpy as np

from ._validate import _check_horizon, _check_int, _check_policy

BLOCK = 32768  # trials per reduction block
CHUNK = 4096  # trials per draw and rollout
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, 2**64 / golden ratio


class McEstimate(NamedTuple):
    mean: float
    std_error: float
    trials: int
    seed: int


def _next_best(t, u):
    """First rank-1 arrival after time t >= 1 from u in (0, 1]: floor(t/u) + 1."""
    return np.floor(t / u) + 1.0


def _next_candidate(t, u, cap):
    """First rank-1-or-2 arrival after time t >= 1 from u in (0, 1], or a
    value >= cap when that lies beyond cap.

    It is the smallest integer s with s(s-1) > q = t(t-1)/u, one more than
    the floor of the root x = 1/2 + sqrt(1/4 + q).  At q = m(m-1) the rounded
    root is exactly m for every m < 2**27, and rounding is monotone in q, so
    the rounded root is never too low; when rounding pushes it up to the next
    integer, one exact comparison of products s(s-1) (exact while s < 9e7)
    takes it back.  So s is exact while s < 9e7, but for the rounding of q,
    which can move s by one only when t(t-1)/u lies within half an ulp below
    some m(m-1), a chance below t * 2**-53 per draw.  Beyond 9e7 the products
    round and s can be one step off: against exact rationals for the same u,
    0 of 20,000 draws miss at t = 10**7, 10**9 and 10**11, and 24 to 31 (three
    seeds) are one too high at t = 10**13.  A one-step miss moves one
    duration by 1/n.
    """
    with np.errstate(over="ignore"):  # near the 10**154 cap q can overflow: inf gives s = cap
        q = t * (t - 1.0) / u
    s = np.minimum(np.floor(0.5 + np.sqrt(0.25 + q)) + 1.0, cap)
    s -= (s - 1.0) * (s - 2.0) > q
    return s


def _end_times(stop, best, u3, u4, n):
    """End of the candidacy of an item held from time `stop`, capped at n+1.

    A second-best item leaves at the next candidate.  A best item is first
    overtaken by the next rank-1 arrival r and leaves at the candidate after r.
    """
    cap = n + 2.0
    start = np.where(best, np.minimum(_next_best(stop, u3), cap), stop)
    return np.minimum(_next_candidate(start, np.where(best, u4, u3), cap), n + 1.0)


def _payoffs(U, n, k1, k2):
    """Normalized durations of the trials whose uniforms are the rows of U.

    U has shape (m, 5) with entries in (0, 1].  Column 0 places the first
    rank-1 arrival after k1; if it falls after k2 the policy stops at the
    first candidate after k2 (column 1), whose rank is 1 iff column 2 is at
    most 1/2.  Columns 3 and 4 drive :func:`_end_times`.  A stop after n
    earns 0.
    """
    if k1 == 0:
        stop = np.ones(len(U))
        best = True
    else:
        s1 = _next_best(k1, U[:, 0])
        early = s1 <= k2
        stop = np.where(early, s1, _next_candidate(float(k2), U[:, 1], n + 2.0))
        best = early | (U[:, 2] <= 0.5)
    end = _end_times(stop, best, U[:, 3], U[:, 4], n)
    return np.where(stop <= n, (end - stop) / n, 0.0)


def _mix64(z, t):
    """SplitMix64's output function, in place on a uint64 array (which wraps),
    with t, a uint64 array of z's shape, for the shifted copies."""
    z ^= np.right_shift(z, 30, out=t)
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, 27, out=t)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, 31, out=t)
    return z


def _work(m):
    """Arrays to draw up to m trials' uniforms into: the counter steps
    i * GAMMA for i = 1..5m, a uint64 scratch and the float result."""
    steps = np.arange(1, 5 * m + 1, dtype=np.uint64) * GAMMA
    return steps, np.empty(5 * m, np.uint64), np.empty(5 * m)


_local = threading.local()


def _thread_work():
    """This thread's :func:`_work` for CHUNK trials and its BLOCK-payoff
    buffer, made on its first call and reused by every later one."""
    ws = getattr(_local, "ws", None)
    if ws is None or len(ws[0][0]) != 5 * CHUNK:
        ws = _local.ws = (_work(CHUNK), np.empty(BLOCK))
    return ws


def _uniforms(seed, start, m, work):
    """The (m, 5) uniforms in (0, 1] of trials start..start+m-1, drawn into
    work (see :func:`_work`) without allocating.

    Entry j of trial t is output 5t + j of the SplitMix64 stream whose state
    starts at mix64(seed), z = mix64(key + (5t + j + 1) * GAMMA), taken as
    ((z >> 11) + 1) * 2**-53.
    """
    steps, z, u = work
    z, u = z[:5 * m], u[:5 * m]
    z[0] = seed  # mixed as an array: a numpy uint64 scalar warns when it wraps
    key = int(_mix64(z[:1], u[:1].view(np.uint64))[0])
    np.add(steps[:5 * m], (key + 5 * start * GAMMA) % 2**64, out=z)
    _mix64(z, u.view(np.uint64))  # u is free until the last step
    z >>= 11
    z += 1
    u[...] = z  # exact: z <= 2**53
    u *= 2.0**-53
    return u.reshape(m, 5)


def _check_run(trials, seed):
    """trials in 1..2**61, so that 5 * trials fits in 64 bits, and seed in 0..2**64-1."""
    return _check_int(trials, "trials", 1, 2**61), _check_int(seed, "seed", 0, 2**64 - 1)


def monte_carlo(n: int, policy, trials: int, seed: int) -> McEstimate:
    """Estimate a policy's expected normalized duration by simulation.

    Deterministic for fixed (seed, trials); see the module docstring for the
    stream layout, and :func:`_check_run` for their ranges.
    """
    n = _check_horizon(n)
    k1, k2 = _check_policy(policy, n)
    trials, seed = _check_run(trials, seed)
    sums, squares = [], []
    work, p = _thread_work()
    for start in range(0, trials, BLOCK):
        m = min(BLOCK, trials - start)
        for a in range(0, m, CHUNK):
            b = min(a + CHUNK, m)
            p[a:b] = _payoffs(_uniforms(seed, start + a, b - a, work), n, k1, k2)
        q = p[:m]
        sums.append(float(np.sum(q)))
        squares.append(float(np.sum(np.square(q, out=q))))  # np.dot rounds by BLAS thread count
    s1 = math.fsum(sums)
    s2 = math.fsum(squares)
    mean = s1 / trials
    if trials > 1:
        var = max(0.0, (s2 - s1 * s1 / trials) / (trials - 1))
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, trials=trials, seed=seed)


def _rank_classes(n):
    """The 2*3**(n-2) rank classes as rows of an int8 (rows, n) matrix y, with
    y_1 = 1, y_2 in {1, 2} and y_k in {1, 2, 3} for k >= 3, and each class's
    int64 weight prod(k - 2) over its 3-positions, the number of rank sequences
    it stands for; the weights sum to n!."""
    y = np.ones((2 * 3 ** (n - 2), n), dtype=np.int8, order="F")
    y[:, 1:] = np.indices((2,) + (3,) * (n - 2), dtype=np.int8).reshape(n - 1, -1).T + 1
    weight = np.ones(len(y), dtype=np.int64)
    for k in range(3, n + 1):
        weight[y[:, k - 1] == 3] *= k - 2
    return y, weight


def _first(mask):
    """1-based index of the first True in each row of an (rows, n) mask, or n + 1
    where there is none: position k scores n + 1 - k where True, and 0 where not."""
    n = mask.shape[1]
    return n + 1 - (mask * np.arange(n, 0, -1, dtype=np.int8)).max(axis=1)


def _after(start, k):
    """The (rows, n) mask k > start, column-major like the class matrix, so that
    a reduction along a row runs over contiguous columns."""
    return np.greater(k, start[:, None], order="F")


def exhaustive_policy_value(policy, n: int) -> float:
    """Exact policy value by enumerating every class of rank sequences.

    A threshold policy and the end of its candidacy read y_k only through
    min(y_k, 3), so the sequences fall into the 2*3**(n-2) classes of
    :func:`_rank_classes`, each counting prod(k - 2) of the n! equally likely
    sequences.  Every class is traced, all at once: the stop is the first k
    with y_k = 1 after k1 or y_k = 2 after k2; a held best item is first
    overtaken at the next y = 1; the candidacy ends at the next y <= 2, or at
    n + 1.  The weighted durations are summed as integers, so the result
    total / (n * n!) is the exact value correctly rounded.  n is limited to
    2..10.
    """
    n = _check_int(n, "n", 2, 10)
    k1, k2 = _check_policy(policy, n)
    y, weight = _rank_classes(n)
    k = np.arange(1, n + 1, dtype=np.int8)
    stop1, stop2 = _first((y == 1) & (k > k1)), _first((y == 2) & (k > k2))
    stop = np.minimum(stop1, stop2)  # n + 1: never stops, and the end below is n + 1 too
    # a held best item drops to second at the next y = 1; a second best one is there at its stop
    overtaken = np.where(stop1 < stop2, _first((y == 1) & _after(stop, k)), stop)
    end = _first((y <= 2) & _after(overtaken, k))
    total = int(weight @ (end - stop))
    return total / (n * math.factorial(n))
