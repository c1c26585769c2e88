import collections
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    GAMMA,
    MASK64,
    TrialOutcome,
    _batch_outcomes,
    dense_monte_carlo,
    exhaustive_policy_value_fsum,
    generate_rank_sequence,
    mix64,
    permutation_to_ranks,
    policy_value_fraction,
    realized_outcome,
    splitmix64_uniforms,
    unmix64,
    whole_block_monte_carlo,
)

import shelflife.simulate
from shelflife.simulate import (
    BLOCK,
    CHUNK,
    McEstimate,
    _end_times,
    _next_best,
    _next_candidate,
    _payoffs,
    _rank_classes,
    _uniforms,
    _work,
    exhaustive_policy_value,
    monte_carlo,
)
from shelflife.solver import duration_pmf, payoff, policy_value, solve


def all_rank_sequences(n):
    for tail in itertools.product(*(range(1, k + 1) for k in range(2, n + 1))):
        yield (1,) + tail


class TestGenerateRankSequence:
    def test_trivial_horizon(self):
        rng = np.random.default_rng(0)
        assert generate_rank_sequence(1, rng) == (1,)

    def test_validity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            seq = generate_rank_sequence(12, rng)
            assert seq[0] == 1
            assert all(1 <= y <= k for k, y in enumerate(seq, start=1))

    def test_deterministic_for_fixed_seed(self):
        a = generate_rank_sequence(10, np.random.default_rng(77))
        b = generate_rank_sequence(10, np.random.default_rng(77))
        assert a == b

    def test_uniform_second_coordinate(self):
        rng = np.random.default_rng(11)
        draws = 100_000
        ones = sum(generate_rank_sequence(2, rng)[1] == 1 for _ in range(draws))
        assert abs(ones / draws - 0.5) < 0.005  # 3 sigma ~ 0.0047

    def test_domain(self):
        with pytest.raises(ValueError):
            generate_rank_sequence(0, np.random.default_rng(0))


class TestPermutationToRanks:
    def test_known_conversions(self):
        assert permutation_to_ranks((1, 2, 3)) == (1, 2, 3)
        assert permutation_to_ranks((3, 1, 2)) == (1, 1, 2)
        assert permutation_to_ranks((2, 3, 1)) == (1, 2, 1)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            permutation_to_ranks((1, 1, 3))
        with pytest.raises(ValueError):
            permutation_to_ranks((0, 1, 2))

    def test_bijection_onto_rank_sequences(self):
        n = 5
        images = collections.Counter(
            permutation_to_ranks(p) for p in itertools.permutations(range(1, n + 1))
        )
        assert len(images) == math.factorial(n)
        assert set(images) == set(all_rank_sequences(n))
        assert all(c == 1 for c in images.values())

    @given(st.permutations(list(range(1, 9))))
    def test_output_is_valid_rank_sequence(self, perm):
        seq = permutation_to_ranks(perm)
        assert seq[0] == 1
        assert all(1 <= y <= k for k, y in enumerate(seq, start=1))


class TestRealizedOutcome:
    def test_identity_sequence_survives(self):
        # (1,2,3,4,5): the first item stays best throughout
        out = realized_outcome((1, 2, 3, 4, 5), (0, 0))
        assert out == TrialOutcome(1, 1, 6, 1.0)

    def test_new_best_then_candidate_displaces(self):
        # stop at 1; new best at 2; candidate at 3 ends the hold
        out = realized_outcome((1, 1, 1, 1), (0, 0))
        assert out == TrialOutcome(1, 1, 3, 0.5)

    def test_best_hold_survives_new_best_without_follower(self):
        out = realized_outcome((1, 2, 1), (1, 2))
        assert out.stop_time == 3
        assert out.end_time == 4
        assert out.normalized_payoff == pytest.approx(1 / 3)

    def test_second_best_hold_ends_at_next_candidate(self):
        out = realized_outcome((1, 1, 2, 4, 1), (2, 2))
        assert out == TrialOutcome(3, 2, 5, 0.4)

    def test_never_stopping(self):
        out = realized_outcome((1, 2, 2), (3, 3))
        assert out == TrialOutcome(None, None, None, 0.0)

    def test_weighted_average_equals_policy_value(self):
        n = 3
        for policy in [(0, 0), (1, 1), (1, 2), (2, 2)]:
            avg = math.fsum(
                realized_outcome(seq, policy).normalized_payoff
                for seq in all_rank_sequences(n)
            ) / math.factorial(n)
            assert avg == pytest.approx(policy_value(policy, n), abs=1e-15)


class TestBatchOutcomes:
    def test_matches_scalar_scan(self):
        n = 6
        Y = np.array(list(all_rank_sequences(n)))
        for policy in [(0, 0), (0, 3), (1, 2), (2, 4), (6, 6), (3, 3)]:
            st_, sr, et, p = _batch_outcomes(Y, *policy)
            for row, seq in enumerate(all_rank_sequences(n)):
                ref = realized_outcome(seq, policy)
                assert st_[row] == (ref.stop_time or 0)
                assert sr[row] == (ref.stop_rank or 0)
                assert et[row] == (ref.end_time or 0)
                assert p[row] == ref.normalized_payoff


class TestExhaustivePolicyValue:
    def test_two_items_always_keep_first(self):
        # (0, 2) stops at time 1; nothing within n=2 can push the best item
        # out of the top two
        assert exhaustive_policy_value((0, 2), 2) == 1.0

    def test_matches_policy_value(self):
        for n in range(2, 7):
            for k1 in range(n + 1):
                for k2 in range(k1, n + 1):
                    ev = exhaustive_policy_value((k1, k2), n)
                    pv = policy_value((k1, k2), n)
                    assert abs(ev - pv) <= 1e-12, (n, k1, k2)

    def test_argmax_matches_solve(self):
        n = 6
        best = max(
            ((k1, k2) for k1 in range(n + 1) for k2 in range(k1, n + 1)),
            key=lambda p: exhaustive_policy_value(p, n),
        )
        # ties broken toward smaller thresholds by max() scanning order
        assert best == tuple(solve(n).thresholds)

    def test_correctly_rounded_exact_value(self):
        for n in range(2, 11):
            for k1 in range(n + 1):
                for k2 in range(k1, n + 1):
                    exact = float(policy_value_fraction((k1, k2), n))
                    assert exhaustive_policy_value((k1, k2), n) == exact, (n, k1, k2)

    def test_matches_sequence_enumeration(self):
        for n in range(2, 9):
            for k1 in range(n + 1):
                for k2 in range(k1, n + 1):
                    ev = exhaustive_policy_value((k1, k2), n)
                    assert abs(ev - exhaustive_policy_value_fsum((k1, k2), n)) <= 2.3e-16, (
                        n, k1, k2)

    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_traces_each_class_once(self, n, monkeypatch):
        traced = []

        def rank_classes(m):
            y, weight = _rank_classes(m)
            traced.append(y)
            return y, weight

        monkeypatch.setattr(shelflife.simulate, "_rank_classes", rank_classes)
        exhaustive_policy_value((1, n - 1), n)
        assert len(traced) == 1
        (y,) = traced
        assert len({row.tobytes() for row in y}) == len(y) == 2 * 3 ** (n - 2)

    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_rank_classes_are_distinct_and_weigh_n_factorial(self, n):
        """The weights sum to n!, and each class weighs prod(k - 2) over its own
        3-positions, which a permuted weight vector fails; y is the F-contiguous
        int8 matrix whose columns the first-index search reduces over."""
        y, weight = _rank_classes(n)
        assert len({row.tobytes() for row in y}) == len(y) == 2 * 3 ** (n - 2)
        assert (y[:, 0] == 1).all() and (y[:, 1] <= 2).all() and y.min() >= 1 and y.max() <= 3
        assert int(weight.sum()) == math.factorial(n)
        assert y.dtype == np.int8 and y.flags.f_contiguous and y.shape == (len(y), n)
        assert weight.dtype == np.int64 and weight.shape == (len(y),)
        for row, w in zip(y.tolist(), weight.tolist()):
            assert w == math.prod(k - 2 for k, r in enumerate(row, 1) if r == 3), row

    def test_values_bits_pinned(self):
        """Every threshold pair for n = 2..10: a sha256 over the hex of each
        value, recorded before the searches were put on one first-index helper.
        Any change to one bit of one value moves it."""
        h = hashlib.sha256()
        for n in range(2, 11):
            for k2 in range(n + 1):
                for k1 in range(k2 + 1):
                    h.update(f"{exhaustive_policy_value((k1, k2), n).hex()}\n".encode())
        assert h.hexdigest() == "ad588ebf6446bfa3da1191af99c7304ca84b528b3c5e4a1e8a91c7c7d7ce6ff5"

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_policy_value((0, 0), 11)

    def test_domain(self):
        with pytest.raises(ValueError):
            exhaustive_policy_value((3, 2), 5)

    @pytest.mark.parametrize("n", [1, 0, 2.0, 5.0, True, "5"])
    def test_rejects_horizons_solve_rejects(self, n):
        # n = 1 used to be enumerated; floats and bools slipped past the range check
        with pytest.raises(ValueError, match="n must"):
            exhaustive_policy_value((0, 0), n)


class TestPermutationModeAgreement:
    def test_full_enumeration_identical_at_n6(self):
        n, policy = 6, (1, 3)
        by_perms = math.fsum(
            realized_outcome(permutation_to_ranks(p), policy).normalized_payoff
            for p in itertools.permutations(range(1, n + 1))
        ) / math.factorial(n)
        assert by_perms == pytest.approx(
            exhaustive_policy_value(policy, n), abs=1e-15
        )


class TestMonteCarlo:
    def test_deterministic(self):
        a = monte_carlo(10, (1, 4), 70_000, 123)  # spans two full blocks + remainder
        b = monte_carlo(10, (1, 4), 70_000, 123)
        assert a == b
        assert isinstance(a, McEstimate)
        assert a.trials == 70_000 and a.seed == 123

    def test_agrees_with_exhaustive(self):
        exact = exhaustive_policy_value((1, 2), 3)
        est = monte_carlo(3, (1, 2), 100_000, 5)
        assert abs(est.mean - exact) < 3 * est.std_error

    def test_agrees_with_policy_value_mid_size(self):
        exact = policy_value((9, 9), 10)
        est = monte_carlo(10, (9, 9), 20_000, 0)
        assert abs(est.mean - exact) < 4 * est.std_error

    def test_no_overflow_warning_near_the_horizon_cap(self):
        # t(t - 1)/u overflows there; the overflow gives the right draw, the cap n + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = monte_carlo(10**154, (10**153, 5 * 10**153), 10_000, 1)
        assert 0.0 < est.mean < 1.0

    def test_estimate_bits_pinned(self):
        """Every policy class at one and two trials and around the sub-block
        and block edges, from a horizon of 2 to the cap, at the two extreme
        seeds: a sha256 over the hex of each mean and std_error, recorded
        before the rollout was put on one horizon cap.  Any change to one bit
        of one estimate moves it."""
        h = hashlib.sha256()
        for n in [2, 7, 100, 10**15, 10**154]:
            for policy in sorted({(0, 0), (0, n), (1, 1), (n // 2, n // 2), (n - 1, n), (n, n)}):
                for trials in [1, 2, CHUNK - 1, CHUNK + 1, BLOCK + 1]:
                    for seed in [0, 2**64 - 1]:
                        est = monte_carlo(n, policy, trials, seed)
                        h.update(f"{est.mean.hex()} {est.std_error.hex()}\n".encode())
        assert h.hexdigest() == "8577a35227158bcbfa6307a17049ecc682d41ac22b8d4779e18af90fb7d90bde"

    def test_single_trial(self):
        est = monte_carlo(3, (0, 0), 1, 7)
        assert est.std_error == 0.0
        # stopping at time 1 ends at 3 (payoff 2/3) or survives (payoff 1)
        assert est.mean in {2 / 3, 1.0}

    def test_domain(self):
        with pytest.raises(ValueError):
            monte_carlo(10, (1, 4), 0, 1)
        with pytest.raises(ValueError):
            monte_carlo(10, (5, 2), 100, 1)
        with pytest.raises(ValueError):
            monte_carlo(10, (1, 4), 100, -1)
        with pytest.raises(ValueError):
            monte_carlo(10, (1, 4), 100, 2**64)

    @pytest.mark.parametrize("trials", [2**61 + 1, 10**19])
    def test_trials_capped_so_the_counter_fits_64_bits(self, trials):
        # the largest counter, 5 * trials, must not wrap; rejected before any draw
        with pytest.raises(ValueError, match=r"trials must be in 1\.\.2305843009213693952"):
            monte_carlo(10, (1, 4), trials, 1)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_horizons_below_two(self, n):
        # the same lower bound as solve and policy_value
        with pytest.raises(ValueError, match="horizon must be >= 2"):
            monte_carlo(n, (0, 0), 100, 1)

    @pytest.mark.parametrize("n", [10**154 + 1, 10**155], ids=["1e154+1", "1e155"])
    def test_rejects_horizons_above_the_cap(self, n):
        # the same upper bound as solve and policy_value, checked before any draw
        with pytest.raises(ValueError, match=r"horizon must be at most 10\*\*154"):
            monte_carlo(n, (5, 7), 100, 1)

    @pytest.mark.parametrize(
        "n, trials, seed",
        [(10, 100, 1.5), (10, 100, True), (10, True, 1), (10, 100.0, 1),
         (10, "100", 1), (10.0, 100, 1), (True, 100, 1)],
    )
    def test_rejects_non_integer_arguments(self, n, trials, seed):
        with pytest.raises(ValueError):
            monte_carlo(n, (0, 1), trials, seed)

    def test_seeds_above_2_63_keep_distinct_streams(self):
        top = [monte_carlo(10, (1, 4), 1000, s).mean for s in (2**64 - 1, 2**64 - 2)]
        low = [monte_carlo(10, (1, 4), 1000, s).mean for s in (0, 2**63, 2**63 + 5)]
        assert len(set(top + low)) == 5

    def test_accepts_numpy_integers(self):
        est = monte_carlo(np.int64(10), (1, 4), np.int32(100), np.uint64(2**64 - 1))
        assert est == monte_carlo(10, (1, 4), 100, 2**64 - 1)

    @pytest.mark.parametrize("m1", [1, 777, BLOCK - 1])
    def test_trial_randomness_is_a_pure_function_of_seed_and_index(self, m1):
        """A trial's payoff depends neither on how many trials its block holds
        nor on where that block starts."""
        two_blocks = np.concatenate([_uniforms(9, 0, BLOCK, _work(BLOCK)),
                                     _uniforms(9, BLOCK, BLOCK, _work(BLOCK))])
        for n, policy in [(50, (6, 21)), (7, (0, 0)), (1000, (120, 417))]:
            full = _payoffs(two_blocks, n, *policy)
            for lo in (0, BLOCK - m1 // 2, 2 * BLOCK - m1):
                short = _payoffs(_uniforms(9, lo, m1, _work(m1)), n, *policy)
                assert np.array_equal(short, full[lo:lo + m1]), lo


# (n, policy, trials): every policy class at trial counts around the sub-block
# and block edges, then the three shapes the mc-rollout benchmark times
SUB_BLOCK_CASES = [
    (n, policy, trials)
    for n, policy in [(100, (0, 0)), (100, (9, 9)), (100, (12, 41)),
                      (10**15, (12 * 10**13, 42 * 10**13))]
    for trials in [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK, BLOCK + 1,
                   2 * BLOCK + 777, 10**5]
] + [(100, (12, 41), 8192), (100, (20, 60), 8192), (1000, (120, 417), 1024)]


class TestSubBlocks:
    """monte_carlo draws and rolls out CHUNK trials at a time into one buffer
    but reduces whole BLOCKs, so it equals one draw per block bit for bit.
    Both sums are numpy's pairwise np.sum, with no BLAS call, so the bits do
    not depend on the BLAS thread count."""

    @pytest.mark.parametrize("n, policy, trials", SUB_BLOCK_CASES)
    def test_equals_whole_block_reference(self, n, policy, trials):
        assert monte_carlo(n, policy, trials, 11) == whole_block_monte_carlo(n, policy, trials, 11)

    @pytest.mark.parametrize("chunk", [1, 7, 4096, BLOCK])
    def test_any_sub_block_size_gives_the_same_estimate(self, monkeypatch, chunk):
        monkeypatch.setattr(shelflife.simulate, "CHUNK", chunk)
        cases = [(100, (12, 41), BLOCK + 1), (7, (0, 0), 9), (1000, (120, 417), 1)]
        if chunk > 1:  # one trial per sub-block costs about 35 us a trial
            cases += [(100, (9, 9), 2 * BLOCK + 777), (1000, (120, 417), 1024)]
        for n, policy, trials in cases:
            assert monte_carlo(n, policy, trials, 5) == whole_block_monte_carlo(n, policy, trials, 5)

    @pytest.mark.parametrize("n, policy, trials", [(100, (12, 41), 2 * BLOCK + 777),
                                                   (100, (0, 0), BLOCK + 1),
                                                   (10**15, (12 * 10**13, 42 * 10**13), 10**5)])
    def test_sums_match_exact_summation(self, n, policy, trials):
        """mean and std_error agree with math.fsum over every payoff and every
        square of one: the pairwise sums lose at most a few ulp."""
        work = _work(BLOCK)
        p = np.concatenate([_payoffs(_uniforms(3, s, min(BLOCK, trials - s), work), n, *policy)
                            for s in range(0, trials, BLOCK)]).tolist()
        s1, s2 = math.fsum(p), math.fsum(x * x for x in p)
        std_error = math.sqrt((s2 - s1 * s1 / trials) / (trials - 1) / trials)
        est = monte_carlo(n, policy, trials, 3)
        assert est.mean == pytest.approx(s1 / trials, rel=1e-14, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

    def test_std_error_bits_do_not_depend_on_blas_threads(self):
        script = ("from shelflife.simulate import BLOCK, monte_carlo\n"
                  "print(monte_carlo(100, (12, 41), 2 * BLOCK + 777, 7).std_error.hex())\n")
        outs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            outs.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                    capture_output=True, text=True).stdout)
        assert len(outs) == 1

    def test_memory_bounded_by_the_sub_block(self):
        def peak(trials):
            tracemalloc.start()
            try:
                monte_carlo(100, (12, 41), trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block, many = peak(BLOCK), peak(10**6)
        assert many <= 2**20
        assert many <= 1.5 * one_block

    @pytest.mark.parametrize("n, policy, trials", [(100, (12, 41), 8192),
                                                   (100, (12, 41), 2 * BLOCK + 777),
                                                   (1000, (120, 417), 1024)])
    def test_later_calls_reuse_the_draw_arrays(self, n, policy, trials):
        """After a thread's first call, a call allocates neither its draw
        arrays (2 x 5 x CHUNK words) nor its payoff buffer: only the rollout's
        temporaries, about 9 CHUNK floats."""
        monte_carlo(n, policy, trials, 1)
        tracemalloc.start()
        try:
            monte_carlo(n, policy, trials, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * CHUNK

    def test_threads_draw_into_their_own_arrays(self):
        cases = [(100, (12, 41), BLOCK + 5, seed) for seed in range(8)]
        serial = [monte_carlo(*c) for c in cases]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(lambda c: monte_carlo(*c), cases)) == serial


class TestSplitMix64Uniforms:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, BLOCK - 1, 10**12, 2**61 - 9])
    def test_matches_scalar_oracle(self, seed, start):
        # bit for bit; 2**61 - 9 ends at the largest counter monte_carlo allows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _uniforms(seed, start, 9, _work(9))
        assert got.shape == (9, 5)
        assert got.tolist() == splitmix64_uniforms(seed, start, 9)
        # drawn into larger work arrays, as monte_carlo draws a short sub-block
        assert _uniforms(seed, start, 9, _work(16)).tolist() == got.tolist()

    @pytest.mark.parametrize("start", [1, BLOCK - 5, BLOCK, BLOCK + 3])
    def test_random_access(self, start):
        """Rows start.. of a draw from 0 are the draw from start, across a block edge."""
        assert np.array_equal(_uniforms(4, start, 10, _work(10)),
                              _uniforms(4, 0, start + 10, _work(start + 10))[start:])

    def test_extremes_are_inside_the_unit_interval(self):
        """The outputs z = 0 and z = 2**64 - 1 give 2**-53 and 1.0.

        The trial that meets each is found by running the stream backwards:
        its counter 5t + j + 1 is (unmix64(z) - mix64(seed)) / GAMMA mod 2**64.
        """
        for z, u in ((0, 2.0**-53), (MASK64, 1.0)):
            for seed in itertools.count():
                counter = (unmix64(z) - mix64(seed)) * pow(GAMMA, -1, 2**64) & MASK64
                t, j = divmod(counter - 1, 5)
                if 0 <= t <= 2**61 - 1:
                    break
            assert _uniforms(seed, t, 1, _work(1))[0, j] == u, (seed, t, j)
        U = _uniforms(1, 0, 4 * BLOCK, _work(4 * BLOCK))
        assert U.min() > 0.0 and U.max() <= 1.0

    def test_columns_uniform_and_independent(self):
        """Each column: 64-bin chi-square at the 1e-6 tail; lag-1 correlations
        within each column and along the stream, and correlations between the
        columns of one trial, within 5/sqrt(N)."""
        trials = 8 * BLOCK
        U = _uniforms(2, 0, trials, _work(trials))
        crit = 131.370  # chi2.isf(1e-6, 63), fixed before any draw
        for j in range(5):
            counts = np.bincount(np.minimum((U[:, j] * 64).astype(np.int64), 63), minlength=64)
            stat = float(np.sum((counts - trials / 64) ** 2) / (trials / 64))
            assert stat <= crit, (j, stat)
        bound = 5 / math.sqrt(trials)
        stream = U.ravel()
        pairs = [(U[:-1, j], U[1:, j]) for j in range(5)]
        pairs += [(U[:, i], U[:, j]) for i, j in itertools.combinations(range(5), 2)]
        pairs.append((stream[:-1], stream[1:]))
        for x, y in pairs:
            assert abs(np.corrcoef(x, y)[0, 1]) <= bound


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda policy: policy_value(policy, 10),
        lambda policy: monte_carlo(10, policy, 10, 0),
        lambda policy: exhaustive_policy_value(policy, 10),
    ],
    ids=["policy_value", "monte_carlo", "exhaustive_policy_value"],
)
@pytest.mark.parametrize(
    "policy",
    [(1.5, 3), (1, 3.0), (True, 3), ("1", 3), (3, 2), (-1, 3), (1, 11), 5, (1, 2, 3),
     "12", b"\x01\x02", {1: 0, 2: 0}, {1, 2}, frozenset({1, 2})],
)
def test_policy_checked_by_one_rule(evaluate, policy):
    # text, a mapping and a set each unpack into two items, but are no pair
    with pytest.raises(ValueError):
        evaluate(policy)


class TestEmpiricalDurationPmf:
    @pytest.mark.parametrize("rank", [1, 2])
    def test_end_time_frequencies(self, rank):
        """10^6 conditional draws of the end time against duration_pmf (4 sigma).

        Conditioning on Y_i = rank is exact: the ranks are independent, so the
        column is simply forced; thresholds (i-1, i-1) make the policy stop at
        exactly i, after which the batch scan reports the candidacy end.
        """
        n, i, trials = 20, 5, 1_000_000
        pmf = duration_pmf(i, rank, n)
        counts = np.zeros(n + 2, dtype=np.int64)
        rng = np.random.Generator(np.random.Philox(key=(99, rank)))
        done = 0
        while done < trials:
            m = min(131_072, trials - done)
            Y = rng.integers(1, np.arange(2, n + 2), size=(m, n))
            Y[:, i - 1] = rank
            stop_time, _, end_time, _ = _batch_outcomes(Y, i - 1, i - 1)
            assert np.all(stop_time == i)
            counts += np.bincount(end_time, minlength=n + 2)
            done += m
        for k in range(i + 1, n + 2):
            p = pmf[k]
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            assert abs(counts[k] / trials - p) <= 4.0 * sigma, (k, p)


def _exact_next_best(t, u):
    """Smallest s > t with u*s > t, in exact rationals."""
    return math.floor(t / Fraction(u)) + 1


def _exact_next_candidate(t, u):
    """Smallest s > t with u*s(s-1) > t(t-1), in exact rationals."""
    u = Fraction(u)
    s = (1 + math.isqrt(1 + 4 * math.floor(t * (t - 1) / u))) // 2
    while u * s * (s - 1) <= t * (t - 1):
        s += 1
    while s - 1 > t and u * (s - 1) * (s - 2) > t * (t - 1):
        s -= 1
    return s


class TestJumpAheadSampler:
    # chi2.isf(1e-6, df) for df = 1..7, fixed before any trial is drawn
    CHI2_CRIT = {1: 23.928, 2: 27.631, 3: 30.665, 4: 33.377, 5: 35.888,
                 6: 38.258, 7: 40.522}
    CAP = 9e7  # s(s-1) stays an exact float up to here

    def test_unit_uniform_steps_once(self):
        t = np.concatenate([np.arange(1.0, 2000.0), np.arange(2000.0, 9e7, 9973.0),
                            [2.0**25 + 1, 5e7, 2.0**26 + 7, 9e7 - 1]])
        assert np.array_equal(_next_best(t, 1.0), t + 1.0)
        assert np.array_equal(_next_candidate(t, 1.0, self.CAP), t + 1.0)

    def test_first_candidate_after_time_one_is_two(self):
        u = 1.0 - np.random.default_rng(0).random(1000)
        assert np.all(_next_candidate(1.0, u, self.CAP) == 2.0)

    def test_boundaries_land_on_the_correct_side(self):
        """u on a boundary P(X > s) = u means X > s; the next float up gives s."""
        def dyadic(a, b):  # a/b in lowest terms has a power-of-two denominator
            d = b // math.gcd(a, b)
            return d & (d - 1) == 0

        best = cand = 0
        for t in range(1, 200):
            for s in range(t + 1, 3000):
                if dyadic(t, s):
                    u = t / s
                    assert _next_best(float(t), u) == s + 1, (t, s)
                    assert _next_best(float(t), np.nextafter(u, 2.0)) == s, (t, s)
                    best += 1
                if t > 1 and dyadic(t * (t - 1), s * (s - 1)):
                    u = t * (t - 1) / (s * (s - 1))
                    assert _next_candidate(float(t), u, self.CAP) == s + 1, (t, s)
                    up = np.nextafter(u, 2.0)
                    assert _next_candidate(float(t), up, self.CAP) == s, (t, s)
                    cand += 1
        assert best > 100 and cand > 20

    def test_matches_exact_rational_inversion(self):
        rng = np.random.default_rng(20261017)
        ts = np.floor(np.exp(rng.uniform(0.0, math.log(2e7), 3000)))
        us = 1.0 - rng.random(3000)
        us[:300] = us[:300] ** 8  # long jumps
        got_r = _next_best(ts, us)
        got_c = _next_candidate(ts, us, self.CAP)
        for t, u, r, c in zip(ts.tolist(), us.tolist(), got_r, got_c):
            exact = _exact_next_best(int(t), u)
            assert r == exact if exact < self.CAP else r >= self.CAP - 1, (t, u)
            exact = _exact_next_candidate(int(t), u)
            assert c == exact if exact < self.CAP else c >= self.CAP, (t, u)

    @pytest.mark.parametrize("t", [10**7, 10**9, 10**11, 10**13])
    def test_candidate_exact_below_cap_and_one_step_off_at_most_beyond(self, t):
        """The bound stated in the _next_candidate docstring, uncapped."""
        us = 1.0 - np.random.default_rng(0).random(2000)
        got = _next_candidate(float(t), us, math.inf)
        for u, s in zip(us.tolist(), got.tolist()):
            exact = _exact_next_candidate(t, u)
            assert s == exact if exact < self.CAP else abs(s - exact) <= 1, (t, u)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_payoff_histogram_matches_enumeration(self, n):
        """Chi-square of n * payoff against all n! rank sequences, every policy."""
        trials = 4 * BLOCK
        U = np.concatenate([_uniforms(31, s, BLOCK, _work(BLOCK))
                            for s in range(0, trials, BLOCK)])
        seqs = list(all_rank_sequences(n))
        for k1 in range(n + 1):
            for k2 in range(k1, n + 1):
                exact = collections.Counter(
                    round(realized_outcome(seq, (k1, k2)).normalized_payoff * n)
                    for seq in seqs
                )
                observed = np.bincount(
                    np.rint(_payoffs(U, n, k1, k2) * n).astype(np.int64),
                    minlength=n + 1,
                )
                assert set(np.flatnonzero(observed)) <= set(exact), (n, k1, k2)
                expected = {d: c * trials / len(seqs) for d, c in exact.items()}
                stat = sum((observed[d] - e) ** 2 / e for d, e in expected.items())
                if len(expected) > 1:
                    assert stat <= self.CHI2_CRIT[len(expected) - 1], (n, k1, k2, stat)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_end_time_frequencies(self, rank):
        """10^6 end times of an item held from time i against duration_pmf (4 sigma)."""
        n, i, trials = 20, 5, 1_000_000
        pmf = duration_pmf(i, rank, n)
        counts, work = np.zeros(n + 2, dtype=np.int64), _work(BLOCK)
        for start in range(0, trials, BLOCK):
            U = _uniforms(99 + rank, start, min(BLOCK, trials - start), work)
            stop = np.full(len(U), float(i))
            end = _end_times(stop, rank == 1, U[:, 3], U[:, 4], n)
            counts += np.bincount(end.astype(np.int64), minlength=n + 2)
        assert counts[: i + 1].sum() == 0
        for k in range(i + 1, n + 2):
            p = pmf[k]
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            assert abs(counts[k] / trials - p) <= 4.0 * sigma, (k, p)

    @pytest.mark.parametrize("n", [10, 200, 10**4, 10**6])
    def test_optimal_policy_estimate(self, n):
        policy = solve(n).thresholds
        est = monte_carlo(n, policy, 10**6, 17)
        assert abs(est.mean - policy_value(policy, n)) <= 4 * est.std_error

    @pytest.mark.parametrize("n", [10, 57, 200])
    @pytest.mark.parametrize("shape", ["optimal", "late"])
    def test_agrees_with_dense_sampler(self, n, shape):
        policy = solve(n).thresholds if shape == "optimal" else (n // 4, 3 * n // 4)
        est = monte_carlo(n, policy, 10**6, 23)
        mean, se = dense_monte_carlo(n, policy, 60_000, 23)
        z = (est.mean - mean) / math.hypot(est.std_error, se)
        assert abs(z) <= 4, z


class TestEstimatorStatistics:
    def test_mean_tracks_exact_value(self):
        # exact value known in closed form; 30k trials, fixed seed
        exact = policy_value((1, 4), 10)
        est = monte_carlo(10, (1, 4), 30_000, 2)
        assert abs(est.mean - exact) < 4 * est.std_error
        assert 0.0 < est.std_error < 0.01

    @given(st.integers(2, 40), st.integers(0, 2**64 - 1))
    @settings(max_examples=15, deadline=None)
    def test_payoffs_in_unit_interval(self, n, seed):
        res = solve(n)
        est = monte_carlo(n, res.thresholds, 500, seed)
        assert 0.0 <= est.mean <= 1.0
