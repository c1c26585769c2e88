import functools
import itertools
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    continuation_fraction,
    continuation_whole,
    duration_pmf_loop,
    mean_operator_direct,
    payoff_fraction,
    payoff_from_pmf,
    payoff_tables,
    policy_value_fraction,
    policy_value_loop,
    solve_loop,
    solve_scan,
    state_values_whole,
)

from shelflife.asymptotic import phi_limit
from shelflife.cli import TABLE_NS
from shelflife.simulate import exhaustive_policy_value, monte_carlo
from shelflife import solver
from shelflife.solver import (
    PolicyThresholds,
    SolveResult,
    _TIE,
    _continuation,
    _last_true,
    _payoff_block,
    _rank1_continues,
    _rank1_margin,
    _rank2_continues,
    _rank2_margin,
    _sums,
    closed_form_value,
    duration_pmf,
    mean_operator,
    payoff,
    policy_value,
    solve,
    transition_prob,
)
from shelflife.special import _psi_exact, harmonic_diff, trigamma_diff


def permutation_duration_pmf(i, r, n):
    """End-time distribution by brute force over value permutations.

    Independent of the rank-pattern formulas: for each permutation of 1..n in
    which the item at position i is relatively r-th best, the candidacy ends
    at the first t > i where at least two of the first t values beat it.
    """
    counts = {}
    matched = 0
    for perm in itertools.permutations(range(1, n + 1)):
        rank = sum(1 for x in perm[:i] if x <= perm[i - 1])
        if rank != r:
            continue
        matched += 1
        end = n + 1
        for t in range(i + 1, n + 1):
            if sum(1 for x in perm[:t] if x < perm[i - 1]) >= 2:
                end = t
                break
        counts[end] = counts.get(end, 0) + 1
    return {k: v / matched for k, v in counts.items()}


def _bits(pmf):
    return [(k, p.hex()) for k, p in pmf.items()]


class TestDurationPmf:
    def test_second_best_small(self):
        assert duration_pmf(2, 2, 3) == pytest.approx({3: 2 / 3, 4: 1 / 3})

    def test_best_at_horizon_survives(self):
        assert duration_pmf(5, 1, 5) == {6: 1.0}
        assert duration_pmf(7, 2, 7) == {8: 1.0}

    def test_best_small(self):
        pmf = duration_pmf(2, 1, 4)
        assert pmf[3] == 0.0  # a best item cannot drop out one step later
        assert pmf[4] == pytest.approx(1 / 6, abs=1e-15)
        assert pmf[5] == pytest.approx(5 / 6, abs=1e-15)

    def test_against_permutation_enumeration(self):
        n = 6
        for i in range(1, n + 1):
            for r in (1, 2):
                if r > i:
                    continue
                brute = permutation_duration_pmf(i, r, n)
                pmf = duration_pmf(i, r, n)
                assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
                for k in range(i + 1, n + 2):
                    assert pmf.get(k, 0.0) == pytest.approx(
                        brute.get(k, 0.0), abs=1e-12
                    ), (i, r, k)

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_normalization(self, n, data):
        i = data.draw(st.integers(1, n))
        r = data.draw(st.integers(1, min(2, i)))
        pmf = duration_pmf(i, r, n)
        assert abs(math.fsum(pmf.values()) - 1.0) <= 1e-12
        assert all(-1e-15 <= p <= 1.0 + 1e-15 for p in pmf.values())

    def test_bits_match_loop_small_n(self):
        for n in range(2, 61):
            for i in range(1, n + 1):
                for r in (1, 2)[:i]:
                    assert _bits(duration_pmf(i, r, n)) == _bits(duration_pmf_loop(i, r, n))

    @pytest.mark.parametrize("i", [1, 2, 3, 17, 500, 4999, 9998, 9999, 10000])
    def test_bits_match_loop_1e4(self, i):
        for r in (1, 2)[:i]:
            assert _bits(duration_pmf(i, r, 10**4)) == _bits(duration_pmf_loop(i, r, 10**4))

    # 2^21: the denominator (k-2)(k-1)k leaves int64; 94906267: the largest k
    # with (k-2)(k-1) <= 2^53, where the array path changes branch; 2^27:
    # (k-2)(k-1) passes 2^54, so a float64 triple product rounds twice
    @pytest.mark.parametrize("k", [2**21, 94906267, 2**27])
    @pytest.mark.parametrize("r", [1, 2])
    def test_bits_match_loop_large_k(self, k, r):
        for i, n in ((k - 1000, k + 1000), (k - 1000, k), (k, k + 1000)):
            pmf = duration_pmf(i, r, n)
            assert _bits(pmf) == _bits(duration_pmf_loop(i, r, n))
            assert all(type(p) is float for p in pmf.values())

    # past 2^63 the times leave int64; at 10^102, (k-2)(k-1)k is near the float maximum
    @pytest.mark.parametrize("n", [2**63 + 10, 10**20, 10**102], ids=["2^63+10", "1e20", "1e102"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_bits_match_loop_huge_n(self, n, r):
        for i in (n - 5, n):
            pmf = duration_pmf(i, r, n)
            assert _bits(pmf) == _bits(duration_pmf_loop(i, r, n))
            assert all(type(p) is float for p in pmf.values())

    def test_domain(self):
        with pytest.raises(ValueError):
            duration_pmf(1, 2, 5)  # rank 2 impossible at time 1
        with pytest.raises(ValueError):
            duration_pmf(6, 1, 5)
        with pytest.raises(ValueError):
            duration_pmf(2, 3, 5)
        with pytest.raises(ValueError, match="at most 10..102"):
            duration_pmf(10**103, 1, 10**103)  # (k-2)(k-1)k would overflow a float


class TestPayoff:
    def test_last_item(self):
        for n in (2, 10, 137):
            assert payoff(n, 2, n) == pytest.approx(1 / n, abs=0)
            assert payoff_from_pmf(n, 1, n) == pytest.approx(1 / n, abs=1e-15)

    def test_known_value(self):
        assert payoff(4, 2, 10) == pytest.approx(0.28, abs=1e-15)
        assert payoff_from_pmf(4, 2, 10) == pytest.approx(0.28, abs=1e-13)

    def test_pmf_expectation_matches(self):
        assert payoff(3, 1, 5) == pytest.approx(payoff_from_pmf(3, 1, 5), abs=1e-14)
        assert payoff(1, 1, 10) == pytest.approx(payoff_from_pmf(1, 1, 10), abs=1e-14)

    def test_non_candidate_rank_is_worthless(self):
        assert payoff(5, 3, 10) == 0.0
        assert payoff(5, 7, 10) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            payoff(0, 1, 10)
        with pytest.raises(ValueError):
            payoff(11, 1, 10)
        with pytest.raises(ValueError):
            payoff(3, 0, 10)
        with pytest.raises(ValueError):
            payoff(3, 1, 1)

    @pytest.mark.parametrize(
        "evaluate",
        [lambda k: payoff(k, 1, 10), lambda k: duration_pmf(k, 1, 10),
         lambda k: mean_operator(k, 10)],
        ids=["payoff", "duration_pmf", "mean_operator"],
    )
    @pytest.mark.parametrize("k", [2.0, 2.5, True])
    def test_time_must_be_an_integer(self, evaluate, k):
        with pytest.raises(ValueError):
            evaluate(k)

    @pytest.mark.parametrize(
        "evaluate",
        [lambda r: payoff(2, r, 10), lambda r: duration_pmf(2, r, 10),
         lambda r: phi_limit(0.5, r)],
        ids=["payoff", "duration_pmf", "phi_limit"],
    )
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, True, "1"])
    def test_rank_must_be_an_integer(self, evaluate, r):
        with pytest.raises(ValueError):
            evaluate(r)

    def test_rank1_dominates_rank2(self):
        for n in (2, 3, 17, 300):
            for k in range(2, n + 1):
                assert payoff(k, 1, n) >= payoff(k, 2, n)

    def test_rank1_first_differences_decreasing(self):
        n = 200
        phi = [payoff(k, 1, n) for k in range(1, n + 1)]
        diffs = np.diff(phi)
        assert np.all(np.diff(diffs) < 0)

    def test_in_unit_interval(self):
        for n in (2, 9, 250):
            for k in range(1, n + 1):
                for r in (1, 2):
                    assert 0.0 <= payoff(k, r, n) <= 1.0


class TestTransitionProb:
    def test_small_cases(self):
        assert transition_prob(2, 3, 3) == pytest.approx(1 / 3, abs=1e-15)
        assert transition_prob(2, 3, 10) == pytest.approx(1 / 3, abs=1e-15)

    def test_adjacent_simplifies(self):
        for n in (3, 10, 50):
            assert transition_prob(n - 1, n, n) == pytest.approx(1 / n, abs=1e-15)

    def test_absorption(self):
        assert transition_prob(2, None, 3) == pytest.approx(1 / 3, abs=1e-15)
        assert transition_prob(10, None, 10) == 1.0

    @given(st.integers(3, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_normalization(self, n, data):
        k = data.draw(st.integers(2, n))
        row = 2.0 * math.fsum(transition_prob(k, s, n) for s in range(k + 1, n + 1))
        assert abs(row + transition_prob(k, None, n) - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            transition_prob(1, 2, 10)
        with pytest.raises(ValueError):
            transition_prob(5, 5, 10)
        with pytest.raises(ValueError):
            transition_prob(5, 11, 10)


class TestMeanOperator:
    def test_no_future_candidates(self):
        assert mean_operator(10, 10) == pytest.approx(0.0, abs=1e-15)
        assert mean_operator_direct(10, 10) == 0.0

    def test_matches_direct_sum(self):
        for k, n in [(2, 10), (2, 5), (3, 100), (40, 41), (10, 500)]:
            assert mean_operator(k, n) == pytest.approx(
                mean_operator_direct(k, n), abs=1e-12
            )

    def test_covers_k_equal_one(self):
        # closed form extends to k=1 (direct sum starts at k=2)
        assert mean_operator(1, 5) > 0.0
        with pytest.raises(ValueError):
            mean_operator_direct(1, 5)

    def test_stop_boundary_at_n_1000(self):
        # rank-2 stop region starts at 418, matching the threshold k2 = 417
        assert payoff(417, 2, 1000) < mean_operator(417, 1000)
        assert payoff(418, 2, 1000) >= mean_operator(418, 1000)

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_operator(0, 5)
        with pytest.raises(ValueError):
            mean_operator(6, 5)


class TestSolve:
    def test_smallest_horizons(self):
        res = solve(3)
        assert res.thresholds == (0, 0)
        assert res.value == pytest.approx(8 / 9, abs=1e-14)
        assert solve(4).value == pytest.approx(19 / 24, abs=1e-14)

    def test_reference_rows(self):
        for n, k1, k2, v in [
            (10, 1, 4, 0.527526),
            (100, 12, 41, 0.415064),
            (1000, 120, 417, 0.404944),
        ]:
            res = solve(n)
            assert res.thresholds == (k1, k2)
            assert res.value == pytest.approx(v, abs=5e-7)

    def test_degenerate_thresholds_are_canonical(self):
        # below n=9 it is optimal to take the very first item; k2 is then
        # unreachable and reported as 0
        for n in range(2, 9):
            res = solve(n)
            assert res.thresholds == (0, 0)
            assert res.value == pytest.approx(payoff(1, 1, n), abs=0)
        assert solve(9).thresholds == (1, 3)

    def test_continuation_shape(self):
        res = solve(30)
        cont = res.continuation
        assert res.value == cont[1]
        assert cont[31] == 0.0
        assert np.all(np.diff(cont[1:31]) <= 0.0)

    def test_flat_below_first_threshold(self):
        res = solve(100)
        k1 = res.thresholds.k1
        head = res.continuation[1 : k1 + 2]
        assert np.all(head == head[0])

    def test_continuation_against_exact_rationals(self):
        # all three stop regions under (k1, searched k2); measured worst 2.24e-16,
        # at n = 120, k = 48
        for n in [*range(2, 121), 300, 1000]:
            res = solve(n)
            exact = continuation_fraction((res.thresholds.k1, res._k2), n)
            err = max(abs(Fraction(c) - e) for c, e in zip(res.continuation.tolist(), exact))
            assert err <= 4e-16, n

    def test_state_values(self):
        n = 30
        res = solve(n)
        for k in range(1, n + 1):
            cont_next = res.continuation[k + 1]
            assert res.state_values[1, k] == max(payoff(k, 1, n), cont_next)
            if k >= 2:
                assert res.state_values[2, k] == max(payoff(k, 2, n), cont_next)
        assert np.isnan(res.state_values[2, 1])

    @given(st.integers(2, 120))
    @settings(max_examples=40, deadline=None)
    def test_threshold_order_and_consistency(self, n):
        res = solve(n)
        k1, k2 = res.thresholds
        assert 0 <= k1 <= k2 <= n
        assert 0.0 <= res.value <= 1.0
        assert policy_value(res.thresholds, n) == pytest.approx(res.value, abs=1e-12)

    @given(st.integers(2, 80), st.data())
    @settings(max_examples=40, deadline=None)
    def test_no_policy_beats_solve(self, n, data):
        k1 = data.draw(st.integers(0, n))
        k2 = data.draw(st.integers(k1, n))
        assert policy_value((k1, k2), n) <= solve(n).value + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            solve(1)
        with pytest.raises(ValueError):
            solve(2.5)


class TestBackwardInductionKernel:
    """solve and policy_value against the per-k loop oracle."""

    @staticmethod
    def check_against_loop(n):
        res, ref = solve(n), solve_loop(n)
        assert res.thresholds == ref.thresholds
        np.testing.assert_allclose(res.continuation, ref.continuation, rtol=0, atol=1e-13)
        np.testing.assert_allclose(res.state_values, ref.state_values, rtol=0, atol=1e-13)

    @given(st.integers(2, 3000))
    @settings(max_examples=200, deadline=None)
    def test_matches_loop(self, n):
        self.check_against_loop(n)

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_matches_loop_large(self, n):
        self.check_against_loop(n)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_matches_loop_every_small_n(self, n):
        # below n = 9 the thresholds are the canonical (0, 0), but the arrays
        # must follow the k2 that the search found
        self.check_against_loop(n)

    @given(st.integers(2, 3000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_policy_value_matches_loop(self, n, data):
        k1 = data.draw(st.integers(0, n))
        k2 = data.draw(st.integers(k1, n))
        assert policy_value((k1, k2), n) == pytest.approx(
            policy_value_loop((k1, k2), n), abs=1e-13
        )

    def test_policy_value_of_optimum_is_the_value(self):
        """solve reads its value from the float sums of its searches' tests, not
        from policy_value, and must still equal it bit for bit: k1 = 0 (n < 9),
        300 random horizons up to 10^16 and the near-tie horizons included."""
        rng = random.Random(20261018)
        ns = list(range(2, 400)) + [10**4, 10**6] + [rng.randint(2, 10**16) for _ in range(300)]
        for n in ns + [10**12, 10**15, 10**50, 10**80, 10**154]:
            res = solve(n)
            assert res.value.hex() == policy_value(res.thresholds, n).hex(), n
        assert [n for n in range(2, 400) if solve(n).thresholds.k1 == 0] == list(range(2, 9))

    @staticmethod
    def check_one_sided(n):
        # phi_r(k) < w~(k+1) exactly for k <= k_r: the single crossing that
        # lets each stop region be summed in one pass
        res = solve(n)
        phi1, phi2, _ = payoff_tables(n)
        k = np.arange(n + 1)
        nxt = res.continuation[1:]
        for r, phi in ((1, phi1), (2, phi2)):
            below = (phi < nxt)[r:]
            assert np.array_equal(below, k[r:] <= res.thresholds[r - 1]), (n, r)

    @given(st.integers(9, 3000))
    @settings(max_examples=100, deadline=None)
    def test_stop_regions_are_one_sided(self, n):
        self.check_one_sided(n)

    def test_stop_regions_are_one_sided_to_400(self):
        # n <= 8 reports the canonical (0, 0), while the continuation follows the
        # searched k2: at n = 5..8, phi(k, 2) < w~(k+1) at some k > 0, so the
        # rank-2 region is not one-sided there (at n = 8, phi(2, 2) = 0.21875 <
        # w~(3) = 0.4446); every other n in 2..400 holds
        for n in range(9, 401):
            self.check_one_sided(n)


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockwiseArrays:
    """continuation and state_values are filled `solver.ROWS` rows at a time
    straight into their results: the same bits as the whole-array oracles,
    for any block size, and no whole-horizon temporary beside the result."""

    HORIZONS = ([*range(2, 300), 1022, 1023, 1024, 1025, 2047, 2048, 3075, 10**5, 10**6]
                + random.Random(20261019).sample(range(300, 2 * 10**5), 16))

    @staticmethod
    def pairs(n):
        """(k1, k2, value): the solved k1 with the searched k2, and pairs that leave
        one stop region empty or give it one row."""
        res = solve(n)
        pairs = {(res.thresholds.k1, res._k2), (0, 0), (0, 1), (0, 2), (0, n // 3), (0, n),
                 (n // 4, n // 3), (n - 2, n), (n - 1, n)}
        return [(k1, k2, policy_value((k1, k2), n)) for k1, k2 in sorted(pairs)
                if 0 <= k1 < k2 or k1 == k2 == 0]

    def test_continuation_bits(self):
        for n in self.HORIZONS:
            for k1, k2, value in self.pairs(n):
                args = k1, k2, n, value
                assert _continuation(*args).tobytes() == continuation_whole(*args).tobytes(), args

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_continuation_bits_any_block_size(self, monkeypatch, rows):
        monkeypatch.setattr(solver, "ROWS", rows)
        for n in [*range(2, 40), 100, 299]:
            for k1, k2, value in self.pairs(n):
                args = k1, k2, n, value
                assert _continuation(*args).tobytes() == continuation_whole(*args).tobytes(), args

    @pytest.mark.parametrize("rows", [1, 3, 1024])
    def test_state_values_bits(self, monkeypatch, rows):
        monkeypatch.setattr(solver, "ROWS", rows)
        for n in [*range(2, 40), 299] + ([3075, 10**5] if rows > 3 else []):
            res = solve(n)
            want = state_values_whole(res.continuation, n)
            assert res.state_values.tobytes() == want.tobytes(), n

    def test_continuation_peak_is_its_result(self):
        n = 10**6
        res = solve(n)
        assert _traced_peak(lambda: res.continuation) < 8 * (n + 2) + 2**20

    def test_state_values_peak_is_its_result(self):
        n = 10**6
        res = solve(n)
        res.continuation
        assert _traced_peak(lambda: res.state_values) < 24 * (n + 1) + 2**20


class TestThresholdSearch:
    """The galloping search: exhaustively on a synthetic test, against a scan
    of the full tables, and its answer independent of the starting guess."""

    @pytest.mark.parametrize("lo", [1, 2])
    def test_every_cut_and_guess(self, lo):
        for hi in range(lo - 1, lo + 20):
            for cut in range(lo - 1, hi + 1):

                def test(k, tag, cut=cut, hi=hi):
                    assert lo <= k <= hi
                    return (tag, k) if k <= cut else None

                want = (cut, ("tag", cut)) if cut >= lo else (0, None)
                for guess in range(lo - 3, hi + 4):
                    got = _last_true(test, lo, hi, guess, "tag")
                    assert got == want, (hi, cut, guess)

    @pytest.mark.parametrize("n", [10**6, 10**7])
    def test_matches_scan(self, n):
        assert solve(n).thresholds == solve_scan(n)

    @staticmethod
    def search_from_guesses(test, lo, hi, rng, *args):
        """The one (answer, result of the test there) of the search from lo, hi
        and 20 random guesses."""
        test = functools.cache(test)  # only shares evaluations between the searches
        guesses = [lo, hi] + [rng.randint(lo, max(lo, hi)) for _ in range(20)]
        found = {_last_true(test, lo, hi, g, *args) for g in guesses}
        assert len(found) == 1, (lo, hi, found)
        return found.pop()

    def test_answer_does_not_depend_on_the_guess(self):
        rng = random.Random(20260814)
        for n in range(2, 3001):
            k2, E = self.search_from_guesses(_rank2_continues, 2, n, rng, n, _psi_exact)
            k1, sums = self.search_from_guesses(_rank1_continues, 1, k2 - 1, rng,
                                                k2, n, _psi_exact, E)
            assert solve(n).thresholds == (k1, k2 if k1 else 0), n
            if k1:  # the sums of the test at each answer
                assert (E, sums) == (harmonic_diff(k2, n), _sums(k1, k2, n)), n

    # n in 10..20000 where the rules floor(bn + delta2) and floor(an + 0.0783) miss
    # (tests/test_asymptotic.py::TestThresholdRules)
    K2_MISSES, K1_MISSES = {57}, {16, 41, 124, 531, 7243, 8082, 19936}

    def test_each_search_tests_its_answer_and_the_next_k(self, monkeypatch):
        """Started at the second-order rules, each search evaluates its margin
        at the answer and one above, wherever the rule is exact.  psi(n) -
        psi(k2) is computed once, by the test at k2, and the value needs
        neither policy_value nor closed_form_value."""
        calls = []

        def harmonic(k, n):
            calls.append((k, n))
            return harmonic_diff(k, n)

        def not_called(*args):
            raise AssertionError(f"called with {args}")

        monkeypatch.setattr("shelflife.solver.harmonic_diff", harmonic)
        monkeypatch.setattr("shelflife.solver.policy_value", not_called)
        monkeypatch.setattr("shelflife.solver.closed_form_value", not_called)
        for n in range(10, 20001):
            calls.clear()
            k1, k2 = solve(n).thresholds
            assert calls.count((k2, n)) == 1, n
            rank2 = [c for c in calls if c[1] == n]  # psi(n) - psi(k) of the k2 search
            rank1 = [c for c in calls if c[1] == k2]  # psi(k2) - psi(k) of the k1 search
            assert len(rank2) + len(rank1) == len(calls), n
            if n not in self.K2_MISSES:
                assert rank2 == [(k2, n), (k2 + 1, n)], n
            if n not in self.K1_MISSES:
                assert rank1 == [(k1, k2), (k1 + 1, k2)], n

    def test_no_length_n_array(self):
        tracemalloc.start()
        try:
            solve(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


# (n, k1, k2, value.hex()) of solve, recorded so that no rewrite of the threshold search
# drifts silently: k1 = 0 up to 8, the table rows, the horizons where the second-order
# rules miss (TestThresholdSearch), two horizons where the float sign alone gives a wrong
# k2 (TestValueAccuracy), 2^53 and the huge horizons, where nearly every search step is
# settled in Decimal.
GOLDEN_SOLVE = [
    (2, 0, 0, "0x1.0000000000000p+0"),
    (3, 0, 0, "0x1.c71c71c71c71cp-1"),
    (4, 0, 0, "0x1.9555555555555p-1"),
    (5, 0, 0, "0x1.6d3a06d3a06d5p-1"),
    (6, 0, 0, "0x1.4ccccccccccccp-1"),
    (7, 0, 0, "0x1.3227b4c470d96p-1"),
    (8, 0, 0, "0x1.1be2be2be2be3p-1"),
    (9, 1, 3, "0x1.11b8a9c37fc62p-1"),
    (10, 1, 4, "0x1.0e17f2903a14ap-1"),
    (16, 1, 6, "0x1.e710c378d2b3ep-2"),
    (20, 2, 8, "0x1.db807cdadf1c9p-2"),
    (30, 3, 12, "0x1.c59ba2106597ap-2"),
    (40, 4, 16, "0x1.bab36c4eb7048p-2"),
    (41, 4, 17, "0x1.b98c88d68b1c0p-2"),
    (50, 6, 21, "0x1.b4a4f7cd02501p-2"),
    (57, 6, 23, "0x1.b1c453001aa04p-2"),
    (60, 7, 25, "0x1.b0fe9c1a4201ap-2"),
    (70, 8, 29, "0x1.ae39b79f6e903p-2"),
    (80, 9, 33, "0x1.ac0e8479b538cp-2"),
    (90, 10, 37, "0x1.aa505ebfecc88p-2"),
    (100, 12, 41, "0x1.a906975a82f68p-2"),
    (124, 14, 51, "0x1.a6bee57e9857ap-2"),
    (200, 24, 83, "0x1.a341d09de619bp-2"),
    (500, 60, 208, "0x1.9fcf1cf79f27ap-2"),
    (531, 63, 221, "0x1.9fabb0a26a1fcp-2"),
    (1000, 120, 417, "0x1.9ea9a32b5d6bbp-2"),
    (7243, 871, 3021, "0x1.9dad1fb8c4018p-2"),
    (8082, 972, 3371, "0x1.9da8eec2f526fp-2"),
    (10**4, 1203, 4172, "0x1.9da1fe97f0f0ap-2"),
    (19936, 2399, 8317, "0x1.9d936b3e603dep-2"),
    (20000, 2407, 8343, "0x1.9d935f6ef4952p-2"),
    (10**5, 12038, 41719, "0x1.9d87ace9ec9aep-2"),
    (10**6, 120381, 417188, "0x1.9d850b31917ddp-2"),
    (10**7, 1203813, 4171883, "0x1.9d84c7d284196p-2"),
    (10**9, 120381306, 417188356, "0x1.9d84c06957e64p-2"),
    (10**12, 120381306663, 417188356134, "0x1.9d84c05632fc6p-2"),
    (5662304048378, 681635560066, 2362247317875, "0x1.9d84c0562ef22p-2"),
    (10**15, 120381306662927, 417188356134188, "0x1.9d84c0562e159p-2"),
    (7690721099070565, 925819055086256, 3208479292807769, "0x1.9d84c0562e14ap-2"),
    (2**53, 1084298415659062, 3757698650458483, "0x1.9d84c0562e14ap-2"),
    (2**53 + 1, 1084298415659062, 3757698650458483, "0x1.9d84c0562e146p-2"),
    (10**16, 1203813066629269, 4171883561341886, "0x1.9d84c0562e14ap-2"),
    (10**20, 12038130666292696345, 41718835613418861396, "0x1.9d84c0562e148p-2"),
    (10**30,
     120381306662926963453899672925,
     417188356134188613958923989446,
     "0x1.9d84c0562e148p-2"),
    (10**45,
     120381306662926963453899672925408769128615020,
     417188356134188613958923989446229795872254327,
     "0x1.9d84c0562e148p-2"),
    (10**50,
     12038130666292696345389967292540876912861502022237,
     41718835613418861395892398944622979587225432701833,
     "0x1.9d84c0562e148p-2"),
    (10**80,
     12038130666292696345389967292540876912861502022237063575837925011610102186035182,
     41718835613418861395892398944622979587225432701832894849049733155389292111132939,
     "0x1.9d84c0562e146p-2"),
    (10**100,
     1203813066629269634538996729254087691286150202223706357583792501161010218603518212790350013830095569,
     4171883561341886139589239894462297958722543270183289484904973315538929211113293962399040175503720036,
     "0x1.9d84c0562e148p-2"),
    (10**154,
     1203813066629269634538996729254087691286150202223706357583792501161010218603518212790350013830095569317484687500114756878458015429541976780459944288666890,
     4171883561341886139589239894462297958722543270183289484904973315538929211113293962399040175503720036597577030270087145829757292996998047620597241103158683,
     "0x1.9d84c0562e147p-2"),
]


@pytest.mark.parametrize("n, k1, k2, bits", GOLDEN_SOLVE,
                         ids=[str(n) if n < 10**17 else f"1e{len(str(n)) - 1}" for n, *_ in GOLDEN_SOLVE])
def test_solve_matches_recorded_values(n, k1, k2, bits):
    res = solve(n)
    assert (res.thresholds, res.value.hex()) == ((k1, k2), bits)


def mp_closed_form(k1, k2, n):
    """closed_form_value's formula in mpmath at the working precision."""
    k1, k2, n = map(mpmath.mpf, (k1, k2, n))
    D = mpmath.digamma(k2) - mpmath.digamma(k1)
    E = mpmath.digamma(n) - mpmath.digamma(k2)
    Q = mpmath.polygamma(1, k1) - mpmath.polygamma(1, k2)
    head = (k1 / n**2) * ((2 - n) * D + (k2 - k1) + n * (D * D - Q) + 2 * n * D * E)
    return head + 2 * k1 * k2 / n**2 - 2 * k1 / n + (2 * k1 / n) * E


def mp_phi1(k, n):
    """payoff(k, 1, n)'s closed form in mpmath at the working precision."""
    x = mpmath.mpf(k) / n
    return x / n * (1 + k - n + 2 * n * (mpmath.digamma(n) - mpmath.digamma(k)))


def mp_mean_operator(k, n):
    """mean_operator(k, n)'s closed form in mpmath at the working precision."""
    x = mpmath.mpf(k) / n
    return 2 * (x * x - x + x * (mpmath.digamma(n) - mpmath.digamma(k)))


class TestPayoffBlock:
    """The payoff kernel behind payoff, mean_operator, the solver's arrays and
    --table-out: each cell a function of (k, n) alone, so a one-row block, a
    whole-horizon block and any split of k into blocks give the same bits."""

    @pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 1000, 70000])
    def test_one_row_and_split_blocks_are_bit_identical(self, n):
        phi1, phi2 = _payoff_block(1, n + 1, n)
        rng = np.random.default_rng(n)
        cuts = sorted({1, n + 1, *range(1, n + 1, 1 << 16), *rng.integers(1, n + 2, 20).tolist()})
        parts = [_payoff_block(a, b, n) for a, b in zip(cuts, cuts[1:])]
        for r, whole in ((0, phi1), (1, phi2)):
            assert np.concatenate([p[r] for p in parts]).tobytes() == whole.tobytes(), (r, cuts)
        ks = range(1, n + 1)
        if n > 1000:  # the edges, the block boundary at 65,536 rows and a sample
            ks = sorted({*range(1, 41), *range(n - 40, n + 1), 65535, 65536, 65537,
                         *rng.integers(1, n + 1, 500).tolist()})
        for k in ks:
            one1, one2 = _payoff_block(k, k + 1, n)
            assert (one1.tobytes(), one2.tobytes()) == (phi1[k - 1 : k].tobytes(),
                                                        phi2[k - 1 : k].tobytes()), k
            assert payoff(k, 1, n) == phi1[k - 1], k
            assert payoff(k, 2, n) == phi2[k - 1], k
            assert mean_operator(k, n) == phi1[k - 1] - phi2[k - 1], k

    def test_against_40_digits(self):
        n = 10**6
        rng = np.random.default_rng(20261018)
        ks = [1, 2, 3, 31, 32, 33, 1000, n - 32, n - 31, n - 1, n]
        with mpmath.workdps(40):
            for k in ks + rng.integers(1, n + 1, 200).tolist():
                phi1 = mp_phi1(k, n)
                assert abs(payoff(k, 1, n) - phi1) <= 2e-15 * phi1, k
                assert abs(mean_operator(k, n) - mp_mean_operator(k, n)) <= 1e-15, k

    def test_point_queries_at_1e15(self):
        n = 10**15
        with mpmath.workdps(40):
            for got, want in [(payoff(1, 1, n), mp_phi1(1, n)),
                              (mean_operator(7, n), mp_mean_operator(7, n)),
                              (policy_value((5, 5), n), mp_mean_operator(5, n)),
                              (policy_value((0, 0), n), mp_phi1(1, n))]:
                assert math.isfinite(got) and abs(got - want) <= 2e-15 * want, (got, want)

    def test_point_queries_keep_nothing(self):
        tracemalloc.start()
        try:
            for n in range(10**6, 10**6 + 8):
                payoff(3, 1, n), payoff(400000, 2, n), mean_operator(5, n)
                policy_value((5, 5), n), policy_value((0, 0), n)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1e6 and peak < 1e6


def _as_int64(x):
    if isinstance(x, tuple):
        return tuple(map(_as_int64, x))
    return x if x is None else np.int64(x)


class TestNumpyIntegerArguments:
    """Integer arguments are taken as Python ints, so a numpy int64 gives the
    same result as an int even where products of the horizon pass 2^63."""

    N = 5 * 10**9

    @pytest.mark.parametrize("fn, args", [
        (payoff, (4 * 10**9, 1, N)),
        (payoff, (4 * 10**9, 2, N)),
        (payoff, (4 * 10**9, 3, N)),
        (mean_operator, (4 * 10**9, N)),
        (transition_prob, (4 * 10**9, None, N)),
        (transition_prob, (4 * 10**9, 4 * 10**9 + 7, N)),
        (duration_pmf, (N - 40, 1, N)),
        (duration_pmf, (N - 40, 2, N)),
        (policy_value, ((601906533, 2085941780), N)),
        (policy_value, ((5, 5), N)),
        (policy_value, ((0, 0), N)),
        (closed_form_value, (601906533, 2085941780, N)),
        (solve, (N,)),
        (harmonic_diff, (4 * 10**9, N)),
        (trigamma_diff, (4 * 10**9, N)),
        (monte_carlo, (N, (601906533, 2085941780), 1000, 7)),
        (exhaustive_policy_value, ((1, 4), 10)),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v))
    def test_same_result_as_python_int(self, fn, args):
        got, want = fn(*_as_int64(args)), fn(*args)
        if isinstance(want, SolveResult):
            got, want = (got.thresholds, got.value), (want.thresholds, want.value)
        assert got == want


class TestHorizonBound:
    """Horizons above 10**154 are a domain error: the closed forms take
    1/n**2, and n * n is no longer a finite float from about 1.34e154."""

    @pytest.mark.parametrize(
        "n", [10**154 + 1, 10**155, 10**200], ids=["1e154+1", "1e155", "1e200"])
    @pytest.mark.parametrize("fn, args", [
        (solve, ()),
        (payoff, (1, 1)),
        (policy_value, ((5, 7),)),
        (closed_form_value, (5, 7)),
        (harmonic_diff, (1,)),
        (trigamma_diff, (1,)),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v))
    def test_rejected(self, fn, args, n):
        with pytest.raises(ValueError, match=r"10\*\*154"):
            fn(*args, n)

    def test_largest_horizon_is_finite(self):
        # solve(10**154) is checked in TestValueAccuracy; it takes about 0.8 s,
        # as nearly every step of its threshold search falls within the tie
        # band and is settled in Decimal
        n = 10**154
        values = (payoff(1, 1, n), payoff(n // 3, 2, n), mean_operator(7, n),
                  policy_value((5, 7), n), policy_value((5, 5), n), harmonic_diff(1, n))
        assert all(math.isfinite(v) and v > 0 for v in values)


class TestValueAccuracy:
    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6, 10**7, 10**9, 10**15])
    def test_value_against_40_digits(self, n):
        res = solve(n)
        with mpmath.workdps(40):
            assert abs(res.value - mp_closed_form(*res.thresholds, n)) <= 3e-16

    @pytest.mark.parametrize("n", [9, 10**6, 10**15, 5662304048378, 7690721099070565])
    def test_thresholds_are_exact_crossings_in_40_digits(self, n):
        """Each threshold is the last k at which continuing is strictly
        better; at 10^15 the float margins next to the crossings are 1e-16,
        and at the last two horizons the float sign alone gives a wrong k2
        (one below, one above), which the Decimal re-check of a near-tie
        settles."""
        self.assert_exact_crossings(n, 40)

    @pytest.mark.parametrize("n", [10**50, 10**80, 10**154], ids=["1e50", "1e80", "1e154"])
    def test_thresholds_are_exact_crossings_at_huge_horizons(self, n):
        """Where float64 cannot tell the margins apart next to a crossing, so
        the search settles them in Decimal; mpmath works at the solver's
        precision rule, digits(n) + 30."""
        self.assert_exact_crossings(n, len(str(n)) + 30)

    @staticmethod
    def assert_exact_crossings(n, dps):
        k1, k2 = solve(n).thresholds
        with mpmath.workdps(dps):

            def g(k):  # phi(k, 2) - M(k), over k/n
                return 3 - mpmath.mpf(3 * k - 1) / n - 2 * (mpmath.digamma(n) - mpmath.digamma(k))

            def d(k):  # phi(k, 1) - v~(k, k2)
                x = mpmath.mpf(k) / n
                phi = x / n * (1 + k - n + 2 * n * (mpmath.digamma(n) - mpmath.digamma(k)))
                return phi - mp_closed_form(k, k2, n)

            assert g(k2) < 0 <= g(k2 + 1)
            assert d(k1) < 0 <= d(k1 + 1)


def test_near_ties_evaluate_psi_of_each_argument_once(monkeypatch):
    """At 10^154 nearly every search step is a near-tie, and psi(n) and psi(k2)
    are the same at each: n is evaluated at most once per search, and the two
    searches make no more calls than their 1,825 distinct arguments."""
    calls = []

    def psi_exact(x):
        calls.append(x)
        return _psi_exact(x)

    monkeypatch.setattr("shelflife.solver._psi_exact", psi_exact)
    n = 10**154
    solve(n)
    assert calls.count(n) <= 2 and len(calls) <= 1825


class TestTieBand:
    """A float margin is re-evaluated in Decimal when it lies within
    _TIE * scale of zero.  That settles every sign the float could get wrong
    only while the float error stays well inside the band."""

    LADDER = [10**4, 10**6, 10**9, 10**12, 10**15, 10**20, 10**30, 10**45, 10**60,
              10**80, 10**100, 10**120, 10**154]

    @pytest.mark.parametrize("n", LADDER, ids=lambda n: f"1e{len(str(n)) - 1}")
    def test_float_error_inside_tie_band(self, n):
        k1, k2 = solve(n).thresholds
        with localcontext() as ctx:
            ctx.prec = len(str(n)) + 30
            psi = functools.cache(_psi_exact)
            cases = [(_rank2_margin, (k, n), n, (harmonic_diff(k, n),),
                      (psi(n)[0] - psi(k)[0],)) for k in range(k2 - 3, k2 + 4)]
            for k in range(k1 - 3, min(k1 + 4, k2)):
                (p_k, q_k), (p_k2, q_k2), (p_n, _) = psi(k), psi(k2), psi(n)
                cases.append((_rank1_margin, (k, k2, n), n * n / k, _sums(k, k2, n),
                              (p_k2 - p_k, p_n - p_k2, q_k - q_k2)))
            for margin, args, scale, floats, exact in cases:
                error = abs(Decimal(margin(*args, *floats)) - margin(*args, *exact))
                assert error < Decimal(_TIE * scale / 100), (margin.__name__, args)

    def test_no_tie_at_small_horizons(self):
        """Below n = 300 (k1 < 32 up to n = 265) no margin at any k comes
        near the band, so _psi_exact's truncation below argument 32 never
        decides a sign."""
        for n in range(2, 300):
            for k in range(2, n + 1):
                assert abs(_rank2_margin(k, n, harmonic_diff(k, n))) > 1e3 * _TIE * n, (n, k)
            k2, E = _last_true(_rank2_continues, 2, n, n // 2, n, _psi_exact)
            for k in range(1, k2):
                margin = _rank1_margin(k, k2, n, *_sums(k, k2, n, E))
                assert abs(margin) > 1e3 * _TIE * n * n / k, (n, k)


class TestAllStopIsTheMeanOperator:
    """After k2 every candidate is accepted, so the continuation there is the
    one-step mean operator, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_policy_k_k_is_the_mean_operator(self, n):
        for k in range(1, n + 1):
            assert policy_value((k, k), n) == mean_operator(k, n), k

    def test_policy_k_k_is_the_mean_operator_sampled(self):
        n = 10**5
        rng = np.random.default_rng(20260814)
        for k in [1, 2, n - 1, n] + rng.integers(1, n + 1, 200).tolist():
            assert policy_value((k, k), n) == mean_operator(k, n), k

    @pytest.mark.parametrize("n", [9, 10, 57, 100, 1000, 10**5])
    def test_continuation_after_k2(self, n):
        res = solve(n)
        for k in range(res.thresholds.k2, n + 1):
            assert res.continuation[k + 1] == mean_operator(k, n), k


class TestTableRowsExact:
    """Every row of the `table` output certified in exact rationals: each
    threshold is the last k at which continuing is strictly better."""

    @pytest.mark.parametrize("n", TABLE_NS)
    def test_thresholds_are_exact_crossings(self, n):
        k1, k2 = solve(n).thresholds

        def M(k):
            return policy_value_fraction((k, k), n)

        def v(k):
            return policy_value_fraction((k, k2), n)

        assert payoff_fraction(k2, 2, n) < M(k2)
        assert payoff_fraction(k2 + 1, 2, n) >= M(k2 + 1)
        assert payoff_fraction(k1, 1, n) < v(k1)
        assert payoff_fraction(k1 + 1, 1, n) >= v(k1 + 1)


class TestPolicyValue:
    def test_stop_at_last_candidate_only(self):
        # thresholds (2,2) at n=3: stop at time 3 iff it is a candidate
        assert policy_value((2, 2), 3) == pytest.approx(2 / 9, abs=1e-15)

    def test_never_stopping_earns_nothing(self):
        for n in (3, 7, 20):
            assert policy_value((n, n), n) == 0.0

    def test_stop_immediately(self):
        for n in (2, 7, 40):
            assert policy_value((0, 0), n) == payoff(1, 1, n)

    def test_rounding_error_against_exact_rationals(self):
        # measured worst: 5.0e-16
        for n in range(2, 201):
            res = solve(n)
            exact = policy_value_fraction(res.thresholds, n)
            assert abs(res.value - float(exact)) <= 1e-15, n

    def test_accepts_policy_thresholds(self):
        assert policy_value(PolicyThresholds(1, 4), 10) == pytest.approx(
            0.527526, abs=5e-7
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            policy_value((2, 1), 10)
        with pytest.raises(ValueError):
            policy_value((0, 11), 10)
        with pytest.raises(ValueError):
            policy_value((-1, 3), 10)


def closed_form_oracle(k1, k2, n):
    """Direct partial sum: hold out for rank 1 until k2, then stop on both."""
    head = math.fsum(
        k1 / (j * (j - 1)) * payoff(j, 1, n) for j in range(k1 + 1, k2 + 1)
    )
    return head + (k1 / k2) * mean_operator_direct(k2, n)


class TestClosedFormValue:
    def test_matches_direct_sum_on_random_pairs(self):
        rng = np.random.default_rng(20260814)
        for _ in range(20):
            n = int(rng.integers(5, 201))
            k1 = int(rng.integers(1, n))
            k2 = int(rng.integers(k1 + 1, n + 1))
            assert closed_form_value(k1, k2, n) == pytest.approx(
                closed_form_oracle(k1, k2, n), abs=1e-10
            ), (k1, k2, n)

    def test_optimal_thresholds_give_the_value(self):
        for n, v in [(10, 0.527526), (200, 0.409431)]:
            res = solve(n)
            cf = closed_form_value(*res.thresholds, n)
            assert cf == pytest.approx(res.value, abs=1e-12)
            assert cf == pytest.approx(v, abs=5e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_value(4, 4, 10)
        with pytest.raises(ValueError):
            closed_form_value(0, 4, 10)
        with pytest.raises(ValueError):
            closed_form_value(4, 11, 10)
