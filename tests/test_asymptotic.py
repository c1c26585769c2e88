import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad
from scipy.optimize import brentq

from shelflife.asymptotic import (
    _root,
    asymptotic_solution,
    limit_value_function,
    mean_operator_limit,
    phi_limit,
    solve_a,
    solve_b,
)
from shelflife.solver import mean_operator, payoff, solve

A_REF = 0.120381
B_REF = 0.417188
V_REF = 0.403827


class TestPhiLimit:
    def test_vanishes_at_one(self):
        assert phi_limit(1.0, 1) == 0.0
        assert phi_limit(1.0, 2) == 0.0

    def test_half(self):
        assert phi_limit(0.5, 1) == pytest.approx(0.25 + math.log(2) - 0.5, abs=1e-15)
        assert phi_limit(0.5, 2) == 0.25

    def test_finite_horizon_consistency(self):
        n = 10**6
        assert payoff(n // 2, 1, n) == pytest.approx(phi_limit(0.5, 1), abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_limit(0.0, 1)
        with pytest.raises(ValueError):
            phi_limit(1.5, 1)
        with pytest.raises(ValueError):
            phi_limit(0.5, 3)


class TestMeanOperatorLimit:
    def test_vanishes_at_one(self):
        assert mean_operator_limit(1.0) == 0.0

    def test_half(self):
        expected = 2 * (0.25 - 0.5 + 0.5 * math.log(2))
        assert mean_operator_limit(0.5) == pytest.approx(expected, abs=1e-15)
        assert mean_operator_limit(0.5) == pytest.approx(0.1931471805599453, abs=1e-15)

    def test_finite_horizon_consistency(self):
        n = 10**6
        assert mean_operator(n // 2, n) == pytest.approx(
            mean_operator_limit(0.5), abs=1e-5
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_operator_limit(-0.1)


class TestSolveB:
    def test_reference_value(self):
        assert solve_b() == pytest.approx(B_REF, abs=1e-6)

    def test_indifference_equation(self):
        b = solve_b()
        assert abs(mean_operator_limit(b) - phi_limit(b, 2)) < 1e-12

    def test_agrees_with_direct_root(self):
        # independent route: the closed form b = -(2/3) W0(-(3/2) e^{-3/2})
        closed = float(-2.0 / 3.0 * scipy.special.lambertw(-1.5 * math.exp(-1.5)).real)
        assert abs(solve_b() - closed) <= 2 * math.ulp(closed)


class TestRoot:
    """The one safeguarded Newton iteration behind both threshold fractions."""

    def test_no_sign_change_names_the_quantity(self):
        with pytest.raises(ArithmeticError, match="^root bracketing for c failed"):
            _root(lambda x: x * x + 1.0, lambda x: 2.0 * x, -1.0, 1.0, "c")

    def test_steps_that_leave_the_bracket_fall_back_to_bisection(self):
        def f(x):
            return math.atan(x - 0.3)

        def df(x):
            return 1.0 / (1.0 + (x - 0.3) ** 2)

        lo, hi = 0.0, 30.0
        mid = 0.5 * (lo + hi)
        assert not lo < mid - f(mid) / df(mid) < hi  # plain Newton would leave
        assert _root(f, df, lo, hi, "t") == 0.3

    def test_did_not_converge_message(self):
        # a slope of 0.52 for a line of slope 1 overshoots the root each step,
        # shrinking by a factor 0.923: still about 7e-5 off after 100 steps
        with pytest.raises(ArithmeticError, match="^root finding for t did not converge in"):
            _root(lambda x: x - 0.3, lambda x: 0.52, 0.0, 1.0, "t")


class TestLimitValueFunction:
    def test_empty_integral(self):
        b = solve_b()
        assert limit_value_function(b, b) == mean_operator_limit(b)

    def test_against_quadrature(self):
        b = solve_b()
        for x in (0.05, 0.12, 0.2, 0.3, 0.4):
            integral, err = quad(
                lambda t: (x / t**2) * phi_limit(t, 1), x, b,
                epsabs=1e-13, epsrel=1e-13,
            )
            expected = integral + (x / b) * mean_operator_limit(b)
            assert limit_value_function(x, b) == pytest.approx(expected, abs=1e-10)

    def test_reference_value_at_thresholds(self):
        assert limit_value_function(A_REF, B_REF) == pytest.approx(V_REF, abs=1e-5)

    def test_domain(self):
        b = solve_b()
        with pytest.raises(ValueError):
            limit_value_function(0.0, b)
        with pytest.raises(ValueError):
            limit_value_function(b + 0.01, b)

    @pytest.mark.parametrize("x, b, bad", [
        (math.nan, 0.4, "x"), (0.5, 0.4, "x"), (-0.1, 0.4, "x"),
        (0.1, math.nan, "b"), (0.1, 2.0, "b"), (0.1, 0.0, "b"), (-0.2, -0.1, "b"),
    ])
    def test_bad_argument_is_named(self, x, b, bad):
        with pytest.raises(ValueError, match=f"^{bad} must be in"):
            limit_value_function(x, b)


class TestSolveA:
    def test_reference_value(self):
        assert solve_a(solve_b()) == pytest.approx(A_REF, abs=1e-5)

    def test_root_residual(self):
        b = solve_b()
        a = solve_a(b)
        assert abs(limit_value_function(a, b) - phi_limit(a, 1)) < 1e-9

    def test_single_crossing(self):
        b = solve_b()
        a = solve_a(b)
        for x in (0.02, 0.05, 0.1, a - 1e-3):
            assert limit_value_function(x, b) >= phi_limit(x, 1)
        for x in (a + 1e-3, 0.2, 0.3, 0.4):
            assert limit_value_function(x, b) <= phi_limit(x, 1)

    def test_bracketing_failure_is_numeric_error(self):
        with pytest.raises(ArithmeticError):
            solve_a(1.2e-4)  # bracket [1e-4, b - 1e-4] collapses

    @pytest.mark.parametrize("b", [0.0, -1.0, 1e-4, 2e-4, 1.5, math.nan])
    def test_empty_or_invalid_bracket_is_numeric_error(self, b):
        with pytest.raises(ArithmeticError, match="root bracketing for a failed"):
            solve_a(b)

    def test_agrees_with_brentq_across_b(self):
        """Independent route: brentq on the undivided gap v~(x, b) - phi(x, 1)
        over the same bracket, wherever that bracket changes sign."""

        def gap(x, b):
            return limit_value_function(x, b) - phi_limit(x, 1)

        roots = 0
        grid = np.concatenate([np.geomspace(2.5e-4, 0.05, 40), np.linspace(0.05, 1.0, 96)])
        for b in grid.tolist():
            lo, hi = 1e-4, b - 1e-4
            if gap(lo, b) * gap(hi, b) < 0.0:
                ref = brentq(gap, lo, hi, args=(b,), xtol=1e-16, rtol=4 * np.finfo(float).eps)
                assert abs(solve_a(b) - ref) <= 1e-13, b
                roots += 1
            else:
                with pytest.raises(ArithmeticError):
                    solve_a(b)
        assert roots >= 120


def _mp_constants():
    """a, b and v~ in mpmath at the working precision: b through lambertw, a
    through findroot on the undivided gap, v~ through the antiderivative."""
    three_halves = mpmath.mpf(3) / 2
    b = -2 * mpmath.lambertw(-three_halves * mpmath.exp(-three_halves)).real / 3

    def anti(t):
        return t - mpmath.log(t) ** 2 - mpmath.log(t)

    tphi_b = 2 * (b * b - b - b * mpmath.log(b))

    def value(x):
        return x * (anti(b) - anti(x)) + (x / b) * tphi_b

    a = mpmath.findroot(
        lambda x: value(x) - (x * x - 2 * x * mpmath.log(x) - x), mpmath.mpf("0.12")
    )
    return a, b, value(a)


def _c1(a, b, log):
    """c1 in v_N = v~ + c1/N + O(1/N^2): closed_form_value expanded at
    k1 = aN, k2 = bN with psi(k) = log k - 1/(2k) + O(1/k^2).  The value is
    stationary in (k1, k2) at the optimum, so the O(1) offsets of the integer
    thresholds enter only at O(1/N^2)."""
    L = log(b / a)
    d = (1 / a - 1 / b) / 2
    e = (1 / b - 1) / 2
    return a * (2 * L + d * (2 * L - 2 * log(b) - 1) - 2 * d + 2 * L * e) + 2 * a * e


class TestHighPrecisionOracle:
    """a, b and v~ from mpmath at 30 digits."""

    @pytest.fixture(scope="class")
    def reference(self):
        with mpmath.workdps(30):
            return tuple(map(float, _mp_constants()))

    def test_constants(self, reference):
        # each constant is the correctly rounded float or one of its neighbours
        for got, ref in zip(asymptotic_solution(), reference):
            assert abs(got - ref) <= math.ulp(ref)

    def test_constants_bits(self):
        """solve starts its searches from a and b, and how many near-ties it
        meets depends on those starts, so a change to these bits should be
        deliberate."""
        sol = asymptotic_solution()
        assert sol.a.hex() == "0x1.ed14f2f2ac1b3p-4"
        assert sol.b.hex() == "0x1.ab336ca7792e7p-2"
        assert sol.value.hex() == "0x1.9d84c0562e146p-2"

    def test_richardson_extrapolation(self, reference):
        """v_N = v + c/N + O(1/N^2), so 2 v_{2N} - v_N reaches v without the
        Lambert W closed form."""
        v_ref = reference[2]
        extrapolated = 2.0 * solve(200_000).value - solve(100_000).value
        assert abs(extrapolated - v_ref) <= 1e-9

    def test_horizon_1e15(self, reference):
        a_ref, b_ref, v_ref = reference
        n = 10**15
        res = solve(n)
        assert abs(res.thresholds.k1 / n - a_ref) <= 1e-12
        assert abs(res.thresholds.k2 / n - b_ref) <= 1e-12
        assert abs(res.value - v_ref) <= 2e-15


class TestSecondOrderTerm:
    """v_N = v~ + c1/N + O(1/N^2), with c1 in closed form."""

    def test_c1_against_40_digits(self):
        with mpmath.workdps(40):
            a, b, _ = _mp_constants()
            ref = _c1(a, b, mpmath.log)
            assert mpmath.nstr(ref, 20) == "1.1154542648305850244"
        sol = asymptotic_solution()
        assert abs(_c1(sol.a, sol.b, math.log) - float(ref)) <= 1e-15

    def test_remainder_is_order_1_over_n_squared(self):
        # the maximum, 2.0125, is at N = 13
        a, b, v = asymptotic_solution()
        ns, _, _, v_n = _solve_10_to_20000()
        remainder = ns * ns * np.abs(v_n - v - _c1(a, b, math.log) / ns)
        assert remainder.max() <= 2.02

    def test_fourth_route_to_the_limit_value(self):
        # v_N - c1/N reaches v~ to O(1/N^2); measured 1.26/N^2 at N = 10^5
        a, b, v = asymptotic_solution()
        n = 100_000
        assert abs(solve(n).value - _c1(a, b, math.log) / n - v) <= 2 / n**2


class TestAsymptoticValue:
    def test_reference_value(self):
        assert asymptotic_solution().value == pytest.approx(V_REF, abs=1e-5)

    def test_consistent_with_solution_tuple(self):
        sol = asymptotic_solution()
        assert 0.0 < sol.a < sol.b < 1.0
        assert 0.0 < sol.value < 1.0
        assert asymptotic_solution() == sol
        assert sol.value == limit_value_function(sol.a, sol.b)

    def test_finite_horizon_gap(self):
        assert abs(solve(10_000).value - asymptotic_solution().value) <= 2e-4


class TestConvergenceLadder:
    def test_threshold_and_value_gaps_shrink(self):
        sol = asymptotic_solution()
        gaps_a, gaps_b, gaps_v = [], [], []
        for n in (100, 1_000, 10_000, 100_000):
            res = solve(n)
            gaps_a.append(abs(res.thresholds.k1 / n - sol.a))
            gaps_b.append(abs(res.thresholds.k2 / n - sol.b))
            gaps_v.append(abs(res.value - sol.value))
        for gaps in (gaps_a, gaps_b, gaps_v):
            # non-strict: k1/n happens to tie exactly between n=100 and n=1000
            assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:])), gaps


@functools.cache
def _solve_10_to_20000():
    ns = np.arange(10, 20001)
    results = [solve(int(n)) for n in ns]
    k1, k2 = np.array([res.thresholds for res in results]).T
    return ns, k1, k2, np.array([res.value for res in results])


class TestThresholdRules:
    """The abstract's k1 = floor(aN) and k2 = floor(bN) against solve at every
    N in 10..20000, and the offset rules that hold there up to listed N."""

    def test_k2_second_order_rule(self):
        # expanding phi(k, 2) = M(k) to order 1/N gives k2 = floor(bN + delta2)
        b = asymptotic_solution().b
        delta2 = (1 - 2 * b) / (5 - 6 * b + 2 * math.log(b))
        assert delta2 == pytest.approx(0.2212928, abs=1e-7)
        ns, _, k2, _ = _solve_10_to_20000()
        assert ns[k2 != np.floor(b * ns + delta2)].tolist() == [57]

    def test_k1_offset_rule(self):
        # an empirical offset, not yet derived from v~(x, b) = phi(x, 1)
        a = asymptotic_solution().a
        ns, k1, _, _ = _solve_10_to_20000()
        misses = ns[k1 != np.floor(a * ns + 0.0783)].tolist()
        assert misses == [16, 41, 124, 531, 7243, 8082, 19936]

    def test_abstract_rules_miss_often(self):
        a, b, _ = asymptotic_solution()
        ns, k1, k2, _ = _solve_10_to_20000()
        assert np.count_nonzero(k2 != np.floor(b * ns)) == 4422
        assert np.count_nonzero(k1 != np.floor(a * ns)) == 1559
