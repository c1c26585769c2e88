"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N [PASS|FAIL]`` line (replayed by the
``-rP`` flag set in pyproject.toml) and asserts both the numeric tolerance and
the runtime budget for that criterion.
"""

import math
import time

import numpy as np
from oracles import mean_operator_direct, payoff_from_pmf

from shelflife.asymptotic import (
    asymptotic_solution,
    mean_operator_limit,
    phi_limit,
    solve_a,
    solve_b,
)
from shelflife.simulate import exhaustive_policy_value, monte_carlo
from shelflife.solver import (
    closed_form_value,
    duration_pmf,
    mean_operator,
    payoff,
    policy_value,
    solve,
    transition_prob,
)

# (k1, k2, value) rows of the reference threshold/value table
TABLE = {
    10: (1, 4, 0.527526),
    20: (2, 8, 0.464357),
    30: (3, 12, 0.442977),
    40: (4, 16, 0.432325),
    50: (6, 21, 0.426411),
    60: (7, 25, 0.422846),
    70: (8, 29, 0.420142),
    80: (9, 33, 0.418024),
    90: (10, 37, 0.416322),
    100: (12, 41, 0.415064),
    200: (24, 83, 0.409431),
    500: (60, 208, 0.406064),
    1000: (120, 417, 0.404944),
}

A_REF = 0.120381
B_REF = 0.417188
V_REF = 0.403827


def _report(num, description, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} [{status}]: {description} — {detail} [{elapsed:.2f}s/"
          f"{budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_table_thresholds_exact():
    start = time.perf_counter()
    mismatches = []
    for n, (k1, k2, _) in TABLE.items():
        got = solve(n).thresholds
        if (got.k1, got.k2) != (k1, k2):
            mismatches.append((n, got))
    elapsed = time.perf_counter() - start
    _report(1, "optimal thresholds match all 13 reference rows exactly",
            not mismatches, f"mismatches: {mismatches or 'none'}", elapsed, 1.0)


def test_criterion_2_table_values():
    start = time.perf_counter()
    worst = max(abs(solve(n).value - row[2]) for n, row in TABLE.items())
    elapsed = time.perf_counter() - start
    _report(2, "optimal values match all 13 reference rows within 5e-7",
            worst <= 5e-7, f"worst |v_N - table| = {worst:.3e}", elapsed, 1.0)


def test_criterion_3_asymptotic_constants():
    start = time.perf_counter()
    b = solve_b()
    a = solve_a(b)
    v = asymptotic_solution().value
    errs = (abs(b - B_REF), abs(a - A_REF), abs(v - V_REF))
    ok = errs[0] <= 1e-6 and errs[1] <= 1e-5 and errs[2] <= 1e-5
    elapsed = time.perf_counter() - start
    _report(3, "limit constants b, a, v within 1e-6 / 1e-5 / 1e-5",
            ok, f"|Δb|={errs[0]:.1e} |Δa|={errs[1]:.1e} |Δv|={errs[2]:.1e}",
            elapsed, 1.0)


def test_criterion_4_large_n_convergence():
    start = time.perf_counter()
    n = 100_000
    res = solve(n)
    gaps = (
        abs(res.thresholds.k1 / n - A_REF),
        abs(res.thresholds.k2 / n - B_REF),
        abs(res.value - V_REF),
    )
    elapsed = time.perf_counter() - start
    _report(4, "N=1e5 thresholds and value within 5e-4 of the limits",
            max(gaps) <= 5e-4,
            f"|k1/N-a|={gaps[0]:.1e} |k2/N-b|={gaps[1]:.1e} |v-v_inf|={gaps[2]:.1e}",
            elapsed, 10.0)


def test_criterion_5_exhaustive_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    argmax_ok = True
    detail = []
    for n in range(2, 9):
        best_pair, best_val = None, -1.0
        for k1 in range(n + 1):
            for k2 in range(k1, n + 1):
                ex = exhaustive_policy_value((k1, k2), n)
                dp = policy_value((k1, k2), n)
                worst = max(worst, abs(ex - dp))
                if ex > best_val:  # first maximum in lexicographic order
                    best_pair, best_val = (k1, k2), ex
        res = solve(n)
        if best_pair != tuple(res.thresholds) or abs(best_val - res.value) > 1e-12:
            argmax_ok = False
            detail.append((n, best_pair, tuple(res.thresholds)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and argmax_ok
    _report(5, "exhaustive oracle matches DP on all pairs and argmax, n=2..8",
            ok, f"worst |exhaustive - dp| = {worst:.3e}, argmax mismatches: "
            f"{detail or 'none'}", elapsed, 120.0)


def test_criterion_6_identity_suite():
    start = time.perf_counter()
    worst_pmf = 0.0
    for n in (2, 3, 5, 10, 50, 150, 300):
        for k in range(1, n + 1):
            for r in (1, 2):
                if r > k:
                    continue
                worst_pmf = max(worst_pmf, abs(payoff(k, r, n) - payoff_from_pmf(k, r, n)))
    worst_mean = 0.0
    for n in (2, 3, 10, 100, 500):
        for k in range(2, n + 1):
            worst_mean = max(worst_mean, abs(mean_operator(k, n) - mean_operator_direct(k, n)))
    worst_cf = 0.0
    for n in (10, 50, 100, 500, 1000):
        res = solve(n)
        k1, k2 = res.thresholds
        cf = closed_form_value(k1, k2, n)
        worst_cf = max(worst_cf, abs(cf - float(res.continuation[k1 + 1])))
    elapsed = time.perf_counter() - start
    ok = worst_pmf <= 1e-12 and worst_mean <= 1e-12 and worst_cf <= 1e-10
    _report(6, "payoff/pmf, mean-operator, and closed-form identities hold",
            ok, f"pmf={worst_pmf:.1e} mean-op={worst_mean:.1e} closed-form="
            f"{worst_cf:.1e}", elapsed, 60.0)


def test_criterion_7_property_suite():
    start = time.perf_counter()
    failures = []

    worst_norm = 0.0
    for n in range(2, 201):
        for r in (1, 2):
            for i in range(r, n + 1):
                total = math.fsum(duration_pmf(i, r, n).values())
                worst_norm = max(worst_norm, abs(total - 1.0))
    if worst_norm > 1e-12:
        failures.append(f"pmf normalization off by {worst_norm:.1e}")

    for n in (2, 3, 10, 100, 500):
        if any(payoff(k, 1, n) < payoff(k, 2, n) for k in range(2, n + 1)):
            failures.append(f"rank-1 payoff not dominant at n={n}")

    for n in (10, 100, 1000, 5000):
        res = solve(n)
        cont = res.continuation[1:n + 2]
        if np.any(np.diff(cont) > 0):
            failures.append(f"continuation not nonincreasing at n={n}")
        k1 = res.thresholds.k1
        if k1 and not np.all(cont[:k1 + 1] == cont[k1]):
            failures.append(f"continuation not flat below k1 at n={n}")

    worst_row = 0.0
    for n in range(3, 201):
        for k in range(2, n):
            total = 2 * math.fsum(transition_prob(k, s, n) for s in range(k + 1, n + 1))
            total += transition_prob(k, None, n)
            worst_row = max(worst_row, abs(total - 1.0))
    if worst_row > 1e-12:
        failures.append(f"chain row normalization off by {worst_row:.1e}")

    elapsed = time.perf_counter() - start
    _report(7, "pmf/dominance/monotone/flat-head/chain-row properties hold",
            not failures, "; ".join(failures) or
            f"pmf={worst_norm:.1e} rows={worst_row:.1e}", elapsed, 60.0)


def test_criterion_8_monte_carlo_gate():
    start = time.perf_counter()
    n, trials, seed = 100, 10**6, 20260814
    policy = TABLE[n][:2]
    est = monte_carlo(n, policy, trials, seed)
    err = abs(est.mean - TABLE[n][2])
    repeat = monte_carlo(n, policy, trials, seed)
    bitwise = est == repeat
    elapsed = time.perf_counter() - start
    ok = err < 3 * est.std_error and bitwise
    _report(8, "1e6-trial estimate within 3 standard errors, rerun bit-identical",
            ok, f"|mean - v_100| = {err:.2e}, 3*se = {3 * est.std_error:.2e}, "
            f"bit-identical={bitwise}", elapsed, 30.0)


def test_criterion_9_limit_consistency_grids():
    start = time.perf_counter()
    n = 100_000
    worst = 0.0
    for j in range(1, 20):
        x = 0.05 * j
        k = round(x * n)
        xk = k / n
        worst = max(worst, abs(payoff(k, 1, n) - phi_limit(xk, 1)))
        worst = max(worst, abs(payoff(k, 2, n) - phi_limit(xk, 2)))
        worst = max(worst, abs(mean_operator(k, n) - mean_operator_limit(xk)))
    elapsed = time.perf_counter() - start
    _report(9, "finite-N payoff and mean operator within 5/N of their limits",
            worst <= 5.0 / n, f"worst gap = {worst:.3e} vs {5.0 / n:.1e}",
            elapsed, 5.0)
