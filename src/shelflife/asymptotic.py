"""Infinite-horizon limits: threshold fractions a < b and the limit value.

As n grows, the optimal thresholds scale linearly (k1 ~ a*n, k2 ~ b*n) and the
value converges.  b is the root of the indifference equation Tphi(b) = phi(b, 2)
and a of v~(x, b) = phi(x, 1) on (0, b), both by one safeguarded Newton
iteration (`_root`); the limit value is v~(a, b), constant below the first
threshold exactly as the finite-n continuation value is.
"""

import math
from typing import NamedTuple

from ._validate import _check_int, _check_real


class AsymptoticSolution(NamedTuple):
    a: float
    b: float
    value: float


def phi_limit(x: float, r: int) -> float:
    """Limit payoff at threshold fraction x: x^2 - 2x log x - x for rank 1,
    x(1 - x) for rank 2.  Both vanish at x = 1."""
    x = _check_real(x, "x", 0, 1)
    if _check_int(r, "rank", 1, 2) == 1:
        return x * x - 2.0 * x * math.log(x) - x
    return x * (1.0 - x)


def mean_operator_limit(x: float) -> float:
    """Limit of the stop-at-next-candidate payoff: 2(x^2 - x - x log x)."""
    x = _check_real(x, "x", 0, 1)
    return 2.0 * (x * x - x - x * math.log(x))


def _root(f, df, lo, hi, name):
    """The root of f in (lo, hi), 0 <= lo, where f changes sign: Newton's method
    from the midpoint, bisecting whenever a step would leave the shrinking
    bracket, until a step moves x by at most 1e-15 x."""
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo * f_hi < 0.0:
        raise ArithmeticError(f"root bracketing for {name} failed: "
                              f"f({lo:.6g}) = {f_lo:.6g}, f({hi:.6g}) = {f_hi:.6g}")
    x = 0.5 * (lo + hi)
    for _ in range(100):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        x_new = x - fx / df(x)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            return x_new
        x = x_new
    raise ArithmeticError(f"root finding for {name} did not converge in [{lo}, {hi}]")


def solve_b() -> float:
    """Upper threshold fraction b ~ 0.417188: the root of 2 log x - 3x + 3 = 0,
    which is Tphi(x) = phi(x, 2) divided by x, on [1e-4, 2/3].  The bracket
    leaves out the equation's other root, x = 1."""
    return _root(lambda x: 2.0 * math.log(x) - 3.0 * x + 3.0, lambda x: 2.0 / x - 3.0,
                 1e-4, 2.0 / 3.0, "b")


def _antiderivative(t: float) -> float:
    # d/dt [t - log(t)^2 - log(t)] = 1 - 2 log(t)/t - 1/t = (t^2 - 2t log t - t)/t^2
    lt = math.log(t)
    return t - lt * lt - lt


def limit_value_function(x: float, b: float) -> float:
    """v~(x, b) = integral_x^b (x/t^2) phi(t, 1) dt + (x/b) Tphi_limit(b),

    evaluated through the exact antiderivative x*(t - log^2 t - log t)."""
    b = _check_real(b, "b", 0, 1)
    x = _check_real(x, "x", 0, b)
    return x * (_antiderivative(b) - _antiderivative(x)) + (x / b) * mean_operator_limit(b)


def solve_a(b: float) -> float:
    """Lower threshold fraction: the root of v~(x, b) = phi(x, 1) on (0, b).

    Divided by x, the equation reads g(x) = log^2 x + 3 log x - 2x + c = 0
    with c = A(b) + M(b)/b + 1, where A(t) = t - log^2 t - log t and M is
    :func:`mean_operator_limit`, solved by :func:`_root` on [1e-4, b - 1e-4].
    """
    b = _check_real(b, "b")
    lo, hi = 1e-4, b - 1e-4
    if not (lo < hi and b <= 1.0):
        raise ArithmeticError(f"root bracketing for a failed: empty bracket for b={b}")
    c = _antiderivative(b) + mean_operator_limit(b) / b + 1.0

    def g(x):
        lx = math.log(x)
        return lx * (lx + 3.0) - 2.0 * x + c

    return _root(g, lambda x: (2.0 * math.log(x) + 3.0) / x - 2.0, lo, hi, "a")


def asymptotic_solution() -> AsymptoticSolution:
    """All three limit constants (a, b, value ~ 0.403827) in one call."""
    b = solve_b()
    a = solve_a(b)
    return AsymptoticSolution(a=a, b=b, value=limit_value_function(a, b))
