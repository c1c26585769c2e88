"""Optimal stopping for the best-or-second-best duration ("shelf life") problem.

Select a relatively best or second-best item from a random sequence so that it
stays in the top two as long as possible.  The package provides the exact
solver for horizons 2..10**154 (optimal two-threshold policies), a seeded
simulator with an exhaustive small-case oracle, the limit constants (both
threshold fractions from one safeguarded Newton root finder) and a CLI.
"""

from .asymptotic import (
    AsymptoticSolution,
    asymptotic_solution,
    limit_value_function,
    mean_operator_limit,
    phi_limit,
    solve_a,
    solve_b,
)
from .simulate import McEstimate, exhaustive_policy_value, monte_carlo
from .solver import (
    PolicyThresholds,
    SolveResult,
    closed_form_value,
    duration_pmf,
    mean_operator,
    payoff,
    policy_value,
    solve,
    transition_prob,
)
from .special import harmonic_diff, trigamma_diff

__version__ = "0.1.0"
