"""The argument contract of every function that `shelflife` exports, fuzzed.

Seeded random calls mix valid arguments, integers at and beside every bound and
values of the wrong kind: bools (numpy's too), a float for an int, text, None,
Decimal, Fraction, 0-d and 1-d arrays, nan and the infinities.  Each call must
return a value (its floats finite) or raise a ValueError or ArithmeticError
whose message has one of the shapes of `shelflife._validate` or the root finder
and at most 100 characters, with every warning an error.  `duration_pmf`, whose
output is O(n), runs only in a child process with capped address space and a
timeout, where running out of that space (MemoryError) is also an answer.
Valid trial counts above 100 are left out: such a call runs as long as it says.
Uses numpy and pytest only, so that it runs against the installed package.
"""

import inspect
import math
import os
import pickle
import random
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import shelflife
from shelflife._validate import _word

CAP = 10**154
JUNK = [True, False, np.True_, 2.0, "3", "0.5", b"2", None, Decimal("0.5"), Decimal(3),
        Fraction(4), Fraction(1, 3), np.array(5), np.array(0.5), np.array([5]),
        np.array([0.5, 0.6]), math.nan, math.inf, -math.inf, [2], {1: 2}]
# integer slots: bounds and their neighbours; a callable is resolved with the call's horizon
HORIZONS = [-10**20, -1, 0, 1, 2, 3, 9, 10, 11, 31, 32, 33, 1000, 10**102, 10**102 + 1,
            2**60, 10**153 + 7, CAP - 1, CAP, CAP + 1, 10**4400, np.int64(50), np.uint8(7)]
INDICES = [-1, 0, 1, 2, 3, 31, 32, 33, CAP, CAP + 1, np.int32(3), np.uint64(2),
           lambda n: n - 1, lambda n: n, lambda n: n + 1, lambda n: n // 2, lambda n: n // 3]
RANKS = [-1, 0, 1, 2, 3, 10**20, np.int8(1)]
REALS = [0.5, 0.25, 1.0, 1, 0, 0.0, -0.0, -0.5, 2, 2.0, 1.0000000000000002, 5e-324, 1e-300,
         0.41718, 0.001, 3e-4, 2e-4, 1.2e-4, np.float64(0.3), np.float32(0.5), Fraction(1, 2),
         Fraction(2, 7), Fraction(1, 10**400), Fraction(10**400, 3), 10**154, 10**400]
POLICIES = [(0, 0), (1, 2), (2, 1), (-1, 2), (True, 2), (1.0, 2), (1,), (1, 2, 3), [1, 2],
            np.array([1, 2]), "12", {1: 2}, {1, 2}, (np.int64(1), np.int64(3)),
            lambda n: (n // 3, n // 2), lambda n: (n - 1, n), lambda n: (n, n + 1),
            lambda n: (0, n), lambda n: (n, n)]
TRIALS = [-1, 0, 1, 2, 100, 2**61 + 1, 10**20, np.int16(7)]
SEEDS = [-10**20, -1, 0, 1, 2**64 - 1, 2**64, np.uint64(2**64 - 1)]

# each exported function's arguments, in order, as the pool each is drawn from
API = {
    "asymptotic_solution": (), "solve_b": (),
    "phi_limit": (REALS, RANKS), "mean_operator_limit": (REALS,),
    "limit_value_function": (REALS, REALS), "solve_a": (REALS,),
    "harmonic_diff": (INDICES, HORIZONS), "trigamma_diff": (INDICES, HORIZONS),
    "payoff": (INDICES, RANKS, HORIZONS), "mean_operator": (INDICES, HORIZONS),
    "transition_prob": (INDICES, INDICES, HORIZONS),
    "closed_form_value": (INDICES, INDICES, HORIZONS),
    "policy_value": (POLICIES, HORIZONS), "solve": (HORIZONS,),
    "exhaustive_policy_value": (POLICIES, HORIZONS),
    "monte_carlo": (HORIZONS, POLICIES, TRIALS, SEEDS),
    "duration_pmf": (INDICES, RANKS, HORIZONS),
}
IN_CHILD = {"duration_pmf"}

WORD = r"(-?\d{1,20}|-?10\*\*\d+|a (negative )?\d+-digit number)"
SHAPES = {
    "ValueError": [re.compile(p) for p in (
        r"[\w +-]+ must be an integer, got .+",
        r"[\w +-]+ must be a real number, got .+",
        r"[\w +-]+ must fit a float, got .+",
        rf"[\w +-]+ must be (>= {WORD}|at most {WORD}|in {WORD}\.\.{WORD}), got {WORD}",
        r"[\w +-]+ must be in \(\S+, \S+\], got .+",
        r"policy must be a pair \(k1, k2\), got .+",
        rf"need 0 <= k1 <= k2 <= {WORD}, got \({WORD}, {WORD}\)",
        r"rank \d impossible at time \d+")],
    "ArithmeticError": [re.compile(p) for p in (
        r"root bracketing for \w failed: .+",
        r"root finding for \w did not converge in .+")],
}


def _calls(seed, per_function=120):
    """(name, args) of the seeded calls, each distinct: per function, up to
    per_function draws of each argument from its pool, or one time in four from JUNK."""
    rng = random.Random(seed)
    calls = {}
    for name, pools in API.items():
        for _ in range(per_function if pools else 1):
            picks = [(JUNK, rng.randrange(len(JUNK))) if rng.random() < 0.25 else
                     (pool, rng.randrange(len(pool))) for pool in pools]
            key = (name, tuple((id(pool), i) for pool, i in picks))
            horizon = [pool[i] for pool, i in picks if pool is HORIZONS]
            n = int(horizon[0]) if horizon else 10
            calls[key] = (name, tuple(pool[i](n) if callable(pool[i]) else pool[i]
                                      for pool, i in picks))
    return list(calls.values())


def _finite(value):
    """Whether every float of a value, or of a tuple of values, is finite."""
    values = value if isinstance(value, tuple) else (value,)
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _outcome(name, args):
    """(kind, message) of one call, kind "value", "nonfinite", "ValueError" or
    "ArithmeticError" (for their subclasses too), or any other exception's name."""
    try:
        value = getattr(shelflife, name)(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    except ArithmeticError as exc:
        return "ArithmeticError", str(exc)
    except Exception as exc:  # any other exception breaks the contract
        return type(exc).__name__, str(exc)
    return ("value", "") if _finite(value) else ("nonfinite", f"{value!r:.80}")


def _fault(name, args, kind, message):
    """Why the outcome breaks the contract, or None."""
    if kind == "value" or kind == "MemoryError" and name in IN_CHILD:
        return None
    if kind in SHAPES and len(message) <= 100 and any(
            s.fullmatch(message) for s in SHAPES[kind]):
        return None
    brief = ", ".join(map(_brief, args))
    return f"{name}({brief}): {kind} of {len(message)} characters: {message}"


def _brief(arg):
    """An argument as a failure report shows it."""
    if isinstance(arg, int):
        return _word(arg)
    try:
        return f"{arg!r:.40}"
    except ValueError:  # repr refuses an int of more than 4,300 digits, here in a tuple
        return f"<a {type(arg).__name__}>"


# a child that runs the calls on stdin, pickled, with its address space capped
CHILD = """
import pickle, resource, sys, warnings
sys.path.insert(0, {here!r})
from test_contract import _outcome
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
warnings.simplefilter("error")
calls = pickle.load(sys.stdin.buffer)
out = [_outcome(name, args) for name, args in calls]
sys.stdout.buffer.write(pickle.dumps(out))
"""


def test_every_export_is_fuzzed():
    exported = {name for name, f in inspect.getmembers(shelflife, inspect.isfunction)
                if f.__module__.startswith("shelflife.")}
    assert exported == set(API)


@pytest.mark.parametrize("seed", [0, 1])
def test_contract_in_process(seed):
    calls = [call for call in _calls(seed) if call[0] not in IN_CHILD]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        faults = [why for name, args in calls
                  if (why := _fault(name, args, *_outcome(name, args)))]
    assert not faults, "\n".join(faults[:20])
    assert len(calls) > 1000


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
@pytest.mark.parametrize("seed", [0, 1])
def test_contract_of_o_n_calls_in_a_child(seed):
    """The calls with an O(n) output, in a child capped at 1 GiB of address space."""
    calls = [call for call in _calls(seed) if call[0] in IN_CHILD]
    script = CHILD.format(here=os.path.dirname(os.path.abspath(__file__)), limit=2**30)
    proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(calls),
                          capture_output=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    faults = [why for (name, args), outcome in zip(calls, pickle.loads(proc.stdout))
              if (why := _fault(name, args, *outcome))]
    assert not faults, "\n".join(faults[:20])
    assert len(calls) > 50
