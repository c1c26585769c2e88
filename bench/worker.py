"""One benchmark process: import shelflife, warm up, run one workload, check it.

Run by `bench/run.py`, never on its own, once per pass of a run.  Prints
`READY <json>` once set-up is done (the parent times set-up up to that line)
and `RESULT <json>` after the timed phase and the checks.

Every workload is a closed loop: one client in this process calls the
library (or `cli.main`) and waits for each call before making the next.  An
operation is one timed call; its output is kept and checked only after the
timed phase, so the checks' own library calls cannot warm a cache that a
later timed call would otherwise miss.  The amount of work is fixed by
--seed and --seconds (sized so that a run of the seed code takes about
--seconds) and split into passes, so every count repeats exactly.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# Limit constants to 17 digits, from mpmath at 40 digits: b from the Lambert W
# closed form, a by findroot on v~(x, b) = phi(x, 1), v = v~(a, b).
REF_A = 0.12038130666292696
REF_B = 0.41718835613418861
REF_V = 0.40382671857834788

# The paper's table as `shelflife table` prints it.
REFERENCE_TABLE = """\
N,k1,k2,v_N
10,1,4,0.527526
20,2,8,0.464357
30,3,12,0.442977
40,4,16,0.432325
50,6,21,0.426411
60,7,25,0.422846
70,8,29,0.420142
80,9,33,0.418024
90,10,37,0.416322
100,12,41,0.415064
200,24,83,0.409431
500,60,208,0.406064
1000,120,417,0.404944
inf,0.120381,0.417188,0.403827
"""

Z_MAX = 5.0  # |z| of a seeded estimate against the exact policy value
BLOCK = 32768  # trials per Philox block in shelflife.simulate
WARM_N = 5003  # warm-up horizon, outside every workload's horizons


def value_tol(n):
    """policy_value at the optimum vs solve().value.

    The two recursions round differently on the flat head below k1, so the
    gap grows with the number of steps: 1.6e-12 at n = 980000 on the seed
    code.  1e-17 per step keeps 1e-12 up to n = 1e5 with a margin of 6x
    above that.
    """
    return max(1e-12, 1e-17 * n)


class Failure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Failure(msg)


def close(x, y, tol, what):
    expect(abs(x - y) <= tol, f"{what}: {x!r} vs {y!r} (tol {tol:g})")


def current_rss_mb():
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6
    except OSError:
        return float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Runner:
    """Times each operation, keeps its output and defers its check."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []  # dicts: kind, seconds, size, peak_mb_delta, error
        self.checks = []  # (op index, check, output)
        self.counts = Counter()

    def call(self, kind, fn, *args, size=0, check=None):
        op_id = len(self.ops)
        peak0 = peak_rss_mb()
        span = self.tracer.begin_op(op_id, kind) if self.tracer else None
        t0 = time.perf_counter()
        error = None
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if span is not None:
            self.tracer.finish(span)
        self.ops.append({"kind": kind, "seconds": dt, "size": size,
                         "peak_mb_delta": peak_rss_mb() - peak0, "error": error})
        self.counts["ops." + kind] += 1
        if error is None and check is not None:
            self.checks.append((op_id, check, out))
        return out

    def run_checks(self):
        for op_id, check, out in self.checks:
            try:
                check(out)
            except Exception as exc:  # a check that cannot run counts as failed
                self.ops[op_id]["error"] = f"{type(exc).__name__}: {exc}"
        return [op for op in self.ops if op["error"]]


# --------------------------------------------------------------- exact-sweep

def sweep_plan(seed, seconds, passes):
    """Per pass: a geometric ladder from 1e4 to 4e5, then horizons in
    [950000, 1000000]; no horizon repeats within the run.  The passes'
    ladders interleave, so the run's operation latencies cover their range
    evenly and the median latency does not sit in a gap between rungs."""
    rng = random.Random(f"exact-sweep/{seed}")
    budget = seconds / passes
    n_small, n_big = max(3, round(2 * budget)), max(1, round(budget / 2))
    big = rng.sample(range(950000, 1000001), n_big * passes)
    pairs = [(k1, k2) for k1 in range(1, 8) for k2 in range(k1 + 1, 8)]
    used, plans = set(big), []
    rungs = n_small * passes - 1
    for p in range(passes):
        small = []
        for i in range(n_small):
            n = round(1e4 * 40 ** ((i * passes + p) / rungs) * rng.uniform(0.99, 1.01))
            while n in used:
                n += 1
            used.add(n)
            small.append(n)
        exhaustive = [(8, rng.choice(pairs))] + ([(9, rng.choice(pairs))] if p < 2 else [])
        plans.append({"horizons": small + sorted(big[p * n_big:(p + 1) * n_big]),
                      "exhaustive": exhaustive})
    return plans


def exact_sweep(lib, run, plan, probes):
    for n in plan["horizons"]:
        rss0 = current_rss_mb()

        def check_solve(res, n=n):
            k1, k2 = res.thresholds
            close(res.value, REF_V, 2.0 / n, f"v_{n} vs the limit")
            if n >= 100000:
                close(k1 / n, REF_A, 5e-4, f"k1/n at n={n}")
                close(k2 / n, REF_B, 5e-4, f"k2/n at n={n}")

        res = run.call("solve", lib.solve, n, size=n, check=check_solve)
        if res is None:
            continue
        k1, k2 = res.thresholds
        run.call("policy_value", lib.policy_value, (k1, k2), n, size=n,
                 check=lambda v, n=n, res=res: close(v, res.value, value_tol(n),
                                                     f"policy_value at the optimum, n={n}"))
        off = (round(0.10 * n), round(0.45 * n))

        def check_off(v, n=n, res=res, off=off):
            expect(res.value - 0.01 < v < res.value,
                   f"off-optimal {off} at n={n}: {v!r} vs optimum {res.value!r}")

        run.call("policy_value", lib.policy_value, off, n, size=n, check=check_off)
        run.call("closed_form_value", lib.closed_form_value, k1, k2, n, size=n,
                 check=lambda v, n=n, res=res, k1=k1: close(
                     v, float(res.continuation[k1 + 1]), 1e-10, f"closed form at n={n}"))
        probes["rss_growth_mb"].append((n, current_rss_mb() - rss0))
        run.counts["horizons"] += 1
        run.counts["sum_n"] += n

    for n, pair in plan["exhaustive"]:
        run.call("exhaustive_policy_value", lib.exhaustive_policy_value, pair, n, size=n,
                 check=lambda v, n=n, pair=pair: close(
                     v, lib.policy_value(pair, n), 1e-12, f"exhaustive {pair} at n={n}"))

    def check_limit(sol):
        close(sol.a, REF_A, 1e-10, "a")
        close(sol.b, REF_B, 1e-12, "b")
        close(sol.value, REF_V, 1e-10, "v")

    run.call("asymptotic_solution", lib.asymptotic_solution, check=check_limit)


def warm_exact_sweep(lib):
    res = lib.solve(WARM_N)
    lib.policy_value(res.thresholds, WARM_N)
    lib.closed_form_value(*res.thresholds, WARM_N)
    lib.exhaustive_policy_value((1, 2), 5)


# ---------------------------------------------------------------- mc-rollout

# (n, policy, trials per call): the criterion-8 shape n = 100 at the optimum,
# one off-optimal pair, and n = 1000 at the optimum.  The trial counts keep
# each call near 50 ms on the seed code, so a 20 s run makes 360 calls: enough
# for a p90 latency with 36 samples beyond it.
MC_MIX = ((100, (12, 41), 8192), (100, (20, 60), 8192), (1000, (120, 417), 1024))


def mc_plan(seed, seconds, passes):
    rng = random.Random(f"mc-rollout/{seed}")
    rounds = max(1, round(6 * seconds / passes))
    return [[(n, pol, trials, rng.getrandbits(63))
             for _ in range(rounds) for n, pol, trials in MC_MIX] for _ in range(passes)]


def mc_rollout(lib, run, plan, probes):
    exact = {}

    def check(est, n, pol, trials, s):
        expect(est.trials == trials and est.seed == s, f"echoed trials/seed {est[2:]}")
        if (n, pol) not in exact:
            exact[n, pol] = lib.policy_value(pol, n)
        z = (est.mean - exact[n, pol]) / est.std_error
        expect(abs(z) <= Z_MAX, f"z = {z:.2f} for n={n} {pol} seed {s}")

    for n, pol, trials, s in plan:
        run.call(f"monte_carlo.n{n}", lib.monte_carlo, n, pol, trials, s, size=trials,
                 check=lambda est, a=(n, pol, trials, s): check(est, *a))
        run.counts["trials"] += trials
        run.counts["blocks"] += -(-trials // BLOCK)


def warm_mc_rollout(lib):
    lib.monte_carlo(64, (7, 26), 256, 1)


def determinism_probe(lib, seed):
    """Untimed: one estimate at 1 and 2 threads and a rerun must agree bit for bit."""
    args = (50, (6, 21), 2 * BLOCK + 777, seed % 2**64)
    old = os.environ.get("DURATION_SOLVER_THREADS")
    try:
        os.environ["DURATION_SOLVER_THREADS"] = "1"
        one = lib.monte_carlo(*args)
        again = lib.monte_carlo(*args)
        os.environ["DURATION_SOLVER_THREADS"] = "2"
        two = lib.monte_carlo(*args)
    finally:
        if old is None:
            del os.environ["DURATION_SOLVER_THREADS"]
        else:
            os.environ["DURATION_SOLVER_THREADS"] = old
    ok = one == again == two
    return {"ok": ok, "mean_1_thread": one.mean.hex(), "mean_2_threads": two.mean.hex(),
            "mean_rerun": again.mean.hex()}


# --------------------------------------------------------------- cli-session

ERROR_ARGV = (["solve", "--n", "1"], ["pmf", "--n", "6", "--i", "1", "--rank", "2"],
              ["table", "--ns", "1,x"])
TABLE_OUT_N = 20000


def _strata(rng, lo, hi, count):
    """`count` draws from [lo, hi], one in each of `count` equal strata, shuffled,
    so that seeds change the inputs but hardly their total cost."""
    width = (hi - lo + 1) / count
    draws = [lo + int((j + rng.random()) * width) for j in range(count)]
    rng.shuffle(draws)
    return draws


def cli_plan(seed, seconds, passes):
    """Per pass, a fixed cycle of CLI calls; half of the small `solve` horizons repeat."""
    rng = random.Random(f"cli-session/{seed}")
    cycles = max(1, round(3.3 * seconds / passes))
    plans = []
    for _ in range(passes):
        fresh = iter(_strata(rng, 2, 5000, 3 * cycles))
        pmf_n = iter(_strata(rng, 10, 5000, 2 * cycles))
        used, calls = [], []
        for _ in range(cycles):
            calls.append(("table", ["table"]))
            for _ in range(3):
                used.append(next(fresh))
                for n in (used[-1], rng.choice(used)):
                    calls.append(("solve", ["solve", "--n", str(n)]))
            calls.append(("solve_table_out", ["solve", "--n", str(TABLE_OUT_N), "--table-out"]))
            for _ in range(2):
                n = next(pmf_n)
                calls.append(("pmf", ["pmf", "--n", str(n), "--i", str(rng.randrange(2, n + 1)),
                                      "--rank", str(rng.choice((1, 2)))]))
            calls.append(("asymptotic", ["asymptotic", "--fine-n", "10000"]))
            calls.append(("simulate", ["simulate", "--n", "50", "--trials", "20000",
                                       "--seed", str(rng.getrandbits(32))]))
            calls.extend(("error", list(argv)) for argv in ERROR_ARGV)
        plans.append(calls)
    return plans


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_table_out(lib, path, n):
    res = lib.solve(n)
    k1, k2 = res.thresholds
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["k", "phi1", "phi2", "continuation", "stop1", "stop2"],
           f"table-out header {rows[0]}")
    expect(len(rows) == n + 1, f"table-out has {len(rows) - 1} rows, want {n}")
    for k, row in enumerate(rows[1:], start=1):
        want = [str(k), repr(lib.payoff(k, 1, n)),
                repr(lib.payoff(k, 2, n)) if k >= 2 else "",
                repr(float(res.continuation[k])), str(int(k > k1)),
                str(int(k > k2)) if k >= 2 else ""]
        expect(row == want, f"table-out row {k}: {row} vs {want}")


def cli_session(lib, run, plan, probes):
    from shelflife import cli

    tmpdir = Path(probes["tmpdir"])
    table_outs = []

    def ok_json(out, code, err):
        expect(code == 0 and err == "", f"exit {code}, stderr {err!r}")
        return json.loads(out)

    def check(result, kind, argv):
        code, out, err = result
        run.counts["stdout_bytes." + kind] += len(out.encode())
        if kind == "error":
            expect(code == 2 and out == "" and err.startswith("error:"),
                   f"{argv}: exit {code}, stdout {out!r}, stderr {err!r}")
        elif kind == "table":
            expect(code == 0 and out == REFERENCE_TABLE, f"table output {out!r}")
        elif kind in ("solve", "solve_table_out"):
            rec, n = ok_json(out, code, err), int(argv[2])
            res = lib.solve(n)
            expect(rec == {"n": n, "k1": res.thresholds.k1, "k2": res.thresholds.k2,
                           "value": res.value}, f"solve record {rec}")
            if kind == "solve_table_out":
                path = argv[-1]
                if not table_outs:
                    _check_table_out(lib, path, n)
                else:
                    expect(Path(path).read_bytes() == Path(table_outs[0]).read_bytes(),
                           f"{path} differs from the first table-out")
                table_outs.append(path)
        elif kind == "pmf":
            rec = ok_json(out, code, err)
            n, i, r = (int(argv[k]) for k in (2, 4, 6))
            pmf = lib.duration_pmf(i, r, n)
            survive = pmf.pop(n + 1)
            expect(rec == {"n": n, "i": i, "rank": r,
                           "pmf": {str(k): pmf[k] for k in sorted(pmf)},
                           "survive": survive}, f"pmf record for {argv}")
        elif kind == "asymptotic":
            rec = ok_json(out, code, err)
            close(rec["a"], REF_A, 1e-10, "a")
            close(rec["b"], REF_B, 1e-12, "b")
            close(rec["value"], REF_V, 1e-10, "v")
            expect(rec["residual_a"] < 1e-9 and rec["residual_b"] < 1e-12,
                   f"residuals {rec['residual_a']}, {rec['residual_b']}")
            res = lib.solve(10000)
            expect([rec["k1_over_n"], rec["k2_over_n"], rec["v_n"]]
                   == [res.thresholds.k1 / 10000, res.thresholds.k2 / 10000, res.value],
                   f"fine-n fields {rec}")
        elif kind == "simulate":
            rec = ok_json(out, code, err)
            n = int(argv[2])
            pol = tuple(lib.solve(n).thresholds)
            expect((rec["k1"], rec["k2"]) == pol and rec["trials"] == int(argv[4])
                   and rec["seed"] == int(argv[6]), f"simulate echo {rec}")
            expect(rec["exact"] == lib.policy_value(pol, n), f"simulate exact {rec['exact']}")
            expect(abs(rec["z_score"]) <= Z_MAX, f"simulate z = {rec['z_score']}")

    for idx, (kind, argv) in enumerate(plan):
        if kind == "solve_table_out":
            argv = argv + [str(tmpdir / f"table-{idx}.csv")]
            run.counts["table_out_rows"] += TABLE_OUT_N
        run.call(f"cli.{kind}", invoke, cli, argv,
                 size=TABLE_OUT_N if kind == "solve_table_out" else 0,
                 check=lambda result, kind=kind, argv=argv: check(result, kind, argv))


def warm_cli_session(lib):
    from shelflife import cli

    code, _, _ = invoke(cli, ["solve", "--n", str(WARM_N)])
    expect(code == 0, "warm-up call failed")


WORKLOADS = {
    "exact-sweep": (sweep_plan, warm_exact_sweep, exact_sweep),
    "mc-rollout": (mc_plan, warm_mc_rollout, mc_rollout),
    "cli-session": (cli_plan, warm_cli_session, cli_session),
}


# ---------------------------------------------------------------------- main

def trace_summary(trc):
    """What the parent needs from one traced pass, in a form it can add up."""
    from tracer import summarize

    cols = trc.arrays()
    names = trc.names
    dur = cols["end"] - cols["start"]
    first, second = {}, {}
    if "solver.solve" in names:
        sel = cols["name"] == names.index("solver.solve")
        for n, d in zip(cols["key"][sel].tolist(), dur[sel].tolist()):
            if n not in first:
                first[n] = d
            elif n not in second:
                second[n] = d
    mc_busy = {}
    if "simulate.monte_carlo" in names:
        sel = cols["name"] == names.index("simulate.monte_carlo")
        for n, d in zip(cols["key"][sel].tolist(), dur[sel].tolist()):
            mc_busy[n] = mc_busy.get(n, 0.0) + d
    return {
        **summarize(cols, names),
        "wrapped": trc.wrapped,
        "solve_cold_s": sum(first[n] for n in second),
        "solve_warm_s": sum(second.values()),
        "mc_busy_s": mc_busy,
        "spans": len(dur),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--pass", dest="pass_idx", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="run the determinism probe after")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import shelflife
    import_s = time.perf_counter() - t0
    plan_fn, warm_fn, body = WORKLOADS[args.workload]
    t1 = time.perf_counter()
    warm_fn(shelflife)
    first_call_s = time.perf_counter() - t1
    import numpy
    import scipy

    print("READY " + json.dumps({"import_s": import_s, "first_call_s": first_call_s,
                                 "module": shelflife.__file__, "numpy": numpy.__version__,
                                 "scipy": scipy.__version__}), flush=True)

    plan = plan_fn(args.seed, args.seconds, args.passes)[args.pass_idx]
    trc = None
    if args.trace:
        from tracer import Tracer

        trc = Tracer()
        trc.install(shelflife)
    cache_info = getattr(getattr(shelflife.solver, "_payoff_tables", None), "cache_info", None)
    cache0 = cache_info() if cache_info else None
    run = Runner(trc)
    probes = {"rss_growth_mb": [], "tmpdir": tempfile.mkdtemp(dir=args.out_dir)}
    try:
        t_start = time.perf_counter()
        body(shelflife, run, plan, probes)
        wall = time.perf_counter() - t_start
        peak = peak_rss_mb()
        if trc:
            trc.uninstall()
        failed = run.run_checks()
    finally:
        shutil.rmtree(probes["tmpdir"], ignore_errors=True)
    cache = None
    if cache_info:
        c = cache_info()
        cache = [c.hits - cache0.hits, c.misses - cache0.misses]

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak,
        "ops": [[op["kind"], op["seconds"], op["size"], op["peak_mb_delta"]] for op in run.ops],
        "failures": [f"{op['kind']}: {op['error']}" for op in failed],
        "counts": run.counts,
        "cache": cache,
        "rss_growth_mb": probes["rss_growth_mb"],
    }
    if args.probe:
        result["determinism"] = determinism_probe(shelflife, args.seed)
    if trc:
        result["trace"] = trace_summary(trc)
        trc.save(Path(args.out_dir) / f"trace-{args.workload}-pass{args.pass_idx}.npz",
                 {"workload": args.workload, "seed": args.seed, "pass": args.pass_idx})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
