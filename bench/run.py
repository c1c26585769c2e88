"""shelflife benchmark: one workload, timed end to end and, with --trace 1, per layer.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/shelflife`; the package is
imported from there, nothing is installed or built.  A run splits the
workload's fixed work into PASSES passes, each in a fresh interpreter
(bench/worker.py).  Every pass is also a set-up sample: `setup_s` is the
median time from starting an interpreter to the workload being ready.  With
--trace 1 the same passes run a second time with every public shelflife
function wrapped in a span; those give the per-layer metrics, and the ratio
of the two runs' wall times gives the tracing overhead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  The line before it is the full record: every metric
with its unit, the exact counts, the determinism probe, the trace summary
and the provenance.  The record, and the spans of a traced run, are also
written to bench/results/.  See bench/README.md.
"""

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("exact-sweep", "mc-rollout", "cli-session")
PASSES = 5  # fresh interpreters per run, so also the number of set-up samples
DEADLINE_S = 170.0
CLI_COMMANDS = ("table", "solve", "solve_table_out", "simulate", "pmf", "asymptotic", "error")

# Units of the full record.  BENCHMARK.json declares only the metrics that
# every workload has and that are never 0; the rest are here.
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "error_rate": "fraction",
    "dp_steps_per_s": "steps/s", "mc_trials_per_s": "trials/s",
    "cli_calls_per_s": "calls/s", "cli_p50_ms": "ms", "cli_p90_ms": "ms",
}


class BenchError(Exception):
    pass


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _worker(args, pass_idx, deadline, trace=False, probe=False):
    """Run one pass; return (seconds from start to READY, READY record, RESULT record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--passes", str(PASSES),
           "--pass", str(pass_idx), "--trace", str(int(trace)), "--out-dir", str(RESULTS)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
               DURATION_SOLVER_THREADS="1", PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    buf, lines, ready_at = b"", [], None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("worker ran past the deadline")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line.startswith(b"READY ") and ready_at is None:
                    ready_at = time.perf_counter()
                lines.append(line.decode())
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    found = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines
             if line.startswith(("READY ", "RESULT "))}
    if code != 0 or ready_at is None or "RESULT" not in found:
        raise BenchError(f"pass {pass_idx} exited with code {code}")
    ready = json.loads(found["READY"])
    if Path(ready["module"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported shelflife from {ready['module']}, not from {SRC}")
    return ready_at - t0, ready, json.loads(found["RESULT"])


def run_passes(args, deadline, trace):
    """All passes of the workload; returns set-up samples, READY records and results."""
    samples = [_worker(args, p, deadline, trace=trace, probe=not trace and p == PASSES - 1)
               for p in range(PASSES)]
    return [s[0] for s in samples], [s[1] for s in samples], [s[2] for s in samples]


def _ops(results):
    return [op for r in results for op in r["ops"]]  # [kind, seconds, size, peak_mb_delta]


def op_metrics(workload, results):
    """End-to-end metrics from the benchmark's own timing of each operation."""
    ops = _ops(results)
    wall = sum(r["wall_s"] for r in results)
    lat = [op[1] for op in ops]
    m = {"wall_s": wall, "ops_per_s": len(ops) / wall,
         "op_p50_ms": 1e3 * percentile(lat, 0.5), "op_p90_ms": 1e3 * percentile(lat, 0.9),
         "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    if workload == "exact-sweep":
        dp = [op for op in ops if op[0] in ("solve", "policy_value")]
        m["dp_steps_per_s"] = sum(op[2] for op in dp) / sum(op[1] for op in dp)
    elif workload == "mc-rollout":
        m["mc_trials_per_s"] = sum(op[2] for op in ops) / wall
    else:
        m["cli_calls_per_s"] = m["ops_per_s"]
        m["cli_p50_ms"], m["cli_p90_ms"] = m["op_p50_ms"], m["op_p90_ms"]
    return m


def layer_metrics(results):
    """Per-layer metrics of a traced run, summed over its passes.

    A metric whose function is not wrapped (deleted or moved) reads 0 and is
    listed in `absent`; so is the cache hit ratio when
    `solver._payoff_tables` exposes no cache_info().
    """
    ops = _ops(results)
    traces = [r["trace"] for r in results]
    fns, mods = Counter(), Counter()
    for t in traces:
        for name, stats in t["functions"].items():
            fns.update({f"{name}.{k}": v for k, v in stats.items()})
        for name, stats in t["modules"].items():
            mods.update({f"{name}.{k}": v for k, v in stats.items()})
    m = {f"{mod}.{stat}": mods[f"{mod}.{stat}"] for mod in MODULES for stat in ("busy_s", "self_s")}
    absent = []
    for name, stats in (("special.harmonic_diff", ("busy_s",)),
                        ("special.trigamma_diff", ("busy_s",)),
                        ("solver.solve", ("calls", "busy_s", "self_s")),
                        ("solver.policy_value", ("busy_s",)),
                        ("solver.closed_form_value", ("busy_s",)),
                        ("solver.payoff", ("calls", "busy_s")),
                        ("solver.duration_pmf", ("busy_s",)),
                        ("simulate.monte_carlo", ("calls", "busy_s")),
                        ("simulate.exhaustive_policy_value", ("busy_s",)),
                        ("asymptotic.asymptotic_solution", ("calls", "busy_s")),
                        ("cli.main", ())):
        if name not in traces[0]["wrapped"]:
            absent.append(name)
        m.update({f"{name}.{stat}": fns[f"{name}.{stat}"] for stat in stats})
    m["solver.solve.cold_s"] = sum(t["solve_cold_s"] for t in traces)
    m["solver.solve.warm_s"] = sum(t["solve_warm_s"] for t in traces)
    for n in (100, 1000):
        trials = sum(op[2] for op in ops if op[0] == f"monte_carlo.n{n}")
        busy = sum(t["mc_busy_s"].get(str(n), 0.0) for t in traces)
        m[f"simulate.trials_per_s_n{n}"] = trials / busy if trials and busy else 0.0
    m["simulate.rss_mb"] = max(sum(op[3] for op in r["ops"] if op[0].startswith(
        ("monte_carlo", "cli.simulate"))) for r in results)
    caches = [r["cache"] for r in results]
    if None in caches:
        absent.append("solver.cache_hit_ratio")
        m["solver.cache_hit_ratio"] = 0.0
    else:
        hits, misses = sum(c[0] for c in caches), sum(c[1] for c in caches)
        m["solver.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    big = [g for r in results for n, g in r["rss_growth_mb"] if n >= 500000]
    m["solver.rss_growth_mb_per_horizon"] = statistics.median(big) if big else 0.0
    for kind in CLI_COMMANDS:
        lat = [op[1] for op in ops if op[0] == "cli." + kind]
        m[f"cli.{kind}.p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    out = [op for op in ops if op[0] == "cli.solve_table_out"]
    m["cli.table_out_rows_per_s"] = (sum(op[2] for op in out) / sum(op[1] for op in out)
                                     if out else 0.0)
    op_total = sum(op[1] for op in ops)
    share = {mod: mods[f"{mod}.busy_s"] / op_total for mod in MODULES}
    return m, absent, share


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(args, ready):
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level").strip(), _read(idx / "type").strip()
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read(idx / "size").strip()
    commit = "unknown (not a git checkout)"
    ref = _read(ROOT / ".git" / "HEAD").strip()
    if ref:
        commit = (_read(ROOT / ".git" / ref[5:]).strip() if ref.startswith("ref: ") else ref) or ref
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(), "numpy": ready["numpy"], "scipy": ready["scipy"],
        "commit": commit, "seed": args.seed, "seconds": args.seconds, "passes": PASSES,
        "threads": 1, "traced": bool(args.trace),
    }


def run(args):
    if not (SRC / "shelflife" / "__init__.py").is_file():
        raise BenchError(f"no shelflife package under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)

    setups, readies, plain = run_passes(args, deadline, trace=False)
    traced = []
    if args.trace:
        t_setups, t_readies, traced = run_passes(args, deadline, trace=True)
        setups, readies = setups + t_setups, readies + t_readies

    probe = plain[-1]["determinism"]
    failures = [f for r in plain for f in r["failures"]]
    failures += [f"traced: {f}" for r in traced for f in r["failures"]]
    if not probe["ok"]:
        failures.append(f"determinism probe: {probe}")
    attempted = len(_ops(plain)) + len(_ops(traced)) + 1
    failed = len(failures)

    full = dict(op_metrics(args.workload, plain), setup_s=statistics.median(setups),
                error_rate=failed / attempted)
    counts = Counter()
    for r in plain:
        counts.update(r["counts"])
    record = {
        "workload": args.workload,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(full.items())},
        "attempted": attempted, "failed": failed, "failures": failures[:50],
        "counts": dict(sorted(counts.items())), "determinism": probe,
        "setup_samples_s": setups, "pass_wall_s": [r["wall_s"] for r in plain],
        "provenance": provenance(args, readies[0]),
    }
    if traced:
        layers, absent, share = layer_metrics(traced)
        layers["setup.import_s"] = statistics.median(r["import_s"] for r in readies)
        layers["setup.first_call_s"] = statistics.median(r["first_call_s"] for r in readies)
        traced_wall = sum(r["wall_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_wall / full["wall_s"] - 1.0
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        record["trace"] = {"layers": metrics, "absent": absent, "module_share": share,
                           "traced_wall_s": traced_wall,
                           "spans": sum(r["trace"]["spans"] for r in traced)}
    else:
        metrics = {m["name"]: {"value": full[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    # SIGTERM unwinds like an error, so the running pass is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        record, result = run(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
