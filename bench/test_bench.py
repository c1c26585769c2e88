"""Self-tests of the benchmark: its checks catch wrong output, its span arithmetic
is right, and it refuses to run without the package.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import shelflife  # noqa: E402
from shelflife import cli  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def failures(body, plan, lib=shelflife, tmp_path=None):
    run = worker.Runner()
    body(lib, run, plan, {"rss_growth_mb": [], "tmpdir": str(tmp_path)})
    return len(run.run_checks()), len(run.ops)


SMALL_SWEEP = {"horizons": [10000, 100000], "exhaustive": [(8, (1, 3))]}
SMALL_MC = [(100, (12, 41), 4096, 7), (1000, (120, 417), 512, 8)]
SMALL_CLI = [c for c in worker.cli_plan(3, 0.4, 1)[0] if c[0] != "solve_table_out"]


def test_checks_pass_on_correct_output(tmp_path):
    assert failures(worker.exact_sweep, SMALL_SWEEP, tmp_path=tmp_path)[0] == 0
    assert failures(worker.mc_rollout, SMALL_MC, tmp_path=tmp_path)[0] == 0
    assert failures(worker.cli_session, SMALL_CLI, tmp_path=tmp_path)[0] == 0


def test_wrong_limit_constant_fails_exact_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "REF_B", worker.REF_B + 1e-3)
    failed, attempted = failures(worker.exact_sweep, SMALL_SWEEP, tmp_path=tmp_path)
    # solve at n = 1e5 (k2/n) and asymptotic_solution (b)
    assert failed == 2 and failed / attempted > 0


def test_wrong_exact_value_fails_mc_rollout(tmp_path):
    lib = types.SimpleNamespace(monte_carlo=shelflife.monte_carlo,
                                policy_value=lambda pol, n: shelflife.policy_value(pol, n) + 0.2)
    failed, attempted = failures(worker.mc_rollout, SMALL_MC, lib=lib, tmp_path=tmp_path)
    assert failed == attempted == 2


def test_wrong_reference_table_fails_cli_session(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "REFERENCE_TABLE", worker.REFERENCE_TABLE.replace("0.415064", "0.415065"))
    failed, _ = failures(worker.cli_session, SMALL_CLI, tmp_path=tmp_path)
    assert failed == sum(kind == "table" for kind, _ in SMALL_CLI)


def test_table_out_rows_checked(tmp_path):
    path = tmp_path / "diag.csv"
    assert cli.main(["solve", "--n", "50", "--table-out", str(path)]) == 0
    worker._check_table_out(shelflife, path, 50)
    path.write_text(path.read_text().replace(",1,1\n", ",1,0\n", 1))
    with pytest.raises(worker.Failure):
        worker._check_table_out(shelflife, path, 50)


def test_plans_repeat_per_seed_and_never_repeat_a_horizon():
    plans = worker.sweep_plan(5, 20, 5)
    assert plans == worker.sweep_plan(5, 20, 5) != worker.sweep_plan(6, 20, 5)
    horizons = [n for plan in plans for n in plan["horizons"]]
    assert len(set(horizons)) == len(horizons)
    assert min(horizons) >= 9700 and max(horizons) <= 10**6
    assert sum(n >= 950000 for n in horizons) >= 5
    assert worker.cli_plan(5, 20, 5) == worker.cli_plan(5, 20, 5) != worker.cli_plan(6, 20, 5)
    assert worker.mc_plan(5, 20, 5) == worker.mc_plan(5, 20, 5) != worker.mc_plan(6, 20, 5)


def test_self_time_subtracts_children():
    # op span [0, 10] > a.f [1, 7] > b.g [2, 5] > a.h [3, 4]; a.f again [8, 9]
    names = ["bench.op", "a.f", "b.g", "a.h"]
    cols = {"name": np.array([0, 1, 2, 3, 1]), "parent": np.array([-1, 0, 1, 2, 0]),
            "start": np.array([0.0, 1, 2, 3, 8]), "end": np.array([10.0, 7, 5, 4, 9])}
    s = tracer.summarize(cols, names)
    assert s["functions"]["a.f"] == {"calls": 2, "busy_s": 7.0, "self_s": 4.0}
    assert s["functions"]["b.g"]["self_s"] == 2.0
    # a.h is nested in a.f, so module a is busy 7 s, not 8 s
    assert s["modules"]["a"] == {"busy_s": 7.0, "self_s": 5.0}
    assert s["modules"]["bench"]["self_s"] == 3.0


def test_tracer_wraps_cross_module_bindings_and_restores():
    orig_solve, orig_hd = shelflife.solver.solve, shelflife.solver.harmonic_diff
    t = tracer.Tracer()
    t.install(shelflife)
    try:
        assert shelflife.solve is shelflife.solver.solve is not orig_solve
        op = t.begin_op(0, "x")
        shelflife.closed_form_value(12, 41, 100)
        t.finish(op)
    finally:
        t.uninstall()
    assert shelflife.solver.solve is orig_solve and shelflife.solver.harmonic_diff is orig_hd
    assert "simulate.realized_outcome" not in t.wrapped
    spans = [t.names[i] for i in t.name]
    assert spans == ["bench.x", "solver.closed_form_value", "special.harmonic_diff",
                     "special.harmonic_diff", "special.trigamma_diff"]
    assert list(t.parent) == [-1, 0, 1, 1, 1]


def test_missing_function_is_absent_not_an_error():
    result = {"ops": [["solve", 1.0, 10, 0.0]], "cache": None, "rss_growth_mb": [],
              "trace": {"functions": {"solver.solve": {"calls": 1, "busy_s": 1.0, "self_s": 1.0}},
                        "modules": {"solver": {"busy_s": 1.0, "self_s": 1.0}},
                        "wrapped": ["solver.solve"], "solve_cold_s": 0.0, "solve_warm_s": 0.0,
                        "mc_busy_s": {}}}
    layers, absent, share = bench_run.layer_metrics([result])
    assert "solver.closed_form_value" in absent and "solver.cache_hit_ratio" in absent
    assert "solver.solve" not in absent
    assert layers["solver.closed_form_value.busy_s"] == 0 and layers["solver.solve.calls"] == 1
    assert share["solver"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-rollout",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout)
