import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from oracles import write_pmf_rows, write_table_out_rows

from shelflife import asymptotic, cli, solver
from shelflife.cli import main
from shelflife.simulate import monte_carlo
from shelflife.solver import mean_operator, payoff, policy_value, solve

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


# sha256 of `solve --n N --table-out`, recorded with every kernel cell through math.log1p
# and the continuation from its closed form in each cell
TABLE_OUT_SHA256 = {
    10: "e2d0f9d59cb8b79e0053cf2d5a02a7b8f281937fd724852cd98421721eab59f3",
    1000: "bb477791d9032f199276b5ab2e47b9dada8c4d89a3206c6b2568e20ea5db96f3",
    20000: "a4229fc2d5ca2525cbe49fdcc86a44a6dda0e9a4797f6d308087fcc4b6d95c0f",
    123457: "4141f3d83dc7b1ce46f55e731639b10bbf40f477407688aa347d2a044d1e8c95",
}


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_peaks(argv_of, ns):
    """The traced peak of main(argv_of(n)) for each n, stdout discarded, after
    one warm call at n = 1000 that makes the first-call allocations."""
    peaks = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for n in (1000, *ns):
            codes = []
            peaks.append(_traced_peak(lambda: codes.append(main(argv_of(n)))))
            assert codes == [0], n
    return peaks[1:]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_search(monkeypatch):
    """solver.solve fails the test if any command calls it."""
    def refuse(n):
        raise AssertionError(f"searched n = {n}")

    monkeypatch.setattr(cli.solver, "solve", refuse)


def _solve_record():
    res = solve(10)
    return ["solve", "--n", "10"], {"n": 10, "k1": res.thresholds.k1,
                                    "k2": res.thresholds.k2, "value": res.value}


def _simulate_record():
    k1, k2 = solve(20).thresholds
    est = monte_carlo(20, (k1, k2), 1, 0)
    assert est.std_error == 0.0
    return ["simulate", "--n", "20", "--trials", "1", "--seed", "0"], {
        "n": 20, "k1": k1, "k2": k2, "trials": 1, "seed": 0, "mean": est.mean,
        "std_error": est.std_error, "exact": policy_value((k1, k2), 20), "z_score": None}


def _asymptotic_record(fine_n=None):
    sol = asymptotic.asymptotic_solution()
    record = {
        "a": sol.a, "b": sol.b, "value": sol.value,
        "residual_b": abs(asymptotic.mean_operator_limit(sol.b)
                          - asymptotic.phi_limit(sol.b, 2)),
        "residual_a": abs(asymptotic.limit_value_function(sol.a, sol.b)
                          - asymptotic.phi_limit(sol.a, 1)),
    }
    if fine_n is None:
        return ["asymptotic"], record
    res = solve(fine_n)
    record.update(k1_over_n=res.thresholds.k1 / fine_n,
                  k2_over_n=res.thresholds.k2 / fine_n, v_n=res.value)
    return ["asymptotic", "--fine-n", str(fine_n)], record


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("case", [_solve_record, _simulate_record, _asymptotic_record,
                                  functools.partial(_asymptotic_record, 1000)],
                         ids=["solve", "simulate", "asymptotic", "asymptotic-fine-n"])
def test_record_bytes(capsys, case, fmt):
    """The whole stdout of a one-record command: JSON with ", " and ": "
    separators and null, or a CSV header and value line with an empty cell for
    None; floats at repr precision either way."""
    argv, record = case()
    if fmt == "--json":
        fields = (f'"{k}": {"null" if v is None else repr(v)}' for k, v in record.items())
        want = "{" + ", ".join(fields) + "}\n"
    else:
        cells = ("" if v is None else repr(v) for v in record.values())
        want = ",".join(record) + "\n" + ",".join(cells) + "\n"
    assert run_cli(argv + [fmt], capsys) == (0, want, "")


class TestSolveCommand:
    def test_json_round_trip(self, capsys):
        code, out, err = run_cli(["solve", "--n", "10"], capsys)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["n"] == 10
        assert record["k1"] == 1
        assert record["k2"] == 4
        # repr-precision JSON round-trips the solver value exactly
        assert record["value"] == solve(10).value

    def test_csv(self, capsys):
        code, out, _ = run_cli(["solve", "--n", "10", "--csv"], capsys)
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,k1,k2,value"
        cells = row.split(",")
        assert cells[:3] == ["10", "1", "4"]
        assert float(cells[3]) == solve(10).value

    def test_table_out(self, capsys, tmp_path):
        path = tmp_path / "diag.csv"
        code, _, _ = run_cli(["solve", "--n", "10", "--table-out", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "k,phi1,phi2,continuation,stop1,stop2"
        assert len(lines) == 11
        # rank 2 does not exist at time 1
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "" and first[5] == ""
        res = solve(10)
        for k, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            assert float(cells[3]) == float(res.continuation[k])
            assert cells[4] == str(int(k > res.thresholds.k1))

    @pytest.mark.parametrize("n", [2, 3, 10, 1000, 20000])
    def test_table_out_bytes_match_row_writer(self, capsys, tmp_path, n):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        code, _, _ = run_cli(["solve", "--n", str(n), "--table-out", str(new)], capsys)
        assert code == 0
        write_table_out_rows(old, n)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("rows", [1, 3, 8, 9])
    def test_table_out_block_boundaries(self, tmp_path, monkeypatch, rows):
        old = tmp_path / "old.csv"
        write_table_out_rows(old, 10)
        monkeypatch.setattr(solver, "ROWS", rows)
        blocks = "".join(cli._table_out_blocks(solve(10), 10))
        assert blocks == old.read_text()

    @pytest.mark.parametrize("n,sha256", TABLE_OUT_SHA256.items(), ids=map(str, TABLE_OUT_SHA256))
    def test_table_out_recorded_bytes(self, capsys, tmp_path, n, sha256):
        path = tmp_path / "diag.csv"
        assert run_cli(["solve", "--n", str(n), "--table-out", str(path)], capsys)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_kernel_bits_do_not_follow_numpy_cpu_dispatch(self):
        """The payoff kernel takes math.log1p in every cell, so its bits follow the
        platform libm and not the SIMD loops numpy picks for the CPU: a process with
        numpy's AVX-512 loops turned off writes the recorded --table-out bytes and
        the payoffs of this process.  On a host without AVX-512 both runs take the
        same path, so there the test shows nothing.  The group names are numpy
        2.x's; numpy 1.x names the groups differently and warns of a name it does
        not know, which the child ignores."""
        ks = (32, 33, 1000, 120381, 417188, 999999)
        script = (
            "import hashlib, os, sys, tempfile\n"
            "from shelflife.cli import main\n"
            "from shelflife.solver import mean_operator, payoff\n"
            "path = os.path.join(tempfile.mkdtemp(), 'diag.csv')\n"
            f"for n in {tuple(TABLE_OUT_SHA256)}:\n"
            "    main(['solve', '--n', str(n), '--table-out', path])\n"
            "    print(n, hashlib.sha256(open(path, 'rb').read()).hexdigest())\n"
            "os.remove(path)\n"
            f"for k in {ks}:\n"
            "    print(k, payoff(k, 1, 10**6).hex(), mean_operator(k, 10**6).hex())\n"
        )
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
        proc = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c", script],
                              capture_output=True, text=True, env=env, check=True)
        lines = proc.stdout.splitlines()
        assert [line for line in lines if not line.startswith("{")] == [
            *(f"{n} {sha256}" for n, sha256 in TABLE_OUT_SHA256.items()),
            *(f"{k} {payoff(k, 1, 10**6).hex()} {mean_operator(k, 10**6).hex()}" for k in ks)]

    def test_table_out_peak_is_its_continuation(self, tmp_path):
        # beyond the continuation, one block's worth at both horizons (measured
        # 356 and 383 KiB); a float array of n entries beside it would grow by 312 KiB
        ns = (20000, 60000)
        peaks = _traced_peaks(
            lambda n: ["solve", "--n", str(n), "--table-out", str(tmp_path / "diag.csv")], ns)
        small, large = (peak - 8 * (n + 2) for peak, n in zip(peaks, ns))
        assert small < 2**20 and large < 2**20
        assert large - small <= 2**16

    @needs_dev_full
    def test_table_out_to_full_device_exits_2(self, capsys):
        code, out, err = run_cli(["solve", "--n", "100000", "--table-out", "/dev/full"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 28]")

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run_cli(["solve", "--n", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unwritable_table_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "diag.csv"
        code, out, err = run_cli(["solve", "--n", "10", "--table-out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_empty_table_out_path_exits_2(self, capsys):
        # an empty path is given, not absent: opening it fails before any output
        code, out, err = run_cli(["solve", "--n", "10", "--table-out", ""], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_horizon_1e15(self, capsys):
        code, out, err = run_cli(["solve", "--n", "1000000000000000"], capsys)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert (record["k1"], record["k2"]) == (120381306662927, 417188356134188)

    def test_horizon_above_1e154_exits_2(self, capsys):
        code, out, err = run_cli(["solve", "--n", str(10**155)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "10**154" in err

    def test_simulate_above_1e154_exits_2(self, capsys):
        # monte_carlo checks the horizon before it draws a single trial
        code, out, err = run_cli(
            ["simulate", "--n", str(10**155), "--k1", "5", "--k2", "7"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: horizon must be at most 10**154")

    @pytest.mark.parametrize("n", [sys.maxsize // 8 - 1, 10**153 + 7, 10**154])
    def test_table_out_numpy_cannot_shape_is_refused_before_the_search(
            self, capsys, tmp_path, no_search, n):
        """Past n + 2 = sys.maxsize // 8 floats numpy refuses the continuation's
        shape whatever the memory, so --table-out refuses the horizon first."""
        path = tmp_path / "diag.csv"
        code, out, err = run_cli(["solve", "--n", str(n), "--table-out", str(path)], capsys)
        assert (code, out) == (2, "")
        word = {10**153 + 7: "a 154-digit number", 10**154: "10**154"}.get(n, str(n))
        assert err == (f"error: --table-out horizon must be at most {sys.maxsize // 8 - 2}, "
                       f"got {word}\n")
        assert not path.exists()

    def test_table_out_above_1e154_keeps_the_horizon_message(self, capsys, tmp_path, no_search):
        """Above 10**154 the --table-out cap is the one the horizon breaks first."""
        path = tmp_path / "diag.csv"
        code, out, err = run_cli(["solve", "--n", str(10**155), "--table-out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: --table-out horizon must be at most {sys.maxsize // 8 - 2}, "
                       "got 10**155\n")
        assert not path.exists()

    def test_table_out_numpy_can_shape_is_searched_then_fails_to_allocate(self, capsys,
                                                                          tmp_path):
        # one float short of the shape limit: 8 EiB, beyond any address space
        path = tmp_path / "diag.csv"
        argv = ["solve", "--n", str(sys.maxsize // 8 - 2), "--table-out", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate")
        assert not path.exists()

    @pytest.fixture(scope="class")
    def table_out_at_1e15(self, tmp_path_factory):
        """One fresh process of solve --n 10**15 --table-out: the continuation,
        7.1 PiB, is allocated before the file opens.  That is beyond a 47-bit
        address space, so the allocation fails at once and touches no memory."""
        path = tmp_path_factory.mktemp("table_out") / "diag.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "shelflife", "solve", "--n", "1000000000000000",
             "--table-out", str(path)],
            capture_output=True, text=True,
        )
        return proc, path

    def test_table_too_large_to_allocate_exits_2(self, table_out_at_1e15):
        proc, _ = table_out_at_1e15
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_failed_table_out_leaves_no_file(self, table_out_at_1e15):
        proc, path = table_out_at_1e15
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
        assert not path.exists()


class TestTableCommand:
    def test_reference_table_bytes(self, capsys):
        code, out, _ = run_cli(["table"], capsys)
        assert code == 0
        assert out == REFERENCE_TABLE

    def test_stable_across_runs(self, capsys):
        _, first, _ = run_cli(["table"], capsys)
        _, second, _ = run_cli(["table"], capsys)
        assert first == second

    def test_custom_ns(self, capsys):
        code, out, _ = run_cli(["table", "--ns", "30,40"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4  # header, two rows, limit row
        assert lines[1].startswith("30,3,12,")
        assert lines[2].startswith("40,4,16,")
        assert lines[3].startswith("inf,")

    def test_bad_ns_exits_2(self, capsys):
        code, _, err = run_cli(["table", "--ns", "30,junk"], capsys)
        assert code == 2
        assert "--ns" in err

    @pytest.mark.parametrize("ns", [",".join(map(str, range(31))) + ",x",
                                    ",".join(map(str, range(60))) + ",x"], ids=["0..30", "0..59"])
    def test_bad_ns_message_is_cut(self, capsys, ns):
        """The text is worded by the argument rule, its repr cut to 40 characters,
        so the line on stderr does not grow with the list."""
        code, out, err = run_cli(["table", "--ns", ns], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --ns must be a comma-separated integer list, got {ns!r:.40}\n"
        assert len(err) <= 100

    @pytest.mark.parametrize("ns", ["", ",", " "])
    def test_empty_ns_exits_2(self, capsys, ns):
        # an empty --ns is an empty list, not the default one
        code, out, err = run_cli(["table", "--ns", ns], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --ns list is empty")

    @pytest.mark.parametrize("ns", ["10,1", f"10,{10**155}"], ids=["1", "1e155"])
    def test_bad_horizon_after_a_good_one_writes_nothing(self, capsys, ns):
        code, out, err = run_cli(["table", "--ns", ns], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_matches_subprocess_entry_point(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "shelflife", "table"],
            capture_output=True, text=True, check=True,
        )
        _, out, _ = run_cli(["table"], capsys)
        assert proc.stdout == out


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--n", "3", "--trials", "1", "--seed", "7"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        record = json.loads(first)
        assert record["exact"] == policy_value((0, 0), 3)
        assert record["z_score"] is None  # single trial, zero standard error

    def test_explicit_policy(self, capsys):
        argv = ["simulate", "--n", "10", "--k1", "9", "--k2", "9",
                "--trials", "20000", "--seed", "0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["k1"] == 9 and record["k2"] == 9
        assert record["exact"] == pytest.approx(0.02, abs=1e-15)
        assert abs(record["mean"] - record["exact"]) < 4 * record["std_error"]
        assert record["z_score"] == pytest.approx(
            (record["mean"] - record["exact"]) / record["std_error"]
        )

    def test_csv_header(self, capsys):
        argv = ["simulate", "--n", "10", "--k1", "9", "--k2", "9",
                "--trials", "100", "--seed", "1", "--csv"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,k1,k2,trials,seed,mean,std_error,exact,z_score"

    def test_bad_seed_exits_2(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--n", "5", "--trials", "10", "--seed", "-1"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("option, value, message", [
        ("--seed", str(-10**20),
         "seed must be in 0..18446744073709551615, got -10**20"),
        ("--trials", "0", "trials must be in 1..2305843009213693952, got 0")])
    def test_bad_trials_or_seed_refused_before_the_search(self, capsys, no_search,
                                                          option, value, message):
        argv = ["simulate", "--n", str(10**153 + 7), "--trials", "24", option, value]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_trials_above_2_61_exit_2(self, capsys):
        # a domain error before any draw, not a wrapped counter or an endless run
        code, out, err = run_cli(
            ["simulate", "--n", "10", "--trials", str(10**19)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: trials must be in 1..2305843009213693952")

    @pytest.mark.parametrize("argv", [["--n", "100", "--trials", "4097", "--seed", "5"],
                                      ["--n", "100", "--trials", "70000", "--seed", "3"],
                                      ["--n", "100", "--trials", "100000", "--seed", "3"]],
                             ids=" ".join)
    def test_same_bytes_in_fresh_processes_at_any_blas_thread_count(self, capsys, argv):
        """A seeded estimate is the same bytes in this process and in fresh ones
        at 1 and 2 BLAS threads: 4097 trials end on a sub-block of one trial,
        and the sum of squares makes no BLAS call."""
        outs = {subprocess.run([sys.executable, "-m", "shelflife", "simulate", *argv],
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, text=True, check=True).stdout
                for threads in ("1", "2")}
        assert outs == {run_cli(["simulate", *argv], capsys)[1]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["solve", "--n", str(10**100)],
    ["simulate", "--n", str(10**15), "--trials", "1000"],
    # near the horizon cap the sampler's overflow is silenced, not warned
    ["simulate", "--n", str(10**154), "--k1", str(10**153), "--k2", str(5 * 10**153),
     "--trials", "1000"],
], ids=["solve-1e100", "simulate-1e15", "simulate-near-cap"])
def test_large_horizons_exit_0_without_warnings(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == int(argv[2])


def test_kernel_at_the_cap_exits_0_under_w_error_in_a_fresh_process():
    """k1 = k2 = 10**154 - 1 reads the payoff kernel where 2nk overflows a float: the
    overflow is silenced, not warned, and past 2^53 the kernel keeps its 1, so the
    exact value is not negative (it read -1e-154 when the 1 was lost)."""
    k = str(10**154 - 1)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "shelflife", "simulate",
                           "--n", str(10**154), "--k1", k, "--k2", k],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["exact"] == 0.0


class TestPmfCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(["pmf", "--n", "6", "--i", "3", "--rank", "1"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["pmf"] == {"4": 0.0, "5": 0.1, "6": 0.1}
        assert record["survive"] == 0.8
        total = math.fsum(record["pmf"].values()) + record["survive"]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--n", "6", "--i", "3", "--rank", "1", "--csv"], capsys
        )
        assert code == 0
        assert out == "k,probability\n4,0.0\n5,0.1\n6,0.1\nsurvive,0.8\n"

    def test_impossible_rank_exits_2(self, capsys):
        code, _, err = run_cli(["pmf", "--n", "5", "--i", "1", "--rank", "2"], capsys)
        assert code == 2
        assert "rank 2" in err

    @pytest.mark.parametrize("n", [2**63 + 10, 10**102], ids=["2^63+10", "1e102"])
    def test_huge_horizon_matches_record_writer(self, capsys, n):
        code, out, err = run_cli(["pmf", "--n", str(n), "--i", str(n - 5), "--rank", "1"], capsys)
        assert code == 0 and err == ""
        old = io.StringIO()
        write_pmf_rows(old, n - 5, 1, n, False)
        assert out == old.getvalue()

    def test_horizon_above_1e102_exits_2(self, capsys):
        # beyond, the denominators overflow a float: refused before any output
        n = str(10**103)
        code, out, err = run_cli(["pmf", "--n", n, "--i", n, "--rank", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: pmf horizon must be at most 10**102")

    def test_rank_choices_enforced_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--n", "5", "--i", "2", "--rank", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    @pytest.mark.parametrize(
        "n,r,i",
        sorted({(n, r, i) for n in (2, 3, 10, 1000) for r in (1, 2) for i in (r, 2, n)}),
    )
    def test_bytes_match_record_writer(self, capsys, n, r, i, fmt):
        code, out, err = run_cli(
            ["pmf", "--n", str(n), "--i", str(i), "--rank", str(r), fmt], capsys
        )
        assert code == 0 and err == ""
        old = io.StringIO()
        write_pmf_rows(old, i, r, n, fmt == "--csv")
        assert out == old.getvalue()

    @pytest.mark.parametrize("as_csv", [False, True])
    @pytest.mark.parametrize("i,r", [(1, 1), (2, 2), (9, 1), (10, 2)])
    @pytest.mark.parametrize("rows", [1, 3, 8, 9])
    def test_block_boundaries(self, monkeypatch, rows, i, r, as_csv):
        old = io.StringIO()
        write_pmf_rows(old, i, r, 10, as_csv)
        monkeypatch.setattr(solver, "ROWS", rows)
        blocks = "".join(cli.cmd_pmf(SimpleNamespace(i=i, rank=r, n=10, csv=as_csv)))
        assert blocks == old.getvalue()

    def test_memory_bounded_by_block(self):
        # one block's worth at either horizon (measured 193 KiB at both)
        small, large = _traced_peaks(
            lambda n: ["pmf", "--n", str(n), "--i", "1", "--rank", "1"], (20000, 100000))
        assert small < 2**20 and large < 2**20
        assert abs(large - small) <= 2**16

    @needs_dev_full
    def test_stdout_to_full_device_exits_2(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "shelflife", "pmf", "--n", "100000", "--i", "2",
                 "--rank", "1"],
                stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: [Errno 28]") and "Traceback" not in proc.stderr

    def test_stdout_pipe_closed_by_reader_exits_2(self):
        # the reader keeps 10 bytes and closes the pipe, as `| head -c 10` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "shelflife", "pmf", "--n", "100000", "--i", "2",
             "--rank", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.read(10) == '{"n": 1000'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err.startswith("error: [Errno 32]") and "Traceback" not in err


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_reuse_matches_fresh_parser(tmp_path, monkeypatch):
    """One in-process sequence through main, with its one parser, gives what a
    freshly built parser gives for each argv."""
    def run_sequence(path):
        return [_call(argv) for argv in (
            ["pmf", "--n", "6", "--i", "3", "--rank", "1", "--csv"],
            ["pmf", "--n", "6", "--i", "3", "--rank", "1"],
            ["table", "--ns", "1,x"],
            ["pmf", "--rank", "3"],
            ["solve", "--n", "10", "--table-out", str(path)],
            ["solve", "--n", "10"],
            ["simulate", "--n", "20", "--trials", "100", "--seed", "1"],
        )]

    shared = run_sequence(tmp_path / "shared.csv")
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_sequence(tmp_path / "fresh.csv")
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0, 0]
    assert shared[0][1].startswith("k,probability\n") and shared[1][1].startswith("{")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert cli.build_parser() is not cli.build_parser()


# argvs that parse: every command, its options in another order, an abbreviation
VALID_ARGV = [
    ["solve", "--n", "10"], ["solve", "--n=10", "--csv"], ["solve", "--json", "--n", "10"],
    ["solve", "--n", "10", "--cs"], ["solve", "--n", "1"],
    ["table"], ["table", "--ns", "10,20"], ["table", "--ns", "1,x"],
    ["simulate", "--n", "20", "--trials", "100", "--seed", "1"],
    ["simulate", "--seed", "2", "--n", "20", "--k1", "2", "--k2", "8", "--trials", "50", "--csv"],
    ["pmf", "--n", "6", "--i", "3", "--rank", "1"],
    ["pmf", "--rank", "2", "--i", "2", "--n", "8", "--csv"],
    ["asymptotic"], ["asymptotic", "--fine-n", "1000", "--csv"],
]
# help, which exits 0, and every class of usage error, which exits 2
USAGE_ARGV = [
    ["-h"], ["--help"], ["solve", "-h"], ["solve", "--n", "10", "--help"], ["table", "-h"],
    ["simulate", "--help"], ["pmf", "-h"], ["asymptotic", "-h"],
    ["solve"], ["pmf", "--n", "6"], ["solve", "--n"],
    ["solve", "--n", "x"], ["simulate", "--n", "20", "--trials", "1.5"],
    ["pmf", "--n", "6", "--i", "3", "--rank", "3"],
    ["solve", "--n", "10", "--json", "--csv"], ["simulate", "--n", "20", "--csv", "--json"],
    ["solve", "--n", "10", "--bogus"], ["solve", "--n", "10", "extra"], ["table", "--"],
    ["solve", "--n", "10", "--", "x"], ["asymptotic", "-x"], ["pmf", "a", "--n", "6", "b"],
    [], ["bogus"], ["--n", "10", "solve"], ["--", "solve", "--n", "10"], ["-x", "table"],
]


def _top_level_parser():
    """The parser with no command listed, so main sends every argv through
    the top level, which hands it on to the command's parser: two passes."""
    parser = cli.build_parser()
    parser.commands = {}
    return parser


@pytest.mark.parametrize("argv", VALID_ARGV + USAGE_ARGV, ids=" ".join)
def test_one_pass_matches_the_top_level_parser(argv, monkeypatch):
    """main's one pass through the command's parser gives the exit code,
    stdout, stderr and Namespace that the top-level parser gives."""
    seen = []
    for name in ("cmd_solve", "cmd_table", "cmd_simulate", "cmd_pmf", "cmd_asymptotic"):
        monkeypatch.setattr(cli, name,
                            lambda args, f=getattr(cli, name): seen.append(args) or f(args))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    got = _call(argv)
    monkeypatch.setattr(cli, "_parser", _top_level_parser)
    want = _call(argv)
    assert got == want
    assert seen[::2] == seen[1::2]
    assert len(seen) == 2 * (argv in VALID_ARGV)
    if argv in VALID_ARGV:
        assert seen[0] == cli.build_parser().parse_args(argv)
    else:
        assert want[0] == (0 if "-h" in argv or "--help" in argv else 2)
        assert want[1] == "" or want[0] == 0
        assert want[2].startswith("usage: shelflife") or want[0] == 0


@pytest.mark.parametrize("argv", [["solve", "--n", "10"], ["table"], ["solve", "-h"],
                                  ["solve", "--n", "10", "--bogus"], ["pmf", "--n", "6"]],
                         ids=" ".join)
def test_command_argv_skips_the_top_level_parser(argv, monkeypatch):
    """A command's argv is parsed once, by the command's parser; only the
    other argvs reach the top-level parser's parse_known_args."""
    def refuse(*args, **kwargs):
        raise AssertionError("top-level parse")

    monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
    assert _call(argv)[0] in (0, 2)
    for other in ([], ["-h"], ["bogus"], ["--n", "10", "solve"]):
        with pytest.raises(AssertionError, match="top-level parse"):
            _call(other)


# 60 argvs take about 4 s on a 2-core host: a horizon near 10^154 costs about 0.8 s
FUZZ_CALLS = 60
FUZZ_BOUNDARIES = [-10**20, -1, 0, 1, 2, 3, 8, 9, 10**4, 2**61, 2**61 + 1, 2**63, 2**64,
                   10**15, 10**154, 10**154 + 1, 10**155]
FUZZ_OPTIONS = {"solve": ["--n", "--table-out"], "table": ["--ns"],
                "simulate": ["--n", "--k1", "--k2", "--trials", "--seed"],
                "pmf": ["--n", "--i", "--rank"], "asymptotic": ["--fine-n"]}
# options a tame argv always gives; --trials is never dropped, as its default of
# 10^5 trials is more work than a call may do
FUZZ_REQUIRED = {"--n", "--i", "--rank", "--trials"}


def _as_int(text):
    try:
        return int(text)  # what argparse's type=int accepts
    except ValueError:
        return None


def _fuzz_int(rng, wild):
    """Option text: a small integer, a boundary, an integer of 1 to 155 digits
    (negative down to -10^20) or, if wild, text that is not an integer."""
    roll = rng.random()
    if roll < 0.4:
        return str(rng.randint(-1, 40))
    if roll < 0.6:
        return str(rng.choice(FUZZ_BOUNDARIES))
    if roll < 0.9 or not wild:
        digits = rng.randint(1, 155)
        x = rng.randint(10 ** (digits - 1), 10**digits)
        return str(-x if digits <= 20 and rng.random() < 0.2 else x)
    return rng.choice(["1.5", "2.0", "1e3", "x", "", "0x10", "nan", "-"])


def _fuzz_value(rng, opt, last, path, wild):
    if opt == "--ns":
        return ",".join(_fuzz_int(rng, wild) for _ in range(rng.randint(0, 3)))
    if opt == "--rank":
        return rng.choice(["1", "2", "0", "3", "x"] if wild else ["1", "2"])
    if opt == "--table-out":
        return path
    n = _as_int(last.get("--n", ""))
    if opt == "--i" and n is not None and rng.random() < 0.7:
        return str(n - rng.randint(-1, 10**4))
    return _fuzz_int(rng, wild)


def _bounded(command, last):
    """Whether the call's work is bounded: at most 10^4 trials (or above 2^61,
    refused), 10^4 pmf rows, and --table-out rows (or 10^15 and more, refused)."""
    n, i, trials = (_as_int(last.get(opt, "")) for opt in ("--n", "--i", "--trials"))
    if command == "simulate" and not (trials is None or trials <= 10**4 or trials > 2**61):
        return False
    if command == "pmf" and n is not None and i is not None and 1 <= i <= n:
        return n - i <= 10**4
    return "--table-out" not in last or n is None or n <= 10**4 or n >= 10**15


def _fuzz_argv(rng, path):
    """One argv of a random command, with integers of any size.  Half the argvs
    are wild: they also drop required options, repeat options, give text that
    is not an integer, and add clashing or unknown flags."""
    command, wild = rng.choice(list(FUZZ_OPTIONS)), rng.random() < 0.5
    while True:
        pairs, last = [], {}
        for opt in FUZZ_OPTIONS[command]:
            drop = 0.5 if opt not in FUZZ_REQUIRED else 0.15 if wild else 0
            if opt != "--trials" and rng.random() < drop:
                continue
            for _ in range(2 if wild and rng.random() < 0.15 else 1):
                last[opt] = _fuzz_value(rng, opt, last, path, wild)
                pairs.append((opt, last[opt]))
        rng.shuffle(pairs)
        if _bounded(command, dict(pairs)):  # argparse keeps an option's last value
            break
    flags = rng.choice([[], ["--csv"], ["--json"]] + wild * [["--csv", "--json"], ["--bogus"]])
    if command == "table" and not wild:
        flags = []  # table has no format flags
    return [command, *itertools.chain.from_iterable(pairs), *flags]


@pytest.mark.filterwarnings("error")
def test_contract_fuzz(tmp_path, monkeypatch):
    """Seeded argvs of every command keep the exit-code contract: 0, 2 or 3; on
    a failure nothing on stdout and one message on stderr, never a traceback.
    An argv refused for its trials, seed or --table-out runs no search."""
    rng = random.Random(20261019)
    path = str(tmp_path / "diag.csv")
    codes, commands, searches = [], set(), []
    monkeypatch.setattr(cli.solver, "solve", lambda n: searches.append(n) or solve(n))
    for _ in range(FUZZ_CALLS):
        argv = _fuzz_argv(rng, path)
        searches.clear()
        code, out, err = _call(argv)
        if err.startswith(("error: trials", "error: seed", "error: --table-out")):
            assert searches == [], argv
        codes.append(code)
        commands.add(argv[0])
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 0:
            assert out and err == "", argv
        else:
            assert out == "", argv
            assert err.startswith(("usage: shelflife", "error:", "numeric failure:")), argv
    assert commands == set(FUZZ_OPTIONS)
    assert codes.count(0) > FUZZ_CALLS // 10 and codes.count(2) > FUZZ_CALLS // 10


class TestAsymptoticCommand:
    def test_constants_and_residuals(self, capsys):
        code, out, _ = run_cli(["asymptotic"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["a"] == pytest.approx(0.120381, abs=1e-5)
        assert record["b"] == pytest.approx(0.417188, abs=1e-6)
        assert record["value"] == pytest.approx(0.403827, abs=1e-5)
        assert record["residual_b"] <= 1e-15
        assert record["residual_a"] <= 1e-15

    def test_fine_n(self, capsys):
        code, out, _ = run_cli(["asymptotic", "--fine-n", "1000"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["k1_over_n"] == pytest.approx(record["a"], abs=5e-4)
        assert record["k2_over_n"] == pytest.approx(record["b"], abs=5e-4)
        assert record["v_n"] == pytest.approx(record["value"], abs=2e-3)

    @pytest.mark.parametrize("fine_n", ["0", "1"])
    def test_bad_fine_n_exits_2(self, capsys, fine_n):
        # --fine-n 0 is a horizon like any other, checked by the same rule
        code, out, err = run_cli(["asymptotic", "--fine-n", fine_n], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_csv(self, capsys):
        code, out, _ = run_cli(["asymptotic", "--csv"], capsys)
        assert code == 0
        header, row = out.splitlines()
        assert header == "a,b,value,residual_b,residual_a"
        assert float(row.split(",")[1]) == pytest.approx(0.417188, abs=1e-6)

    def test_numeric_failure_exits_3(self, capsys, monkeypatch):
        def boom():
            raise ArithmeticError("root bracketing for a failed")

        monkeypatch.setattr(cli.asymptotic, "asymptotic_solution", boom)
        code, out, err = run_cli(["asymptotic"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:")

    def test_root_finder_failure_exits_3(self, capsys, monkeypatch):
        # b so small that the bracket [1e-4, b - 1e-4] for a is empty
        monkeypatch.setattr(cli.asymptotic, "solve_b", lambda: 1.2e-4)
        code, out, err = run_cli(["asymptotic"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure: root bracketing for a failed")


def test_integer_rule_loads_without_numpy():
    """_validate, which every module imports, is stdlib only: loaded by path
    with numpy unimportable, its one integer rule still runs."""
    path = os.path.join(os.path.dirname(cli.__file__), "_validate.py")
    script = (
        "import importlib.util, sys\n"
        "sys.modules['numpy'] = None  # import numpy now raises ModuleNotFoundError\n"
        f"spec = importlib.util.spec_from_file_location('v', {path!r})\n"
        "v = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(v)\n"
        "print(v._check_int(7, 'k', 1, 9), v._check_int(2**70, 'n'))\n"
        "for x in (True, 2.0, '3', 10):\n"
        "    try:\n"
        "        v._check_int(x, 'k', 1, 9)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == ("7 1180591620717411303424\n"
                           "k must be an integer, got True\n"
                           "k must be an integer, got 2.0\n"
                           "k must be an integer, got '3'\n"
                           "k must be in 1..9, got 10\n")


def test_cli_runs_without_scipy():
    """The package and the asymptotic/table commands load no scipy module."""
    script = (
        "import io, sys, contextlib\n"
        "import shelflife\n"
        "from shelflife import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['asymptotic']) == 0\n"
        "    assert cli.main(['table']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_cli_never_loads_numpy_random(tmp_path):
    """The Monte Carlo generator is plain numpy arithmetic: no command imports
    numpy.random."""
    table_out = str(tmp_path / "t.csv")
    script = (
        "import io, sys, contextlib\n"
        "from shelflife import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['simulate', '--n', '100', '--trials', '100000']) == 0\n"
        "    assert cli.main(['pmf', '--n', '1000', '--i', '1', '--rank', '1']) == 0\n"
        f"    assert cli.main(['solve', '--n', '1000', '--table-out', {table_out!r}]) == 0\n"
        "    assert cli.main(['table']) == 0\n"
        "    assert cli.main(['asymptotic']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
