"""Command-line interface: solve, table, simulate, pmf, asymptotic.

Each command returns its output as an iterable of text, and `main` is the one
place that writes stdout.  A command's checks and array builds run before it
returns, so a bad argument or an array too large to build leaves no output
and no file.  JSON (default) carries full float precision with a stable key
order.  CSV has a header row and LF line endings; no field needs quoting, so
it is plain formatting, with floats at repr precision and None as an empty
cell.  The `table` subcommand renders the summary table at fixed 6 decimals
(round-half-even) so its output is byte-stable.  The per-k output (`pmf`,
--table-out) is built `solver.ROWS` rows at a time, never held whole; 1,024
rows keep a block's arrays and strings near 0.33 MiB, and the bytes are the
same for any block size.  `main` builds one parser, on its first call, and
reuses it; it hands an argv that starts with a command name straight to that
command's parser, one argparse pass, with the top-level parser's results and
messages.

Exit codes: 0 success, 2 usage/domain, file I/O or out-of-memory error (an
array too large to allocate, such as --table-out at n = 10^15), 3 numeric
failure.
"""

import argparse
import functools
import json
import sys

from . import asymptotic, simulate, solver
from ._validate import _check_horizon, _word

TABLE_NS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 200, 500, 1000)


def _record(record, as_csv):
    """One JSON line, or a CSV header line and value line."""
    if as_csv:
        cells = ("" if v is None else str(v) for v in record.values())
        return [",".join(record) + "\n", ",".join(cells) + "\n"]
    return [json.dumps(record) + "\n"]


def _blocks(head, lines, lo, hi, tail, eol="\n"):
    """Yield head, then the lines for k = lo..hi-1 separated by eol, then tail.

    lines(a, b) gives the lines for k = a..b-1; they are built `solver.ROWS`
    at a time, so the text is never held whole."""
    yield head
    for a in range(lo, hi, solver.ROWS):
        block = eol.join(lines(a, min(a + solver.ROWS, hi)))
        yield block if a == lo else eol + block
    yield tail


def _steps(t, a, b):
    """int(k > t) for k = a..b-1, one character each."""
    c = min(max(t + 1 - a, 0), b - a)
    return "0" * c + "1" * (b - a - c)


def _table_out_blocks(res, n):
    """The --table-out CSV; only the continuation is built before this returns.

    No field needs quoting, so plain formatting gives what csv.writer would."""
    k1, k2 = res.thresholds
    cont = res.continuation

    def lines(a, b):
        phi1, phi2 = solver._payoff_block(a, b, n)
        return map(",".join, zip(map(str, range(a, b)), map(repr, phi1.tolist()),
                                 map(repr, phi2.tolist()), map(repr, cont[a:b].tolist()),
                                 _steps(k1, a, b), _steps(k2, a, b)))

    # rank 2 does not exist at time 1
    head = ("k,phi1,phi2,continuation,stop1,stop2\n"
            f"1,{solver.payoff(1, 1, n)!r},,{float(cont[1])!r},{int(1 > k1)},\n")
    return _blocks(head, lines, 2, n + 1, "\n")


def cmd_pmf(args):
    """The pmf command's output; the arguments are checked before this returns."""
    r, as_csv = args.rank, args.csv
    i, n, survive = solver._pmf_survive(args.i, r, args.n)
    row = ("{},{!r}" if as_csv else '"{}": {!r}').format

    def lines(a, b):
        return map(row, range(a, b), solver._pmf_block(i, r, a, b).tolist())

    if as_csv:
        tail = "\n" * (i < n) + f"survive,{survive!r}\n"
        return _blocks("k,probability\n", lines, i + 1, n + 1, tail)
    head = f'{{"n": {n}, "i": {i}, "rank": {r}, "pmf": {{'
    tail = f'}}, "survive": {survive!r}}}\n'
    return _blocks(head, lines, i + 1, n + 1, tail, eol=", ")


def cmd_solve(args):
    if args.table_out is not None:  # numpy cannot shape a longer continuation, whatever the memory
        _check_horizon(args.n, "--table-out horizon", hi=solver.MAX_FLOATS - 2)
    res = solver.solve(args.n)
    record = {
        "n": args.n,
        "k1": res.thresholds.k1,
        "k2": res.thresholds.k2,
        "value": res.value,
    }
    if args.table_out is not None:
        blocks = _table_out_blocks(res, args.n)
        with open(args.table_out, "w", newline="") as fh:
            fh.writelines(blocks)
    return _record(record, args.csv)


def cmd_table(args):
    if args.ns is not None:
        try:
            ns = [int(part) for part in args.ns.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"--ns must be a comma-separated integer list, got {_word(args.ns)}")
        if not ns:
            raise ValueError("--ns list is empty")
    else:
        ns = TABLE_NS
    lines = ["N,k1,k2,v_N\n"]
    for n in ns:
        res = solver.solve(n)
        lines.append(f"{n},{res.thresholds.k1},{res.thresholds.k2},{res.value:.6f}\n")
    sol = asymptotic.asymptotic_solution()
    lines.append(f"inf,{sol.a:.6f},{sol.b:.6f},{sol.value:.6f}\n")
    return lines


def cmd_simulate(args):
    simulate._check_run(args.trials, args.seed)  # before the search, which may take a second
    k1, k2 = args.k1, args.k2
    if k1 is None or k2 is None:
        thresholds = solver.solve(args.n).thresholds
        k1 = thresholds.k1 if k1 is None else k1
        k2 = thresholds.k2 if k2 is None else k2
    est = simulate.monte_carlo(args.n, (k1, k2), args.trials, args.seed)
    exact = solver.policy_value((k1, k2), args.n)
    z = (est.mean - exact) / est.std_error if est.std_error > 0 else None
    record = {
        "n": args.n,
        "k1": k1,
        "k2": k2,
        "trials": est.trials,
        "seed": est.seed,
        "mean": est.mean,
        "std_error": est.std_error,
        "exact": exact,
        "z_score": z,
    }
    return _record(record, args.csv)


def cmd_asymptotic(args):
    sol = asymptotic.asymptotic_solution()
    record = {
        "a": sol.a,
        "b": sol.b,
        "value": sol.value,
        "residual_b": abs(
            asymptotic.mean_operator_limit(sol.b) - asymptotic.phi_limit(sol.b, 2)
        ),
        "residual_a": abs(
            asymptotic.limit_value_function(sol.a, sol.b)
            - asymptotic.phi_limit(sol.a, 1)
        ),
    }
    if args.fine_n is not None:
        res = solver.solve(args.fine_n)
        record["k1_over_n"] = res.thresholds.k1 / args.fine_n
        record["k2_over_n"] = res.thresholds.k2 / args.fine_n
        record["v_n"] = res.value
    return _record(record, args.csv)


def _add_format_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", dest="csv", action="store_false",
                       help="JSON output (default)")
    group.add_argument("--csv", dest="csv", action="store_true", help="CSV output")
    sub.set_defaults(csv=False)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shelflife",
        description="Optimal stopping for the best-or-second-best duration problem",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="optimal thresholds and value for one horizon")
    p.add_argument("--n", type=int, required=True, help="horizon (>= 2)")
    p.add_argument("--table-out", metavar="PATH",
                   help="also write per-k CSV (k,phi1,phi2,continuation,stop1,stop2)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("table", help="threshold/value table plus the limit row (CSV)")
    p.add_argument("--ns", help="comma-separated horizons (default: the 13 standard rows)")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("simulate", help="Monte Carlo estimate of a threshold policy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k1", type=int, help="rank-1 threshold (default: optimal)")
    p.add_argument("--k2", type=int, help="rank-2 threshold (default: optimal)")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    _add_format_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("pmf", help="candidacy end-time distribution of a held item")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True, help="holding start time")
    p.add_argument("--rank", type=int, required=True, choices=(1, 2))
    _add_format_flags(p)
    p.set_defaults(func=cmd_pmf)

    p = subs.add_parser("asymptotic", help="limit constants a, b and the limit value")
    p.add_argument("--fine-n", type=int, metavar="N",
                   help="also report k1/N, k2/N, v_N at this horizon")
    _add_format_flags(p)
    p.set_defaults(func=cmd_asymptotic)

    parser.commands = subs.choices  # command name -> its parser, for main
    return parser


# built on main's first call; each parse gives a new Namespace
_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:  # no argv, help, an unknown command or an option first
        args = parser.parse_args(argv)
    else:  # the one pass the top-level parser would hand on to the command's parser
        args, extra = sub.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        sys.stdout.writelines(args.func(args))
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
