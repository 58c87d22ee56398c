"""Command-line front end.

Subcommands: beta (one section's log spectral radius), bounds (entropy
upper/lower pairs), lambda (density-restricted lower-bound curves),
verify (the enumeration cross-check suite), table (batch section runs).

Output is CSV with a fixed header or a JSON run record.  Data rows are
deterministic for fixed flags; timings appear only in the JSON metadata.
Exit codes: 0 success, 1 verification failure, 2 usage, 3 numerical
(a bracket hit its iteration cap and is printed, or the iteration broke
down and nothing is), 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from math import prod

from . import __version__
from .bounds import (
    check_section,
    h2_bounds,
    h3_bounds,
    lambda1,
    lambda_lower,
    optimal_density,
    section_orbit_count,
    transfer_log_radius,
)
from .lattice import CapacityError, check_memory
from .oracle import run_verification_suite
from .spectral import MAX_ITER, TOL

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_CAPACITY = 4

RUN_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "mdentropy run record",
    "type": "object",
    "required": ["command", "parameters", "results", "timings", "version"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "results": {"type": "array", "items": {"type": "object"}},
        "timings": {
            "type": "object",
            "required": ["total_seconds"],
            "properties": {"total_seconds": {"type": "number"}},
        },
        "version": {"type": "string"},
    },
    "additionalProperties": False,
}

TABLE_SHAPES = {
    1: [(m,) for m in range(4, 18)],
    2: [(m,) for m in range(4, 16)],
    3: [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
        (3, 3), (4, 3), (5, 3), (4, 4)],
    4: [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2),
        (3, 3), (4, 3), (5, 3), (4, 4), (6, 3), (6, 4)],
}

BETA_COLUMNS = ("dims", "orbit_count", "log_radius", "log_lower", "log_upper",
                "per_site", "iterations", "converged")
TABLE_COLUMNS = ("dims", "orbit_count", "log_radius", "per_site",
                 "log_lower", "log_upper")
BOUND_COLUMNS = ("target", "direction", "value", "converged",
                 "formula", "params", "consistent")
LAMBDA_COLUMNS = ("point", "p", "value")


class UsageError(Exception):
    pass


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")
    return values


def _format_dims(dims) -> str:
    return "x".join(str(m) for m in dims)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _emit(args, columns, rows: list[dict], started: float, **parsed) -> None:
    """Write the rows' `columns`, in that order, as CSV or as a JSON run record.

    The record's parameters are the parsed flags in their parser order, with
    the values in `parsed` (the lists parsed from text flags) in place of the text.
    """
    if args.fmt == "json":
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "fmt")}
        record = {
            "command": args.command,
            "parameters": {**flags, **parsed},
            "results": [{c: row[c] for c in columns} for row in rows],
            "timings": {"total_seconds": time.perf_counter() - started},
            "version": __version__,
        }
        json.dump(record, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _beta_row(dims, dimer_only: bool, tol: float, max_iters: int) -> dict:
    bracket = transfer_log_radius(dims, dimer_only=dimer_only, tol=tol, max_iter=max_iters)
    n = prod(dims)
    orbit_count = section_orbit_count(dims) if all(m > 0 for m in dims) else 1
    return {
        "dims": _format_dims(dims),
        "orbit_count": orbit_count,
        "log_radius": bracket.rayleigh,
        "log_lower": bracket.lower,
        "log_upper": bracket.upper,
        "per_site": bracket.rayleigh / n if n else None,
        "iterations": bracket.iterations,
        "converged": bracket.converged,
    }


def cmd_beta(args) -> int:
    started = time.perf_counter()
    dims = _parse_int_list(args.dims, "--dims")
    if any(m < 0 for m in dims):
        raise UsageError(f"extents must be nonnegative, got {dims}")
    row = _beta_row(dims, args.dimer_only, args.tol, args.max_iters)
    _emit(args, BETA_COLUMNS, [row], started, dims=dims)
    return EXIT_OK if row["converged"] else EXIT_NOT_CONVERGED


_ARITY = {"h2": (1, 2), "h3": (2, 5)}  # values of --upper and --lower


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    target = args.target
    upper = _parse_int_list(args.upper, "--upper")
    lower = _parse_int_list(args.lower, "--lower")
    for flag, values, arity in zip(("--upper", "--lower"), (upper, lower), _ARITY[target[:2]]):
        if len(values) != arity:
            raise UsageError(f"{flag} for {target} takes {arity} value(s), got {len(values)}")
    # looked up at call time, so a wrapper set on this module sees the call
    h_bounds = h2_bounds if target[:2] == "h2" else h3_bounds
    try:
        pair = h_bounds(*upper, *lower, dimer_only=target.endswith("t"), tol=args.tol)
    except CapacityError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc))
    consistent = pair[1].value <= pair[0].value
    rows = [{**vars(bound), "params": " ".join(f"{k}={v}" for k, v in bound.params.items()),
             "consistent": consistent} for bound in pair]
    _emit(args, BOUND_COLUMNS, rows, started, upper=upper, lower=lower)
    return EXIT_OK if all(bound.converged for bound in pair) else EXIT_NOT_CONVERGED


def cmd_lambda(args) -> int:
    started = time.perf_counter()
    d = args.d
    step = args.grid
    if not 0.0 < step <= 0.1:
        raise UsageError(f"--grid must be in (0, 0.1], got {step}")
    curve = lambda1 if d == 1 else (lambda p: lambda_lower(d, p))
    steps = math.floor(min(1.0 / step, 2.0 ** 63) + 1e-9)  # 1 / step is inf for subnormal steps
    # rows are held until the output is written: 266 B of RSS each on Python 3.11, 375 B allowed
    check_memory(375 * (steps + 2), f"a lambda curve of at least {steps + 2:,} rows")
    rows = []
    for i in range(steps + 1):
        p = min(i * step, 1.0)
        rows.append({"point": "grid", "p": p, "value": curve(p)})
    if d == 1:
        peak_p = 1.0 - 1.0 / math.sqrt(5.0)
    else:
        peak_p = optimal_density(d)
    rows.append({"point": "peak", "p": peak_p, "value": curve(peak_p)})
    _emit(args, LAMBDA_COLUMNS, rows, started)
    return EXIT_OK


def cmd_verify(args) -> int:
    ok, lines = run_verification_suite(args.max_points)
    for line in lines:
        print(line)
    print(f"verification: {'PASS' if ok else 'FAIL'} ({len(lines)} checks)")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_table(args) -> int:
    started = time.perf_counter()
    dimer_only = args.which in (2, 4)
    shapes = [s for s in TABLE_SHAPES[args.which] if prod(s) <= args.max_size]
    for s in shapes:
        check_section(s, dimer_only)
    rows = [_beta_row(s, dimer_only, args.tol, args.max_iters) for s in shapes]
    _emit(args, TABLE_COLUMNS, rows, started)
    return EXIT_OK if all(row["converged"] for row in rows) else EXIT_NOT_CONVERGED


def _checked(convert, accept, requirement: str):
    """An argparse `type=` that converts, then rejects values outside a range."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _add_tol_flag(parser) -> None:
    parser.add_argument("--tol", type=_tolerance, default=TOL,
                        help="relative bracket width for convergence (finite, >= 0)")


def _add_iteration_flags(parser) -> None:
    parser.add_argument("--max-iters", type=_count, default=MAX_ITER,
                        dest="max_iters", help="iteration cap per bracket (>= 1); on odd"
                        " dimer-only sections one M^2 step counts once")


def _add_format_flag(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdentropy",
        description="Transfer-matrix entropy bounds for monomer-dimer systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_beta = sub.add_parser("beta", help="log spectral radius of one section")
    p_beta.add_argument("--dims", required=True,
                        help="section extents, comma separated (e.g. 4 or 3,3)")
    p_beta.add_argument("--dimer-only", action="store_true", dest="dimer_only")
    _add_tol_flag(p_beta)
    _add_iteration_flags(p_beta)
    _add_format_flag(p_beta)
    p_beta.set_defaults(func=cmd_beta)

    p_bounds = sub.add_parser("bounds", help="entropy upper/lower bound pair")
    p_bounds.add_argument("--target", required=True,
                          choices=("h2", "h2t", "h3", "h3t"))
    p_bounds.add_argument("--upper", required=True,
                          help="r for h2/h2t, r,t for h3/h3t")
    p_bounds.add_argument("--lower", required=True,
                          help="p,q for h2/h2t, p,q,u,s,v for h3/h3t")
    _add_tol_flag(p_bounds)
    _add_format_flag(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_lambda = sub.add_parser("lambda", help="density-restricted lower-bound curve")
    p_lambda.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    p_lambda.add_argument("--grid", type=float, required=True,
                          help="grid step in (0, 0.1]")
    _add_format_flag(p_lambda)
    p_lambda.set_defaults(func=cmd_lambda)

    p_verify = sub.add_parser("verify", help="run the enumeration cross-check suite")
    p_verify.add_argument("--max-points", type=_count, default=20, dest="max_points",
                          help="largest region point count of the identity, 1-D and chain"
                               " checks (>= 1); the oracle-path, census and transpose"
                               " checks run at any value")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="batch section runs")
    p_table.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    p_table.add_argument("--max-size", type=_count, default=12, dest="max_size",
                         help="largest section point count to run (>= 1)")
    _add_tol_flag(p_table)
    _add_iteration_flags(p_table)
    _add_format_flag(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
