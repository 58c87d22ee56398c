import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import mdentropy
import mdentropy.cli as cli
from mdentropy import __version__, lattice
from mdentropy.bounds import check_section
from mdentropy.cli import (
    EXIT_CAPACITY,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RUN_RECORD_SCHEMA,
    main,
)
from mdentropy.symmetry import generate_motion_group
from mdentropy.transfer import SweepOperator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return tuple(header), [dict(zip(header, row)) for row in data]


def test_beta_single_section(capsys):
    code, out, err = run_cli(capsys, "beta", "--dims", "4")
    assert code == EXIT_OK
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ("dims", "orbit_count", "log_radius", "log_lower",
                      "log_upper", "per_site", "iterations", "converged")
    assert len(rows) == 1
    row = rows[0]
    assert row["dims"] == "4"
    assert row["orbit_count"] == "6"
    assert row["converged"] == "true"
    assert abs(float(row["log_radius"]) - 2.6532941163) <= 1e-9
    assert float(row["log_lower"]) <= float(row["log_radius"]) <= float(row["log_upper"])
    assert abs(float(row["per_site"]) - float(row["log_radius"]) / 4) <= 1e-15
    assert int(row["iterations"]) > 0


def test_beta_output_is_deterministic(capsys):
    first = run_cli(capsys, "beta", "--dims", "3,3")
    second = run_cli(capsys, "beta", "--dims", "3,3")
    assert first == second
    _, rows = parse_csv(first[1])
    assert rows[0]["orbit_count"] == "26"


def test_beta_zero_extent_degenerates(capsys):
    code, out, _ = run_cli(capsys, "beta", "--dims", "0")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    row = rows[0]
    assert float(row["log_radius"]) == math.log(2.0)
    assert row["per_site"] == ""
    assert row["orbit_count"] == "1"
    assert row["iterations"] == "0"


def test_beta_capacity_exit(capsys):
    code, out, err = run_cli(capsys, "beta", "--dims", "6,5")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert "capacity" in err


@pytest.mark.parametrize("argv, reason", [
    (("beta", "--dims", "1000000000"), "mask limit"),
    (("beta", "--dims", "1000000000", "--dimer-only"), "mask limit"),
    (("bounds", "--target", "h2", "--upper", "500000000", "--lower", "1,1"), "mask limit"),
    (("bounds", "--target", "h2t", "--upper", "500000000", "--lower", "1,1"), "mask limit"),
    (("beta", "--dims", "2,2,2,2,2,2", "--dimer-only"), "memory budget"),
    (("beta", "--dims", "25", "--dimer-only"), "memory budget"),
    (("beta", "--dims", "5,5", "--dimer-only"), "memory budget"),
])
def test_huge_sections_exit_before_any_work(capsys, monkeypatch, argv, reason):
    # the shape meets the 64-point mask limit before bytes are predicted
    # from 2^n, and the bracket's bytes meet the budget before any motion
    # group is generated (46,080 motions of 64 points for 2x2x2x2x2x2)
    def no_group(shape):
        raise AssertionError(f"motion group generated for {shape.dims}")

    monkeypatch.setattr(mdentropy.bounds, "generate_motion_group", no_group)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CAPACITY
    assert out == ""
    assert reason in err


def test_beta_usage_errors(capsys):
    assert run_cli(capsys, "beta", "--dims", "-2")[0] == EXIT_USAGE
    code, _, err = run_cli(capsys, "beta", "--dims", "2,x")
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_beta_unconverged_exit(capsys):
    code, out, _ = run_cli(capsys, "beta", "--dims", "6",
                           "--max-iters", "2", "--tol", "1e-15")
    assert code == EXIT_NOT_CONVERGED
    _, rows = parse_csv(out)
    assert rows[0]["converged"] == "false"


@pytest.mark.parametrize("argv", [
    ("beta", "--dims", "6"),
    ("beta", "--dims", "3,3", "--dimer-only"),
    ("bounds", "--target", "h2", "--upper", "3", "--lower", "1,3"),
    ("table", "--which", "4", "--max-size", "6"),
], ids=["beta", "beta-dimer-odd", "bounds", "table"])
def test_numerical_breakdown_exits_cleanly(capsys, monkeypatch, argv):
    # a NaN in the sweep's product, M x or M^2 x, stops the bracket with
    # ArithmeticError: exit 3 as for a capped bracket, but with nothing printed
    def poison(y):
        y[-1] = math.nan
        return y

    class Poisoned(SweepOperator):
        def __call__(self, x):
            return poison(super().__call__(x))

        def square(self, x):
            return poison(super().square(x))

    monkeypatch.setattr(mdentropy.bounds, "SweepOperator", Poisoned)
    mdentropy.bounds.transfer_log_radius.cache_clear()
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        mdentropy.bounds.transfer_log_radius.cache_clear()
    assert code == EXIT_NOT_CONVERGED
    assert out == ""
    assert err.startswith("numerical: ") and err.count("\n") == 1, err


def test_bounds_h2_pair(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--target", "h2",
                           "--upper", "6", "--lower", "1,6")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ("target", "direction", "value", "converged",
                      "formula", "params", "consistent")
    upper, lower = rows
    assert (upper["target"], upper["direction"]) == ("h2", "upper")
    assert (lower["target"], lower["direction"]) == ("h2", "lower")
    assert abs(float(upper["value"]) - 0.6627989757759615) <= 1e-11
    assert abs(float(lower["value"]) - 0.6627989281628404) <= 1e-11
    assert upper["formula"] == "log_radius(2r)/(2r)"
    assert upper["params"] == "r=6 dims=[12]"
    assert lower["params"] == "p=1 q=6 dims=[[13], [12]]"
    assert upper["consistent"] == lower["consistent"] == "true"


def test_bounds_h3_pair(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--target", "h3",
                           "--upper", "2,2", "--lower", "1,1,1,2,4")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    upper, lower = rows
    assert abs(float(upper["value"]) - 0.7862023451634663) <= 1e-11
    assert abs(float(lower["value"]) - 0.761917242219476) <= 1e-10
    assert float(lower["value"]) <= float(upper["value"])


def test_bounds_dimer_target(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--target", "h2t",
                           "--upper", "7", "--lower", "2,6")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    upper, lower = rows
    assert upper["target"] == "h2_dimer"
    assert float(lower["value"]) <= 0.29156090 <= float(upper["value"])


def test_bounds_usage_and_capacity(capsys):
    assert run_cli(capsys, "bounds", "--target", "h2",
                   "--upper", "6,2", "--lower", "1,6")[0] == EXIT_USAGE
    assert run_cli(capsys, "bounds", "--target", "h3",
                   "--upper", "2,2", "--lower", "1,1")[0] == EXIT_USAGE
    assert run_cli(capsys, "bounds", "--target", "h2",
                   "--upper", "0", "--lower", "1,1")[0] == EXIT_USAGE
    assert run_cli(capsys, "bounds", "--target", "h2",
                   "--upper", "13", "--lower", "1,1")[0] == EXIT_CAPACITY


@pytest.mark.parametrize("argv", [
    ("bounds", "--target", "h2", "--upper", "11", "--lower", "1,13"),
    ("bounds", "--target", "h3", "--upper", "3,2", "--lower", "2,1,2,2,7"),
    ("bounds", "--target", "h2t", "--upper", "7", "--lower", "1,12"),
], ids=["h2", "h3", "h2t"])
def test_bounds_refuse_before_any_bracket(capsys, monkeypatch, argv):
    # (27,), (2, 14) and the dimer-only (25,) are past capacity; the
    # sections named before them must not be bracketed first
    def no_bracket(*args, **kwargs):
        raise AssertionError("a bracket ran before every section was checked")

    monkeypatch.setattr(mdentropy.bounds, "operator_power_method", no_bracket)
    mdentropy.bounds.transfer_log_radius.cache_clear()
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CAPACITY
    assert out == ""
    assert "memory budget" in err


def test_lambda_grid_and_peak(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--d", "2", "--grid", "0.05")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ("point", "p", "value")
    assert len(rows) == 22
    grid = [row for row in rows if row["point"] == "grid"]
    assert len(grid) == 21
    assert float(grid[0]["p"]) == 0.0
    assert float(grid[-1]["p"]) == 1.0
    peak = rows[-1]
    assert peak["point"] == "peak"
    assert abs(float(peak["p"]) - 0.6096117967977924) <= 1e-12
    assert abs(float(peak["value"]) - 0.6358077437083127) <= 1e-12
    assert max(float(row["value"]) for row in grid) <= float(peak["value"]) + 1e-12


def test_lambda_one_dimensional_curve(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--d", "1", "--grid", "0.1")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    grid = [row for row in rows if row["point"] == "grid"]
    assert float(grid[0]["value"]) == 0.0
    assert float(grid[-1]["value"]) == 0.0
    peak = rows[-1]
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(float(peak["value"]) - math.log(golden)) <= 1e-12


def test_lambda_rejects_bad_grid(capsys):
    assert run_cli(capsys, "lambda", "--d", "2", "--grid", "0.2")[0] == EXIT_USAGE
    assert run_cli(capsys, "lambda", "--d", "2", "--grid", "0")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("--grid", "1e-300"),
    ("--grid", "1e-300", "--format", "json"),
    # 1 / 5e-324 overflows to inf
    ("--grid", "5e-324"),
    ("--grid", "1e-7"),
])
def test_lambda_grids_past_the_budget_exit_before_any_row(capsys, monkeypatch, argv):
    # 1e-300 used to run until killed, 1e-7 to end in MemoryError and
    # 5e-324 in a numerical error
    def no_row(d, p):
        raise AssertionError(f"row computed at p = {p}")

    monkeypatch.setattr(cli, "lambda_lower", no_row)
    code, out, err = run_cli(capsys, "lambda", "--d", "2", *argv)
    assert (code, out) == (EXIT_CAPACITY, "")
    assert "memory budget" in err


def test_lambda_rows_meet_the_budget(capsys, monkeypatch):
    # a grid step of 0.05 makes 21 grid rows and the peak, 375 B each
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 375 * 22)
    assert run_cli(capsys, "lambda", "--d", "2", "--grid", "0.05")[0] == EXIT_OK
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 375 * 22 - 1)
    assert run_cli(capsys, "lambda", "--d", "2", "--grid", "0.05")[:2] == (EXIT_CAPACITY, "")


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-points", "8")
    assert code == EXIT_OK
    assert "verification: PASS" in out
    assert "FAIL" not in out.replace("verification: PASS", "")


def test_verify_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_verification_suite",
                        lambda max_points: (False, ["FAIL fabricated check"]))
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY
    assert "verification: FAIL" in out


def test_verify_capacity(capsys):
    assert run_cli(capsys, "verify", "--max-points", "21")[0] == EXIT_CAPACITY


def test_table_row_selection(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--max-size", "12")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ("dims", "orbit_count", "log_radius", "per_site",
                      "log_lower", "log_upper")
    assert [row["dims"] for row in rows] == [str(m) for m in range(4, 13)]
    for row in rows:
        ratio = float(row["log_radius"]) / int(row["dims"])
        assert abs(float(row["per_site"]) - ratio) <= 1e-15
    # per-site growth decreases along the even extents
    even = [float(row["per_site"]) for row in rows if int(row["dims"]) % 2 == 0]
    assert all(a > b for a, b in zip(even, even[1:]))


def test_table_two_dimensional_sections(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "3", "--max-size", "6")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert [row["dims"] for row in rows] == ["2x2", "3x2"]


def test_table_size_limits(capsys, monkeypatch):
    # no 1-D monomer-dimer row has more than 17 points
    assert run_cli(capsys, "table", "--which", "1", "--max-size", "24") == \
        run_cli(capsys, "table", "--which", "1", "--max-size", "17")

    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran before every row was checked")

    # under an 8 MiB budget the last row, (6, 3), fails before any row runs;
    # (4, 4), the row before it, fits
    monkeypatch.setattr(cli, "transfer_log_radius", no_rows)
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", 8 << 20)
    check_section((4, 4), dimer_only=True)
    code, out, err = run_cli(capsys, "table", "--which", "4", "--max-size", "18")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert "capacity" in err


@pytest.mark.parametrize("argv, groups", [
    (("beta", "--dims", "4,3", "--dimer-only"), 1),
    (("table", "--which", "2", "--max-size", "8"), 5),
], ids=["beta-dimer-only", "table-2"])
def test_motion_group_is_generated_once_per_row(capsys, monkeypatch, argv, groups):
    # only the orbit_count column needs the group; brackets and capacity
    # checks run without it
    calls = []

    def counted(shape):
        calls.append(shape.dims)
        return generate_motion_group(shape)

    monkeypatch.setattr(mdentropy.bounds, "generate_motion_group", counted)
    mdentropy.bounds.transfer_log_radius.cache_clear()
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert len(calls) == groups == len(set(calls))


@pytest.mark.parametrize("dimer_which, md_which, max_size", [(2, 1, 10), (4, 3, 12)])
def test_table_dimer_only_sections(capsys, dimer_which, md_which, max_size):
    code, out, _ = run_cli(capsys, "table", "--which", str(dimer_which),
                           "--max-size", str(max_size))
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    shapes = [s for s in cli.TABLE_SHAPES[dimer_which] if math.prod(s) <= max_size]
    assert [row["dims"] for row in rows] == ["x".join(map(str, s)) for s in shapes]
    for row, shape in zip(rows, shapes):
        assert float(row["per_site"]) == float(row["log_radius"]) / math.prod(shape)
    # dimer covers are a subset of monomer-dimer covers of the same section
    _, md_out, _ = run_cli(capsys, "table", "--which", str(md_which),
                           "--max-size", str(max_size))
    monomer_dimer = {row["dims"]: float(row["log_radius"]) for row in parse_csv(md_out)[1]}
    for row in rows:
        assert float(row["log_radius"]) < monomer_dimer[row["dims"]]


@pytest.mark.parametrize("argv", [
    ("beta", "--dims", "4", "--max-iters", "5", "--tol", "-1"),
    ("beta", "--dims", "4", "--max-iters", "5", "--tol", "nan"),
    ("table", "--which", "1", "--max-size", "6", "--max-iters", "5", "--tol", "inf"),
    ("bounds", "--target", "h2", "--upper", "2", "--lower", "1,1", "--tol", "nan"),
    # text that is not a number fails the conversion itself
    ("beta", "--dims", "4", "--tol", "wide"),
    ("table", "--which", "1", "--max-size", "6", "--max-iters", "1.5"),
    ("verify", "--max-points", "twenty"),
    ("beta", "--dims", "4", "--max-iters", "0"),
    ("table", "--which", "2", "--max-size", "6", "--max-iters", "-3"),
    ("verify", "--max-points", "0"),
    ("table", "--which", "1", "--max-size", "0"),
])
def test_out_of_range_flags_are_argparse_errors(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == EXIT_USAGE
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("beta", "--dims", "4"), ("table", "--which", "1")])
def test_shift_is_not_a_flag(capsys, command):
    # the power method's shift is a constant: no value moved a printed radius
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--shift", "2"])
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --shift 2" in capsys.readouterr().err


# each command's record parameters: the parsed flags, key for key and in order
RECORD_PARAMETERS = {
    ("beta", "--dims", "4", "--format", "json"):
        [("dims", [4]), ("dimer_only", False), ("tol", 1e-12), ("max_iters", 1000000)],
    ("bounds", "--target", "h2", "--upper", "2", "--lower", "1,1", "--format", "json"):
        [("target", "h2"), ("upper", [2]), ("lower", [1, 1]), ("tol", 1e-12)],
    ("lambda", "--d", "3", "--grid", "0.1", "--format", "json"):
        [("d", 3), ("grid", 0.1)],
    ("table", "--which", "1", "--max-size", "6", "--format", "json"):
        [("which", 1), ("max_size", 6), ("tol", 1e-12), ("max_iters", 1000000)],
    ("beta", "--dims", "4,3", "--dimer-only", "--tol", "1e-10", "--max-iters", "50",
     "--format", "json"):
        [("dims", [4, 3]), ("dimer_only", True), ("tol", 1e-10), ("max_iters", 50)],
}


@pytest.mark.parametrize("argv", list(RECORD_PARAMETERS))
def test_json_records_validate(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    record = json.loads(out)
    jsonschema.validate(record, RUN_RECORD_SCHEMA)
    assert record["command"] == argv[0]
    assert list(record["parameters"].items()) == RECORD_PARAMETERS[argv]
    assert record["version"] == __version__
    assert record["results"]
    assert record["timings"]["total_seconds"] >= 0.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_choice_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bounds", "--target", "h4", "--upper", "1", "--lower", "1,1"])
    assert excinfo.value.code == 2
    # table takes no thread-count flag
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "--which", "1", "--max-size", "6", "--threads", "2"])
    assert excinfo.value.code == 2


def run_python(*args):
    """Run a fresh interpreter that imports the package the tests imported."""
    source_root = str(Path(mdentropy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_python("-m", "mdentropy", "beta", "--dims", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("dims,orbit_count,log_radius")


GOLDEN = Path(__file__).parent / "golden"

# recorded stdout, one file per command; speed-ups must leave these bytes alone
RECORDED_STDOUT = {
    "table_1_14.csv": ("table", "--which", "1", "--max-size", "14"),
    "table_3_14.csv": ("table", "--which", "3", "--max-size", "14"),
    "table_2_12.csv": ("table", "--which", "2", "--max-size", "12"),
    "table_4_16.csv": ("table", "--which", "4", "--max-size", "16"),
    "bounds_h3.csv": ("bounds", "--target", "h3", "--upper", "2,2", "--lower", "2,1,1,1,2"),
    "bounds_h2.csv": ("bounds", "--target", "h2", "--upper", "6", "--lower", "1,6"),
    "bounds_h2t.csv": ("bounds", "--target", "h2t", "--upper", "3", "--lower", "2,1"),
    "bounds_h3t.csv": ("bounds", "--target", "h3t", "--upper", "2,2", "--lower", "1,1,1,1,1"),
    "beta_4_3_dimer.csv": ("beta", "--dims", "4,3", "--dimer-only"),
    "beta_3_2_2.csv": ("beta", "--dims", "3,2,2"),
    "verify_20.txt": ("verify", "--max-points", "20"),
}


@pytest.mark.parametrize("recorded", list(RECORDED_STDOUT))
def test_stdout_matches_recorded_bytes(capsys, recorded):
    code, out, err = run_cli(capsys, *RECORDED_STDOUT[recorded])
    assert code == EXIT_OK
    assert err == ""
    assert out.encode() == (GOLDEN / recorded).read_bytes()


# one command of every kind, each of them exit 0
COMMAND_KINDS = [
    ("beta", "--dims", "4,3", "--dimer-only"),
    ("beta", "--dims", "6"),
    ("beta", "--dims", "5,3", "--dimer-only"),
    ("bounds", "--target", "h2", "--upper", "3", "--lower", "1,3"),
    ("bounds", "--target", "h3", "--upper", "1,1", "--lower", "1,1,1,1,1"),
    ("bounds", "--target", "h2t", "--upper", "7", "--lower", "2,6"),
    ("bounds", "--target", "h3t", "--upper", "2,2", "--lower", "1,1,1,1,1"),
    ("table", "--which", "1", "--max-size", "8"),
    ("table", "--which", "2", "--max-size", "8"),
    ("table", "--which", "3", "--max-size", "8"),
    ("table", "--which", "4", "--max-size", "8"),
    ("lambda", "--d", "2", "--grid", "0.1"),
    ("verify", "--max-points", "6"),
]

# runs the commands given as a JSON list in argv[1] with the orbit
# quotient's functions made to raise, then checks that none loaded scipy;
# then a sparse matrix loads scipy.sparse, and its bracket leaves csgraph
# unloaded
SCIPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import mdentropy
import mdentropy.cli as cli
from mdentropy import bounds, spectral, symmetry, transfer

power_method = spectral.power_method

def refuse(*args, **kwargs):
    raise AssertionError("a command reached the orbit quotient")

for module in (bounds, spectral, symmetry, transfer):
    for name in ("section_quotient", "build_quotient", "compute_orbits", "power_method"):
        if hasattr(module, name):
            setattr(module, name, refuse)

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()

runs = [run(*argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy as np
from scipy import sparse
bracket, _ = power_method(sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])))
power_method(np.eye(3))
print(json.dumps({"codes": [code for code, _ in runs], "loaded": loaded,
                  "dimer_out": runs[0][1], "bracket": [bracket.lower, bracket.upper],
                  "csgraph": "scipy.sparse.csgraph" in sys.modules}))
"""


def test_commands_start_without_scipy():
    refused = [("beta", "--dims", "6,5"), ("beta", "--dims", "5,5", "--dimer-only")]
    proc = run_python("-c", SCIPY_FREE_SCRIPT, json.dumps(COMMAND_KINDS + refused))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [EXIT_OK] * len(COMMAND_KINDS) + [EXIT_CAPACITY] * 2
    assert result["loaded"] == []
    assert result["dimer_out"].encode() == (GOLDEN / "beta_4_3_dimer.csv").read_bytes()
    lower, upper = result["bracket"]
    assert lower <= 2.0 <= upper
    assert upper - lower <= 1e-9
    assert result["csgraph"] is False


# blocks scipy's import, as an install without the test extra has no
# scipy: every command still runs, power_method brackets a dense matrix,
# and full_matrix_sparse fails on the import
SCIPY_BLOCKED_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import numpy as np
import mdentropy.cli as cli
from mdentropy.matchcount import CoverTable, SectionKind
from mdentropy.lattice import LatticeShape
from mdentropy.spectral import power_method
from mdentropy.transfer import full_matrix_sparse

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
bracket, _ = power_method(np.eye(2))
try:
    full_matrix_sparse(CoverTable(LatticeShape((2,)), SectionKind.TORUS))
    missing = None
except ModuleNotFoundError as exc:
    missing = exc.name
print(json.dumps({"codes": codes, "bracket": [bracket.lower, bracket.upper],
                  "missing": missing}))
"""


def test_commands_run_with_scipy_blocked():
    proc = run_python("-c", SCIPY_BLOCKED_SCRIPT, json.dumps(COMMAND_KINDS))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [EXIT_OK] * len(COMMAND_KINDS),
                                       "bracket": [1.0, 1.0], "missing": "scipy"}
