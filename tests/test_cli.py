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
from mdentropy import __version__
from mdentropy.cli import (
    EXIT_CAPACITY,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RUN_RECORD_SCHEMA,
    main,
)


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
    code, out, err = run_cli(capsys, "beta", "--dims", "6,4")
    assert code == EXIT_CAPACITY
    assert out == ""
    assert "capacity" in err


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
                   "--upper", "9", "--lower", "1,1")[0] == EXIT_CAPACITY


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


def test_table_row_selection(capsys, monkeypatch):
    monkeypatch.delenv("MDENTROPY_THREADS", raising=False)
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


def test_table_two_dimensional_sections(capsys, monkeypatch):
    monkeypatch.delenv("MDENTROPY_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "table", "--which", "3", "--max-size", "6")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert [row["dims"] for row in rows] == ["2x2", "3x2"]


def test_table_threads_do_not_change_output(capsys, monkeypatch):
    monkeypatch.delenv("MDENTROPY_THREADS", raising=False)
    single = run_cli(capsys, "table", "--which", "2", "--max-size", "10",
                     "--threads", "1")
    threaded = run_cli(capsys, "table", "--which", "2", "--max-size", "10",
                       "--threads", "2")
    assert single == threaded


def test_table_thread_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("MDENTROPY_THREADS", "2")
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--max-size", "6",
                           "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["parameters"]["threads"] == 2
    monkeypatch.setenv("MDENTROPY_THREADS", "zero")
    assert run_cli(capsys, "table", "--which", "1", "--max-size", "6")[0] == \
        EXIT_USAGE


def test_table_size_limits(capsys, monkeypatch):
    monkeypatch.delenv("MDENTROPY_THREADS", raising=False)
    assert run_cli(capsys, "table", "--which", "1", "--max-size", "18")[0] == \
        EXIT_CAPACITY
    assert run_cli(capsys, "table", "--which", "1", "--max-size", "0")[0] == \
        EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("beta", "--dims", "4", "--format", "json"),
    ("bounds", "--target", "h2", "--upper", "2", "--lower", "1,1",
     "--format", "json"),
    ("lambda", "--d", "3", "--grid", "0.1", "--format", "json"),
    ("table", "--which", "1", "--max-size", "6", "--format", "json"),
])
def test_json_records_validate(capsys, monkeypatch, argv):
    monkeypatch.delenv("MDENTROPY_THREADS", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    record = json.loads(out)
    jsonschema.validate(record, RUN_RECORD_SCHEMA)
    assert record["command"] == argv[0]
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


def test_module_entry_point():
    # the child imports the package the tests imported, however it was found
    source_root = str(Path(mdentropy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdentropy", "beta", "--dims", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("dims,orbit_count,log_radius")
