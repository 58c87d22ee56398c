"""Benchmark entry point.

    python3 perfbench/run.py --workload md-sections --seed 1 --seconds 58 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
directory, so nothing needs installing.  The workload runs in a fresh
Python process (`child.py`).  With `--trace 0` the last line of stdout
holds the end-to-end metrics, with `--trace 1` the per-layer metrics of a
traced run; the line before it is a JSON record of the environment, the
raw samples, the failures and the hook coverage.  Operation and pass
times are reported in reference seconds, scaled by the times of a
calibration kernel run next to each operation (`calibrate.py`); the
record holds the unscaled wall times.  Set-up time is wall time.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("md-sections", "crosscheck")
# set-up is timed as the median of this many probe processes; single
# interpreter starts vary by tens of percent
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


class ChildError(Exception):
    pass


def _child(args, deadline) -> dict:
    """Run child.py to completion within the deadline; returns its JSON record."""
    env = dict(os.environ)
    env.pop("MDENTROPY_THREADS", None)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"child {args} exceeded the time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mdentropy layered benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mdentropy" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                spawned = time.monotonic()
                setup.append(_child(["--probe"], deadline)["ready"] - spawned)
        record = _child(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        deadline)
    except (ChildError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = record["failed"] == 0 and record["gate_selftest"]["ok"]
    op_medians = {label: statistics.median(samples) for label, samples in record["op_s"].items()}
    detail = {key: record[key] for key in
              ("workload", "seed", "env", "operations", "failures", "gate_selftest",
               "largest_op", "untraced_pass_s", "untraced_pass_wall_s")}
    detail["fail_frac"] = record["failed"] / record["attempted"]
    detail["calibration"] = {"kernel_median_s": statistics.median(record["kernel_s"]),
                             "kernel_samples": len(record["kernel_s"]),
                             "reference_s": record["reference_s"]}
    detail["op_median_s"] = op_medians
    if args.trace:
        trace = record["trace"]
        correct = correct and trace["counts_repeat"]
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in trace.pop("layer_metrics").items()}
        detail["trace"] = trace
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(record["untraced_pass_s"]),
            # the workload's median operation, each operation timed by its median
            "op_p50_s": statistics.median(op_medians.values()),
            "largest_op_s": statistics.median(record["largest_op_s"]),
        }
        metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
        metrics["peak_rss_mb"] = {"value": record["maxrss_kb"] / 1024, "unit": "MB"}
        detail["wall_s"] = {"pass_s": statistics.median(record["untraced_pass_wall_s"]),
                            "largest_op_s": statistics.median(record["largest_op_wall_s"])}
        detail["setup_s_samples"] = setup
        detail["op_p50_s_samples"] = sum(len(samples) for samples in record["op_s"].values())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
