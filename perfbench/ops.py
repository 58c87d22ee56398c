"""The benchmark's workloads: seeded operation lists and their output checks.

Each operation drives the package through its public API: CLI operations
call `mdentropy.cli.main(argv)` with stdout captured, library operations
call public functions.  Every call looks its target up as a module
attribute at call time, so the tracer's wrappers see it.

The seed draws the operation order, the output format of each CLI call,
the axis order of 2-D sections (the package canonicalizes it, so the work
is the same) and the random masks of the subset checks.  The multiset of
sections is fixed per workload, so pass times of different seeds measure
the same work and can be compared.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import prod
from typing import Callable

from mdentropy import bounds, cli, matchcount, oracle, spectral, symmetry, transfer
from mdentropy.lattice import LatticeShape

@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, object], list]   # (result, refs) -> error strings
    oracle: bool = False   # compares the transfer path against the enumeration oracle


@dataclass
class Workload:
    name: str
    ops: list
    largest: str          # label of the designated largest operation
    idle_hooks: frozenset  # traced names this workload is not meant to reach


# ---------------------------------------------------------------- CLI ops

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# the CLI's documented output columns, the expected output
BETA_COLUMNS = ("dims", "orbit_count", "log_radius", "log_lower", "log_upper",
                "per_site", "iterations", "converged")
TABLE_COLUMNS = ("dims", "orbit_count", "log_radius", "per_site", "log_lower", "log_upper")
BOUND_COLUMNS = ("target", "direction", "value", "converged", "formula", "params",
                 "consistent")
_TYPES = {"orbit_count": int, "iterations": int, "log_radius": float,
          "log_lower": float, "log_upper": float, "per_site": float,
          "value": float, "converged": bool, "consistent": bool}


def _rows(stdout: str, fmt: str, columns: tuple) -> list:
    """Typed rows of a CSV or JSON data output; raises ValueError if malformed."""
    if fmt == "json":
        record = json.loads(stdout)
        if set(record) != {"command", "parameters", "results", "timings", "version"}:
            raise ValueError(f"run record keys {sorted(record)}")
        rows = record["results"]
        if any(tuple(row) != columns for row in rows):
            raise ValueError("run record rows have unexpected columns")
        return rows
    lines = list(csv.reader(io.StringIO(stdout)))
    if not lines or tuple(lines[0]) != columns:
        raise ValueError(f"CSV header {lines[:1]}")
    rows = []
    for cells in lines[1:]:
        row = {}
        for name, cell in zip(columns, cells, strict=True):
            kind = _TYPES.get(name, str)
            if kind is bool:
                if cell not in ("true", "false"):
                    raise ValueError(f"{name}={cell!r}")
                row[name] = cell == "true"
            else:
                row[name] = kind(cell)
        rows.append(row)
    return rows


def _cli_op(argv, fmt, columns, check_rows) -> Op:
    argv = list(argv) + (["--format", fmt] if fmt else [])

    def check(result, refs):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        try:
            rows = _rows(out, fmt, columns)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable output: {exc}"]
        return check_rows(rows, refs)

    return Op(label=" ".join(argv), run=lambda: _run_cli(argv), check=check)


def _radius_errors(what, dims, dimer_only, value, lower, upper, refs) -> list:
    ref, tol = refs.radius(dims, dimer_only)
    errors = []
    if not abs(value - ref) <= tol:
        errors.append(f"{what}: log radius {value!r} vs reference {ref!r} (tol {tol})")
    if not (lower - tol <= ref <= upper + tol):
        errors.append(f"{what}: bracket [{lower!r}, {upper!r}] excludes reference {ref!r}")
    if not (lower <= value <= upper):
        errors.append(f"{what}: estimate {value!r} outside its bracket")
    return errors


def _section_row_errors(row, dims, dimer_only, refs) -> list:
    what = f"{'x'.join(map(str, dims))}{' dimer' if dimer_only else ''}"
    errors = _radius_errors(what, dims, dimer_only, row["log_radius"],
                            row["log_lower"], row["log_upper"], refs)
    if row["orbit_count"] != refs.orbits(dims):
        errors.append(f"{what}: orbit count {row['orbit_count']} vs {refs.orbits(dims)}")
    if row["per_site"] != row["log_radius"] / prod(dims):
        errors.append(f"{what}: per_site {row['per_site']!r} is not log_radius / n")
    return errors


def beta_op(dims, dimer_only, fmt) -> Op:
    argv = ["beta", "--dims", ",".join(map(str, dims))]
    if dimer_only:
        argv.append("--dimer-only")

    def check_rows(rows, refs):
        if len(rows) != 1:
            return [f"{len(rows)} rows"]
        row = rows[0]
        errors = _section_row_errors(row, dims, dimer_only, refs)
        if row["dims"] != "x".join(map(str, dims)):
            errors.append(f"dims {row['dims']!r}")
        if row["converged"] is not True or row["iterations"] < 1:
            errors.append(f"converged={row['converged']} iterations={row['iterations']}")
        return errors

    return _cli_op(argv, fmt, BETA_COLUMNS, check_rows)


def _bound_refs(target, up, low, refs):
    """Reference values and tolerances of the upper and lower bound."""
    dimer = target.endswith("t")

    def rad(*dims):
        return refs.radius(dims, dimer)

    if target in ("h2", "h2t"):
        (r,), (p, q) = up, low
        wide, top, base = rad(2 * r), rad(p + 2 * q), rad(2 * q)
        return ((wide[0] / (2 * r), wide[1] / (2 * r)),
                ((top[0] - base[0]) / p, (top[1] + base[1]) / p))
    (r, t), (p, q, u, s, v) = up, low
    wide = rad(2 * r, 2 * t)
    top, base, tail = rad(p + 2 * q, u + 2 * s), rad(p + 2 * q, 2 * s), rad(2 * q, 2 * v)
    return ((wide[0] / (4 * r * t), wide[1] / (4 * r * t)),
            ((top[0] - base[0]) / (u * p) - tail[0] / (2 * v * p),
             (top[1] + base[1]) / (u * p) + tail[1] / (2 * v * p)))


def bounds_op(target, up, low, fmt) -> Op:
    argv = ["bounds", "--target", target, "--upper", ",".join(map(str, up)),
            "--lower", ",".join(map(str, low))]
    name = target[:2] + ("_dimer" if target.endswith("t") else "")

    def check_rows(rows, refs):
        if [row["direction"] for row in rows] != ["upper", "lower"]:
            return [f"rows {[row.get('direction') for row in rows]}"]
        errors = []
        for row, (ref, tol) in zip(rows, _bound_refs(target, up, low, refs)):
            if not abs(row["value"] - ref) <= tol:
                errors.append(f"{row['direction']} {row['value']!r} vs reference {ref!r} (tol {tol})")
            if row["target"] != name or row["converged"] is not True:
                errors.append(f"{row['direction']}: target={row['target']} converged={row['converged']}")
            if row["consistent"] is not True:
                errors.append(f"{row['direction']}: consistent={row['consistent']}")
        return errors

    return _cli_op(argv, fmt, BOUND_COLUMNS, check_rows)


# the row order `table` prints, the expected output rather than the program's own list
TABLE_SECTIONS = {
    1: [(m,) for m in range(4, 18)],
    3: [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
        (3, 3), (4, 3), (5, 3), (4, 4)],
}


def table_op(which, max_size, fmt) -> Op:
    argv = ["table", "--which", str(which), "--max-size", str(max_size)]
    sections = [d for d in TABLE_SECTIONS[which] if prod(d) <= max_size]

    def check_rows(rows, refs):
        got = [row["dims"] for row in rows]
        want = ["x".join(map(str, d)) for d in sections]
        if got != want:
            return [f"sections {got} vs {want}"]
        errors = []
        for row, dims in zip(rows, sections):
            errors += _section_row_errors(row, dims, False, refs)
        return errors

    return _cli_op(argv, fmt, TABLE_COLUMNS, check_rows)


def verify_op(max_points) -> Op:
    argv = ["verify", "--max-points", str(max_points)]

    def check(result, refs):
        code, out, err = result
        lines = out.splitlines()
        want = refs.verify_checks(max_points)
        errors = [line for line in lines[:-1] if not line.startswith("ok  ")]
        if code != 0 or lines[-1:] != [f"verification: PASS ({want} checks)"]:
            errors.append(f"exit code {code}, summary {lines[-1:]}, want {want} checks")
        if len(lines) - 1 != want:
            errors.append(f"{len(lines) - 1} report lines, want {want}")
        return errors

    return Op(label=" ".join(argv), run=lambda: _run_cli(argv), check=check, oracle=True)


# ------------------------------------------------------------ library ops

_KIND = {k.value: k for k in matchcount.SectionKind}
# boundary modes of the region a trace (layer direction wraps) or a
# boundary quadratic form (layer direction tiles) counts, per section kind
_SECTION_MODES = {
    "box": lambda k: ("tile",) * k,
    "torus": lambda k: ("wrap",) * k,
    "mixed": lambda k: ("wrap",) + ("protrude",) * (k - 1),
    "protruding": lambda k: ("protrude",) * k,
}
ORACLE_MAX_POINTS = 20


def _table(dims, kind, dimer_only):
    return matchcount.CoverTable(LatticeShape(dims), _KIND[kind], dimer_only)


def _exact_check(key):
    def check(result, refs):
        value, live = result
        want = refs.live(live) if live is not None else refs.exact(key)
        if value != want:
            return [f"{key}: transfer {value} vs {'oracle' if live is not None else 'reference'} {want}"]
        return []
    return check


def trace_op(dims, kind, dimer_only, power, use_orbits) -> Op:
    region = (*dims, power)
    modes = _SECTION_MODES[kind](len(dims)) + ("wrap",)
    key = ("trace", dims, kind, dimer_only, power)

    def run():
        table = _table(dims, kind, dimer_only)
        orbits = None
        if use_orbits:
            group = symmetry.generate_motion_group(table.shape)
            orbits = symmetry.compute_orbits(group, table.shape.n)
        value = transfer.full_trace_power(table, power, orbits)
        live = (oracle.count_covers(region, modes, dimer_only)
                if prod(region) <= ORACLE_MAX_POINTS else None)
        return value, live

    label = (f"full_trace_power {kind} {dims} dimer={dimer_only} q={power}"
             f" orbits={use_orbits}")
    return Op(label=label, run=run, check=_exact_check(key), oracle=True)


def form_op(dims, kind, dimer_only, layers) -> Op:
    region = (*dims, layers)
    modes = _SECTION_MODES[kind](len(dims)) + ("tile",)
    key = ("form", dims, kind, dimer_only, layers)

    def run():
        value = transfer.quadratic_form_count(_table(dims, kind, dimer_only), layers)
        live = (oracle.count_covers(region, modes, dimer_only)
                if prod(region) <= ORACLE_MAX_POINTS else None)
        return value, live

    label = f"quadratic_form_count {kind} {dims} dimer={dimer_only} layers={layers}"
    return Op(label=label, run=run, check=_exact_check(key), oracle=True)


def unfolded_op(dims, dimer_only) -> Op:
    """Unfolded 2^n-state bracket against the orbit-folded one and the reference."""

    def run():
        full, _ = spectral.power_method(
            transfer.full_matrix_sparse(_table(dims, "torus", dimer_only)))
        return full, bounds.transfer_log_radius(tuple(dims), dimer_only)

    def check(result, refs):
        full, fold = result
        if not (full.converged and fold.converged):
            return [f"converged: unfolded={full.converged} folded={fold.converged}"]
        low, high = math.log(full.lower), math.log(full.upper)
        errors = _radius_errors(f"unfolded {dims}", dims, dimer_only,
                                math.log(full.rayleigh), low, high, refs)
        errors += _radius_errors(f"folded {dims}", dims, dimer_only,
                                 fold.rayleigh, fold.lower, fold.upper, refs)
        if max(low, fold.lower) > min(high, fold.upper) + 1e-9 * max(1.0, abs(high)):
            errors.append(f"{dims}: unfolded [{low!r}, {high!r}] and folded "
                          f"[{fold.lower!r}, {fold.upper!r}] brackets are disjoint")
        return errors

    label = f"full_matrix_sparse+power_method {dims} dimer={dimer_only}"
    return Op(label=label, run=run, check=check)


def subsets_op(dims, kind, dimer_only, masks) -> Op:
    def run():
        table = _table(dims, kind, dimer_only)
        return [(m, table.count(m), oracle.count_subset_covers(dims, _KIND[kind], m, dimer_only))
                for m in masks]

    def check(result, refs):
        return [f"{kind} {dims} mask {m:#x}: table {got} vs oracle {want}"
                for m, got, want in result if got != refs.live(want)]

    label = f"count_subset_covers {kind} {dims} dimer={dimer_only} masks={len(masks)}"
    return Op(label=label, run=run, check=check, oracle=True)


# --------------------------------------------------------------- workloads

def _orient(rng, dims):
    return tuple(reversed(dims)) if len(dims) > 1 and rng.random() < 0.5 else dims


def _fmt(rng):
    return rng.choice(("csv", "json"))


# traced names only the crosscheck workload's direct library calls reach
_LIBRARY_HOOKS = frozenset({
    "mdentropy.matchcount.CoverTable", "mdentropy.symmetry.generate_motion_group",
    "mdentropy.symmetry.compute_orbits", "mdentropy.spectral.power_method",
    "mdentropy.transfer.full_trace_power", "mdentropy.transfer.quadratic_form_count",
    "mdentropy.transfer.full_matrix_sparse", "mdentropy.oracle.count_subset_covers",
})
_SECTION_CLI_HOOKS = frozenset({
    "mdentropy.cli.transfer_log_radius", "mdentropy.cli.section_orbit_count",
    "mdentropy.cli.h2_bounds", "mdentropy.cli.h3_bounds",
})


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "md-sections":
        ops = [beta_op((m,), False, _fmt(rng)) for m in range(13, 18)]
        ops += [beta_op(_orient(rng, d), False, _fmt(rng))
                for d in [(4, 4), (8, 2), (5, 3), (4, 3), (7, 2)]]
        # h2 with r = q looks its 2q-ring up twice
        ops += [bounds_op("h2", (6,), (1, 6), _fmt(rng)),
                bounds_op("h2", (7,), (1, 7), _fmt(rng)),
                bounds_op("h3", (2, 2), (1, 1, 1, 2, 4), _fmt(rng)),
                bounds_op("h3", (2, 2), (2, 1, 1, 1, 2), _fmt(rng))]
        ops += [table_op(which, 14, _fmt(rng)) for which in (1, 3)]
        # a user's sanity check; keeps the exact and oracle layers visible here
        ops.append(verify_op(8))
        largest = "beta --dims 17"
        idle = _LIBRARY_HOOKS
    elif name == "crosscheck":
        ops = [
            verify_op(20),
            trace_op((3, 3), "torus", False, 2, True),
            trace_op((9,), "torus", True, 2, True),
            trace_op((10,), "torus", False, 2, True),
            trace_op((9,), "box", False, 2, False),
            trace_op((3, 3), "mixed", True, 1, False),
            form_op((7, 2), "protruding", False, 5),
            form_op((12,), "torus", False, 4),
            form_op((10,), "protruding", True, 6),
            form_op((3, 3), "mixed", False, 2),
            form_op((5,), "torus", True, 4),
        ]
        ops += [unfolded_op(d, dimer) for d, dimer in
                [((10,), False), ((12,), True), ((3, 3), False), ((4, 3), True), ((5, 2), False)]]
        for dims, kind, dimer in [((9,), "box", False), ((3, 3), "mixed", True),
                                  ((5, 2), "torus", False), ((7, 2), "protruding", True),
                                  ((4, 3), "box", True), ((12,), "mixed", False),
                                  ((14,), "protruding", True)]:
            masks = [rng.randrange(1 << prod(dims)) for _ in range(60)]
            ops.append(subsets_op(dims, kind, dimer, masks))
        largest = "quadratic_form_count protruding (7, 2) dimer=False layers=5"
        idle = _SECTION_CLI_HOOKS
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    labels = [op.label for op in ops]
    matches = [label for label in labels if label == largest or label.startswith(largest + " --format")]
    if len(matches) != 1:
        raise AssertionError(f"{name}: largest operation {largest!r} matches {matches}")
    return Workload(name=name, ops=ops, largest=matches[0], idle_hooks=idle)
