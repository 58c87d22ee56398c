"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks, in order:

1. every reference log radius of a section with at most 14 points lies
   within its tolerance of the unfolded 2^n-state matrix's bracket
   (this builds float64 sparse matrices of up to 3^14 entries, about
   1 GB of memory at 14 points, and takes about a minute);
2. the gate passes correct outputs and flags every one of them against
   perturbed references;
3. with caches cleared before an operation, the first lookup of each
   section is a miss, and without clearing the check does object;
4. two traced runs of the same workload and seed give identical counts.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from math import prod

import child


def _unfolded_refs(report):
    from mdentropy.lattice import LatticeShape
    from mdentropy.matchcount import CoverTable, SectionKind
    from mdentropy.spectral import power_method
    from mdentropy.transfer import full_matrix_sparse
    from refs import LOG_RADIUS

    for (dims, dimer_only), (ref, tol) in sorted(LOG_RADIUS.items(), key=lambda kv: prod(kv[0][0])):
        if prod(dims) > 14:
            continue
        table = CoverTable(LatticeShape(dims), SectionKind.TORUS, dimer_only)
        bracket, _ = power_method(full_matrix_sparse(table))
        low, high = math.log(bracket.lower), math.log(bracket.upper)
        report(f"reference {dims} dimer={dimer_only} in unfolded bracket",
               bracket.converged and low - tol <= ref <= high + tol,
               f"[{low!r}, {high!r}] vs {ref!r}")


def _small_ops():
    import ops

    return [
        ops.beta_op((3, 4), False, "csv"),
        ops.beta_op((12,), True, "json"),
        ops.bounds_op("h2", (6,), (1, 6), "json"),
        ops.bounds_op("h3t", (1, 2), (2, 1, 1, 1, 1), "csv"),
        ops.table_op(3, 9, "csv"),
        ops.verify_op(8),
        ops.trace_op((3, 2), "torus", False, 2, True),
        ops.form_op((3, 2), "mixed", True, 3),
        ops.form_op((10,), "protruding", True, 6),
        ops.unfolded_op((3, 3), False),
        ops.subsets_op((3, 3), "mixed", True, [0, 5, 0x1ff]),
    ]


def _gate(report):
    from mdentropy import bounds
    from refs import PerturbedRefs, Refs

    for op in _small_ops():
        bounds.section_quotient.cache_clear()
        bounds.transfer_log_radius.cache_clear()
        result = op.run()
        errors = op.check(result, Refs())
        report(f"gate passes {op.label}", not errors, "; ".join(errors))
        flagged = op.check(result, PerturbedRefs())
        report(f"gate flags perturbed reference for {op.label}", bool(flagged))


def _cache_discipline(report):
    from mdentropy import bounds
    from tracing import Tracer

    op = _small_ops()[2]   # h2 bounds: the 12-ring is looked up twice
    tracer = Tracer()
    tracer.install()
    try:
        for cleared in (True, False):
            if cleared:
                bounds.section_quotient.cache_clear()
                bounds.transfer_log_radius.cache_clear()
            op.run()
            errors = tracer.first_lookup_errors()
            if cleared:
                report("first lookup of each section is a miss after clearing", not errors,
                       "; ".join(errors))
            else:
                report("a warm cache is detected without clearing", bool(errors))
    finally:
        tracer.uninstall()


def _repeatable_counts(report):
    records = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, str(child.ROOT / "perfbench" / "child.py"), "--workload", "crosscheck",
             "--seed", "7", "--seconds", "0", "--trace", "1"],
            cwd=child.ROOT, capture_output=True, text=True, timeout=170, check=True)
        records.append(json.loads(out.stdout.splitlines()[-1]))
    counts = [{k: v for k, v in r["trace"]["layer_metrics"].items() if not k.endswith("_s")}
              for r in records]
    report("two traced runs with one seed give identical counts", counts[0] == counts[1],
           json.dumps(counts))


def main() -> int:
    child._import_package()
    failed = []

    def report(name, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {name}{'' if ok or not detail else ': ' + detail}",
              flush=True)
        if not ok:
            failed.append(name)

    _gate(report)
    _cache_discipline(report)
    _repeatable_counts(report)
    _unfolded_refs(report)
    print(f"selftest: {'FAIL' if failed else 'PASS'} ({len(failed)} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
