"""Workload process: one fresh interpreter per run, started by `run.py`.

`child.py --probe` only imports `mdentropy.cli` and prints the monotonic
clock reading at which the import finished, so the parent can time
set-up.  Otherwise the process imports the package, runs passes over the
workload's operation list until `--seconds` have elapsed, checks every
output against the references, and prints one JSON record.

Before every operation both `lru_cache`s of `mdentropy.bounds` are cleared
and garbage is collected, because a CLI user pays a cold start on every
invocation.  The calibration kernel of `calibrate.py` is timed just
before and just after every operation, and each operation's time is
also given in reference seconds.  With `--trace 1`, untraced and traced
passes alternate, so the tracing overhead is measured on the same
machine state.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Import `mdentropy.cli` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mdentropy.cli
    ready = time.monotonic()
    origin = Path(mdentropy.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"mdentropy imported from {origin}, not from {SRC}")
    return ready


def _run_cold(op, refs, caches) -> dict:
    """Run one operation with empty caches; returns its record.

    The calibration kernel is timed just before and just after the
    operation; `_to_reference` later adds `ref_s`, the operation's wall
    time `seconds` in reference seconds.
    """
    gc.collect()
    for cache in caches.values():
        cache.cache_clear()
    before = calibrate.kernel_seconds()
    t0 = time.perf_counter()
    try:
        result, errors = op.run(), None
    except Exception:   # a failing operation is counted, not fatal
        result, errors = None, [traceback.format_exc(limit=4)]
    seconds = time.perf_counter() - t0
    after = calibrate.kernel_seconds()
    if errors is None:
        errors = op.check(result, refs)
    return {"label": op.label, "start": t0, "seconds": seconds, "kernel_s": (before, after),
            "result": result, "errors": errors}


def _run_pass(workload, refs, tracer, caches):
    """Run every operation once, cold; returns the pass record.

    `caches` maps "radius" and "quotient" to the package's two lru_caches.
    The pass time, added by `_to_reference`, is the sum of the operations'
    times; garbage collection, cache clearing, the calibration kernel and
    the output checks between operations are the benchmark's own work and
    are left out.
    """
    ops = []
    hits = {"radius": [0, 0], "quotient": [0, 0]}   # [hits, lookups]
    if tracer:
        tracer.reset()
        tracer.install()
    started = time.perf_counter()
    try:
        for op in workload.ops:
            first_span = len(tracer.spans) if tracer else 0
            entry = _run_cold(op, refs, caches)
            for key, cache in caches.items():
                info = cache.cache_info()
                hits[key][0] += info.hits
                hits[key][1] += info.hits + info.misses
            entry["oracle"] = op.oracle
            if tracer:
                entry["errors"] += tracer.first_lookup_errors()
                if op.label == workload.largest:
                    entry["layers_wall_s"] = tracer.summary(first_span)["times"]
            ops.append(entry)
    finally:
        if tracer:
            tracer.uninstall()
    record = {"traced": tracer is not None, "pass_wall_s": sum(op["seconds"] for op in ops),
              "wall_s": time.perf_counter() - started, "ops": ops, "cache": hits}
    if tracer:
        record["trace"] = tracer.summary()
    return record


def _to_reference(passes, extra) -> None:
    """Add `ref_s` to every operation and `pass_s` to every pass."""
    entries = [op for p in passes for op in p["ops"]] + extra
    scaled = calibrate.to_reference([(op["start"], op["seconds"], *op["kernel_s"])
                                     for op in entries])
    for op, ref_s in zip(entries, scaled):
        op["ref_s"] = ref_s
    for p in passes:
        p["pass_s"] = sum(op["ref_s"] for op in p["ops"])


def _layer_metrics(trace, scale, cache, mismatches, available) -> dict:
    """A traced pass's layer metrics; `scale` turns its wall times into reference seconds."""
    values = {name: trace["times"][name] * scale for name in trace["times"] if name in available}
    values.update({name: trace["counts"].get(name, 0)
                   for name in sorted(available) if not name.endswith("_s")})
    for key in ("radius", "quotient"):
        hits, lookups = cache[key]
        values[f"bounds.{key}_cache_lookups"] = lookups
        values[f"bounds.{key}_cache_hit_frac"] = hits / lookups if lookups else 0.0
    values["oracle.mismatches"] = mismatches
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ready = _import_package()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    import envinfo
    import ops as ops_module
    from mdentropy import bounds
    from refs import PerturbedRefs, Refs
    from tracing import Tracer

    workload = ops_module.build(args.workload, args.seed)
    refs = Refs()
    caches = {"radius": bounds.transfer_log_radius, "quotient": bounds.section_quotient}
    tracer = Tracer() if args.trace else None
    passes = []
    deadline = time.perf_counter() + args.seconds
    needed = {False, True} if tracer else {False}
    # no pass starts that would, at the mean pass time so far, end past the
    # deadline, so a run lasts about --seconds once it has one pass of each kind
    while needed - {p["traced"] for p in passes} or (
            time.perf_counter() + statistics.fmean(p["wall_s"] for p in passes) <= deadline):
        traced = bool(tracer) and len(passes) % 2 == 1
        passes.append(_run_pass(workload, refs, tracer if traced else None, caches))
    # the time left is too short for a pass; it gives the single largest
    # operation, whose few samples per run are the noisiest, more samples
    largest = [op for p in passes if not p["traced"] for op in p["ops"]
               if op["label"] == workload.largest]
    largest_spec = next(op for op in workload.ops if op.label == workload.largest)
    extra = []
    while not tracer and (time.perf_counter()
                          + statistics.fmean(op["seconds"] for op in largest + extra) <= deadline):
        extra.append(_run_cold(largest_spec, refs, caches))
    _to_reference(passes, extra)

    # the gate must object to every operation once its references move
    perturbed = PerturbedRefs()
    unflagged = [op["label"] for op, spec in zip(passes[0]["ops"], workload.ops)
                 if not op["errors"] and not spec.check(op["result"], perturbed)]

    untraced = [p for p in passes if not p["traced"]]
    all_ops = [op for p in passes for op in p["ops"]] + extra
    failures = [f"{op['label']}: {error}" for op in all_ops for error in op["errors"]]
    record = {
        "ready": ready,
        "workload": workload.name,
        "seed": args.seed,
        "operations": len(workload.ops),
        "attempted": len(all_ops),
        "failed": sum(1 for op in all_ops if op["errors"]),
        "failures": failures[:20],
        "gate_selftest": {"ok": not unflagged, "unflagged": unflagged},
        "untraced_pass_s": [p["pass_s"] for p in untraced],
        "untraced_pass_wall_s": [p["pass_wall_s"] for p in untraced],
        "op_s": {spec.label: [p["ops"][i]["ref_s"] for p in untraced]
                 for i, spec in enumerate(workload.ops)},
        "largest_op_s": [op["ref_s"] for op in largest + extra],
        "largest_op_wall_s": [op["seconds"] for op in largest + extra],
        "largest_op": workload.largest,
        "kernel_s": [k for p in passes for op in p["ops"] for k in op["kernel_s"]]
                    + [k for op in extra for k in op["kernel_s"]],
        "reference_s": calibrate.REFERENCE_S,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": envinfo.collect(ROOT),
    }
    if tracer:
        traced = [p for p in passes if p["traced"]]
        layers = [_layer_metrics(p["trace"], p["pass_s"] / p["pass_wall_s"], p["cache"],
                                 sum(len(op["errors"]) for op in p["ops"] if op["oracle"]),
                                 tracer.available)
                  for p in traced]
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0] if name.endswith("_s")}
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                       - statistics.median(record["untraced_pass_s"]))
        called = {name for p in traced for name in p["trace"]["names"]}
        big = next(op for op in traced[-1]["ops"] if op["label"] == workload.largest)
        gaps = sorted(set(tracer.missing)
                      | {n for n in tracer.names if n not in called and n not in workload.idle_hooks})
        metrics["trace.hook_gaps"] = len(gaps)
        record["trace"] = {
            "layer_metrics": metrics,
            "counts_repeat": all(c == counts[0] for c in counts),
            "traced_passes": len(traced),
            "hooks": {"missing": tracer.missing, "gaps": gaps,
                      "idle": sorted(workload.idle_hooks & set(tracer.names))},
            "names": traced[-1]["trace"]["names"],
            "largest_op_layers_s": {name: value * big["ref_s"] / big["seconds"]
                                    for name, value in big["layers_wall_s"].items()},
            "wait_s": "none: the package is single-threaded and does no I/O",
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
