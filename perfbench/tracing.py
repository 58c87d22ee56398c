"""Span tracing of the package's layers, installed from outside the package.

`Tracer.install()` replaces public layer functions under the module-level
names their callers look up (`section_quotient` calls
`mdentropy.bounds.build_quotient`, `run_verification_suite` calls
`mdentropy.oracle.count_covers`, and so on) with wrappers defined here;
`uninstall()` puts the originals back.  Each wrapper records a span
(name, start, end, parent span) and adds the layer's work counts, computed
from the call's public return value: table sizes, orbit representatives,
quotient arrays and spectral brackets.  A layer's self time is the
duration of its spans minus the part their child spans cover.

The package is single-threaded and does no I/O, so no layer ever waits
for another: busy time is the whole story and no wait metric exists.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Count:
    """Work counts one hook adds, computed from a call's arguments and result."""

    metrics: tuple
    fn: Callable   # (args, kwargs, result) -> {metric: increment}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _submask_steps(orbits) -> int:
    # the quotient walks every submask of each representative's complement
    return sum(1 << (orbits.n - rep.bit_count()) for rep in orbits.reps)


def _matrix_bytes(matrix) -> int:
    if isinstance(matrix, np.ndarray):
        return matrix.size * 8   # iterated as float64
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _spectral(args, kwargs, result):
    bracket = result[0]
    size = _matrix_bytes(_arg(args, kwargs, 0, "matrix"))
    return {"spectral.iterations": bracket.iterations,
            "spectral.matrix_bytes": size,
            "spectral.bytes": size * bracket.iterations,
            "spectral.unconverged": int(not bracket.converged)}


TABLE = Count(("matchcount.calls", "matchcount.subsets"),
              lambda a, k, table: {"matchcount.calls": 1, "matchcount.subsets": table.full + 1})
ORBITS = Count(("symmetry.mask_images", "symmetry.orbit_count"),
               lambda a, k, space: {"symmetry.mask_images": (1 << space.n) * space.group_order,
                                    "symmetry.orbit_count": space.size})
QUOTIENT = Count(("transfer.submask_steps", "transfer.quotient_bytes"),
                 lambda a, k, qm: {
                     "transfer.submask_steps": _submask_steps(_arg(a, k, 1, "orbits")),
                     "transfer.quotient_bytes": qm.entries.nbytes + qm.weights.nbytes})
SPECTRAL = Count(("spectral.iterations", "spectral.matrix_bytes", "spectral.bytes",
                  "spectral.unconverged"), _spectral)
EXACT = Count(("transfer.exact_calls",), lambda a, k, r: {"transfer.exact_calls": 1})
ORACLE = Count(("oracle.calls",), lambda a, k, r: {"oracle.calls": 1})

# (module, attribute, time metric, counts); the attribute is the name the
# calling module looks up, so each layer is wrapped where its callers see it
HOOKS = [
    ("mdentropy.cli", "main", "cli.self_s", None),
    ("mdentropy.cli", "transfer_log_radius", "bounds.self_s", None),
    ("mdentropy.cli", "section_orbit_count", "bounds.self_s", None),
    ("mdentropy.cli", "h2_bounds", "bounds.self_s", None),
    ("mdentropy.cli", "h3_bounds", "bounds.self_s", None),
    ("mdentropy.cli", "run_verification_suite", "oracle.self_s", ORACLE),
    ("mdentropy.bounds", "section_quotient", "bounds.self_s", None),
    ("mdentropy.bounds", "transfer_log_radius", "bounds.self_s", None),
    ("mdentropy.bounds", "CoverTable", "matchcount.self_s", TABLE),
    ("mdentropy.bounds", "generate_motion_group", "symmetry.group_s", None),
    ("mdentropy.bounds", "compute_orbits", "symmetry.orbits_s", ORBITS),
    ("mdentropy.bounds", "build_quotient", "transfer.quotient_s", QUOTIENT),
    ("mdentropy.bounds", "power_method", "spectral.self_s", SPECTRAL),
    ("mdentropy.oracle", "CoverTable", "matchcount.self_s", TABLE),
    ("mdentropy.oracle", "full_trace_power", "transfer.exact_s", EXACT),
    ("mdentropy.oracle", "quadratic_form_count", "transfer.exact_s", EXACT),
    ("mdentropy.oracle", "count_covers", "oracle.self_s", ORACLE),
    ("mdentropy.oracle", "enumerate_covers", "oracle.self_s", ORACLE),
    ("mdentropy.oracle", "verify_transfer_identities", "oracle.self_s", ORACLE),
    ("mdentropy.oracle", "count_subset_covers", "oracle.self_s", ORACLE),
    ("mdentropy.transfer", "matvec_exact", "transfer.exact_s", EXACT),
    ("mdentropy.transfer", "full_trace_power", "transfer.exact_s", EXACT),
    ("mdentropy.transfer", "quadratic_form_count", "transfer.exact_s", EXACT),
    ("mdentropy.transfer", "full_matrix_sparse", "transfer.exact_s", EXACT),
    ("mdentropy.matchcount", "CoverTable", "matchcount.self_s", TABLE),
    ("mdentropy.symmetry", "generate_motion_group", "symmetry.group_s", None),
    ("mdentropy.symmetry", "compute_orbits", "symmetry.orbits_s", ORBITS),
    ("mdentropy.spectral", "power_method", "spectral.self_s", SPECTRAL),
]

TIME_METRICS = ("matchcount.self_s", "symmetry.group_s", "symmetry.orbits_s",
                "transfer.quotient_s", "transfer.exact_s", "spectral.self_s",
                "bounds.self_s", "oracle.self_s", "cli.self_s")


class Tracer:
    """Wrappers for every hook, and the spans and counts of the current pass."""

    def __init__(self):
        self.missing = []       # hooked names the package no longer has
        self.available = set()  # metrics some installed hook feeds
        self._patches = []
        self.reset()
        for module_name, attr, time_metric, count in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            name = f"{module_name}.{attr}"
            if original is None:
                self.missing.append(name)
                continue
            self.available.add(time_metric)
            self.available.update(count.metrics if count else ())
            wrapper = self._wrap(name, time_metric, count, original)
            self._patches.append((module, attr, original, wrapper))

    @property
    def names(self) -> list:
        return [f"{module.__name__}.{attr}" for module, attr, _, _ in self._patches]

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []   # [name, time metric, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._lookups = []

    def _open(self, name, metric) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, metric, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, metric, count, original):
        tracer = self
        if isinstance(original, type):
            class Traced(original):
                def __init__(self, *args, **kwargs):
                    index = tracer._open(name, metric)
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer._close(index)
                    tracer.counts.update(count.fn(args, kwargs, self))

            Traced.__name__ = original.__name__
            Traced.__qualname__ = original.__qualname__
            return Traced

        cache_info = getattr(original, "cache_info", None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            index = tracer._open(name, metric)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if cache_info:
                key = (args, tuple(sorted(kwargs.items())))
                tracer._lookups.append((original.__qualname__, key, cache_info().hits > hits))
            if count:
                tracer.counts.update(count.fn(args, kwargs, result))
            return result

        if cache_info:
            wrapper.cache_info = cache_info
            wrapper.cache_clear = original.cache_clear
        return wrapper

    def first_lookup_errors(self) -> list:
        """Cache lookups since the last call whose key was a hit on first use.

        Caches are cleared before every operation, so the first lookup of
        each section inside one operation must be a miss.
        """
        seen = set()
        errors = []
        for cache, key, hit in self._lookups:
            if (cache, key) not in seen:
                seen.add((cache, key))
                if hit:
                    errors.append(f"first lookup of {cache}{key} hit a warm cache")
        self._lookups = []
        return errors

    def summary(self, first: int = 0) -> dict:
        """Self time per time metric and per hooked name, and the work counts.

        `first` restricts the times to the spans recorded from that index on.
        """
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= first:
                covered[parent - first] += end - start
        times = dict.fromkeys(TIME_METRICS, 0.0)
        names = {}
        for (name, metric, start, end, _), child in zip(spans, covered):
            own = end - start - child
            times[metric] += own
            stats = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["total_s"] += end - start
            stats["self_s"] += own
        return {"times": times, "counts": dict(self.counts), "names": names}
