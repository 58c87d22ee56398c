"""Machine-speed calibration: a fixed piece of work timed next to the workload.

The benchmark's host is a shared virtual machine whose speed drifts by a
third or more over minutes, in CPU time as well as wall time, so raw wall
times of separate runs disagree by more than any useful regression bound.
The drift is common to all interpreted work and changes over fractions
of a second to minutes, so `kernel()` is timed just before and just after
every measured operation.  Each operation's time is reported in
reference seconds: its wall time multiplied by `REFERENCE_S / k`, where
`k` is the median time of the kernel runs near the operation (see
`to_reference`).  On a machine that runs the kernel in `REFERENCE_S`,
reference seconds are wall seconds.  Set-up time (interpreter start and imports, mostly
loading files and shared libraries) tracked the kernel worse than it
tracked nothing, so it stays in wall seconds.

The kernel is the benchmark's own code and never calls the package, so a
change to the package moves the workload's times and leaves the kernel's
alone.  It is a pure-Python submask walk over a list of integers, the same
kind of interpreter work as the package's quotient build and exact walks.
"""

from __future__ import annotations

import bisect
import statistics
import time

# median kernel time on the development box: 2 vCPUs of an Intel Xeon,
# Python 3.11.7; it only sets the scale of the reported times
REFERENCE_S = 0.015

_BITS = 12
_FULL = (1 << _BITS) - 1
_TABLE = list(range(1 << _BITS))


def kernel() -> int:
    """Walk the submasks of the complements of every fifth 12-bit mask."""
    acc = 0
    for mask in range(0, 1 << _BITS, 5):
        comp = _FULL ^ mask
        sub = comp
        while True:
            acc += _TABLE[comp ^ sub]
            if sub == 0:
                break
            sub = (sub - 1) & comp
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def to_reference(samples) -> list:
    """Reference seconds of timed operations.

    `samples` holds one `(start, seconds, before, after)` per operation of a
    run: its `perf_counter` start, its wall time and the times of the
    kernel runs just before and just after it.  The machine's speed during
    an operation is taken as the median time of the kernel runs from one
    operation length before its start to one operation length after its
    end, and always of the two around it.  Two kernel runs are enough for
    a short operation; one of several seconds has the kernel runs of the
    operations around it added, since the two at its ends say little about
    its middle.
    """
    marks = sorted([(start - before / 2, before) for start, _, before, _ in samples]
                   + [(start + seconds + after / 2, after)
                      for start, seconds, _, after in samples])
    times = [t for t, _ in marks]
    result = []
    for start, seconds, before, after in samples:
        lo = bisect.bisect_left(times, start - seconds)
        hi = bisect.bisect_right(times, start + 2 * seconds)
        near = [k for _, k in marks[lo:hi]] + [before, after]
        result.append(seconds * REFERENCE_S / statistics.median(near))
    return result
