"""Reference values behind the benchmark's correctness gate.

Log radii and orbit counts are copied from the pinned tables of the
acceptance tests, with the same tolerances.  Values no test pins were
recorded from the package's own output at the commit that introduced the
benchmark; they are marked "recorded" below.  `selftest.py` checks
every reference radius of a section with at most 14 points against the
spectral bracket of the unfolded 2^n-state matrix.

Checks never compare against a value computed by the code under test,
except where the comparison is between two independent paths of the
package (the enumeration oracle against the transfer path), which is the
point of the `crosscheck` workload.  Every comparison goes through a
`Refs` object so that `PerturbedRefs` can show the gate catches a wrong
reference.
"""

from __future__ import annotations

# (canonical dims, dimer_only) -> (log radius, absolute tolerance)
LOG_RADIUS = {}
for _m, _v in {4: 2.6532941163, 5: 3.3135066910, 6: 3.9769139475,
               7: 4.6395628723, 8: 5.3023993987, 9: 5.9651887945,
               10: 6.6279902386, 11: 7.2907885674, 12: 7.9535877093}.items():
    LOG_RADIUS[(_m,), False] = (_v, 1e-9)
for _m, _v in {13: 8.6163866375, 14: 9.2791856222, 15: 9.9419845918}.items():
    LOG_RADIUS[(_m,), False] = (_v, 1e-8)
LOG_RADIUS[(16,), False] = (10.60478356551861, 1e-9)
LOG_RADIUS[(17,), False] = (11.267582538125689, 1e-9)  # recorded
for _m, _v in {4: 1.316957897, 5: 1.404661127, 6: 1.843797237,
               7: 2.003260294, 8: 2.400842203, 9: 2.594837310,
               10: 2.969359257, 11: 3.183303939, 12: 3.543130579,
               13: 3.770113562, 14: 4.119721251, 15: 4.355934472}.items():
    LOG_RADIUS[(_m,), True] = (_v, 1e-8)
for _d, _v in {(2, 2): 3.224405658, (3, 2): 4.768958913, (4, 2): 6.367778959,
               (5, 2): 7.958105292, (6, 2): 9.550024542, (3, 3): 7.057039652,
               (4, 3): 9.421594940, (5, 3): 11.77517604,
               (4, 4): 12.57923752}.items():
    LOG_RADIUS[_d, False] = (_v, 1e-8)
# the acceptance tests pin these two rows to cross-checked values at 1e-9
LOG_RADIUS[(7, 2), False] = (11.141636533827356, 1e-9)
LOG_RADIUS[(8, 2), False] = (12.733310851282884, 1e-9)
for _d, _v in {(2, 2): 2.292431670, (3, 2): 3.068671222, (4, 2): 4.151763891,
               (5, 2): 5.119835223, (6, 2): 6.161467494, (7, 2): 7.168058989,
               (3, 3): 3.938705096, (4, 3): 5.365527945, (5, 3): 6.635849120,
               (4, 4): 7.409698288}.items():
    LOG_RADIUS[_d, True] = (_v, 1e-8)

# canonical dims -> mask orbit count under the section's rigid motions
ORBITS = {
    (4,): 6, (5,): 8, (6,): 13, (7,): 18, (8,): 30, (9,): 46, (10,): 78,
    (11,): 126, (12,): 224, (13,): 380, (14,): 687, (15,): 1224,
    (16,): 2250, (17,): 4112,  # recorded
    (2, 2): 6, (3, 2): 13, (4, 2): 34, (5, 2): 78, (6, 2): 237,
    (7, 2): 687, (8, 2): 2299, (3, 3): 26, (4, 3): 158, (5, 3): 708,
    (4, 4): 805,
}

# exact results of regions above the oracle's 20 points; recorded
EXACT = {
    ("form", (7, 2), "protruding", False, 5): 1035268951526929389572282016087316,
    ("form", (12,), "torus", False, 4): 9457535113025,
    ("form", (10,), "protruding", True, 6): 157499121,
}

# `verify --max-points N` -> number of report lines; recorded
VERIFY_CHECKS = {20: 233, 8: 126}


def canonical(dims) -> tuple[int, ...]:
    return tuple(sorted((int(m) for m in dims), reverse=True))


class Refs:
    """Lookup of reference values; every gate comparison reads through here."""

    def radius(self, dims, dimer_only: bool) -> tuple[float, float]:
        return LOG_RADIUS[canonical(dims), bool(dimer_only)]

    def orbits(self, dims) -> int:
        return ORBITS[canonical(dims)]

    def exact(self, key) -> int:
        return EXACT[key]

    def verify_checks(self, max_points: int) -> int:
        return VERIFY_CHECKS[max_points]

    def live(self, value: int) -> int:
        """An integer the oracle computed in the same operation."""
        return value


class PerturbedRefs(Refs):
    """Every reference moved just outside its tolerance; the gate must object."""

    def radius(self, dims, dimer_only):
        value, tol = super().radius(dims, dimer_only)
        return value + 3 * tol, tol

    def orbits(self, dims):
        return super().orbits(dims) + 1

    def exact(self, key):
        return super().exact(key) + 1

    def verify_checks(self, max_points):
        return super().verify_checks(max_points) + 1

    def live(self, value):
        return value + 1
