"""Rigid motions of the section torus and orbits of subset masks.

The motion group is built from per-axis rules: each axis of extent m is
shifted and possibly flipped, the 0-based coordinate c going to
(s + f c) mod m with f = +-1, and then axes of equal extent are permuted.
The group is the product of these choices, enumerated at once as numpy
arrays of point images, one row per element, and returned as sorted point
image tuples.  Every motion preserves the torus adjacency (including edge
multiplicities), so folding the torus transfer matrix over the induced
action on subset masks keeps its spectral radius.

Orbits of the action on masks are labelled by their minimum: every mask
is mapped to the smallest of its images under the group, in one numpy
array, and the masks that are their own minimum are the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .lattice import LatticeShape, check_memory


def generate_motion_group(shape: LatticeShape) -> tuple[tuple[int, ...], ...]:
    """Every rigid motion of the section torus, as sorted point image tuples.

    On each axis of extent m the 0-based coordinate c goes to (s + f c) mod m
    for a shift s and a flip f = +-1; then the coordinates move to a
    permutation of the axes of equal extent.  Axes of extent 1 stay put,
    since moving them moves no point.
    """
    dims, strides = shape.dims, shape.strides()
    points = np.arange(shape.n)
    # images of the coordinate along each axis, one row per (s, f); below
    # extent 3 every flip is a shift
    maps = [np.array([(s + f * np.arange(m)) % m for f in ((1, -1) if m > 2 else (1,))
                      for s in range(m)]) for m in dims]
    axes = [a for a, m in enumerate(dims) if m > 1]
    images = []
    for order in permutations(axes):
        if any(dims[a] != dims[b] for a, b in zip(axes, order)):
            continue
        image = np.zeros((1, shape.n), dtype=np.int64)
        for a, b in zip(axes, order):
            moved = maps[a][:, points // strides[a] % dims[a]] * strides[b]
            image = (image[:, None] + moved[None]).reshape(-1, shape.n)
        images.append(image)
    # sorted in Python: np.unique(axis=0) loads numpy.ma, about 1 MB of RSS
    return tuple(sorted(set(map(tuple, np.concatenate(images).tolist()))))


def apply_to_mask(perm: tuple[int, ...], mask: int) -> int:
    """Image of a subset mask under a point permutation."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def is_adjacency_automorphism(perm: tuple[int, ...], edges) -> bool:
    """Whether the permutation preserves the edges (i, j, multiplicity), i < j."""
    mults = {(i, j): mult for i, j, mult in edges}
    return all(mults.get((min(perm[i], perm[j]), max(perm[i], perm[j]))) == mult
               for (i, j), mult in mults.items())


@dataclass
class OrbitSpace:
    """Orbits of the motion group acting on the 2^n subset masks."""

    n: int
    group_order: int
    reps: list[int]       # canonical (minimal) mask per orbit, increasing
    sizes: list[int]      # orbit cardinalities, the quotient weights
    orbit_of: np.ndarray  # int32, mask -> orbit index, length 2^n

    @property
    def size(self) -> int:
        return len(self.reps)


def compute_orbits(group, n: int) -> OrbitSpace:
    """Label each mask with its orbit minimum, the orbit's representative.

    The images of all masks under each g (masks holding point i are those
    below 2^i with g(i) added) fold into an elementwise minimum.  Predicts
    40 * 2^n + 100 * m + 8 KiB for m orbits (Burnside's count): int32 arrays
    of 2^n (the budget keeps n < 31, so int32 holds a mask), two ints per orbit.
    """
    if any(sorted(g) != list(range(n)) for g in group):
        raise ValueError(f"every group element must be a permutation of range({n})")
    check_memory((40 << n) + 100 * burnside_orbit_count(group, n) + (8 << 10),
                 f"the mask orbits of {n} points")
    masks = np.arange(1 << n, dtype=np.int32)
    minimum = masks.copy()
    image = np.zeros(1 << n, dtype=np.int32)
    for g in group:
        for i, gi in enumerate(g):
            np.bitwise_or(image[:1 << i], 1 << gi, out=image[1 << i:2 << i])
        np.minimum(minimum, image, out=minimum)
    is_rep = minimum == masks
    orbit_of = (np.cumsum(is_rep, dtype=np.int32) - 1)[minimum]
    return OrbitSpace(n=n, group_order=len(group), reps=np.flatnonzero(is_rep).tolist(),
                      sizes=np.bincount(orbit_of).tolist(), orbit_of=orbit_of)


def burnside_orbit_count(group, n: int) -> int:
    """Orbit count as the average of 2^cycles(g); cross-checks compute_orbits."""
    total = 0
    for g in group:
        seen = bytearray(n)
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = 1
                j = g[j]
        total += 1 << cycles
    count, rem = divmod(total, len(group))
    if rem:
        raise AssertionError("Burnside sum not divisible by the group order")
    return count
