"""Rigid motions of the section torus and orbits of subset masks.

The motion group is generated by the unit translations along each axis,
the reflections across each axis midpoint, and the transpositions of axes
with equal extents.  Elements are stored as point image tuples and the
group is the closure of the generators under composition.  Every motion
preserves the torus adjacency (including edge multiplicities), so folding
the torus transfer matrix over the induced action on subset masks keeps
its spectral radius.

Orbits of the action on masks are labelled by their minimum: every mask
is mapped to the smallest of its images under the group, in one numpy
array, and the masks that are their own minimum are the representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Adjacency, LatticeShape, check_memory


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """Composition acting on points: (g o h)(i) = g[h[i]]."""
    return tuple(g[hi] for hi in h)


def translation_perm(shape: LatticeShape, axis: int) -> tuple[int, ...]:
    """Unit translation along a 0-based axis, wrapping around."""
    images = []
    for index in range(shape.n):
        coords = list(shape.point_coords(index))
        coords[axis] = coords[axis] % shape.dims[axis] + 1
        images.append(shape.point_index(coords))
    return tuple(images)


def reflection_perm(shape: LatticeShape, axis: int) -> tuple[int, ...]:
    """Reflection across the midpoint of a 0-based axis."""
    images = []
    for index in range(shape.n):
        coords = list(shape.point_coords(index))
        coords[axis] = shape.dims[axis] + 1 - coords[axis]
        images.append(shape.point_index(coords))
    return tuple(images)


def transposition_perm(shape: LatticeShape, a: int, b: int) -> tuple[int, ...]:
    """Swap of two 0-based axes of equal extent."""
    if shape.dims[a] != shape.dims[b]:
        raise ValueError("can only transpose axes of equal extent")
    images = []
    for index in range(shape.n):
        coords = list(shape.point_coords(index))
        coords[a], coords[b] = coords[b], coords[a]
        images.append(shape.point_index(coords))
    return tuple(images)


def generate_motion_group(shape: LatticeShape) -> tuple[tuple[int, ...], ...]:
    """Closure of translations, reflections, and equal-axis transpositions."""
    k = len(shape.dims)
    gens = {identity_perm(shape.n)}
    for axis in range(k):
        if shape.dims[axis] > 1:
            gens.add(translation_perm(shape, axis))
            gens.add(reflection_perm(shape, axis))
    for a in range(k):
        for b in range(a + 1, k):
            if shape.dims[a] == shape.dims[b]:
                gens.add(transposition_perm(shape, a, b))
    # breadth-first closure under composition
    elements = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in elements:
                    elements.add(gh)
                    new.append(gh)
        frontier = new
    return tuple(sorted(elements))


def apply_to_mask(perm: tuple[int, ...], mask: int) -> int:
    """Image of a subset mask under a point permutation."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def is_adjacency_automorphism(perm: tuple[int, ...], adjacency: Adjacency) -> bool:
    """Whether the permutation preserves edges with multiplicities."""
    edges = {}
    for i, j, mult in adjacency.edges:
        edges[(i, j)] = mult
    for (i, j), mult in edges.items():
        a, b = perm[i], perm[j]
        if a > b:
            a, b = b, a
        if edges.get((a, b)) != mult:
            return False
    return True


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
