"""Box and torus cross-section geometry.

A cross-section is a box <m> = <m_1> x ... x <m_k> of lattice points.
Points are indexed row-major with the first coordinate varying fastest,
so subsets of the section are plain bitmasks over point indices.

Geometry is set by one mode per direction.  Every direction joins
neighbors; a tiled direction (TILE) adds nothing more, a wrapped one
(WRAP) closes into a torus, and a protruding one (PROTRUDE) lets dimers
stick out through its two faces.  Wrapping a direction of extent 2 yields
a single edge of multiplicity 2, because the two wrap-around dimer
placements between the same pair of points are distinct configurations;
extent 1 yields no edge in that direction.  `section_geometry` builds the
edges and the per-point protrusion slots in one pass over the points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod

MAX_MASK_POINTS = 64
MEMORY_BUDGET = 1 << 30

TILE = "tile"
WRAP = "wrap"
PROTRUDE = "protrude"
MODES = (TILE, WRAP, PROTRUDE)


class CapacityError(ValueError):
    """A requested computation exceeds the supported problem size."""


def check_memory(nbytes: int, what: str) -> None:
    """Raise CapacityError if `what`, predicted to need `nbytes`, exceeds the budget.

    Each layer that allocates state-sized memory calls it first, with its own prediction.
    """
    if nbytes > MEMORY_BUDGET:
        raise CapacityError(f"{what} needs {nbytes >> 20:,} MiB; "
                            f"the memory budget is {MEMORY_BUDGET >> 20:,} MiB")


@dataclass(frozen=True)
class LatticeShape:
    """Box of positive extents. Point index = sum_k (c_k - 1) * prod_{j<k} m_j."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(map(operator.index, self.dims)))
        if not self.dims:
            raise ValueError("shape needs at least one dimension")
        if any(m < 1 for m in self.dims):
            raise ValueError(f"extents must be positive, got {self.dims}")
        if self.n > MAX_MASK_POINTS:
            raise CapacityError(
                f"{self.n} points exceed the {MAX_MASK_POINTS}-point mask limit"
            )

    @property
    def n(self) -> int:
        return prod(self.dims)

    def strides(self) -> tuple[int, ...]:
        out = []
        s = 1
        for m in self.dims:
            out.append(s)
            s *= m
        return tuple(out)

    def point_coords(self, index: int) -> tuple[int, ...]:
        """1-based coordinates of a point index, the first varying fastest."""
        if not 0 <= index < self.n:
            raise ValueError(f"point index {index} outside 0..{self.n - 1}")
        coords = []
        for m in self.dims:
            index, c = divmod(index, m)
            coords.append(c + 1)
        return tuple(coords)


def section_geometry(shape: LatticeShape, modes) -> tuple[tuple, tuple[int, ...]]:
    """Edges and protrusion slots of a section, one mode per direction.

    Edges are (i, j, multiplicity) with i < j, sorted; slots count, per
    point, the outward dimer placements through the faces of the
    protruding directions.  A point on the low face of such a direction
    gets one slot, on the high face another; extent 1 puts the point on
    both faces.
    """
    modes = tuple(modes)
    if len(modes) != len(shape.dims) or not all(mode in MODES for mode in modes):
        raise ValueError(f"need one of {MODES} for each of the {len(shape.dims)} "
                         f"directions, got {modes!r}")
    edges: list[tuple[int, int, int]] = []
    slots = []
    strides = shape.strides()
    for index in range(shape.n):
        slot = 0
        for c, m, s, mode in zip(shape.point_coords(index), shape.dims, strides, modes):
            # a wrapped extent 2 doubles its one edge, a wrapped extent 1
            # adds none: its dimer would cover one point twice
            if c < m:
                edges.append((index, index + s, 2 if m == 2 and mode == WRAP else 1))
            elif m >= 3 and mode == WRAP:
                edges.append((index - (m - 1) * s, index, 1))
            if mode == PROTRUDE:
                slot += (c == 1) + (c == m)
        slots.append(slot)
    edges.sort()
    pairs = [(i, j) for i, j, _ in edges]
    if len(set(pairs)) != len(pairs):
        raise AssertionError("duplicate edge pair in the section geometry")
    return tuple(edges), tuple(slots)
