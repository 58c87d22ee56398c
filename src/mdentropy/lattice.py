"""Box and torus cross-section geometry.

A cross-section is a box <m> = <m_1> x ... x <m_k> of lattice points.
Points are indexed row-major with the first coordinate varying fastest,
so subsets of the section are plain bitmasks over point indices.

Geometry is set per direction, by 1-based direction numbers.  Adjacency
joins neighbors along every direction and closes the directions it is
given to wrap around.  Wrapping a direction of extent 2 yields a single
edge of multiplicity 2, because the two wrap-around dimer placements
between the same pair of points are distinct configurations; extent 1
yields no edge in that direction.  Protrusion slots count, per point, the
outward dimer placements available through the boundary faces of the
directions they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

MAX_MASK_POINTS = 64
MEMORY_BUDGET = 1 << 30


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
        object.__setattr__(self, "dims", tuple(int(m) for m in self.dims))
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


@dataclass(frozen=True)
class Adjacency:
    """Undirected multigraph on section points; each unordered pair stored once."""

    wrapped: tuple[int, ...]  # 1-based directions that wrap around, ascending
    n: int
    edges: tuple[tuple[int, int, int], ...]  # (i, j, multiplicity) with i < j

    def neighbor_lists(self) -> list[list[tuple[int, int]]]:
        """Per-point list of (neighbor, multiplicity), both directions."""
        nbr: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, j, mult in self.edges:
            nbr[i].append((j, mult))
            nbr[j].append((i, mult))
        return nbr


def _directions(shape: LatticeShape, directions) -> tuple[int, ...]:
    """Distinct 1-based directions, ascending; ValueError outside the shape."""
    dirs = tuple(sorted(set(int(k) for k in directions)))
    for k in dirs:
        if not 1 <= k <= len(shape.dims):
            raise ValueError(f"direction {k} outside 1..{len(shape.dims)}")
    return dirs


def build_adjacency(shape: LatticeShape, wrapped) -> Adjacency:
    """Edges of the section multigraph, wrapping the 1-based `wrapped` directions."""
    wrapped = _directions(shape, wrapped)
    edges: list[tuple[int, int, int]] = []
    strides = shape.strides()
    for index in range(shape.n):
        coords = shape.point_coords(index)
        for k, m in enumerate(shape.dims):
            s = strides[k]
            # a wrapped extent 2 doubles its one edge, a wrapped extent 1
            # adds none: its dimer would cover one point twice
            if coords[k] < m:
                edges.append((index, index + s, 2 if m == 2 and k + 1 in wrapped else 1))
            elif m >= 3 and k + 1 in wrapped:
                edges.append((index - (m - 1) * s, index, 1))
    edges.sort()
    pairs = [(i, j) for i, j, _ in edges]
    if len(set(pairs)) != len(pairs):
        raise AssertionError("duplicate edge pair in adjacency construction")
    return Adjacency(wrapped=wrapped, n=shape.n, edges=tuple(edges))


def protrusion_slots(shape: LatticeShape, directions) -> tuple[int, ...]:
    """Per-point count of outward dimer slots through the faces of `directions`.

    Directions are 1-based.  A point on the low face of a direction gets one
    slot, on the high face another; extent 1 puts the point on both faces.
    """
    dirs = _directions(shape, directions)
    return tuple(sum((c[k - 1] == 1) + (c[k - 1] == shape.dims[k - 1]) for k in dirs)
                 for c in map(shape.point_coords, range(shape.n)))
