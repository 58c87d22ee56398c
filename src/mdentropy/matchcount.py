"""Exact cover counts for every vertex subset of a cross-section.

A cover of a subset U of section points places on each point of U either a
monomer, half of a dimer lying on an adjacency edge inside U (counted with
edge multiplicity), or half of a dimer protruding out of the section
through one of the point's protrusion slots.  Dimer-only tables drop the
monomer option.  With v the lowest point of U, the counts obey

    count(U) = (monomer_ok + slots(v)) * count(U - v)
             + sum over edges {v, w}, w in U, of mult(v, w) * count(U - v - w)

and the whole table over 2^n subsets is filled in one bottom-up pass over
bitmasks, since removing points from a mask only decreases its value.
All counts are exact Python integers.

The four section kinds fix which dimers are admissible:

    box         dimers inside the box only (tilings), no slots
    torus       every direction wraps, no slots
    mixed       first direction wraps, the remaining directions may protrude
    protruding  no wrapping, every direction may protrude

The matrix entry for an ordered pair of subsets (S, T) is the cover count
of the complement of S | T, or zero when S and T intersect.  For a 1-D
section the mixed kind has no remaining directions, so it coincides with
the torus kind.
"""

from __future__ import annotations

import enum

from .lattice import (
    Adjacency,
    AdjacencyMode,
    CapacityError,
    LatticeShape,
    build_adjacency,
    protrusion_slots,
)

MAX_TABLE_POINTS = 20


class SectionKind(enum.Enum):
    BOX = "box"
    TORUS = "torus"
    MIXED = "mixed"
    PROTRUDING = "protruding"


def section_config(shape: LatticeShape, kind: SectionKind) -> tuple[Adjacency, tuple[int, ...]]:
    """Adjacency and protrusion slots realizing a section kind."""
    k = len(shape.dims)
    if kind is SectionKind.BOX:
        return build_adjacency(shape, AdjacencyMode.BOX), (0,) * shape.n
    if kind is SectionKind.TORUS:
        return build_adjacency(shape, AdjacencyMode.TORUS), (0,) * shape.n
    if kind is SectionKind.MIXED:
        adj = build_adjacency(shape, AdjacencyMode.WRAP_FIRST)
        return adj, protrusion_slots(shape, range(2, k + 1))
    if kind is SectionKind.PROTRUDING:
        adj = build_adjacency(shape, AdjacencyMode.BOX)
        return adj, protrusion_slots(shape, range(1, k + 1))
    raise ValueError(f"unknown section kind {kind!r}")


class CoverTable:
    """Cover counts for all 2^n subsets of one section configuration."""

    def __init__(self, shape: LatticeShape, kind: SectionKind, dimer_only: bool = False):
        if shape.n > MAX_TABLE_POINTS:
            raise CapacityError(
                f"{shape.n} points exceed the {MAX_TABLE_POINTS}-point table limit"
            )
        self.shape = shape
        self.kind = kind
        self.dimer_only = bool(dimer_only)
        self.adjacency, self.slots = section_config(shape, kind)
        # ways to cover a point alone: a monomer (unless dimer-only) or a
        # dimer through one of its protrusion slots
        self.point_weights = tuple(
            (0 if self.dimer_only else 1) + s for s in self.slots
        )
        self.full = (1 << shape.n) - 1
        self.counts = self._build()

    def _build(self) -> list[int]:
        nbr_bits = [
            tuple((1 << j, mult) for j, mult in lst)
            for lst in self.adjacency.neighbor_lists()
        ]
        point_weight = self.point_weights
        counts = [0] * (self.full + 1)
        counts[0] = 1
        for mask in range(1, self.full + 1):
            v = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            total = point_weight[v] * counts[rest]
            for wbit, mult in nbr_bits[v]:
                if rest & wbit:
                    total += mult * counts[rest ^ wbit]
            counts[mask] = total
        return counts

    def count(self, mask: int) -> int:
        """Covers of the subset given by `mask`."""
        if not 0 <= mask <= self.full:
            raise ValueError(f"mask {mask:#x} outside the {self.shape.n}-point section")
        return self.counts[mask]

    def entry(self, s: int, t: int) -> int:
        """Transfer matrix entry: covers of the complement of s | t, 0 on overlap."""
        if s & t:
            return 0
        return self.counts[self.full ^ (s | t)]

    def empty_column(self) -> list[int]:
        """Boundary vector x with x[s] = entry(s, 0), for quadratic forms."""
        return [self.counts[self.full ^ s] for s in range(self.full + 1)]
