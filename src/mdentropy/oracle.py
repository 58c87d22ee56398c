"""Brute-force cover enumeration for small regions.

Covers are enumerated one by one by backtracking on the lowest uncovered
point, with the boundary behavior chosen per direction: tile (dimers stay
inside, nothing protrudes), wrap (the direction closes into a torus, an
extent of 2 giving a doubled edge and an extent of 1 no edge), or
protrude (dimers may stick out through that direction's faces); the
modes are `lattice`'s, and a section kind's come from `kind_modes`.  The
geometry is rebuilt here, independent of `lattice.section_geometry` and
the bitmask tables, so agreement between the two paths checks both.  It
takes one rule per direction, read off each point's coordinate c in it
by stride arithmetic: an edge to the next point while c < m - 1, the
wrap edge back from c = m - 1, and a protrusion slot on each face.
Each edge is listed once, at its lower end: a cover is built by
covering the lowest uncovered point, so a dimer placed from it can only
reach a higher point.

Every total, of a whole region or of one vertex subset, comes from one
memoized count.  Only the census, which records counts by number of
dimers (wrapping and protruding dimers included), backtracks without a
memo and is exponential in the covers.  One 20-point region limit covers
both.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod

from .bounds import one_dim_counts
from .lattice import MODES, PROTRUDE, TILE, WRAP, CapacityError, LatticeShape
from .matchcount import CoverTable, SectionKind, kind_modes
from .transfer import full_trace_power, quadratic_form_count

MAX_ORACLE_POINTS = 20

_NAMED = {
    "tiling": TILE,
    "periodic": WRAP,
    "protruding": PROTRUDE,
}


def resolve_boundary(dims, boundary) -> tuple[str, ...]:
    """Normalize a boundary request to one mode per direction.

    Accepts a named mode ("tiling", "periodic", "protruding") applied to
    every direction, or an explicit per-direction mode tuple.
    """
    d = len(dims)
    if isinstance(boundary, str):
        if boundary not in _NAMED:
            raise ValueError(f"unknown boundary name {boundary!r}")
        return (_NAMED[boundary],) * d
    seq = tuple(boundary)
    if len(seq) == d and all(x in MODES for x in seq):
        return seq
    raise ValueError(f"cannot interpret boundary {boundary!r} for {d} directions")


def _geometry(dims, modes):
    """Edges at their lower end (as bit of the higher point, multiplicity) and slots."""
    n = prod(dims)
    edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    slots = [0] * n
    stride = 1
    for m, mode in zip(dims, modes):
        for i in range(n):
            c = i // stride % m
            if c < m - 1:
                edges[i].append((1 << i + stride, 2 if mode == WRAP and m == 2 else 1))
            elif mode == WRAP and m >= 3:
                edges[i - c * stride].append((1 << i, 1))
            if mode == PROTRUDE:
                slots[i] += (c == 0) + (c == m - 1)
        stride *= m
    return edges, slots


@dataclass
class CoverCensus:
    dims: tuple[int, ...]
    modes: tuple[str, ...]
    dimer_only: bool
    by_dimers: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.by_dimers.values())


def _search(edges, slots, mask: int, dimer_only: bool) -> dict[int, int]:
    """Unmemoized backtracking census by dimer count; exponential in covers."""
    by_dimers: dict[int, int] = {}
    monomer_ok = not dimer_only

    def rec(uncovered: int, dimers: int, weight: int):
        if not uncovered:
            by_dimers[dimers] = by_dimers.get(dimers, 0) + weight
            return
        low = uncovered & -uncovered
        v = low.bit_length() - 1
        rest = uncovered ^ low
        if monomer_ok:
            rec(rest, dimers, weight)
        if slots[v]:
            rec(rest, dimers + 1, weight * slots[v])
        for wbit, mult in edges[v]:
            if rest & wbit:
                rec(rest ^ wbit, dimers + 1, weight * mult)

    rec(mask, 0, 1)
    return by_dimers


def _count(edges, slots, mask: int, monomer_ok: bool, memo: dict) -> int:
    """Memoized total count; reachable masks stay near the removal frontier."""
    if not mask:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached
    low = mask & -mask
    v = low.bit_length() - 1
    rest = mask ^ low
    base = (1 if monomer_ok else 0) + slots[v]
    total = base * _count(edges, slots, rest, monomer_ok, memo) if base else 0
    for wbit, mult in edges[v]:
        if rest & wbit:
            total += mult * _count(edges, slots, rest ^ wbit, monomer_ok, memo)
    memo[mask] = total
    return total


def _checked(dims, boundary):
    """Integer extents, point count and modes; the one region limit check."""
    dims = tuple(map(operator.index, dims))
    if not dims or min(dims) < 1:
        raise ValueError(f"extents must be one or more positive integers, got {dims}")
    n = prod(dims)
    if n > MAX_ORACLE_POINTS:
        raise CapacityError(f"{n} points exceed the {MAX_ORACLE_POINTS}-point oracle limit")
    return dims, n, resolve_boundary(dims, boundary)


def enumerate_covers(dims, boundary, dimer_only: bool = False) -> CoverCensus:
    """Census of covers of the whole region, split by dimer count."""
    dims, n, modes = _checked(dims, boundary)
    edges, slots = _geometry(dims, modes)
    by_dimers = _search(edges, slots, (1 << n) - 1, dimer_only)
    return CoverCensus(dims=dims, modes=modes, dimer_only=dimer_only, by_dimers=by_dimers)


def count_covers(dims, boundary, dimer_only: bool = False) -> int:
    """Total cover count of the whole region; memoized, fast at full capacity."""
    dims, n, modes = _checked(dims, boundary)
    edges, slots = _geometry(dims, modes)
    return _count(edges, slots, (1 << n) - 1, not dimer_only, {})


def count_subset_covers(dims, kind: SectionKind, mask: int, dimer_only: bool = False) -> int:
    """Covers of one vertex subset of a section, counted from coordinates."""
    dims, n, modes = _checked(dims, kind_modes(kind, len(dims)))
    if not 0 <= mask < (1 << n):
        raise ValueError("subset mask outside the section")
    edges, slots = _geometry(dims, modes)
    return _count(edges, slots, mask, not dimer_only, {})


@dataclass
class IdentityCheck:
    name: str
    transfer_value: int
    oracle_value: int

    @property
    def ok(self) -> bool:
        return self.transfer_value == self.oracle_value


def verify_transfer_identities(section_dims, layers: int) -> list[IdentityCheck]:
    """Compare transfer traces and quadratic forms against direct enumeration.

    Traces pair with a wrapped layer direction, boundary-vector quadratic
    forms with a tiled one; the box kind has a trace only.  Mixed-kind
    checks exist for sections of two or more dimensions, where the kind
    differs from the torus kind.
    """
    dims, _, _ = _checked((*section_dims, layers), "tiling")
    section_dims = dims[:-1]
    shape = LatticeShape(section_dims)
    kinds = [SectionKind.BOX, SectionKind.TORUS, SectionKind.PROTRUDING]
    if len(section_dims) >= 2:
        kinds.append(SectionKind.MIXED)
    checks: list[IdentityCheck] = []
    for dimer_only in (False, True):
        tag = "dimer" if dimer_only else "full"
        tables = {kind: CoverTable(shape, kind, dimer_only) for kind in kinds}
        for kind, table in tables.items():
            lhs = full_trace_power(table, layers)
            rhs = count_covers(dims, kind_modes(kind, len(section_dims)) + (WRAP,), dimer_only)
            checks.append(IdentityCheck(f"trace:{kind.value}:{tag}", lhs, rhs))
        for kind, table in tables.items():
            if layers >= 2 and kind is not SectionKind.BOX:
                lhs = quadratic_form_count(table, layers)
                rhs = count_covers(dims, kind_modes(kind, len(section_dims)) + (TILE,), dimer_only)
                checks.append(IdentityCheck(f"form:{kind.value}:{tag}", lhs, rhs))
    return checks


# boxes whose inequality chains are checked, smallest to largest
_CHAIN_SHAPES = [(4,), (7,), (12,), (2, 2), (3, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2)]
_IDENTITY_SECTIONS = [(2,), (3,), (4,), (2, 2), (3, 2)]


def run_verification_suite(max_points: int = 20) -> tuple[bool, list[str]]:
    """Cross-validate counting paths; returns overall status and report lines."""
    if max_points > MAX_ORACLE_POINTS:
        raise CapacityError(f"suite capacity ends at {MAX_ORACLE_POINTS} points")
    lines: list[str] = []
    ok = True

    def report(name: str, good: bool, detail: str = ""):
        nonlocal ok
        ok = ok and good
        lines.append(f"{'ok  ' if good else 'FAIL'} {name}{' ' + detail if detail else ''}")

    # transfer identities against enumeration
    for section in _IDENTITY_SECTIONS:
        for layers in (1, 2, 3, 4):
            if prod(section) * layers > max_points:
                continue
            for check in verify_transfer_identities(section, layers):
                report(
                    f"identity {section}x{layers} {check.name}",
                    check.ok,
                    f"transfer={check.transfer_value} oracle={check.oracle_value}",
                )

    # 1-D closed forms
    for m in range(1, 16):
        if m > max_points:
            continue
        f, per, protr = one_dim_counts(m)
        got = (
            count_covers((m,), "tiling"),
            count_covers((m,), "periodic"),
            count_covers((m,), "protruding"),
        )
        report(f"one-dim m={m}", got == (f, per, protr), f"got={got} want={(f, per, protr)}")

    # the two oracle paths agree with each other
    for dims in [(4,), (3, 2), (2, 2, 2)]:
        for boundary in ("tiling", "periodic", "protruding"):
            census = enumerate_covers(dims, boundary).total
            fast = count_covers(dims, boundary)
            report(f"paths {dims} {boundary}", census == fast, f"{census} vs {fast}")

    # census feasibility: tilings exist for every dimer count up to floor(n/2)
    for dims in [(5,), (2, 3), (2, 2, 2)]:
        census = enumerate_covers(dims, "tiling")
        n = prod(dims)
        feasible = all(census.by_dimers.get(s, 0) >= 1 for s in range(n // 2 + 1))
        report(f"tiling census feasibility {dims}", feasible, str(dict(sorted(census.by_dimers.items()))))

    # growth chains: tilings <= periodic <= protruding <= padded tilings,
    # and dimer-only counts never exceed monomer-dimer counts
    for dims in _CHAIN_SHAPES:
        if prod(dims) > max_points:
            continue
        w0 = count_covers(dims, "tiling")
        wper = count_covers(dims, "periodic")
        w = count_covers(dims, "protruding")
        good = w0 <= wper <= w
        detail = f"tiling={w0} periodic={wper} protruding={w}"
        padded = tuple(m + 2 for m in dims)
        if prod(padded) <= max_points:
            wpad = count_covers(padded, "tiling")
            good = good and w <= wpad
            detail += f" padded={wpad}"
        tilde = count_covers(dims, "protruding", dimer_only=True)
        good = good and tilde <= w
        report(f"chain {dims}", good, detail)

    # relabeling invariance of periodic counts
    for a, b in [((2, 3), (3, 2)), ((2, 2, 3), (3, 2, 2)), ((2, 4), (4, 2))]:
        ca = count_covers(a, "periodic")
        cb = count_covers(b, "periodic")
        report(f"transpose {a}~{b}", ca == cb, f"{ca} vs {cb}")

    return ok, lines
