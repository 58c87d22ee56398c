import random
from itertools import product
from math import prod

import numpy as np
import pytest

from mdentropy import oracle
from mdentropy.bounds import one_dim_counts
from mdentropy.lattice import CapacityError, LatticeShape
from mdentropy.matchcount import CoverTable, SectionKind, exact_dtype, kind_modes, section_config
from mdentropy.oracle import (
    count_covers,
    count_subset_covers,
    enumerate_covers,
    resolve_boundary,
    run_verification_suite,
    verify_transfer_identities,
)

KINDS = (SectionKind.BOX, SectionKind.TORUS, SectionKind.MIXED, SectionKind.PROTRUDING)


def test_resolve_boundary_names():
    assert resolve_boundary((3, 2), "tiling") == ("tile", "tile")
    assert resolve_boundary((3, 2), "periodic") == ("wrap", "wrap")
    assert resolve_boundary((3,), "protruding") == ("protrude",)


def test_resolve_boundary_explicit_modes():
    assert resolve_boundary((3, 2), ("tile", "wrap")) == ("tile", "wrap")


def test_resolve_boundary_rejects_garbage():
    with pytest.raises(ValueError):
        resolve_boundary((3,), "diagonal")
    with pytest.raises(ValueError):
        resolve_boundary((3, 2), (3,))
    with pytest.raises(ValueError):
        resolve_boundary((3, 2), ("tile",))
    with pytest.raises(ValueError):
        resolve_boundary((3, 2), ("tile", "bogus"))
    with pytest.raises(ValueError):
        resolve_boundary((2,), (True,))


@pytest.mark.parametrize("m", range(1, 13))
def test_one_dim_closed_forms(m):
    tilings, periodic, protruding = one_dim_counts(m)
    assert count_covers((m,), "tiling") == tilings
    assert count_covers((m,), "periodic") == periodic
    assert count_covers((m,), "protruding") == protruding


def test_enumeration_matches_fast_count():
    for dims in [(6,), (3, 2), (2, 2, 2)]:
        for boundary in ("tiling", "periodic", "protruding"):
            for dimer_only in (False, True):
                census = enumerate_covers(dims, boundary, dimer_only)
                assert census.total == count_covers(dims, boundary, dimer_only)


def test_square_census_by_dimer_count():
    census = enumerate_covers((2, 2), "tiling")
    assert census.by_dimers == {0: 1, 1: 4, 2: 2}
    assert census.total == 7
    dimers = enumerate_covers((2, 2), "tiling", dimer_only=True)
    assert dimers.by_dimers == {2: 2}


def test_path_census_by_dimer_count():
    census = enumerate_covers((5,), "tiling")
    assert census.by_dimers == {0: 1, 1: 4, 2: 3}


def test_doubled_edge_from_wrapping_an_extent_of_two():
    census = enumerate_covers((2,), "periodic")
    assert census.by_dimers == {0: 1, 1: 2}
    assert count_covers((2,), "periodic") == 3


def test_single_point_protrusion_slots():
    census = enumerate_covers((1,), "protruding")
    assert census.by_dimers == {0: 1, 1: 2}


def test_four_by_four_dimer_tilings():
    assert count_covers((4, 4), "tiling", dimer_only=True) == 36


def test_odd_torus_has_no_dimer_cover():
    assert count_covers((3, 3), "periodic", dimer_only=True) == 0


def test_wrapping_the_only_direction_matches_periodic():
    assert count_covers((5,), ("wrap",)) == count_covers((5,), "periodic")


def test_transpose_invariance():
    for a, b in [((2, 3), (3, 2)), ((2, 2, 3), (3, 2, 2))]:
        for boundary in ("tiling", "periodic", "protruding"):
            assert count_covers(a, boundary) == count_covers(b, boundary)


GEOMETRY_SHAPES = [dims for d in (1, 2, 3) for dims in product(range(1, 5), repeat=d)
                   if prod(dims) <= 24]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_geometry_matches_the_section_config(kind):
    # the oracle lists each edge once, at its lower end, as the bit of its
    # higher end; as (i, j, mult) with i < j its edges are the section's
    for dims in GEOMETRY_SHAPES:
        edges, slots = oracle._geometry(dims, kind_modes(kind, len(dims)))
        want_edges, want_slots = section_config(LatticeShape(dims), kind)
        got = sorted((i, bit.bit_length() - 1, mult) for i, at in enumerate(edges)
                     for bit, mult in at)
        assert got == list(want_edges), dims
        assert tuple(slots) == want_slots, dims


@pytest.mark.parametrize("dims", [(5,), (3, 2), (2, 2, 2)])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dimer_only", [False, True])
def test_subset_covers_match_the_tables(dims, kind, dimer_only):
    shape = LatticeShape(dims)
    table = CoverTable(shape, kind, dimer_only)
    assert table.counts.dtype == np.int64
    if shape.n <= 6:
        masks = range(table.full + 1)
    else:
        rng = random.Random(97)
        masks = sorted({0, table.full} | {rng.randrange(table.full + 1) for _ in range(30)})
    for mask in masks:
        assert count_subset_covers(dims, kind, mask, dimer_only) == table.count(mask)


def test_table_dtype_rule():
    assert exact_dtype((1 << 63) - 1) is np.int64
    assert exact_dtype(1 << 63) is object


@pytest.mark.parametrize("dims,dtype", [
    # a bound of 5^20 < 2^63
    ((5, 4), np.int64),
    # every extent-1 direction adds two protrusion slots per point
    ((12,) + (1,) * 19, object),
], ids=["5x4", "12-padded"])
def test_counts_are_the_read_only_sweep_image(dims, dtype):
    kind = SectionKind.TORUS if dtype is np.int64 else SectionKind.PROTRUDING
    table = CoverTable(LatticeShape(dims), kind)
    assert isinstance(table.counts, np.ndarray) and table.counts.dtype == dtype
    assert table.counts.shape == (table.full + 1,)
    with pytest.raises(ValueError, match="read-only"):
        table.counts[0] = 2
    assert table.count(0) == 1
    for mask in (table.full, table.full >> 1, 0b1011):
        count = table.count(mask)
        entry = table.entry(table.full ^ mask, 0)
        assert type(count) is type(entry) is int
        assert count == entry == count_subset_covers(dims, kind, mask)


def test_object_table_matches_enumeration():
    # every extent-1 direction gives each point two protrusion slots, so
    # the full count passes 2^63 and the table is built in Python integers
    dims = (12,) + (1,) * 19
    table = CoverTable(LatticeShape(dims), SectionKind.PROTRUDING)
    assert table.count(table.full) >= 1 << 63
    assert table.counts.dtype == object
    assert all(type(c) is int for c in table.counts.tolist())
    rng = random.Random(5)
    masks = {0, table.full} | {rng.randrange(table.full + 1) for _ in range(60)}
    for mask in sorted(masks):
        assert count_subset_covers(dims, SectionKind.PROTRUDING, mask) == table.count(mask)


def test_identity_checks_pass_for_small_sections():
    for section, layers in [((2,), 3), ((3,), 2), ((4,), 2), ((2, 2), 2)]:
        checks = verify_transfer_identities(section, layers)
        assert checks
        assert all(check.ok for check in checks)


def test_identity_check_inventory():
    # one-dimensional sections: three trace and two form cases per flavor
    assert len(verify_transfer_identities((3,), 2)) == 10
    assert len(verify_transfer_identities((3,), 1)) == 6
    # two-dimensional sections add the mixed kind
    assert len(verify_transfer_identities((2, 2), 2)) == 14
    names = {check.name for check in verify_transfer_identities((2, 2), 2)}
    assert "trace:mixed:full" in names
    assert "form:mixed:dimer" in names
    # so do three-dimensional ones
    checks = verify_transfer_identities((2, 2, 2), 2)
    assert len(checks) == 14
    assert all(check.ok for check in checks)


def test_verification_suite_passes():
    ok, lines = run_verification_suite(max_points=12)
    assert ok
    assert lines
    assert all(line.startswith("ok  ") for line in lines)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        count_covers((3, 7), "tiling")
    with pytest.raises(CapacityError):
        enumerate_covers((21,), "tiling")
    with pytest.raises(CapacityError):
        count_subset_covers((3, 7), SectionKind.BOX, 0)
    with pytest.raises(CapacityError):
        verify_transfer_identities((3, 3), 3)
    with pytest.raises(CapacityError):
        run_verification_suite(max_points=21)


def test_region_validation():
    with pytest.raises(ValueError):
        count_covers((0,), "tiling")
    with pytest.raises(ValueError):
        count_subset_covers((3,), SectionKind.BOX, 1 << 3)
    with pytest.raises(ValueError):
        count_subset_covers((0,), SectionKind.BOX, 0)
    with pytest.raises(ValueError):
        count_subset_covers((3, 0), SectionKind.TORUS, 0)
    with pytest.raises(ValueError):
        count_subset_covers((-1,), SectionKind.BOX, 0)
    # extents are integers: 2.5 is not truncated to 2
    with pytest.raises(TypeError):
        count_covers((2.5,), "tiling")
    with pytest.raises(TypeError):
        count_subset_covers((3, 1.5), SectionKind.BOX, 0)


@pytest.mark.parametrize("call", [
    lambda: count_covers((), "tiling"),
    lambda: enumerate_covers((), "periodic"),
    lambda: count_subset_covers((), SectionKind.BOX, 1),
], ids=["count_covers", "enumerate_covers", "count_subset_covers"])
def test_a_region_without_extents_is_refused(call):
    # it used to count as one point: 1, {0: 1} and 1
    with pytest.raises(ValueError, match="one or more"):
        call()
