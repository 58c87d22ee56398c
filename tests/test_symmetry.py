import random
from functools import partial

import numpy as np
import pytest

from mdentropy.lattice import TILE, WRAP, LatticeShape, section_geometry
from mdentropy.matchcount import CoverTable, SectionKind
from mdentropy.symmetry import (
    apply_to_mask,
    burnside_orbit_count,
    compute_orbits,
    generate_motion_group,
    is_adjacency_automorphism,
)

GROUP_ORDERS = {
    (1,): 1,
    (2,): 2,
    (4,): 8,
    (5,): 10,
    (2, 2): 8,
    (3, 2): 12,
    (3, 3): 72,
    (4, 4): 128,
    (2, 2, 2): 48,
    (3, 2, 2): 48,
    (2, 1, 3): 12,
    (3, 3, 2): 144,
    (2, 2, 2, 2): 384,
}


# 1-D and 2-D shapes first, in their sorted order, then the higher ones
@pytest.mark.parametrize("dims,order", sorted(GROUP_ORDERS.items(),
                                              key=lambda item: (len(item[0]) > 2, item[0])))
def test_group_orders(dims, order):
    assert len(generate_motion_group(LatticeShape(dims))) == order


def test_group_closure_and_inverses():
    for dims in [(3, 2), (2, 2, 2), (2, 1, 3)]:
        shape = LatticeShape(dims)
        group = set(generate_motion_group(shape))
        ident = tuple(range(shape.n))
        assert ident in group
        for g in group:
            products = {tuple(g[i] for i in h) for h in group}
            assert products == group
            assert ident in products


def closure_of_generators(shape):
    """Reference group: unit translations, reflections and equal-extent swaps, closed."""
    def index_of(coords):
        return sum((c - 1) * s for c, s in zip(coords, shape.strides()))

    def moved(rule):
        return tuple(index_of(rule(list(shape.point_coords(i)))) for i in range(shape.n))

    def shift(axis):
        return lambda c: c[:axis] + [c[axis] % shape.dims[axis] + 1] + c[axis + 1:]

    def flip(axis):
        return lambda c: c[:axis] + [shape.dims[axis] + 1 - c[axis]] + c[axis + 1:]

    def swap(a, b):
        return lambda c: [c[{a: b, b: a}.get(k, k)] for k in range(len(c))]

    k = len(shape.dims)
    gens = [moved(rule(axis)) for axis in range(k) for rule in (shift, flip)]
    gens += [moved(swap(a, b)) for a in range(k) for b in range(a + 1, k)
             if shape.dims[a] == shape.dims[b]]
    group, frontier = {tuple(range(shape.n))}, [tuple(range(shape.n))]
    while frontier:
        frontier = [g for g in {tuple(g[i] for i in h) for g in frontier for h in gens}
                    if g not in group]
        group.update(frontier)
    return tuple(sorted(group))


@pytest.mark.parametrize("dims", [(1,), (2,), (5,), (12,), (1, 1), (2, 1), (2, 2), (3, 2),
                                  (3, 3), (4, 4), (6, 4), (2, 2, 2), (3, 2, 2), (2, 1, 3),
                                  (2, 2, 2, 2)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_group_is_the_closure_of_its_generators(dims):
    shape = LatticeShape(dims)
    assert generate_motion_group(shape) == closure_of_generators(shape)


def test_apply_to_mask_preserves_popcount():
    shape = LatticeShape((3, 3))
    group = generate_motion_group(shape)
    rng = random.Random(7)
    for _ in range(100):
        mask = rng.randrange(1 << shape.n)
        g = rng.choice(group)
        assert bin(apply_to_mask(g, mask)).count("1") == bin(mask).count("1")


def test_motions_preserve_torus_adjacency():
    for dims in [(4,), (2,), (3, 2), (2, 2), (3, 3), (2, 2, 2), (3, 2, 2), (2, 1, 3)]:
        shape = LatticeShape(dims)
        edges, _ = section_geometry(shape, (WRAP,) * len(dims))
        for g in generate_motion_group(shape):
            assert is_adjacency_automorphism(g, edges)


def test_translation_is_not_a_box_automorphism():
    # the box loses its edges at the seam, so only the torus kind may be folded
    shape = LatticeShape((3,))
    box, _ = section_geometry(shape, (TILE,))
    assert not is_adjacency_automorphism((1, 2, 0), box)
    assert is_adjacency_automorphism((2, 1, 0), box)


def test_automorphisms_keep_edge_multiplicities():
    # a doubled edge may not go to a single one
    edges = ((0, 1, 2), (1, 2, 1))
    assert is_adjacency_automorphism((0, 1, 2), edges)
    assert not is_adjacency_automorphism((2, 1, 0), edges)
    assert is_adjacency_automorphism((2, 1, 0), ((0, 1, 2), (1, 2, 2)))


def test_box_cover_counts_not_translation_invariant():
    # tilings of {0, 2} (two isolated points) vs its translate {0, 1} (an edge)
    table = CoverTable(LatticeShape((3,)), SectionKind.BOX)
    t = (1, 2, 0)
    mask = 0b101
    assert table.count(mask) == 1
    assert table.count(apply_to_mask(t, mask)) == 2


def test_torus_entries_invariant_under_motions():
    for dims in [(4,), (3, 2)]:
        shape = LatticeShape(dims)
        table = CoverTable(shape, SectionKind.TORUS)
        group = generate_motion_group(shape)
        rng = random.Random(13)
        for _ in range(100):
            s = rng.randrange(table.full + 1)
            t = rng.randrange(table.full + 1)
            g = rng.choice(group)
            assert table.entry(apply_to_mask(g, s), apply_to_mask(g, t)) == \
                table.entry(s, t)


def test_orbits_partition_and_burnside():
    for dims in [(4,), (5,), (2, 2), (3, 2), (3, 3)]:
        shape = LatticeShape(dims)
        group = generate_motion_group(shape)
        orbits = compute_orbits(group, shape.n)
        assert sum(orbits.sizes) == 1 << shape.n
        assert orbits.size == burnside_orbit_count(group, shape.n)
        for size in orbits.sizes:
            assert len(group) % size == 0


def test_representatives_are_orbit_minima():
    shape = LatticeShape((3, 2))
    group = generate_motion_group(shape)
    orbits = compute_orbits(group, shape.n)
    for rep in orbits.reps:
        members = {apply_to_mask(g, rep) for g in group}
        assert rep == min(members)
        assert len(members) == orbits.sizes[orbits.orbit_of[rep]]


def test_orbit_of_is_constant_on_orbits():
    shape = LatticeShape((4,))
    group = generate_motion_group(shape)
    orbits = compute_orbits(group, shape.n)
    rng = random.Random(3)
    for _ in range(200):
        mask = rng.randrange(1 << shape.n)
        g = rng.choice(group)
        assert orbits.orbit_of[mask] == orbits.orbit_of[apply_to_mask(g, mask)]


def test_known_one_dim_orbit_counts():
    want = {4: 6, 5: 8, 6: 13, 7: 18, 8: 30}
    for m, count in want.items():
        shape = LatticeShape((m,))
        orbits = compute_orbits(generate_motion_group(shape), shape.n)
        assert orbits.size == count


@pytest.mark.parametrize("dims,count", [((2, 2, 2), 22), ((3, 2, 2), 158), ((2, 1, 3), 13),
                                        ((4, 2, 2), 1459), ((3, 3, 2), 2324),
                                        ((2, 2, 2, 2), 402)])
def test_known_higher_dim_orbit_counts(dims, count):
    shape = LatticeShape(dims)
    group = generate_motion_group(shape)
    assert burnside_orbit_count(group, shape.n) == count
    assert compute_orbits(group, shape.n).size == count


def walked_orbits(group, n):
    """Reference orbits: walk masks upward, each unseen mask seeds its image set."""
    orbit_of = [None] * (1 << n)
    reps, sizes = [], []
    for seed in range(1 << n):
        if orbit_of[seed] is None:
            members = {apply_to_mask(g, seed) for g in group}
            for mask in members:
                orbit_of[mask] = len(reps)
            reps.append(seed)
            sizes.append(len(members))
    return reps, sizes, orbit_of


def motion_orbit_case(dims):
    shape = LatticeShape(dims)
    return generate_motion_group(shape), shape.n


def protruding_reflections_case():
    # the two-element group folded in test_transfer's 20-axis protruding case
    shape = LatticeShape((12,) + (1,) * 19)
    assert shape.n == 12
    return (tuple(range(12)), tuple(range(11, -1, -1))), shape.n


ORBIT_CASES = {
    **{str(dims): partial(motion_orbit_case, dims)
       for dims in [(1,), (2,), (5,), (3, 2), (2, 2, 2), (3, 3), (4, 4)]},
    "identity-7": lambda: ((tuple(range(7)),), 7),
    "protruding-reflections": protruding_reflections_case,
}


@pytest.mark.parametrize("case", list(ORBIT_CASES))
def test_orbits_match_the_mask_walk(case):
    group, n = ORBIT_CASES[case]()
    orbits = compute_orbits(group, n)
    reps, sizes, orbit_of = walked_orbits(group, n)
    assert (orbits.n, orbits.group_order) == (n, len(group))
    assert orbits.reps == reps and all(type(rep) is int for rep in orbits.reps)
    assert orbits.sizes == sizes and all(type(size) is int for size in orbits.sizes)
    assert orbits.orbit_of.dtype == np.int32
    assert orbits.orbit_of.tolist() == orbit_of


@pytest.mark.parametrize("group", [((0, 1, 2),), ((0, 1, 2, 3), (0, 1, 1, 3))],
                         ids=["short-perm", "repeated-point"])
def test_orbits_reject_non_permutations(group):
    with pytest.raises(ValueError, match="permutation"):
        compute_orbits(group, 4)
