import random
from functools import partial

import numpy as np
import pytest

from mdentropy.lattice import AdjacencyMode, LatticeShape, build_adjacency
from mdentropy.matchcount import CoverTable, SectionKind
from mdentropy.symmetry import (
    apply_to_mask,
    burnside_orbit_count,
    compose,
    compute_orbits,
    generate_motion_group,
    identity_perm,
    is_adjacency_automorphism,
    reflection_perm,
    translation_perm,
    transposition_perm,
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
}


@pytest.mark.parametrize("dims,order", sorted(GROUP_ORDERS.items()))
def test_group_orders(dims, order):
    assert len(generate_motion_group(LatticeShape(dims))) == order


def test_group_closure_and_inverses():
    group = set(generate_motion_group(LatticeShape((3, 2))))
    ident = identity_perm(6)
    assert ident in group
    for g in group:
        assert {compose(g, h) for h in group} == group
        assert any(compose(g, h) == ident for h in group)


def test_translation_orders():
    shape = LatticeShape((4, 3))
    for axis in (0, 1):
        t = translation_perm(shape, axis)
        g = t
        for _ in range(shape.dims[axis] - 1):
            g = compose(t, g)
        assert g == identity_perm(shape.n)


def test_reflection_is_involution():
    shape = LatticeShape((5, 2))
    for axis in (0, 1):
        r = reflection_perm(shape, axis)
        assert compose(r, r) == identity_perm(shape.n)


def test_transposition_requires_equal_extents():
    shape = LatticeShape((3, 2))
    with pytest.raises(ValueError):
        transposition_perm(shape, 0, 1)


def test_apply_to_mask_preserves_popcount():
    shape = LatticeShape((3, 3))
    group = generate_motion_group(shape)
    rng = random.Random(7)
    for _ in range(100):
        mask = rng.randrange(1 << shape.n)
        g = rng.choice(group)
        assert bin(apply_to_mask(g, mask)).count("1") == bin(mask).count("1")


def test_motions_preserve_torus_adjacency():
    for dims in [(4,), (2,), (3, 2), (2, 2), (3, 3)]:
        shape = LatticeShape(dims)
        adj = build_adjacency(shape, AdjacencyMode.TORUS)
        for g in generate_motion_group(shape):
            assert is_adjacency_automorphism(g, adj)


def test_translation_is_not_a_box_automorphism():
    # the box loses its edges at the seam, so only the torus kind may be folded
    shape = LatticeShape((3,))
    box = build_adjacency(shape, AdjacencyMode.BOX)
    assert not is_adjacency_automorphism(translation_perm(shape, 0), box)
    assert is_adjacency_automorphism(reflection_perm(shape, 0), box)


def test_box_cover_counts_not_translation_invariant():
    # tilings of {0, 2} (two isolated points) vs its translate {0, 1} (an edge)
    table = CoverTable(LatticeShape((3,)), SectionKind.BOX)
    t = translation_perm(LatticeShape((3,)), 0)
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
    return (identity_perm(shape.n), reflection_perm(shape, 0)), shape.n


ORBIT_CASES = {
    **{str(dims): partial(motion_orbit_case, dims)
       for dims in [(1,), (2,), (5,), (3, 2), (2, 2, 2), (3, 3), (4, 4)]},
    "identity-7": lambda: ((identity_perm(7),), 7),
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
