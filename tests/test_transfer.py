import random

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from mdentropy.lattice import CapacityError, LatticeShape
from mdentropy.matchcount import CoverTable, SectionKind
from mdentropy.symmetry import compute_orbits, generate_motion_group, identity_perm
from mdentropy.transfer import (
    MAX_FULL_MATRIX_POINTS,
    QuotientMatrix,
    build_quotient,
    full_matrix_sparse,
    full_trace_power,
    matvec_exact,
    quadratic_form_count,
    sweep_apply,
    weighted_symmetry_ok,
)


def torus_table(dims, dimer_only=False):
    return CoverTable(LatticeShape(dims), SectionKind.TORUS, dimer_only)


def torus_quotient(dims, dimer_only=False):
    shape = LatticeShape(dims)
    table = CoverTable(shape, SectionKind.TORUS, dimer_only)
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    return build_quotient(table, orbits)


def dense_full(table):
    size = table.full + 1
    return np.array(
        [[table.entry(s, t) for t in range(size)] for s in range(size)],
        dtype=np.float64,
    )


def radius_of_quotient(qm):
    d = np.sqrt(qm.weight_vector())
    sym = qm.to_dense() * d[:, None] / d[None, :]
    return float(np.linalg.eigvalsh(sym)[-1])


def test_two_point_ring_quotient_by_hand():
    qm = torus_quotient((2,))
    assert qm.size == 3
    assert qm.entries.tolist() == [[3, 2, 1], [1, 1, 0], [1, 0, 0]]
    assert qm.weights.tolist() == [1, 2, 1]
    assert qm.kind == "torus"
    assert not qm.dimer_only


def test_trivial_group_quotient_is_the_full_matrix():
    table = torus_table((3,))
    orbits = compute_orbits((identity_perm(3),), 3)
    qm = build_quotient(table, orbits)
    assert qm.size == table.full + 1
    assert np.array_equal(qm.to_dense(), dense_full(table))
    assert qm.weights.tolist() == [1] * qm.size


@pytest.mark.parametrize("dims", [(2,), (3,), (4,), (6,), (2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("dimer_only", [False, True])
def test_weighted_symmetry_holds(dims, dimer_only):
    assert weighted_symmetry_ok(torus_quotient(dims, dimer_only))


def test_weighted_symmetry_detects_tampering():
    qm = torus_quotient((4,))
    entries = qm.entries.copy()
    entries[0, 1] += 1
    bad = QuotientMatrix(qm.dims, qm.kind, qm.dimer_only, entries, qm.weights)
    assert not weighted_symmetry_ok(bad)


@pytest.mark.parametrize("dims", [(3,), (4,), (5,), (8,), (2, 2), (3, 2), (3, 3)])
def test_quotient_keeps_the_spectral_radius(dims):
    table = torus_table(dims)
    full_radius = float(np.linalg.eigvalsh(dense_full(table))[-1])
    folded_radius = radius_of_quotient(torus_quotient(dims))
    assert abs(full_radius - folded_radius) <= 1e-9 * max(1.0, full_radius)


def test_kind_chain_orders_spectral_radii():
    shape = LatticeShape((3, 2))
    radii = []
    for kind in (SectionKind.BOX, SectionKind.TORUS, SectionKind.MIXED,
                 SectionKind.PROTRUDING):
        table = CoverTable(shape, kind)
        radii.append(float(np.linalg.eigvalsh(dense_full(table))[-1]))
    for small, big in zip(radii, radii[1:]):
        assert small <= big + 1e-12


def test_dimer_only_quotient_is_entrywise_smaller():
    plain = torus_quotient((3, 2))
    tilde = torus_quotient((3, 2), dimer_only=True)
    assert tilde.dimer_only
    assert np.all(tilde.entries <= plain.entries)


# (2, 2) wraps into doubled edges; the mixed and protruding kinds carry
# protrusion slots, which weight the sweep's monomer steps
@pytest.mark.parametrize("dimer_only", [False, True])
@pytest.mark.parametrize("kind", list(SectionKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("dims", [(3, 2), (2, 2)], ids=["3x2", "2x2"])
def test_matvec_matches_dense_product(dims, kind, dimer_only):
    table = CoverTable(LatticeShape(dims), kind, dimer_only)
    dense = dense_full(table).astype(object)
    rng = random.Random(17)
    x = [rng.randrange(0, 50) for _ in range(table.full + 1)]
    want = [int(sum(int(dense[i, j]) * x[j] for j in range(table.full + 1)))
            for i in range(table.full + 1)]
    assert matvec_exact(table, x) == want
    xf = np.array([rng.random() for _ in range(table.full + 1)])
    np.testing.assert_allclose(sweep_apply(table, xf),
                               full_matrix_sparse(table) @ xf, rtol=1e-13)


def _torus_sections(max_points):
    yield from ((m,) for m in range(1, max_points + 1))
    yield from ((a, b) for a in range(2, max_points // 2 + 1)
                for b in range(2, a + 1) if a * b <= max_points)
    yield from ((a, 2, 2) for a in range(2, max_points // 4 + 1))


@pytest.mark.parametrize("dims", list(_torus_sections(12)),
                         ids=lambda dims: "x".join(map(str, dims)))
def test_monomer_dimer_operator_is_irreducible(dims):
    # the single-vector sweep iteration of transfer_log_radius rests on this
    matrix = full_matrix_sparse(torus_table(dims))
    n_comp, _ = connected_components(matrix, directed=True, connection="strong")
    assert n_comp == 1


def test_single_layer_trace_is_the_ring_cover_count():
    # one periodic layer on a 4-ring carries 7 covers
    assert full_trace_power(torus_table((4,)), 1) == 7


TRACE_PROBES = [
    # dims, layers, box trace, torus trace, protruding trace
    ((1,), 2, 3, 3, 11),
    ((2,), 2, 12, 17, 45),
    ((2,), 3, 32, 60, 284),
    ((3,), 2, 47, 60, 176),
    ((3,), 3, 228, 370, 2030),
]


@pytest.mark.parametrize("dims,layers,box,torus,protruding", TRACE_PROBES)
def test_trace_probe_values(dims, layers, box, torus, protruding):
    shape = LatticeShape(dims)
    assert full_trace_power(CoverTable(shape, SectionKind.BOX), layers) == box
    assert full_trace_power(CoverTable(shape, SectionKind.TORUS), layers) == torus
    assert full_trace_power(
        CoverTable(shape, SectionKind.PROTRUDING), layers) == protruding


FORM_PROBES = [
    # dims, layers, torus form, protruding form
    ((1,), 2, 2, 10),
    ((2,), 2, 12, 34),
    ((2,), 3, 47, 223),
    ((3,), 2, 32, 108),
    ((3,), 3, 228, 1362),
]


@pytest.mark.parametrize("dims,layers,torus,protruding", FORM_PROBES)
def test_quadratic_form_probe_values(dims, layers, torus, protruding):
    shape = LatticeShape(dims)
    assert quadratic_form_count(CoverTable(shape, SectionKind.TORUS), layers) == torus
    assert quadratic_form_count(
        CoverTable(shape, SectionKind.PROTRUDING), layers) == protruding


def test_trace_and_form_transpose_symmetry():
    # tiled-by-periodic boxes count the same after swapping the two extents
    for m, layers in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        form = quadratic_form_count(torus_table((m,)), layers)
        trace = full_trace_power(
            CoverTable(LatticeShape((layers,)), SectionKind.BOX), m)
        assert form == trace


def test_zeroth_power_trace_counts_states():
    assert full_trace_power(torus_table((4,)), 0) == 16
    assert full_trace_power(torus_table((2, 2)), 0) == 16


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("dimer_only", [False, True])
def test_orbit_weighted_trace_agrees(q, dimer_only):
    shape = LatticeShape((4,))
    table = CoverTable(shape, SectionKind.TORUS, dimer_only)
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    assert full_trace_power(table, q, orbits) == full_trace_power(table, q)


def test_sparse_full_matrix_matches_entries():
    table = torus_table((4,))
    assert np.array_equal(full_matrix_sparse(table).toarray(), dense_full(table))


def test_validation_errors():
    table = torus_table((3,))
    with pytest.raises(ValueError):
        full_trace_power(table, -1)
    with pytest.raises(ValueError):
        quadratic_form_count(table, 1)
    with pytest.raises(ValueError):
        sweep_apply(table, np.ones(7))
    orbits = compute_orbits(generate_motion_group(LatticeShape((4,))), 4)
    with pytest.raises(ValueError):
        build_quotient(table, orbits)


def test_full_matrix_capacity_limits():
    assert MAX_FULL_MATRIX_POINTS == 14
    table = torus_table((15,))
    with pytest.raises(CapacityError):
        full_trace_power(table, 1)
    with pytest.raises(CapacityError):
        quadratic_form_count(table, 2)
    with pytest.raises(CapacityError):
        full_matrix_sparse(table)
