import random
import tracemalloc
from itertools import combinations
from math import gcd, prod
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from mdentropy import transfer
from mdentropy.bounds import dimer_sectors
from mdentropy.lattice import CapacityError, LatticeShape
from mdentropy.matchcount import CoverTable, SectionKind, SectionPieces, split_bit
from mdentropy.symmetry import compute_orbits, generate_motion_group
from mdentropy.transfer import (
    QuotientMatrix,
    SweepOperator,
    build_quotient,
    disjoint_pairs,
    full_matrix_sparse,
    full_trace_power,
    matvec_exact,
    quadratic_form_count,
    residue_moduli,
    row_sum,
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
    d = np.sqrt(qm.weights)
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
    for dims in [(3,), (4,), (3, 2), (2, 2)]:
        for dimer_only in (False, True):
            table = torus_table(dims, dimer_only)
            n = table.shape.n
            qm = build_quotient(table, compute_orbits((tuple(range(n)),), n))
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


@pytest.mark.parametrize("dimer_only", [False, True])
@pytest.mark.parametrize("kind", list(SectionKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("dims", [(3, 2), (2, 2)], ids=["3x2", "2x2"])
def test_batched_sweep_matches_column_sweeps(dims, kind, dimer_only):
    table = CoverTable(LatticeShape(dims), kind, dimer_only)
    rng = np.random.default_rng(23)
    ints = rng.integers(0, 50, size=(table.full + 1, 5))
    for x in (rng.random((table.full + 1, 5)), ints, ints.astype(object)):
        batched = sweep_apply(table, x)
        assert batched.shape == x.shape and batched.dtype == x.dtype
        for j in range(x.shape[1]):
            assert np.array_equal(batched[:, j], sweep_apply(table, x[:, j]))


def reference_sweep(pieces, x):
    """M x as the sweep was first written: pieces placed upward on a copy, then reversed.

    A point piece at v adds weight * z(A - v) into each z(A) with v in A,
    an edge mult * z(A - v - w) into each z(A) holding both ends.  The
    pieces go in the sweep's order: those whose lower end is below the
    split bit first, then the rest, each group points first, then edges.
    """
    z = np.array(x, order="C")
    b = z.size // z.shape[0]
    split = split_bit(z.shape, z.itemsize)
    updates = [(v, v, weight) for v, weight in enumerate(pieces.point_weights) if weight]
    updates += pieces.edges
    updates.sort(key=lambda update: update[0] >= split)
    for v, w, factor in updates:
        if v == w:
            axis = z.reshape(-1, 2, b << v)
            axis[:, 1] += factor * axis[:, 0]
        else:
            pair = z.reshape(-1, 2, 1 << (w - v - 1), 2, b << v)
            pair[:, 1, :, 1] += factor * pair[:, 0, :, 0]
    return z[::-1]


def random_inputs(shape, rng):
    yield rng.random(shape)
    yield rng.integers(0, 1000, shape)
    yield rng.integers(0, 1000, shape).astype(object) * (1 << 64) + 1


@pytest.mark.parametrize("batch", [None, 3], ids=["vector", "batch-3"])
@pytest.mark.parametrize("kind", [SectionKind.TORUS, SectionKind.PROTRUDING, SectionKind.MIXED],
                         ids=lambda kind: kind.value)
# 13 and 4 x 3 points put column pieces, short runs and long ones in one
# sweep; 8 x 2 has edges of multiplicity 2
@pytest.mark.parametrize("dims", [(13,), (4, 3), (8, 2)], ids=lambda dims: "x".join(map(str, dims)))
def test_operator_calls_match_fresh_reference_sweeps(dims, kind, batch):
    pieces = SectionPieces(LatticeShape(dims), kind)
    shape = (pieces.full + 1,) if batch is None else (pieces.full + 1, batch)
    rng = np.random.default_rng(sum(dims) + len(dims))
    # three inputs of each dtype, for repeated calls on one operator
    for inputs in zip(*(random_inputs(shape, rng) for _ in range(3))):
        sweep = SweepOperator(pieces, shape, inputs[0].dtype)
        for x in inputs:
            y = sweep(x)
            assert y is sweep.buffer and y.dtype == x.dtype
            if x.dtype == object:
                assert (y == reference_sweep(pieces, x)).all()
                if batch is None:
                    assert y.tolist() == matvec_exact(pieces, x.tolist())
            else:
                assert np.array_equal(y, reference_sweep(pieces, x))


@pytest.mark.parametrize("dims", [(13,), (4, 3)], ids=lambda dims: "x".join(map(str, dims)))
def test_chained_operators_match_the_square(dims):
    # the M^2 step of odd dimer-only brackets: one operator reads its own buffer
    pieces = SectionPieces(LatticeShape(dims), SectionKind.TORUS, dimer_only=True)
    size = pieces.full + 1
    sweep = SweepOperator(pieces, (size,), np.float64)
    rng = np.random.default_rng(31)
    for _ in range(3):
        x = rng.random(size)
        want = reference_sweep(pieces, reference_sweep(pieces, x))
        assert np.array_equal(sweep(sweep(x)), want)


def test_operator_fed_its_own_buffer():
    # exact traces feed each product back into the operator that made it
    pieces = SectionPieces(LatticeShape((4, 3)), SectionKind.PROTRUDING)
    sweep = SweepOperator(pieces, (pieces.full + 1, 2), np.int64)
    x = np.random.default_rng(37).integers(0, 100, (pieces.full + 1, 2))
    assert np.array_equal(sweep(sweep(x)), reference_sweep(pieces, reference_sweep(pieces, x)))


@pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["float64", "int64"])
def test_operator_input_may_be_its_buffer(dtype):
    # np.copyto copies the reversed buffer before it writes over it
    pieces = SectionPieces(LatticeShape((5, 3)), SectionKind.TORUS, dimer_only=True)
    sweep = SweepOperator(pieces, (pieces.full + 1,), dtype)
    x = np.random.default_rng(41).integers(0, 100, pieces.full + 1).astype(dtype)
    want = sweep(sweep(x).copy()).copy()
    sweep(x)
    assert np.array_equal(sweep(sweep.buffer), want)


# pairs of operators on both sides of the split rule (buffers of 64 KiB to
# 1 MiB in rows of at most 256 B): 12 and 13 points, 17 and 18, three
# residues of two columns over 11 points against three residues of one,
# rows of 32 and 64 entries, and 1 MiB against 1.06 MiB in rows of 16 and
# 17; object arrays where they are quick
SPLIT_SIDES = [
    ((12,), SectionKind.PROTRUDING, None, False),
    ((13,), SectionKind.PROTRUDING, None, True),
    ((17,), SectionKind.TORUS, None, True),
    ((6, 3), SectionKind.TORUS, None, False),
    ((11,), SectionKind.MIXED, 6, True),
    ((11,), SectionKind.MIXED, 3, False),
    ((5, 2), SectionKind.PROTRUDING, 32, True),
    ((3, 3), SectionKind.PROTRUDING, 64, False),
    ((13,), SectionKind.TORUS, 16, True),
    ((13,), SectionKind.TORUS, 17, False),
]


@pytest.mark.parametrize("dims,kind,batch,split", SPLIT_SIDES,
                         ids=["x".join(map(str, dims)) + f"-{kind.value}-{batch or 'vector'}"
                              for dims, kind, batch, _ in SPLIT_SIDES])
def test_exact_sweeps_match_the_reference_on_both_sides_of_the_split(dims, kind, batch, split):
    pieces = SectionPieces(LatticeShape(dims), kind)
    shape = (pieces.full + 1,) if batch is None else (pieces.full + 1, batch)
    assert (split_bit(shape, 8) > 0) == split
    ints = np.random.default_rng(prod(shape)).integers(0, 1000, shape)
    for dtype in (np.int64, object) if prod(shape) <= 1 << 14 else (np.int64,):
        x = ints.astype(dtype)
        once = reference_sweep(pieces, x)
        sweep = SweepOperator(pieces, shape, dtype)
        assert np.array_equal(sweep(x), once)
        assert np.array_equal(sweep(sweep(x)), reference_sweep(pieces, once))
        sweep.buffer[...] = x
        assert np.array_equal(sweep(sweep.buffer), once)


@pytest.mark.parametrize("dims,batch", [((13,), None), ((4, 4), None), ((17,), None),
                                        ((8, 2), 3)], ids=["13", "4x4", "17", "8x2-batch-3"])
def test_float_sweeps_of_small_integers_are_exact(dims, batch):
    # integers below 2^53 add exactly in float64 in any order, so this holds
    # whatever order the sweep places its pieces in
    pieces = SectionPieces(LatticeShape(dims), SectionKind.TORUS)
    shape = (pieces.full + 1,) if batch is None else (pieces.full + 1, batch)
    x = np.random.default_rng(sum(dims)).integers(0, 1000, shape)
    want = SweepOperator(pieces, shape, np.int64)(x)
    assert want.max() < 1 << 53
    assert np.array_equal(SweepOperator(pieces, shape, np.float64)(x.astype(np.float64)), want)


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


@pytest.mark.parametrize("dims", [(m,) for m in range(3, 9)]
                         + [(12,), (2, 2), (4, 2), (6, 2), (3, 3), (4, 3),
                            (4, 1), (3, 1), (4, 2, 1), (3, 3, 1)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_dimer_only_operator_splits_into_its_sectors(dims):
    # the per-sector bracket of transfer_log_radius rests on the first
    # assertion, its convergence on the second: every nonzero entry of M,
    # of M^2 on odd sections, joins two masks of one sector, and each
    # sector is one connected component
    shape = LatticeShape(dims)
    matrix = full_matrix_sparse(torus_table(dims, dimer_only=True))
    if shape.n % 2:
        matrix = matrix @ matrix
    labels = dimer_sectors(shape)
    entries = matrix.tocoo()
    assert np.array_equal(labels[entries.row], labels[entries.col])
    n_comp, components = connected_components(matrix, directed=False)
    assert n_comp == labels.max() + 1 == len(set(zip(components, labels)))


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


def two_layer_trace(table):
    """tr(M^2) = sum over U of 2^(n - |U|) c(U)^2.

    (M^2)[S, S] sums c(U)^2 over the T disjoint from S, U the complement
    of S | T, and each U comes from the 2^(n - |U|) ways to split its
    complement between S and T.
    """
    n = table.shape.n
    return sum(c * c << n - bin(u).count("1") for u, c in enumerate(table.counts.tolist()))


@pytest.mark.parametrize("dims,kind,dimer_only", [
    # 2^n basis columns of 2^n entries fill 4 and 16 blocks of 2^20 entries
    pytest.param((11,), SectionKind.TORUS, False, id="11"),
    pytest.param((12,), SectionKind.TORUS, False, id="12"),
    pytest.param((4,), SectionKind.TORUS, False, id="4-torus"),
    pytest.param((5,), SectionKind.MIXED, False, id="5-mixed"),
    pytest.param((3, 2), SectionKind.PROTRUDING, True, id="3x2-protruding-dimer-only"),
    pytest.param((3, 2), SectionKind.MIXED, True, id="3x2-mixed-dimer-only"),
])
def test_two_layer_trace_closed_form(dims, kind, dimer_only):
    table = CoverTable(LatticeShape(dims), kind, dimer_only)
    assert full_trace_power(table, 2) == two_layer_trace(table)


@pytest.mark.parametrize("q", [16, 40])
def test_trace_on_both_sides_of_the_int64_bound(q):
    # the row sums of the 3-ring matrix are at most 14 and 14^16 < 2^63, so
    # q = 16 runs in int64; q = 40 runs on int64 residues and its trace
    # itself passes 2^63
    table = torus_table((3,))
    assert (row_sum(table) ** q >= 1 << 63) == (q == 40)
    want = 0
    for rep in range(table.full + 1):
        x = [0] * (table.full + 1)
        x[rep] = 1
        for _ in range(q):
            x = matvec_exact(table, x)
        want += x[rep]
    assert (want >= 1 << 63) == (q == 40)
    assert full_trace_power(table, q) == want


def _form_by_matvec(table, layers):
    x = table.counts[::-1].tolist()
    v = x
    for _ in range(layers - 2):
        v = matvec_exact(table, v)
    return sum(a * b for a, b in zip(x, v))


@pytest.mark.parametrize("dims,layers,want", [
    ((7, 2), 5, 1035268951526929389572282016087316),
    ((4, 3), 6, 1061434302051662227273233718914953),
])
def test_multi_modulus_forms_match_the_object_reference(dims, layers, want):
    # x^T M^(e-2) x on Python integers against the form on five residues,
    # each below 2^31 so that the closing dot's products fit int64
    table = CoverTable(LatticeShape(dims), SectionKind.PROTRUDING)
    r = row_sum(table)
    assert len(residue_moduli(r ** layers, max(r, 1 << 31))) == 5
    assert quadratic_form_count(table, layers) == _form_by_matvec(table, layers) == want


# the fewest layers at which (2, 2, 2, 2) runs on residues, R^e >= 2^63;
# the dimer-only box stays in plain int64 up to e = 4
FIRST_RESIDUE_LAYERS = {
    (SectionKind.BOX, False): 3, (SectionKind.BOX, True): 5,
    (SectionKind.TORUS, False): 3, (SectionKind.TORUS, True): 4,
    (SectionKind.MIXED, False): 2, (SectionKind.MIXED, True): 2,
    (SectionKind.PROTRUDING, False): 2, (SectionKind.PROTRUDING, True): 2,
}


@pytest.mark.parametrize("layers", [2, 3, 4])
@pytest.mark.parametrize("dimer_only", [False, True])
@pytest.mark.parametrize("kind", list(SectionKind))
def test_short_forms_match_the_object_reference(kind, dimer_only, layers):
    # e = 2 is the dot x.x with no sweep, e = 3 is x.Mx and e = 4 is Mx.Mx,
    # one sweep each; (3, 2) runs in plain int64
    small = CoverTable(LatticeShape((3, 2)), kind, dimer_only)
    assert row_sum(small) ** layers < 1 << 63
    assert quadratic_form_count(small, layers) == _form_by_matvec(small, layers)
    large = CoverTable(LatticeShape((2, 2, 2, 2)), kind, dimer_only)
    residues = row_sum(large) ** layers >= 1 << 63
    assert residues == (layers >= FIRST_RESIDUE_LAYERS[kind, dimer_only])
    assert quadratic_form_count(large, layers) == _form_by_matvec(large, layers)


@pytest.mark.parametrize("dims,layers,want,moduli", [
    # the domino tilings of 8 x 8, in plain int64
    ((8,), 8, 12988816, 0),
    # R < 2^8, so many small-bit layers: 236 bits of R^e on 8 moduli
    ((12,), 30, 9336356914608623596381398656149444395093701, 8),
])
def test_dimer_only_box_forms(dims, layers, want, moduli):
    table = CoverTable(LatticeShape(dims), SectionKind.BOX, dimer_only=True)
    r = row_sum(table)
    bound = r ** layers
    assert len(residue_moduli(bound, max(r, 1 << 31)) if bound >> 63 else []) == moduli
    assert quadratic_form_count(table, layers) == _form_by_matvec(table, layers) == want


@pytest.mark.parametrize("dims,kind,residues", [
    ((3, 2), SectionKind.BOX, False),
    ((2, 2, 2, 1, 1, 1, 1, 1, 1), SectionKind.PROTRUDING, True),
])
def test_forms_sweep_the_boundary_vector_half_the_layers(monkeypatch, dims, kind, residues):
    # traces and forms both close as <M^a c, M^b c> with a = p // 2 and
    # b = p - a, so each block of columns is swept b = ceil(p / 2) times: a
    # form of e layers at p = e - 2, a trace at p = q; tr(M^0) and tr(M)
    # come off the table with no sweep.  The box stays in plain int64 up to
    # p = 7; the padded protruding section, R > 2^32, runs on residues from
    # p = 2
    table = CoverTable(LatticeShape(dims), kind)
    n, r = table.shape.n, row_sum(table)
    assert (r ** 2 >= 1 << 63) == (r ** 7 >= 1 << 63) == residues
    traces = [full_trace_power(table, q) for q in range(8)]
    assert traces[:3] == [1 << n, table.count(table.full), two_layer_trace(table)]
    calls = []
    call = SweepOperator.__call__
    monkeypatch.setattr(SweepOperator, "__call__", lambda self, x: calls.append(x.shape) or call(self, x))
    for layers in range(2, 8):
        calls.clear()
        got = quadratic_form_count(table, layers)
        assert len(calls) == layers - 2 - (layers - 2) // 2
        assert got == _form_by_matvec(table, layers)
    # blocks of five columns' entries: the 64 basis columns of the box in 13
    # blocks, the last of 4, and one column per block on 3 to 9 residues
    monkeypatch.setattr(transfer, "_BLOCK_ENTRIES", 5 << n)
    blocks = 1 << n if residues else 13
    for q in range(8):
        calls.clear()
        assert full_trace_power(table, q) == traces[q]
        assert len(calls) == ((q - q // 2) * blocks if q >= 2 else 0)


def test_multi_modulus_orbit_weighted_trace_matches_the_object_reference():
    shape = LatticeShape((3, 2))
    table = CoverTable(shape, SectionKind.TORUS)
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    q, r = 10, row_sum(table)
    assert r ** q >= 1 << 63
    assert len(residue_moduli((table.full + 1) * r ** q, r)) >= 2
    want = 0
    for rep in range(table.full + 1):
        x = [0] * (table.full + 1)
        x[rep] = 1
        for _ in range(q):
            x = matvec_exact(table, x)
        want += x[rep]
    assert want >= 1 << 63
    assert full_trace_power(table, q, orbits) == full_trace_power(table, q) == want


@pytest.mark.parametrize("row_sum", [1, 14, 6726, (1 << 40) + 7])
def test_residue_moduli_cover_the_bound_in_int64(row_sum):
    assert residue_moduli((1 << 63) - 1, row_sum) == []
    for bound in (1 << 63, 3**200):
        moduli = residue_moduli(bound, row_sum)
        assert prod(moduli) > bound
        assert all((p - 1) * row_sum < 1 << 63 for p in moduli)
        assert all(gcd(p, r) == 1 for p, r in combinations(moduli, 2))


def test_residue_moduli_refuse_rows_too_large_for_int64():
    with pytest.raises(CapacityError):
        residue_moduli(1 << 63, 1 << 62)
    # moduli in [64, 128) cover 2^63 but not 10^4 bits
    assert prod(residue_moduli(1 << 63, 1 << 55)) > 1 << 63
    with pytest.raises(CapacityError):
        residue_moduli(1 << 10_000, 1 << 55)


def test_row_sum_is_exact_in_either_dtype():
    int64 = torus_table((5, 4))
    padded = CoverTable(LatticeShape((12,) + (1,) * 19), SectionKind.PROTRUDING)
    assert (int64.counts.dtype, padded.counts.dtype) == (np.int64, object)
    for table in (int64, padded):
        r = row_sum(table)
        assert type(r) is int and r == sum(table.counts.tolist())
    assert row_sum(padded) >> 63
    # 2^10 int64 counts near 2^62 sum past 2^63, where an int64 sum wraps
    counts = np.full(1 << 10, (1 << 62) + 12345, dtype=np.int64)
    assert row_sum(SimpleNamespace(counts=counts)) == ((1 << 62) + 12345) << 10


def test_three_row_domino_tilings_past_the_enumeration_limit():
    # the box dimer-only (m,) form at e = 3 counts the domino tilings of
    # 3 x m: a(k) = 4 a(k - 1) - a(k - 2), a(0) = 1, a(1) = 3 for m = 2k,
    # and none for odd m
    tilings = [1, 3]
    while len(tilings) <= 11:
        tilings.append(4 * tilings[-1] - tilings[-2])
    for m in range(2, 23):
        table = CoverTable(LatticeShape((m,)), SectionKind.BOX, dimer_only=True)
        assert quadratic_form_count(table, 3) == (0 if m % 2 else tilings[m // 2]), m


def test_first_powers_come_off_the_table_as_ints():
    table = torus_table((5, 4))
    assert [type(full_trace_power(table, q)) for q in (0, 1)] == [int, int]
    assert full_trace_power(table, 1) == table.count(table.full)


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
    tables = [torus_table((4,))] + [
        CoverTable(LatticeShape(dims), kind, dimer_only)
        for dims in [(2,), (3,), (2, 2), (3, 2)]
        for kind in SectionKind
        for dimer_only in (False, True)
    ]
    for table in tables:
        matrix = full_matrix_sparse(table)
        assert matrix.has_canonical_format
        assert np.all(matrix.data != 0)
        assert np.array_equal(matrix.toarray(), dense_full(table))


def _fold(dense, orbits):
    folded = np.zeros((orbits.size, orbits.size))
    for a, rep in enumerate(orbits.reps):
        for t, orbit in enumerate(orbits.orbit_of):
            folded[a, orbit] += dense[rep, t]
    return folded


@pytest.mark.parametrize("dimer_only", [False, True])
@pytest.mark.parametrize("dims", [(4,), (3, 2), (2, 2)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_quotient_is_the_orbit_fold_of_the_full_matrix(dims, dimer_only):
    shape = LatticeShape(dims)
    table = CoverTable(shape, SectionKind.TORUS, dimer_only)
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    qm = build_quotient(table, orbits)
    assert qm.entries.dtype == np.int64
    assert np.array_equal(qm.to_dense(), _fold(dense_full(table), orbits))
    assert qm.weights.tolist() == orbits.sizes


def _pairs(rows, n):
    blocks = list(disjoint_pairs(np.asarray(rows), n))
    for index, t in blocks:
        assert index.dtype == t.dtype == np.int32
        assert len(index) == len(t) <= max(1 << 16, 1 << n)
    index = np.concatenate([index for index, _ in blocks])
    t = np.concatenate([t for _, t in blocks])
    return index, t


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
def test_pair_enumerator_over_all_rows(n):
    # 3^11 pairs fill several blocks
    rows = np.arange(1 << n)
    index, t = _pairs(rows, n)
    assert len(index) == 3 ** n
    assert not np.any(rows[index] & t)
    keys = (index.astype(np.int64) << n) | t
    assert len(np.unique(keys)) == 3 ** n
    # within a row, masks ascend
    by_row = np.argsort(index, kind="stable")
    assert np.array_equal(keys[by_row], np.sort(keys))


def test_pair_enumerator_over_some_rows():
    n = 9
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 1 << n, size=40)
    index, t = _pairs(rows, n)
    assert len(index) == sum(1 << (n - int(s).bit_count()) for s in rows)
    for i, s in enumerate(rows):
        got = sorted(t[index == i].tolist())
        comp = ((1 << n) - 1) ^ int(s)
        assert got == [sub for sub in range(1 << n) if sub & comp == sub]


def test_reference_entries_past_float_range_are_capacity_errors():
    # extent-1 directions give each point two protrusion slots, so the
    # counts pass 2^63
    shape = LatticeShape((12,) + (1,) * 19)
    table = CoverTable(shape, SectionKind.PROTRUDING)
    assert max(table.counts) >= 1 << 63
    with pytest.raises(CapacityError):
        full_matrix_sparse(table)
    # the box reflection along the first axis preserves the protruding matrix
    orbits = compute_orbits((tuple(range(12)), tuple(range(11, -1, -1))), shape.n)
    # the counts sum past 2^63, so the quotient refuses before it allocates
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="int64"):
            build_quotient(table, orbits)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dims,kind", [((4,), SectionKind.BOX), ((4,), SectionKind.PROTRUDING),
                                       ((3, 2), SectionKind.BOX),
                                       ((3, 2), SectionKind.PROTRUDING)],
                         ids=["box-4", "protruding-4", "box-3x2", "protruding-3x2"])
def test_torus_orbits_do_not_fold_tables_they_do_not_preserve(dims, kind):
    # translations move the seams of the box and of the protrusion faces:
    # folded, box (4,) gave tr(M^2) = 204 against 185, protruding (4,)
    # 645 against 693 and box (3, 2) 4949 against 4692
    shape = LatticeShape(dims)
    table = CoverTable(shape, kind)
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    for q in (0, 1, 2):
        with pytest.raises(ValueError, match="not constant on the orbits"):
            full_trace_power(table, q, orbits)
    with pytest.raises(ValueError, match="not constant on the orbits"):
        build_quotient(table, orbits)


@pytest.mark.parametrize("dims,kind", [((4,), SectionKind.TORUS), ((3, 2), SectionKind.TORUS),
                                       ((3, 2), SectionKind.MIXED)],
                         ids=["torus-4", "torus-3x2", "mixed-3x2"])
@pytest.mark.parametrize("dimer_only", [False, True])
def test_groups_that_preserve_the_table_fold_it(dims, kind, dimer_only):
    shape = LatticeShape(dims)
    table = CoverTable(shape, kind, dimer_only)
    # the mixed (3, 2) section protrudes along its extent-2 axis, whose shift
    # is its flip, so every torus motion preserves it too
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    for q in (2, 3):
        assert full_trace_power(table, q, orbits) == full_trace_power(table, q)
    assert weighted_symmetry_ok(build_quotient(table, orbits))


@pytest.mark.parametrize("kind", list(SectionKind), ids=lambda kind: kind.value)
def test_sweep_reads_only_the_pieces(kind):
    shape = LatticeShape((3, 2))
    pieces = SectionPieces(shape, kind, dimer_only=False)
    table = CoverTable(shape, kind)
    assert not hasattr(pieces, "counts")
    x = np.random.default_rng(29).random((table.full + 1, 3))
    assert np.array_equal(sweep_apply(pieces, x), sweep_apply(table, x))


def test_validation_errors():
    table = torus_table((3,))
    with pytest.raises(ValueError):
        full_trace_power(table, -1)
    with pytest.raises(ValueError):
        quadratic_form_count(table, 1)
    with pytest.raises(ValueError):
        sweep_apply(table, np.ones(7))
    with pytest.raises(ValueError):
        sweep_apply(table, np.ones((7, 2)))
    with pytest.raises(ValueError):
        sweep_apply(table, np.ones((8, 2, 2)))
    with pytest.raises(ValueError):
        SweepOperator(table, (8,), np.float64)(np.ones((8, 1)))
    orbits = compute_orbits(generate_motion_group(LatticeShape((4,))), 4)
    with pytest.raises(ValueError):
        build_quotient(table, orbits)


def test_trace_rejects_orbits_of_another_point_count():
    # the (9,) orbits used to fold a (10,) trace silently: 727598, not 891097, at q = 2
    table = torus_table((10,))
    orbits = compute_orbits(generate_motion_group(LatticeShape((9,))), 9)
    with pytest.raises(ValueError, match="point count"):
        full_trace_power(table, 2, orbits)
    assert full_trace_power(table, 2) == 891097


def test_full_matrix_capacity_limits():
    # the exact trace is limited by its sweep work, 3.2e10 element updates
    # at (15,) and q = 2, the other two by the budget
    with pytest.raises(CapacityError):
        full_trace_power(torus_table((15,)), 2)
    table = torus_table((16,))
    with pytest.raises(CapacityError):
        full_matrix_sparse(table)
    # entries of M^k x grow with k, and with them the integers a sweep holds
    with pytest.raises(CapacityError):
        quadratic_form_count(table, 10_000)
