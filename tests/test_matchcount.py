import random
from contextlib import contextmanager

import numpy as np
import pytest

from mdentropy import bounds, matchcount, oracle
from mdentropy.bounds import one_dim_counts
from mdentropy.lattice import PROTRUDE, TILE, WRAP, CapacityError, LatticeShape, section_geometry
from mdentropy.matchcount import CoverTable, SectionKind, SectionPieces, SweepOperator, sweep_apply


def full_count(dims, kind, dimer_only=False):
    table = CoverTable(LatticeShape(dims), kind, dimer_only)
    return table.count(table.full)


def test_line_counts_match_closed_forms():
    for m in range(1, 16):
        tilings, periodic, protruding = one_dim_counts(m)
        assert full_count((m,), SectionKind.BOX) == tilings
        assert full_count((m,), SectionKind.TORUS) == periodic
        assert full_count((m,), SectionKind.PROTRUDING) == protruding


@pytest.mark.parametrize("kind", ["torus", None, []], ids=["name", "none", "list"])
def test_unknown_section_kinds_are_value_errors(kind):
    with pytest.raises(ValueError, match="unknown section kind"):
        matchcount.section_config(LatticeShape((3,)), kind)
    # the oracle reads kinds through the same table
    with pytest.raises(ValueError, match="unknown section kind"):
        oracle.count_subset_covers((3,), kind, 1)


def test_section_kinds_wrap_and_protrude_per_direction():
    shape = LatticeShape((3, 3))
    for kind in SectionKind:
        assert matchcount.section_config(shape, kind) == \
            section_geometry(shape, matchcount.kind_modes(kind, 2))
    # (0, 2) closes the first direction, (0, 6) the second
    pairs = {kind: {(i, j) for i, j, _ in matchcount.section_config(shape, kind)[0]}
             for kind in SectionKind}
    wrapped = {kind: ((0, 2) in at, (0, 6) in at) for kind, at in pairs.items()}
    assert wrapped == {SectionKind.BOX: (False, False), SectionKind.TORUS: (True, True),
                       SectionKind.MIXED: (True, False), SectionKind.PROTRUDING: (False, False)}
    slots = {kind: matchcount.section_config(shape, kind)[1] for kind in SectionKind}
    assert slots[SectionKind.BOX] == slots[SectionKind.TORUS] == (0,) * 9
    assert slots[SectionKind.MIXED] == (1, 1, 1, 0, 0, 0, 1, 1, 1)
    assert slots[SectionKind.PROTRUDING] == (2, 1, 2, 1, 0, 1, 2, 1, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kind_modes_name_the_first_direction_and_the_rest(d):
    modes = {kind: matchcount.kind_modes(kind, d) for kind in SectionKind}
    assert modes == {SectionKind.BOX: (TILE,) * d, SectionKind.TORUS: (WRAP,) * d,
                     SectionKind.MIXED: (WRAP,) + (PROTRUDE,) * (d - 1),
                     SectionKind.PROTRUDING: (PROTRUDE,) * d}
    # a 1-D mixed section has no direction left to protrude through
    assert (modes[SectionKind.MIXED] == modes[SectionKind.TORUS]) == (d == 1)


def test_two_point_section_counts():
    assert full_count((2,), SectionKind.BOX) == 2
    assert full_count((2,), SectionKind.TORUS) == 3
    assert full_count((2,), SectionKind.PROTRUDING) == 5


def test_mixed_equals_torus_for_one_dimensional_sections():
    for m in (1, 2, 3, 5):
        a = CoverTable(LatticeShape((m,)), SectionKind.MIXED)
        b = CoverTable(LatticeShape((m,)), SectionKind.TORUS)
        assert np.array_equal(a.counts, b.counts)


def test_four_by_four_domino_tilings():
    assert full_count((4, 4), SectionKind.BOX, dimer_only=True) == 36


def test_two_by_two_box_covers():
    assert full_count((2, 2), SectionKind.BOX) == 7


def test_odd_torus_has_no_dimer_cover():
    assert full_count((3, 3), SectionKind.TORUS, dimer_only=True) == 0


def test_empty_subset_counts_one():
    table = CoverTable(LatticeShape((3, 2)), SectionKind.TORUS)
    assert table.count(0) == 1


def test_entry_zero_on_overlap_and_symmetric():
    table = CoverTable(LatticeShape((3, 2)), SectionKind.TORUS)
    rng = random.Random(11)
    for _ in range(200):
        s = rng.randrange(table.full + 1)
        t = rng.randrange(table.full + 1)
        if s & t:
            assert table.entry(s, t) == 0
        else:
            assert table.entry(s, t) == table.entry(t, s) > 0


def test_kind_chain_entrywise():
    # box <= torus <= mixed <= protruding, entry by entry
    shape = LatticeShape((3, 2))
    tables = [CoverTable(shape, kind) for kind in
              (SectionKind.BOX, SectionKind.TORUS, SectionKind.MIXED,
               SectionKind.PROTRUDING)]
    rng = random.Random(23)
    for _ in range(300):
        s = rng.randrange(tables[0].full + 1)
        t = rng.randrange(tables[0].full + 1)
        values = [table.entry(s, t) for table in tables]
        assert values == sorted(values)


def test_dimer_only_never_exceeds_monomer_dimer():
    shape = LatticeShape((2, 2, 2))
    for kind in SectionKind:
        plain = CoverTable(shape, kind)
        tilde = CoverTable(shape, kind, dimer_only=True)
        assert np.all(tilde.counts <= plain.counts)


def test_counts_grow_with_subset():
    table = CoverTable(LatticeShape((4, 2)), SectionKind.PROTRUDING)
    rng = random.Random(5)
    for _ in range(200):
        mask = rng.randrange(table.full + 1)
        sub = mask & rng.randrange(table.full + 1)
        assert table.count(sub) <= table.count(mask)


def test_capacity_limit():
    # 2^26 masks at 24 B each are past the memory budget
    with pytest.raises(CapacityError):
        CoverTable(LatticeShape((26,)), SectionKind.BOX)


def test_mask_range_checked():
    table = CoverTable(LatticeShape((3,)), SectionKind.BOX)
    with pytest.raises(ValueError):
        table.count(8)
    # a negative mask would index the counts from their end: entry(-1, 0)
    # read c(empty) = 1 and entry(-8, 0) read c(full) = 4 on the (3,) torus
    torus = CoverTable(LatticeShape((3,)), SectionKind.TORUS)
    for s, t in [(-1, 0), (-8, 0), (0, -1), (8, 0), (0, 8)]:
        with pytest.raises(ValueError):
            torus.count(s if s else t)
        with pytest.raises(ValueError):
            torus.entry(s, t)
    assert torus.entry(0, 0) == torus.count(7) == 4
    assert torus.entry(7, 0) == torus.entry(0, 7) == 1


def reference_place(rows, pieces, x):
    """The pieces placed upward, mask by mask in Python: rows[mask] lists the batch values.

    Placed on x, the pieces leave at U the sum of c(U - T) x(T) over the
    subsets T of U, so the sweep's M x is this placement reversed.  The
    pieces go in the order of the sweep that `pieces` makes for x: those
    whose lower end is below its split bit first, then the rest, each
    group points first and then edges.
    """
    split = matchcount.split_bit(x.shape, x.itemsize)
    updates = [(v, 1 << v, weight) for v, weight in enumerate(pieces.point_weights) if weight]
    updates += [(v, (1 << v) | (1 << w), mult) for v, w, mult in pieces.edges]
    updates.sort(key=lambda update: update[0] >= split)
    for _, bits, factor in updates:
        for mask, row in enumerate(rows):
            if mask & bits == bits:
                source = rows[mask ^ bits]
                for j, value in enumerate(source):
                    row[j] += value if factor == 1 else factor * value


def kernel_inputs(size, batch, rng):
    """float64, int64 and past-2^63 object arrays of shape (size,) or (size, batch)."""
    shape = (size,) if batch is None else (size, batch)
    yield rng.random(shape)
    yield rng.integers(0, 1000, shape)
    yield rng.integers(0, 1000, shape).astype(object) * (1 << 64) + 1


# n = 1, 2, 3, 5, 8, 8: batch widths up to 4 put runs of 1 to 8 elements,
# odd ones included, on both sides of the column-by-column cutoff; arrays
# this small stay whole unless the size floor is lifted
@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (5,), (4, 2), (2, 2, 2)],
                         ids=lambda dims: "x".join(map(str, dims)))
@pytest.mark.parametrize("kind", list(SectionKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("dimer_only", [False, True])
def test_place_pieces_matches_a_per_mask_reference(monkeypatch, dims, kind, dimer_only):
    monkeypatch.setattr(matchcount, "_COLUMN_MIN_SIZE", 0)
    pieces = SectionPieces(LatticeShape(dims), kind, dimer_only)
    rng = np.random.default_rng(sum(dims) * 8 + len(dims))
    for batch in (None, 1, 2, 3, 4):
        for x in kernel_inputs(pieces.full + 1, batch, rng):
            rows = x.reshape(len(x), -1).tolist()
            reference_place(rows, pieces, x)
            want = np.array(rows[::-1], dtype=x.dtype).reshape(x.shape)
            got = SweepOperator(pieces, x.shape, x.dtype)(x)
            if x.dtype == object:
                assert (got == want).all()
            else:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def assert_float_placement_matches_the_reference(pieces, seed):
    rng = np.random.default_rng(seed)
    for batch in (None, 3):
        x = next(kernel_inputs(pieces.full + 1, batch, rng))
        rows = x.reshape(len(x), -1).tolist()
        reference_place(rows, pieces, x)
        got = SweepOperator(pieces, x.shape, x.dtype)(x)
        assert np.array_equal(got, np.array(rows[::-1]).reshape(x.shape))


def test_place_pieces_past_the_size_floor_matches_the_reference():
    # 11 points: each point piece updates 1024 elements, enough to go by columns
    pieces = SectionPieces(LatticeShape((11,)), SectionKind.TORUS)
    assert (pieces.full + 1) // 2 >= matchcount._COLUMN_MIN_SIZE
    assert_float_placement_matches_the_reference(pieces, 13)


# 13 points and 4 x 3: contiguous runs of 1 to 4096 elements (3 to 12288
# with a batch of 3) fall on both sides of 256, half the scoped buffer
# size, below which numpy copies a strided update through its buffer
@pytest.mark.parametrize("dims", [(13,), (4, 3)], ids=lambda dims: "x".join(map(str, dims)))
def test_place_pieces_across_the_buffer_threshold_matches_the_reference(dims):
    pieces = SectionPieces(LatticeShape(dims), SectionKind.TORUS)
    assert_float_placement_matches_the_reference(pieces, sum(dims))


def unscoped_sweep(pieces, x):
    """`sweep_apply` in one layout, without numpy's buffer size scoped, in the sweep's order."""
    z = np.array(x, order="C")
    b = z.size // z.shape[0]
    split = matchcount.split_bit(z.shape, z.itemsize)
    updates = [(v, v, weight) for v, weight in enumerate(pieces.point_weights) if weight]
    updates += pieces.edges
    updates.sort(key=lambda update: update[0] >= split)
    for v, w, factor in updates:
        if v == w:
            axis = z.reshape(-1, 2, b << v)
            unscoped_add_scaled(axis[:, 1], axis[:, 0], factor)
        else:
            pair = z.reshape(-1, 2, 1 << (w - v - 1), 2, b << v)
            unscoped_add_scaled(pair[:, 1, :, 1], pair[:, 0, :, 0], factor)
    return z[::-1]


def unscoped_add_scaled(target, source, factor):
    run = target.shape[-1]
    if run <= 4 and target.size >= 1 << 10:
        pairs = [(target[..., j], source[..., j]) for j in range(run)]
    else:
        pairs = [(target, source)]
    for column, values in pairs:
        column += values if factor == 1 else factor * values


@pytest.mark.parametrize("dims", [(13,), (4, 3)], ids=lambda dims: "x".join(map(str, dims)))
def test_sweep_matches_the_unscoped_kernel_under_the_default_buffer(dims):
    pieces = SectionPieces(LatticeShape(dims), SectionKind.TORUS)
    rng = np.random.default_rng(sum(dims) + 1)
    for shape in ((pieces.full + 1,), (pieces.full + 1, 3)):
        x = rng.random(shape)
        with np.errstate():
            np.setbufsize(8192)
            want = unscoped_sweep(pieces, x)
        assert np.array_equal(sweep_apply(pieces, x), want)


def numpy_state():
    return np.getbufsize(), np.geterr()


@contextmanager
def caller_state(bufsize):
    """numpy's defaults, or a caller's own buffer size and error state."""
    if bufsize is None:
        # numpy's default buffer size; an earlier call that leaked its own shows here
        assert np.getbufsize() == 8192
        yield
        return
    with np.errstate(divide="ignore"):
        np.setbufsize(bufsize)
        yield


def sweep_ones_batch():
    shape = (1 << 12, 3)
    SweepOperator(SectionPieces(LatticeShape((6, 2)), SectionKind.PROTRUDING),
                  shape, np.float64)(np.ones(shape))


def cold_log_radius():
    bounds.transfer_log_radius.cache_clear()
    bounds.transfer_log_radius((13,))


STATE_CALLS = {
    "place_pieces": sweep_ones_batch,
    "sweep_apply": lambda: sweep_apply(SectionPieces(LatticeShape((4, 3)), SectionKind.TORUS),
                                       np.ones(1 << 12)),
    "CoverTable": lambda: CoverTable(LatticeShape((12,)), SectionKind.PROTRUDING),
    "transfer_log_radius": cold_log_radius,
}


@pytest.mark.parametrize("bufsize", [None, 4096], ids=["default", "caller-4096"])
@pytest.mark.parametrize("call", list(STATE_CALLS))
def test_placing_pieces_leaves_the_callers_numpy_state(call, bufsize):
    with caller_state(bufsize):
        before = numpy_state()
        STATE_CALLS[call]()
        assert numpy_state() == before


@pytest.mark.parametrize("bufsize", [None, 4096], ids=["default", "caller-4096"])
@pytest.mark.parametrize("call", list(STATE_CALLS))
def test_a_kernel_raising_partway_leaves_the_callers_numpy_state(monkeypatch, call, bufsize):
    seen = []

    def add_scaled(target, source, factor):
        seen.append(np.getbufsize())
        if len(seen) == 3:
            raise RuntimeError("third update")

    monkeypatch.setattr(matchcount, "_add_scaled", add_scaled)
    with caller_state(bufsize):
        before = numpy_state()
        with pytest.raises(RuntimeError, match="third update"):
            STATE_CALLS[call]()
        assert numpy_state() == before
    # the updates ran under the scoped buffer size
    assert seen == [matchcount._UPDATE_BUFSIZE] * 3
