"""The memory budget: predicted bytes bound what each layer allocates, and a
request past the budget fails before it allocates anything of state size."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

# full_matrix_sparse imports scipy when first called; importing it here
# keeps the one-off import out of every traced window
import scipy.sparse  # noqa: F401

import mdentropy.bounds as bounds
import mdentropy.matchcount as matchcount
import mdentropy.symmetry as symmetry
import mdentropy.transfer as transfer
from mdentropy import lattice
from mdentropy.lattice import MEMORY_BUDGET, CapacityError, LatticeShape, check_memory
from mdentropy.matchcount import CoverTable, SectionKind, SectionPieces, SweepOperator
from mdentropy.spectral import power_method
from mdentropy.symmetry import compute_orbits, generate_motion_group

MIB = 1 << 20


def traced_peak(fn):
    """Peak bytes traced while fn runs; numpy reports its arrays to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table(dims, kind=SectionKind.TORUS, dimer_only=False):
    return CoverTable(LatticeShape(dims), kind, dimer_only)


def orbits(dims):
    shape = LatticeShape(dims)
    return compute_orbits(generate_motion_group(shape), shape.n)


def quotient_bracket(dims, dimer_only=False):
    qm = bounds.section_quotient(dims, dimer_only)
    return power_method(qm.to_dense())


@pytest.fixture
def predictions(monkeypatch):
    """Bytes passed to the budget check by every layer, in call order."""
    seen = []

    def record(nbytes, what):
        seen.append(nbytes)
        check_memory(nbytes, what)

    for module in (bounds, matchcount, symmetry, transfer):
        monkeypatch.setattr(module, "check_memory", record)
    bounds.transfer_log_radius.cache_clear()
    bounds.section_quotient.cache_clear()
    yield seen
    bounds.transfer_log_radius.cache_clear()
    bounds.section_quotient.cache_clear()


def test_check_memory_compares_to_the_budget():
    assert MEMORY_BUDGET == 1 << 30
    check_memory(MEMORY_BUDGET, "exactly the budget")
    with pytest.raises(CapacityError, match="one byte more"):
        check_memory(MEMORY_BUDGET + 1, "one byte more")


# each case builds its inputs, outside the trace, and returns the traced call
LAYERS = {
    "sweep-14": lambda: (bounds.transfer_log_radius, (14,)),
    "sweep-2x2x2x2": lambda: (bounds.transfer_log_radius, (2, 2, 2, 2)),
    "dimer-4x4": lambda: (partial(bounds.transfer_log_radius, dimer_only=True), (4, 4)),
    # an M^2 step applies one operator twice
    "dimer-5x3": lambda: (partial(bounds.transfer_log_radius, dimer_only=True), (5, 3)),
    "table-16": lambda: (table, (16,)),
    # int64 counts are the sweep's buffer itself
    "table-5x4": lambda: (table, (5, 4)),
    "table-protruding-4x4": lambda: (partial(table, kind=SectionKind.PROTRUDING), (4, 4)),
    "orbits-16": lambda: (compute_orbits, generate_motion_group(LatticeShape((16,))), 16),
    "full_matrix_sparse-10": lambda: (transfer.full_matrix_sparse, table((10,))),
    "quotient-4x4": lambda: (transfer.build_quotient, table((4, 4), dimer_only=True),
                             orbits((4, 4))),
    # the quotient's prediction covers its bracket, here of a reducible matrix
    "quotient-bracket-dimer-4x4": lambda: (partial(quotient_bracket, dimer_only=True), (4, 4)),
    "form-protruding-12": lambda: (transfer.quadratic_form_count,
                                   table((12,), SectionKind.PROTRUDING), 8),
    # four int64 residues per entry
    "form-protruding-7x2": lambda: (transfer.quadratic_form_count,
                                    table((7, 2), SectionKind.PROTRUDING), 5),
    # three residues per column, 78 orbit columns
    "trace-residues-10": lambda: (transfer.full_trace_power, table((10,)), 8, orbits((10,))),
    # each block is freed before the next is allocated: three residues per
    # column in four blocks, and plain int64 in four blocks of 2^20 entries
    "trace-blocks-10": lambda: (transfer.full_trace_power, table((10,)), 5),
    "trace-blocks-11": lambda: (transfer.full_trace_power, table((11,)), 3),
}


@pytest.mark.parametrize("case", list(LAYERS))
def test_predicted_bytes_bound_the_traced_peak(predictions, case):
    fn, *args = LAYERS[case]()
    predictions.clear()
    peak = traced_peak(lambda: fn(*args))
    assert predictions, "the layer made no budget check"
    # the largest check is the one made up front, for the whole path
    assert peak <= max(predictions), (peak, predictions)


def test_an_odd_dimer_only_bracket_holds_one_operator(predictions):
    # M^2 places the pieces of one sweep operator upward, then downward:
    # 50.1 B per mask traced at (5, 3), the operator's transposed copy
    # included; a second operator would add at least 8 B
    bounds.transfer_log_radius((3,), dimer_only=True)
    bounds.transfer_log_radius.cache_clear()
    peak = traced_peak(lambda: bounds.transfer_log_radius((5, 3), dimer_only=True))
    assert peak <= 52 << 15, peak / (1 << 15)


def test_a_square_step_copies_nothing():
    # op(op(x)) hands the operator its own buffer, which numpy copies
    # before the reversed copy (8 B per mask); square(x) copies x unreversed
    # and places the pieces upward, then downward, in the buffer; numpy's
    # ufunc buffers take about 14 KiB either way.  19 points, 4 MiB of
    # float64: the operator does not split
    pieces = SectionPieces(LatticeShape((19,)), SectionKind.TORUS, True)
    sweep = SweepOperator(pieces, (pieces.full + 1,), np.float64)
    x = np.ones(pieces.full + 1)
    assert traced_peak(lambda: sweep(sweep(x))) >= 8 << 19
    assert traced_peak(lambda: sweep.square(x)) <= 1 << 19


def test_an_unsplit_table_holds_one_array():
    # the (5, 4) sweep does not split, and its reversed copy of the
    # reversed indicator is its own buffer: 8.0 B per mask traced, where
    # numpy's copy of an overlapping input would add 8 B
    peak = traced_peak(lambda: table((5, 4)))
    assert peak <= 9 << 20, peak / (1 << 20)


@pytest.fixture(scope="module")
def identity_quotient_inputs():
    # one orbit per mask: 2^17 orbits, a 128 GiB dense quotient
    return table((17,)), compute_orbits((tuple(range(17)),), 17)


REJECTED = {
    "sweep-26": lambda inputs: (bounds.transfer_log_radius, (26,)),
    "dimer-5x5": lambda inputs: (partial(bounds.transfer_log_radius, dimer_only=True), (5, 5)),
    "table-26": lambda inputs: (table, (26,)),
    "full_matrix_sparse-16": lambda inputs: (transfer.full_matrix_sparse, table((16,))),
    "identity-quotient-17": lambda inputs: (transfer.build_quotient, *inputs),
    # one orbit per mask, so Burnside's term alone is 100 * 2^25 bytes
    "identity-orbits-25": lambda inputs: (compute_orbits, (tuple(range(25)),), 25),
    # the entries' size is predicted from bit lengths, not by computing R^999999
    "form-12-million-layers": lambda inputs: (transfer.quadratic_form_count, table((12,)),
                                              1_000_000),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_calls_fail_before_allocating(predictions, identity_quotient_inputs, case):
    fn, *args = REJECTED[case](identity_quotient_inputs)

    def rejected():
        with pytest.raises(CapacityError, match="memory budget"):
            fn(*args)

    assert traced_peak(rejected) < MIB


def test_identity_group_quotient_is_a_capacity_error(identity_quotient_inputs):
    # numpy used to fail here with "Unable to allocate 128. GiB"
    t, o = identity_quotient_inputs
    assert o.size == 1 << 17
    with pytest.raises(CapacityError):
        transfer.build_quotient(t, o)


def test_budget_is_read_at_call_time(predictions, monkeypatch):
    monkeypatch.setattr(lattice, "MEMORY_BUDGET", MIB)
    with pytest.raises(CapacityError):
        bounds.transfer_log_radius((16,))
    with pytest.raises(CapacityError):
        table((16,))
