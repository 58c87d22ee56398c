import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from mdentropy import spectral
from mdentropy.lattice import LatticeShape
from mdentropy.matchcount import CoverTable, SectionKind, SectionPieces, SweepOperator
from mdentropy.spectral import SHIFT, operator_power_method, power_method
from mdentropy.symmetry import compute_orbits, generate_motion_group
from mdentropy.transfer import build_quotient

PATH_GRAPH = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def torus_quotient(dims, dimer_only=False):
    shape = LatticeShape(dims)
    table = CoverTable(shape, SectionKind.TORUS, dimer_only)
    orbits = compute_orbits(generate_motion_group(shape), shape.n)
    return build_quotient(table, orbits)


def test_scalar_matrix_is_exact():
    bracket, vector = power_method(np.array([[5.0]]))
    assert bracket.lower == bracket.upper == bracket.rayleigh == 5.0
    assert bracket.converged
    assert bracket.iterations == 1
    assert vector.shape == (1,)


def test_bipartite_edge_converges_despite_oscillation():
    bracket, _ = power_method(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert bracket.converged
    assert bracket.lower <= 1.0 <= bracket.upper
    assert bracket.width <= 1e-12


def test_path_graph_radius():
    bracket, _ = power_method(PATH_GRAPH)
    assert bracket.converged
    assert bracket.lower <= math.sqrt(2.0) <= bracket.upper
    assert bracket.width <= 1e-11


def test_rayleigh_matches_dense_eigensolver():
    rng = np.random.default_rng(41)
    raw = rng.random((8, 8))
    matrix = raw + raw.T
    bracket, vector = power_method(matrix)
    top = float(np.linalg.eigvalsh(matrix)[-1])
    assert bracket.lower <= top <= bracket.upper
    assert abs(bracket.rayleigh - top) <= 1e-10
    residual = matrix @ vector - bracket.rayleigh * vector
    assert float(np.linalg.norm(residual)) <= 1e-8


def test_weighted_quotient_bracket_contains_symmetrized_radius():
    # the ratio bracket needs no weights: it holds for any nonnegative matrix
    qm = torus_quotient((6,))
    bracket, _ = power_method(qm.to_dense())
    d = np.sqrt(qm.weights)
    sym = qm.to_dense() * d[:, None] / d[None, :]
    top = float(np.linalg.eigvalsh(sym)[-1])
    assert bracket.converged
    assert bracket.lower - 1e-12 <= top <= bracket.upper + 1e-12


def test_four_ring_radius_value():
    qm = torus_quotient((4,))
    bracket, _ = power_method(qm.to_dense())
    assert bracket.converged
    assert bracket.lower <= bracket.rayleigh <= bracket.upper
    assert abs(math.log(bracket.rayleigh) - 2.6532941163) <= 1e-9


def test_history_brackets_are_monotone():
    # the dimer-only quotient is reducible: its components step jointly,
    # one history entry per step
    qm = torus_quotient((6,), dimer_only=True)
    matrix = qm.to_dense()
    assert connected_components(matrix, directed=False)[0] > 1
    history = []
    bracket, _ = power_method(matrix, history=history)
    assert [step[0] for step in history] == list(range(1, bracket.iterations + 1))
    for _, lower, upper, rayleigh in history:
        slack = 1e-11 * max(1.0, abs(rayleigh))
        assert lower - slack <= rayleigh <= upper + slack
    for before, after in zip(history, history[1:]):
        assert after[1] >= before[1]
        assert after[2] <= before[2]
    assert history[-1][1:] == (bracket.lower, bracket.upper, bracket.rayleigh)


def test_reducible_matrix_takes_componentwise_maximum():
    matrix = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    bracket, vector = power_method(matrix)
    assert bracket.converged
    assert bracket.lower <= 3.0 <= bracket.upper
    assert bracket.width <= 1e-12
    # the returned vector lives on the dominant component
    assert vector[2] > 0
    assert vector[0] == vector[1] == 0.0


def test_operator_sectors_bracket_a_reducible_operator():
    # a block of radius 1 next to one of radius 3: one positive vector pins
    # the lower ratio to the weak block, per-sector ratios do not
    matrix = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    pinned, _ = operator_power_method(matrix.__matmul__, 3, max_iter=200)
    assert not pinned.converged
    assert pinned.lower <= 1.0
    bracket, vector = operator_power_method(matrix.__matmul__, 3,
                                            sectors=np.array([1, 1, 0], dtype=np.int8))
    assert bracket.converged
    assert bracket.lower <= 3.0 <= bracket.upper
    assert bracket.width <= 1e-12
    assert bracket.rayleigh == 3.0
    # the returned vector lives on the dominant sector
    assert vector[2] > 0
    assert vector[0] == vector[1] == 0.0
    listed, listed_vector = operator_power_method(matrix.__matmul__, 3, sectors=[1, 1, 0])
    assert listed == bracket
    assert np.array_equal(listed_vector, vector)
    for bad in ([0, 0, 2], [1, 1, 1], [0, 1]):
        with pytest.raises(ValueError, match="sector labels"):
            operator_power_method(matrix.__matmul__, 3, sectors=np.array(bad, dtype=np.int8))
    # each of these used to fail inside np.bincount, with numpy's own error
    for bad in ([-1, 0, 1], [0., 1., 1.], ["0", "1", "1"], [[0, 1, 1]],
                np.array([0, 1, 1], dtype=np.uint64), np.array([0, 1, 1], dtype=object)):
        with pytest.raises(ValueError, match="sector labels"):
            operator_power_method(matrix.__matmul__, 3, sectors=bad)


def test_estimate_is_clamped_into_the_bracket():
    # after one step the top block's Rayleigh quotient, 3.5, lies below the
    # other block's lower end, 4, which is the bracket's bottom
    bracket, _ = power_method([[1, .5, 0], [.5, 5, 0], [0, 0, 4]], max_iter=1)
    assert not bracket.converged
    assert (bracket.lower, bracket.rayleigh) == (4.0, 4.0)
    assert bracket.rayleigh <= bracket.upper


def test_sparse_input_agrees_with_dense():
    dense_bracket, _ = power_method(PATH_GRAPH)
    sparse_bracket, _ = power_method(sparse.csr_matrix(PATH_GRAPH))
    assert sparse_bracket.lower == dense_bracket.lower
    assert sparse_bracket.upper == dense_bracket.upper


def test_operator_entry_point_matches_the_matrix_path():
    history_matrix, history_operator = [], []
    want, want_vec = power_method(PATH_GRAPH, history=history_matrix)
    got, got_vec = operator_power_method(PATH_GRAPH.__matmul__, PATH_GRAPH.shape[0],
                                         history=history_operator)
    assert got == want
    assert np.array_equal(got_vec, want_vec)
    assert history_operator == history_matrix


def test_repeat_runs_are_bitwise_identical():
    qm = torus_quotient((6,))
    first, _ = power_method(qm.to_dense())
    second, _ = power_method(qm.to_dense())
    assert (first.lower, first.upper, first.rayleigh) == \
        (second.lower, second.upper, second.rayleigh)


def test_unconverged_run_reports_honestly():
    bracket, _ = power_method(PATH_GRAPH, tol=1e-15, max_iter=2)
    assert not bracket.converged
    assert bracket.iterations == 2
    assert bracket.lower <= math.sqrt(2.0) <= bracket.upper


def test_validation_errors():
    with pytest.raises(ValueError):
        power_method(np.ones((2, 3)))
    with pytest.raises(ValueError):
        power_method(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError):
        operator_power_method(PATH_GRAPH.__matmul__, 0)
    with pytest.raises(ValueError):
        power_method(np.ones((2, 2)), max_iter=0)
    with pytest.raises(ValueError):
        operator_power_method(PATH_GRAPH.__matmul__, 3, max_iter=0)
    # a NaN or negative tol never closes the bracket; max_iter keeps a
    # missed rejection short
    for tol in (math.nan, -1.0):
        with pytest.raises(ValueError):
            power_method(np.ones((2, 2)), tol=tol, max_iter=5)
        with pytest.raises(ValueError):
            operator_power_method(PATH_GRAPH.__matmul__, 3, tol=tol, max_iter=5)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("step", [1, 3])
def test_non_finite_product_raises(bad, step):
    # one entry of the product turns non-finite at the given step
    calls = []

    def apply(x):
        calls.append(None)
        y = PATH_GRAPH @ x
        if len(calls) == step:
            y[1] = bad
        return y

    with pytest.raises(ArithmeticError, match="non-finite"):
        operator_power_method(apply, 3, tol=0.0, max_iter=10)
    assert len(calls) == step


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_matrix_entry_raises(bad):
    # on the diagonal, and on the only edge between points 1 and 2
    for i, j in ((1, 1), (1, 2)):
        matrix = PATH_GRAPH.copy()
        matrix[i, j] = matrix[j, i] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            power_method(matrix)


def test_unit_weights_match_the_operator_path_bitwise():
    # the matrix front runs the operator driver on its product.  The
    # dimer-only matrix is reducible, and the operator path given its
    # component labels as sectors takes the same joint steps
    for dimer_only in (False, True):
        table = CoverTable(LatticeShape((3, 2)), SectionKind.TORUS, dimer_only)
        matrix = np.array([[table.entry(s, t) for t in range(table.full + 1)]
                           for s in range(table.full + 1)], dtype=np.float64)
        n_comp, labels = connected_components(matrix, directed=False)
        assert (n_comp > 1) == dimer_only
        history_matrix, history_operator = [], []
        want, want_vec = power_method(matrix, history=history_matrix)
        got, got_vec = operator_power_method(matrix.__matmul__, len(matrix),
                                             history=history_operator,
                                             sectors=labels if dimer_only else None)
        assert want.iterations > 1
        assert got == want
        assert np.array_equal(got_vec, want_vec)
        assert history_operator == history_matrix


def whole_vector_history(apply, size, tol):
    """The steps of `operator_power_method` without sectors, every reduction over the whole vector."""
    x, lower, upper, history = np.ones(size), -math.inf, math.inf, []
    while True:
        y = apply(x) + x * SHIFT
        lower = max(lower, float(np.min(y / x)))
        upper = min(upper, float(np.max(y / x)))
        estimate = min(max(float(np.sum(x * y) / np.sum(x * x)), lower), upper)
        history.append((len(history) + 1, lower - SHIFT, upper - SHIFT, estimate - SHIFT))
        if upper - lower <= tol * max(1.0, abs(estimate)):
            return history
        x = y / math.sqrt(np.sum(y * y))


# 2^15 and 2^16 entries step in two and four blocks of 2^14, the 9-point
# sweep in four blocks of 128; the 8-point quotient has 30 orbits, so it
# runs as one block
@pytest.mark.parametrize("case", ["sweep-15", "sweep-16", "sweep-9-blocks-of-128", "quotient-8"])
def test_blocked_steps_match_whole_vector_reductions_bitwise(monkeypatch, case):
    if case == "quotient-8":
        matrix = torus_quotient((8,)).to_dense()
        apply, size = matrix.__matmul__, len(matrix)
    else:
        n = int(case.split("-")[1])
        if n == 9:
            monkeypatch.setattr(spectral, "_BLOCK", 128)
        size = 1 << n
        apply = SweepOperator(SectionPieces(LatticeShape((n,)), SectionKind.TORUS),
                              (size,), np.float64)
    want = whole_vector_history(apply, size, 1e-12)
    history = []
    bracket, _ = operator_power_method(apply, size, history=history)
    assert bracket.iterations > 1
    assert history == want
