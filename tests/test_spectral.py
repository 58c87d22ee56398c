import math

import numpy as np
import pytest
from scipy import sparse

from mdentropy.lattice import LatticeShape
from mdentropy.matchcount import CoverTable, SectionKind
from mdentropy.spectral import operator_power_method, power_method
from mdentropy.symmetry import compute_orbits, generate_motion_group
from mdentropy.transfer import build_quotient

PATH_GRAPH = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def torus_quotient(dims):
    shape = LatticeShape(dims)
    table = CoverTable(shape, SectionKind.TORUS)
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


@pytest.mark.parametrize("shift", [0.5, 1.0, 2.0])
def test_shift_does_not_move_the_radius(shift):
    bracket, _ = power_method(PATH_GRAPH, shift=shift)
    assert bracket.shift == shift
    assert abs(bracket.rayleigh - math.sqrt(2.0)) <= 1e-11


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
    qm = torus_quotient((6,))
    bracket, _ = power_method(qm.to_dense(), qm.weight_vector())
    d = np.sqrt(qm.weight_vector())
    sym = qm.to_dense() * d[:, None] / d[None, :]
    top = float(np.linalg.eigvalsh(sym)[-1])
    assert bracket.converged
    assert bracket.lower - 1e-12 <= top <= bracket.upper + 1e-12


def test_four_ring_radius_value():
    qm = torus_quotient((4,))
    bracket, _ = power_method(qm.to_dense(), qm.weight_vector())
    assert bracket.converged
    assert bracket.lower <= bracket.rayleigh <= bracket.upper
    assert abs(math.log(bracket.rayleigh) - 2.6532941163) <= 1e-9


def test_history_brackets_are_monotone():
    qm = torus_quotient((5,))
    history = []
    bracket, _ = power_method(qm.to_dense(), qm.weight_vector(), history=history)
    assert history
    by_component = {}
    for component, iteration, lower, upper, rayleigh in history:
        slack = 1e-11 * max(1.0, abs(rayleigh))
        assert lower - slack <= rayleigh <= upper + slack
        prev = by_component.get(component)
        if prev is not None:
            assert iteration == prev[0] + 1
            assert lower >= prev[1]
            assert upper <= prev[2]
        by_component[component] = (iteration, lower, upper)
    final = by_component[max(by_component)]
    assert final[1] == bracket.lower
    assert final[2] == bracket.upper


def test_reducible_matrix_takes_componentwise_maximum():
    matrix = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    bracket, vector = power_method(matrix)
    assert bracket.converged
    assert bracket.lower <= 3.0 <= bracket.upper
    assert bracket.width <= 1e-12
    # the returned vector lives on the dominant component
    assert vector[2] > 0
    assert vector[0] == vector[1] == 0.0


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
    first, _ = power_method(qm.to_dense(), qm.weight_vector())
    second, _ = power_method(qm.to_dense(), qm.weight_vector())
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
        power_method(np.ones((2, 2)), shift=0.0)
    with pytest.raises(ValueError):
        power_method(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError):
        power_method(np.ones((2, 2)), weights=np.ones(3))
    with pytest.raises(ValueError):
        power_method(np.ones((2, 2)), weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        operator_power_method(PATH_GRAPH.__matmul__, 0)
    with pytest.raises(ValueError):
        operator_power_method(PATH_GRAPH.__matmul__, 3, shift=-1.0)
