import pytest

from mdentropy.lattice import (
    Adjacency,
    CapacityError,
    LatticeShape,
    build_adjacency,
    protrusion_slots,
)


def test_point_coords_first_coordinate_fastest():
    shape = LatticeShape((3, 2))
    assert [shape.point_coords(i) for i in range(shape.n)] == \
        [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]


@pytest.mark.parametrize("dims", [(4,), (3, 2), (2, 3, 2), (1, 5)])
def test_index_coords_roundtrip(dims):
    # the index is sum_k (c_k - 1) * stride_k
    shape = LatticeShape(dims)
    for index in range(shape.n):
        coords = shape.point_coords(index)
        assert all(1 <= c <= m for c, m in zip(coords, dims))
        assert sum((c - 1) * s for c, s in zip(coords, shape.strides())) == index


def test_shape_validation():
    with pytest.raises(ValueError):
        LatticeShape(())
    with pytest.raises(ValueError):
        LatticeShape((3, 0))
    with pytest.raises(CapacityError):
        LatticeShape((65,))
    with pytest.raises(ValueError):
        LatticeShape((4,)).point_coords(4)


def test_box_adjacency_path():
    adj = build_adjacency(LatticeShape((3,)), ())
    assert adj.edges == ((0, 1, 1), (1, 2, 1))


def test_torus_adjacency_ring():
    adj = build_adjacency(LatticeShape((4,)), [1])
    assert adj.edges == ((0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1))


def test_torus_extent_two_doubles_edge():
    adj = build_adjacency(LatticeShape((2,)), [1])
    assert adj.edges == ((0, 1, 2),)


def test_torus_extent_one_has_no_edge():
    adj = build_adjacency(LatticeShape((1,)), [1])
    assert adj.edges == ()


def test_wrap_first_wraps_only_first_axis():
    adj = build_adjacency(LatticeShape((3, 3)), [1])
    pairs = {(i, j) for i, j, _ in adj.edges}
    assert (0, 2) in pairs      # wrap along axis 1
    assert (0, 6) not in pairs  # no wrap along axis 2
    assert (0, 3) in pairs
    assert adj.wrapped == (1,)


def test_wrapping_the_second_direction_only():
    adj = build_adjacency(LatticeShape((3, 3)), [2])
    pairs = {(i, j) for i, j, _ in adj.edges}
    assert (0, 6) in pairs and (0, 2) not in pairs
    assert adj.wrapped == (2,)


def test_wrapped_directions_are_validated_like_protrusion_directions():
    shape = LatticeShape((3, 2))
    assert build_adjacency(shape, [2, 1, 2]).wrapped == (1, 2)
    assert build_adjacency(shape, range(1, 3)) == build_adjacency(shape, (1, 2))
    for directions in ([0], [3], [1, 3]):
        with pytest.raises(ValueError, match="direction"):
            build_adjacency(shape, directions)
        with pytest.raises(ValueError, match="direction"):
            protrusion_slots(shape, directions)


def test_grid_edge_count():
    adj = build_adjacency(LatticeShape((4, 4)), ())
    assert len(adj.edges) == 2 * 3 * 4
    torus = build_adjacency(LatticeShape((4, 4)), [1, 2])
    assert len(torus.edges) == 2 * 4 * 4


def test_neighbor_lists_are_symmetric():
    adj = build_adjacency(LatticeShape((3, 2)), [1, 2])
    nbr = adj.neighbor_lists()
    for i, j, mult in adj.edges:
        assert (j, mult) in nbr[i]
        assert (i, mult) in nbr[j]


def test_protrusion_slots_line():
    shape = LatticeShape((4,))
    assert protrusion_slots(shape, [1]) == (1, 0, 0, 1)


def test_protrusion_slots_extent_one_gets_both_faces():
    shape = LatticeShape((1, 3))
    assert protrusion_slots(shape, [1]) == (2, 2, 2)


def test_protrusion_slots_square_all_directions():
    shape = LatticeShape((3, 3))
    slots = protrusion_slots(shape, [1, 2])
    # corners protrude through two faces, edge midpoints through one
    assert slots == (2, 1, 2, 1, 0, 1, 2, 1, 2)


def test_protrusion_slots_validates_direction():
    with pytest.raises(ValueError):
        protrusion_slots(LatticeShape((3,)), [2])


def test_adjacency_is_frozen():
    adj = build_adjacency(LatticeShape((2,)), ())
    assert isinstance(adj, Adjacency)
    with pytest.raises(AttributeError):
        adj.n = 5
