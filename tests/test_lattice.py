import pytest

from mdentropy.lattice import PROTRUDE, TILE, WRAP, CapacityError, LatticeShape, section_geometry


def edges(dims, modes):
    return section_geometry(LatticeShape(dims), modes)[0]


def slots(dims, modes):
    return section_geometry(LatticeShape(dims), modes)[1]


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
    # extents are integers: 4.5 is not truncated to 4
    with pytest.raises(TypeError):
        LatticeShape((4.5,))


def test_box_adjacency_path():
    assert edges((3,), (TILE,)) == ((0, 1, 1), (1, 2, 1))
    assert slots((3,), (TILE,)) == (0, 0, 0)


def test_torus_adjacency_ring():
    assert edges((4,), (WRAP,)) == ((0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1))


def test_torus_extent_two_doubles_edge():
    assert edges((2,), (WRAP,)) == ((0, 1, 2),)
    assert edges((2,), (PROTRUDE,)) == ((0, 1, 1),)


def test_torus_extent_one_has_no_edge():
    assert edges((1,), (WRAP,)) == ()


def test_wrap_first_wraps_only_first_axis():
    pairs = {(i, j) for i, j, _ in edges((3, 3), (WRAP, TILE))}
    assert (0, 2) in pairs      # wrap along axis 1
    assert (0, 6) not in pairs  # no wrap along axis 2
    assert (0, 3) in pairs


def test_wrapping_the_second_direction_only():
    pairs = {(i, j) for i, j, _ in edges((3, 3), (TILE, WRAP))}
    assert (0, 6) in pairs and (0, 2) not in pairs


def test_mixed_square_wraps_one_direction_and_protrudes_through_the_other():
    # points 0-2 form the first row; the second direction's faces are rows 1 and 3
    edge_list, slot_list = section_geometry(LatticeShape((3, 3)), (WRAP, PROTRUDE))
    assert edge_list == ((0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1),
                         (3, 4, 1), (3, 5, 1), (3, 6, 1), (4, 5, 1), (4, 7, 1), (5, 8, 1),
                         (6, 7, 1), (6, 8, 1), (7, 8, 1))
    assert slot_list == (1, 1, 1, 0, 0, 0, 1, 1, 1)


def test_grid_edge_count():
    assert len(edges((4, 4), (TILE, TILE))) == 2 * 3 * 4
    assert len(edges((4, 4), (WRAP, WRAP))) == 2 * 4 * 4


def test_protrusion_slots_line():
    assert slots((4,), (PROTRUDE,)) == (1, 0, 0, 1)
    assert edges((4,), (PROTRUDE,)) == ((0, 1, 1), (1, 2, 1), (2, 3, 1))


def test_protrusion_slots_extent_one_gets_both_faces():
    assert slots((1, 3), (PROTRUDE, TILE)) == (2, 2, 2)
    assert section_geometry(LatticeShape((1,)), (PROTRUDE,)) == ((), (2,))


def test_protrusion_slots_square_all_directions():
    # corners protrude through two faces, edge midpoints through one
    assert slots((3, 3), (PROTRUDE, PROTRUDE)) == (2, 1, 2, 1, 0, 1, 2, 1, 2)


def test_protrusion_slots_validates_direction():
    # a mode for a direction the shape does not have
    with pytest.raises(ValueError, match="directions"):
        section_geometry(LatticeShape((3,)), (TILE, PROTRUDE))


@pytest.mark.parametrize("modes", [(), (WRAP,), (TILE, WRAP, TILE), ("periodic", TILE),
                                   (None, TILE), "tw"],
                         ids=["none", "short", "long", "named", "not-a-mode", "string"])
def test_modes_are_validated(modes):
    with pytest.raises(ValueError, match="directions"):
        section_geometry(LatticeShape((3, 2)), modes)
