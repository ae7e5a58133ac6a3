import numpy as np
import pytest
from hypothesis import given, strategies as st

from hmimo.geometry import SurfaceGeometry, relative_grid, rx_centers, tx_offsets


@pytest.fixture
def geom():
    return SurfaceGeometry(10, 10, 5, 5, 0.05, 0.05, 0.01, 0.01)


def enumerate_centers(rows, cols, dx, dy, origin=(0.0, 0.0, 0.0)):
    """Independent oracle: walk the grid row by row."""
    out = []
    for r in range(rows):
        for c in range(cols):
            out.append((origin[0] + c * dx, origin[1] + r * dy, origin[2]))
    return np.array(out)


def test_first_rx_patch_at_origin(geom):
    assert np.array_equal(rx_centers(geom)[0], [0.0, 0.0, 0.0])


def test_second_rx_patch_one_column_step(geom):
    assert np.allclose(rx_centers(geom)[1], [0.05, 0.0, 0.0])


def test_row_major_wrap(geom):
    # patch 11 on a 10x10 grid starts the second row
    expected = enumerate_centers(10, 10, 0.05, 0.05)[10]
    assert np.allclose(rx_centers(geom)[10], expected)
    assert np.allclose(rx_centers(geom)[10], [0.0, 0.05, 0.0])


def test_all_centers_match_enumeration(geom):
    oracle = enumerate_centers(10, 10, 0.05, 0.05)
    got = rx_centers(geom)
    assert got.shape == (100, 3)
    assert np.allclose(got, oracle)
    assert len({tuple(row) for row in got}) == 100


def test_patch_offset_trivial(geom):
    off = tx_offsets(geom)
    assert off.shape == (25, 2)
    assert np.array_equal(off[0], [0.0, 0.0])
    assert off[1, 0] == pytest.approx(0.01)
    assert off[1, 1] == 0.0


def test_patch_offset_row_wrap(geom):
    # 5x5 tx grid: patch 6 wraps to the second row
    off = tx_offsets(geom)
    assert off[5, 0] == 0.0
    assert off[5, 1] == pytest.approx(0.01)
    # oracle: enumerate the grid row-major
    assert np.allclose(off, enumerate_centers(5, 5, 0.01, 0.01)[:, :2])


def test_rectangular_grids_are_row_major():
    geom = SurfaceGeometry(2, 3, 3, 2, 0.05, 0.04, 0.01, 0.02)
    assert np.allclose(rx_centers(geom), enumerate_centers(2, 3, 0.05, 0.04))
    assert np.allclose(tx_offsets(geom),
                       enumerate_centers(3, 2, 0.01, 0.02)[:, :2])


def test_relative_coords_trivial(geom):
    rel = relative_grid(geom, (0.3, -0.2, 25.0))
    assert rel[0, 0] == pytest.approx((0.3, -0.2, 25.0))
    assert rel[1, 0] == pytest.approx((0.31, -0.2, 25.0))   # tx patch 2
    assert rel[0, 1] == pytest.approx((0.25, -0.2, 25.0))   # rx patch 2


@given(st.integers(1, 100), st.integers(1, 25))
def test_relative_coords_consistency(m, n):
    geom = SurfaceGeometry(10, 10, 5, 5, 0.05, 0.05, 0.01, 0.01)
    p1 = (0.3, -0.2, 25.0)
    # tx patch n sits at p1 plus its offset; rx patch m at its center
    ct = enumerate_centers(5, 5, 0.01, 0.01, origin=p1)[n - 1]
    cr = enumerate_centers(10, 10, 0.05, 0.05)[m - 1]
    x, y, z = relative_grid(geom, p1)[n - 1, m - 1]
    assert x == pytest.approx(ct[0] - cr[0])
    assert y == pytest.approx(ct[1] - cr[1])
    assert z == p1[2]
    # offset identity: tx center = p1 + offset in x and y
    off = tx_offsets(geom)[n - 1]
    assert ct[0] == pytest.approx(p1[0] + off[0])
    assert ct[1] == pytest.approx(p1[1] + off[1])


def test_vectorized_helpers_agree(geom):
    p1 = (0.3, -0.2, 25.0)
    rel = relative_grid(geom, p1)
    assert rel.shape == (25, 100, 3)
    # relative-coordinate identity: tx position minus rx center
    tx = np.asarray(p1) + np.column_stack([tx_offsets(geom), np.zeros(25)])
    assert np.allclose(rel, tx[:, None, :] - rx_centers(geom)[None, :, :])
    # a stack of locations gives one grid per location
    stack = np.array([p1, (-0.1, 0.4, 31.0)])
    rels = relative_grid(geom, stack)
    assert rels.shape == (2, 25, 100, 3)
    assert np.array_equal(rels[0], rel)
    assert np.array_equal(rels[1], relative_grid(geom, stack[1]))


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SurfaceGeometry(0, 10, 5, 5, 0.05, 0.05, 0.01, 0.01)
    with pytest.raises(ValueError):
        SurfaceGeometry(10, 10, 5, 5, -0.05, 0.05, 0.01, 0.01)
