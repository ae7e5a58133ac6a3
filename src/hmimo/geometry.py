"""Patch-grid geometry for planar transmit/receive surfaces.

Both surfaces are rectangular grids of antenna patches, numbered 1-based
row by row (row-major).  The receive surface lies in the z=0 plane with
the first patch centered at the origin; the transmit surface is parallel
to it at z > 0, anchored by the center of its first patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SurfaceGeometry:
    """Grid dimensions and patch sizes (meters) of both surfaces."""

    rx_rows: int
    rx_cols: int
    tx_rows: int
    tx_cols: int
    rx_dx: float
    rx_dy: float
    tx_dx: float
    tx_dy: float

    def __post_init__(self):
        for name in ("rx_rows", "rx_cols", "tx_rows", "tx_cols"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in ("rx_dx", "rx_dy", "tx_dx", "tx_dy"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v!r}")

    @property
    def m_patches(self) -> int:
        """Number of receive patches M."""
        return self.rx_rows * self.rx_cols

    @property
    def n_patches(self) -> int:
        """Number of transmit patches N."""
        return self.tx_rows * self.tx_cols


@dataclass(frozen=True)
class PatchOffset:
    """Deterministic (dx, dy) of a transmit patch relative to the first one."""

    dx: float
    dy: float


def _grid_col_row(index: int, cols: int, count: int) -> tuple[int, int]:
    """1-based (column, row) of a patch under row-major numbering."""
    if not 1 <= index <= count:
        raise IndexError(f"patch index {index} out of range 1..{count}")
    col = (index - 1) % cols + 1
    row = (index - 1) // cols + 1
    return col, row


def patch_offset(n: int, geom: SurfaceGeometry) -> PatchOffset:
    """Offset of transmit patch n from transmit patch 1 (both >= 0)."""
    col, row = _grid_col_row(n, geom.tx_cols, geom.n_patches)
    return PatchOffset((col - 1) * geom.tx_dx, (row - 1) * geom.tx_dy)


def patch_center(index: int, side: str, geom: SurfaceGeometry, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Center coordinates of a patch.

    ``side`` is "rx" or "tx"; ``origin`` is the center of the first patch
    of that surface (the receive surface origin is (0,0,0) by convention).
    The z coordinate is origin's z for every patch of the surface.
    """
    if side == "rx":
        cols, count, dx, dy = geom.rx_cols, geom.m_patches, geom.rx_dx, geom.rx_dy
    elif side == "tx":
        cols, count, dx, dy = geom.tx_cols, geom.n_patches, geom.tx_dx, geom.tx_dy
    else:
        raise ValueError(f"side must be 'rx' or 'tx', got {side!r}")
    col, row = _grid_col_row(index, cols, count)
    ox, oy, oz = origin
    return np.array([ox + (col - 1) * dx, oy + (row - 1) * dy, oz])


def relative_coords(m: int, n: int, geom: SurfaceGeometry, p1) -> tuple[float, float, float]:
    """Relative coordinates (x_mn, y_mn, z_mn) of tx patch n seen from rx patch m.

    ``p1`` is the center of the first transmit patch; the z component of
    the result is p1's z because the receive surface sits at z = 0.
    """
    ct = patch_center(n, "tx", geom, origin=p1)
    cr = patch_center(m, "rx", geom)
    return ct[0] - cr[0], ct[1] - cr[1], float(p1[2])


def rx_centers(geom: SurfaceGeometry) -> np.ndarray:
    """All M receive patch centers as an (M, 3) array, row-major order."""
    cols = np.arange(geom.rx_cols)
    rows = np.arange(geom.rx_rows)
    cgrid, rgrid = np.meshgrid(cols, rows)  # row-major: row varies slowest
    out = np.zeros((geom.m_patches, 3))
    out[:, 0] = cgrid.ravel() * geom.rx_dx
    out[:, 1] = rgrid.ravel() * geom.rx_dy
    return out


def tx_offsets(geom: SurfaceGeometry) -> np.ndarray:
    """All N transmit patch offsets from patch 1 as an (N, 2) array."""
    cols = np.arange(geom.tx_cols)
    rows = np.arange(geom.tx_rows)
    cgrid, rgrid = np.meshgrid(cols, rows)
    out = np.zeros((geom.n_patches, 2))
    out[:, 0] = cgrid.ravel() * geom.tx_dx
    out[:, 1] = rgrid.ravel() * geom.tx_dy
    return out


def relative_grid(geom: SurfaceGeometry, p1) -> np.ndarray:
    """Relative coordinates for every (n, m) pair, shaped (N, M, 3).

    ``p1`` may also be a stack of locations (..., 3), which gives one grid
    per location, shaped (..., N, M, 3).
    """
    p1 = np.asarray(p1, dtype=float)
    rx = rx_centers(geom)                      # (M, 3)
    off = tx_offsets(geom)                     # (N, 2)
    n_, m_ = geom.n_patches, geom.m_patches
    out = np.empty(p1.shape[:-1] + (n_, m_, 3))
    out[..., 0] = (p1[..., 0, None] + off[:, 0])[..., :, None] - rx[:, 0]
    out[..., 1] = (p1[..., 1, None] + off[:, 1])[..., :, None] - rx[:, 1]
    out[..., 2] = p1[..., 2, None, None]
    return out
