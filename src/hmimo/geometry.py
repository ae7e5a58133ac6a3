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


def _patch_grid(rows: int, cols: int, dx: float, dy: float) -> np.ndarray:
    """(x, y) of every patch of a rows x cols grid from its first, row-major."""
    cgrid, rgrid = np.meshgrid(np.arange(cols), np.arange(rows))  # row varies slowest
    return np.column_stack([cgrid.ravel() * dx, rgrid.ravel() * dy])


def rx_centers(geom: SurfaceGeometry) -> np.ndarray:
    """All M receive patch centers as an (M, 3) array, row-major order."""
    xy = _patch_grid(geom.rx_rows, geom.rx_cols, geom.rx_dx, geom.rx_dy)
    return np.column_stack([xy, np.zeros(geom.m_patches)])


def tx_offsets(geom: SurfaceGeometry) -> np.ndarray:
    """All N transmit patch offsets from patch 1 as an (N, 2) array."""
    return _patch_grid(geom.tx_rows, geom.tx_cols, geom.tx_dx, geom.tx_dy)


def relative_grid(geom: SurfaceGeometry, p1) -> np.ndarray:
    """Relative coordinates for every (n, m) pair, shaped (N, M, 3).

    ``p1`` may also be a stack of locations (..., 3), which gives one grid
    per location, shaped (..., N, M, 3).
    """
    p1 = np.asarray(p1, dtype=float)
    rx = rx_centers(geom)                      # (M, 3)
    off = tx_offsets(geom)                     # (N, 2)
    out = np.empty(p1.shape[:-1] + (geom.n_patches, geom.m_patches, 3))
    out[..., 0] = (p1[..., 0, None] + off[:, 0])[..., :, None] - rx[:, 0]
    out[..., 1] = (p1[..., 1, None] + off[:, 1])[..., :, None] - rx[:, 1]
    out[..., 2] = p1[..., 2, None, None]
    return out
