"""Exact near-field channel oracle built on the dyadic Green's function.

The per-patch-pair channel is a symmetric 3x3 complex block obtained by
integrating the dyadic Green's function over both patch areas, scaled by
the i*omega*mu prefactor; it is carried as its six independent
components, which ``stacked_pairs`` lays out as the stacked (6N, M)
channel.  The integrand depends on the two patch points only
through their difference, so the area integral is computed as a 2-D
Gauss-Legendre rule over that difference, weighted by its trapezoid
density.  A closed-form sinc approximation of the same block is provided
as a baseline, together with a field-dump helper for channel-surface
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hmimo.geometry import SurfaceGeometry, relative_grid

C0 = 299792458.0          # vacuum speed of light, m/s
MU0 = 4e-7 * np.pi        # vacuum permeability, H/m

# Stacking order of the six independent polarization components, their
# (row, column) inside a symmetric 3x3 block, and the component index of
# every entry of that block.
POLARIZATIONS = ("xx", "yy", "zz", "xy", "xz", "yz")
_POL_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_BLOCK_IDX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])

# Quadrature nodes per chunk of ``patch_channel_batch`` (one row at least).
# The kernel keeps about twenty float arrays of this length alive, so a
# chunk works in about 10 MB whatever the batch size.
_CHUNK_NODES = 1 << 16


class SingularityError(ValueError):
    """Raised when a Green's function is evaluated at zero separation, or
    integrated over coplanar patches whose footprints overlap."""


@dataclass(frozen=True)
class WaveConfig:
    """Carrier frequency and derived wave quantities."""

    frequency: float

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def prefactor(self) -> complex:
        """i * omega * mu0 with omega = 2*pi*f."""
        return 1j * 2.0 * np.pi * self.frequency * MU0


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1/2, 1/2], one axis."""

    order: int
    nodes: np.ndarray = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("quadrature order must be >= 2")
        x, w = np.polynomial.legendre.leggauss(self.order)
        object.__setattr__(self, "nodes", 0.5 * x)
        object.__setattr__(self, "weights", 0.5 * w)  # sum to 1 on the unit interval


def scalar_green(rt, rr, wave: WaveConfig):
    """exp(i k0 r) / (4 pi r) between source rt and observation rr."""
    d = np.asarray(rt, dtype=float) - np.asarray(rr, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise SingularityError("scalar Green's function evaluated at zero distance")
    return np.exp(1j * wave.wavenumber * r) / (4.0 * np.pi * r)


def _dyadic_from_displacement(d: np.ndarray, k0: float) -> np.ndarray:
    """Dyadic Green's function for displacement vectors d, shape (..., 3) -> (..., 3, 3).

    Excludes the i*omega*mu prefactor (applied at patch level).
    """
    r = np.asarray(np.linalg.norm(d, axis=-1))
    if np.any(r == 0.0):
        raise SingularityError("dyadic Green's function evaluated at zero distance")
    kr = k0 * r
    c1 = np.asarray(1.0 + 1j / kr - 1.0 / kr**2)
    c2 = np.asarray(3.0 / kr**2 - 3j / kr - 1.0)
    g = np.asarray(np.exp(1j * kr) / (4.0 * np.pi * r))
    rhat = d / r[..., None]
    outer = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(3)
    return g[..., None, None] * (c1[..., None, None] * eye + c2[..., None, None] * outer)


def dyadic_green(rt, rr, wave: WaveConfig) -> np.ndarray:
    """3x3 dyadic Green's function between rt and rr (no i*omega*mu prefactor)."""
    d = np.asarray(rt, dtype=float) - np.asarray(rr, dtype=float)
    return _dyadic_from_displacement(d, wave.wavenumber)


def _offset_axis(a: float, b: float, quad: QuadratureRule):
    """Nodes and weights on one axis for the offset u = t - r of two points
    spread uniformly over widths a (tx) and b (rx).

    The overlap length of the two intervals at offset u is the trapezoid
    rho(u) = min(a, b, (a + b)/2 - |u|) on |u| <= (a + b)/2: flat for
    |u| <= |a - b|/2, linear on either flank.  The Gauss-Legendre rule is
    applied on each linear piece (equal widths have no flat piece) and
    weighted by rho, so the weights sum to a * b.
    """
    edges = (-(a + b) / 2, -abs(a - b) / 2, abs(a - b) / 2, (a + b) / 2)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            u = 0.5 * (lo + hi) + (hi - lo) * quad.nodes
            rho = np.minimum(min(a, b), (a + b) / 2 - np.abs(u))
            nodes.append(u)
            weights.append((hi - lo) * quad.weights * rho)
    return np.concatenate(nodes), np.concatenate(weights)


def _quad_offsets(geom: SurfaceGeometry, quad: QuadratureRule):
    """2-D nodes over the tx-minus-rx point offset of a patch pair.

    The integrand depends on the tx and rx points only through their
    difference, so the 4-D area integral reduces to a 2-D one over that
    difference, weighted by the overlap density (see ``_offset_axis``):
    at most (3q)^2 nodes per pair for a rule of order q.  Returns
    displacement offsets (Q, 3) to add to the relative patch-center
    vector, and the weights (Q,) carrying the full area measure.
    """
    ux, wx = _offset_axis(geom.tx_dx, geom.rx_dx, quad)
    uy, wy = _offset_axis(geom.tx_dy, geom.rx_dy, quad)
    gx, gy = np.meshgrid(ux, uy, indexing="ij")
    offs = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=-1)
    return offs, np.outer(wx, wy).ravel()


def _component_sums(d: np.ndarray, w4: np.ndarray, k0: float) -> np.ndarray:
    """Six block components (b, 6), without the prefactor, of the weighted
    dyads at displacements d (b, Q, 3) summed over the Q nodes.

    A function of its own so that the chunk's temporaries are freed before
    the next chunk or the caller's final gather allocates.
    """
    r2 = d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2
    if np.any(r2 == 0.0):
        raise SingularityError("dyadic Green's function evaluated at zero distance")
    r = np.sqrt(r2)
    kr = k0 * r
    s = w4 / r
    g_re, g_im = s * np.cos(kr), s * np.sin(kr)               # w * g
    # c1 = 1 - u^2 + i u and c2 = 3 u^2 - 1 - 3 i u with u = 1 / (k0 r)
    u = 1.0 / kr
    u2 = u * u
    c1_re, c2_re = 1.0 - u2, 3.0 * u2 - 1.0
    diag = ((g_re * c1_re - g_im * u).sum(axis=1)
            + 1j * (g_im * c1_re + g_re * u).sum(axis=1))
    b_re = (g_re * c2_re + 3.0 * g_im * u) / r2                # w g c2 / r^2
    b_im = (g_im * c2_re - 3.0 * g_re * u) / r2
    out = np.empty((d.shape[0], 6), dtype=complex)
    for k, (p, q) in enumerate(_POL_PAIRS):
        dd = d[..., p] * d[..., q]
        out[:, k] = (np.einsum("bq,bq->b", b_re, dd)
                     + 1j * np.einsum("bq,bq->b", b_im, dd)
                     + (diag if p == q else 0.0))
    return out


def patch_channel_batch(rel: np.ndarray, geom: SurfaceGeometry, wave: WaveConfig,
                        quad: QuadratureRule) -> np.ndarray:
    """Quadrature channel for a batch of relative center coordinates.

    ``rel`` has shape (K, 3); returns the six components (K, 6) of each
    pair's symmetric block, in ``POLARIZATIONS`` order and including the
    i*omega*mu prefactor.  They are accumulated directly,
    g*w*(c1*delta_pq + c2*d_p*d_q/r^2) summed over the nodes, in real
    arithmetic; rows are taken _CHUNK_NODES quadrature nodes at a time to
    bound memory.
    """
    rel = np.atleast_2d(np.asarray(rel, dtype=float))
    # coplanar patches whose footprints overlap: the integral diverges
    overlap = ((rel[:, 2] == 0.0)
               & (np.abs(rel[:, 0]) < (geom.tx_dx + geom.rx_dx) / 2)
               & (np.abs(rel[:, 1]) < (geom.tx_dy + geom.rx_dy) / 2))
    if np.any(overlap):
        raise SingularityError("coplanar patches with overlapping footprints")
    offs, w = _quad_offsets(geom, quad)
    w4 = w / (4.0 * np.pi)
    k0 = wave.wavenumber
    comps = np.empty((rel.shape[0], 6), dtype=complex)
    step = max(1, _CHUNK_NODES // offs.shape[0])
    for i in range(0, rel.shape[0], step):
        comps[i:i + step] = _component_sums(rel[i:i + step, None, :] + offs, w4, k0)
    return wave.prefactor * comps


def _pair_coords(m: int, n: int, geom: SurfaceGeometry, p1) -> np.ndarray:
    """Relative coordinates (3,) of tx patch n seen from rx patch m, 1-based."""
    if not (1 <= m <= geom.m_patches and 1 <= n <= geom.n_patches):
        raise IndexError(f"patch pair (m={m}, n={n}) out of range "
                         f"1..{geom.m_patches} x 1..{geom.n_patches}")
    return relative_grid(geom, p1)[n - 1, m - 1]


def patch_channel(m: int, n: int, geom: SurfaceGeometry, p1, wave: WaveConfig,
                  quad: QuadratureRule) -> np.ndarray:
    """3x3 channel block between rx patch m and tx patch n by quadrature."""
    return patch_channel_batch(_pair_coords(m, n, geom, p1)[None, :], geom,
                               wave, quad)[0][_BLOCK_IDX]


def approx_channel_batch(rel: np.ndarray, geom: SurfaceGeometry, wave: WaveConfig) -> np.ndarray:
    """Closed-form sinc approximation for relative coordinates (K, 3): the
    six components (K, 6), c1*delta_pq + c2*rhat_p*rhat_q times the scale."""
    rel = np.atleast_2d(np.asarray(rel, dtype=float))
    k0 = wave.wavenumber
    r = np.linalg.norm(rel, axis=-1)
    area_t = geom.tx_dx * geom.tx_dy
    area_r = geom.rx_dx * geom.rx_dy
    # unnormalized sinc(u) = sin(u)/u; np.sinc is sin(pi u)/(pi u)
    sx = np.sinc(k0 * (-rel[:, 0]) * geom.tx_dx / (2.0 * r) / np.pi)
    sy = np.sinc(k0 * (-rel[:, 1]) * geom.tx_dy / (2.0 * r) / np.pi)
    g = np.exp(1j * k0 * r) / (4.0 * np.pi * r)
    kr = k0 * r
    c1 = 1.0 + 1j / kr - 1.0 / kr**2
    c2 = 3.0 / kr**2 - 3j / kr - 1.0
    rhat = rel / r[:, None]
    p, q = np.array(_POL_PAIRS).T
    comps = c2[:, None] * (rhat[:, p] * rhat[:, q])
    comps[:, :3] += c1[:, None]
    scale = wave.prefactor * area_t * area_r * g * sx * sy
    return scale[:, None] * comps


def approx_channel(m: int, n: int, geom: SurfaceGeometry, p1, wave: WaveConfig) -> np.ndarray:
    """Closed-form 3x3 channel block between rx patch m and tx patch n."""
    return approx_channel_batch(_pair_coords(m, n, geom, p1)[None, :], geom,
                                wave)[0][_BLOCK_IDX]


@dataclass(frozen=True)
class ChannelTensor:
    """The channel H in C^{6N x M}, in the layout of ``stacked_pairs``."""

    stacked: np.ndarray


def stacked_pairs(pair_fn, geom: SurfaceGeometry, p1):
    """``pair_fn`` on every patch pair at p1, in the stacked layout.

    ``pair_fn`` maps relative coordinates (K, 3) to the six components
    (K, 6, ...) in ``POLARIZATIONS`` order, or to a tuple of such arrays;
    trailing axes are derivative axes.  ``p1`` is one location (3,) or a
    stack of them (..., 3).  Each output comes back as (..., 6N, M, ...),
    row k*N + n - 1 and column m - 1 holding component k of pair (n, m).
    """
    rel = relative_grid(geom, p1)                  # (..., N, M, 3)
    parts = pair_fn(rel.reshape(-1, 3))
    single = not isinstance(parts, tuple)
    lead, (n, m) = rel.shape[:-3], rel.shape[-3:-1]
    k = len(lead)
    out = tuple(np.moveaxis(a.reshape(lead + (n, m) + a.shape[1:]), k + 2, k)
                .reshape(lead + (6 * n, m) + a.shape[2:])
                for a in ((parts,) if single else parts))
    return out[0] if single else out


def full_channel(geom: SurfaceGeometry, p1, wave: WaveConfig,
                 quad: QuadratureRule) -> ChannelTensor:
    """Quadrature channel for all patch pairs."""
    return ChannelTensor(stacked_pairs(
        lambda rel: patch_channel_batch(rel, geom, wave, quad), geom, p1))


def field_dump(geom: SurfaceGeometry, wave: WaveConfig, quad: QuadratureRule,
               fixed_axis: str, fixed_value: float,
               sweep1: tuple, sweep2: tuple, resolution: tuple) -> np.ndarray:
    """Grid of the (1,1) xx channel component over a plane of p1 positions.

    ``fixed_axis`` in {"x","y","z"} pins one coordinate of the first transmit
    patch; the remaining two sweep linearly over ``sweep1``/``sweep2`` with
    ``resolution = (n1, n2)`` points.  Returns a structured record per grid
    point with the raw value and the value de-rotated by exp(i k0 r).
    """
    axes = [a for a in "xyz" if a != fixed_axis]
    if len(axes) != 2:
        raise ValueError(f"fixed_axis must be one of x, y, z, got {fixed_axis!r}")
    n1, n2 = resolution
    v1 = np.linspace(sweep1[0], sweep1[1], n1)
    v2 = np.linspace(sweep2[0], sweep2[1], n2)
    g1, g2 = np.meshgrid(v1, v2, indexing="ij")
    coords = {fixed_axis: np.full(n1 * n2, float(fixed_value)),
              axes[0]: g1.ravel(), axes[1]: g2.ravel()}
    rel = np.stack([coords["x"], coords["y"], coords["z"]], axis=-1)
    raw = patch_channel_batch(rel, geom, wave, quad)[:, 0]
    r = np.linalg.norm(rel, axis=-1)
    derot = raw * np.exp(-1j * wave.wavenumber * r)
    out = np.empty(n1 * n2, dtype=[("x", float), ("y", float), ("z", float),
                                   ("re_raw", float), ("im_raw", float),
                                   ("re_derot", float), ("im_derot", float)])
    out["x"], out["y"], out["z"] = rel[:, 0], rel[:, 1], rel[:, 2]
    out["re_raw"], out["im_raw"] = raw.real, raw.imag
    out["re_derot"], out["im_derot"] = derot.real, derot.imag
    return out.reshape(n1, n2)


def write_field_dump_csv(path, dump: np.ndarray) -> None:
    """Write a field dump grid as CSV with >= 15 significant digits."""
    np.savetxt(path, dump.ravel(), fmt="%.17g", delimiter=",",
               header=",".join(dump.dtype.names), comments="")
