"""Exact near-field channel oracle built on the dyadic Green's function.

The per-patch-pair channel is a symmetric 3x3 complex block obtained by
integrating the dyadic Green's function over both patch areas, scaled by
the i*omega*mu prefactor; it is carried as its six independent
components, which ``pairs_to_stacked`` lays out as the stacked (6N, M)
channel.  The integrand depends on the two patch points only
through their difference, so the area integral is computed as a 2-D
Gauss-Legendre rule over that difference, weighted by its trapezoid
density.  The rule is a tensor grid in x and y, so each node needs only
two scalars, w*g*c1 and w*g*c2/r^2, and its carrier exp(i*k0*r) comes
from one tangent of half the phase; one GEMM with the moments
(1, ox, oy, ox^2, oy^2, ox*oy) of the node offsets then sums all six
components.  A closed-form sinc approximation of the same block is
provided as a baseline, together with a field-dump helper for
channel-surface plots.
"""

from __future__ import annotations

import math
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
# Its workspace is eight float arrays of this length, 2.0 MB, allocated once
# per call whatever the batch size.  On a 2-core Xeon (2 MB L2 per core),
# 1 << 15 ran 15-30 % faster than 1 << 16 and as fast as 1 << 14 on
# order-4 and order-8 batches of 2,500 paper pairs.  1 << 14 is as fast, but glibc
# then sets its mmap threshold to the 1 MB freed, and each 16-chain ci trial of a
# process that loads its weights pages its arrays in anew (+50 % CPU).
_CHUNK_NODES = 1 << 15


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


def _component_sums(c: np.ndarray, ux: np.ndarray, uy: np.ndarray, w4: np.ndarray,
                    mom: np.ndarray, k0: float, ws: np.ndarray, out: np.ndarray) -> None:
    """Six block components, without the prefactor, of the weighted dyads
    at displacements c + o summed over the nodes o, written to out (b, 6).

    ``c`` holds the b relative centers (b, 3); the nodes are the tensor grid
    ux (nx,) times uy (ny,) at o_z = 0, flattened with ux outermost, with
    weights w4 (Q,) and moments mom (Q, 6) = (1, ox, oy, ox^2, oy^2,
    ox*oy).  ``ws`` is the flat chunk workspace, at least 8 * b * Q floats.
    """
    b, nq = c.shape[0], w4.size
    work = ws[:8 * b * nq].reshape(8, b, nq)
    r2, s, t, u = work[:4]
    acc = work[4:]
    b_re, b_im, d_re, d_im = acc          # B = w g c2 / r^2 and D = w g c1
    cx, cy, cz = c.T
    # r^2 = (cx + ux)^2 + (cy + uy)^2 + cz^2 on the (nx, ny) grid, zero only
    # where all three terms are
    sx, sy, sz = np.square(cx[:, None] + ux), np.square(cy[:, None] + uy), np.square(cz)
    if np.any((sx == 0.0).any(1) & (sy == 0.0).any(1) & (sz == 0.0)):
        raise SingularityError("dyadic Green's function evaluated at zero distance")
    np.add(sx[:, :, None], sy[:, None, :], out=r2.reshape(b, ux.size, uy.size))
    r2 += sz[:, None]
    np.multiply(np.sqrt(r2, out=s), 0.5 * k0, out=t)         # k0 r / 2
    np.divide(0.5, t, out=u)                                  # u = 1 / (k0 r)
    np.divide(w4, s, out=s)                                   # w / (4 pi r)
    # w g = s exp(i k0 r) = s (1 - t^2 + 2 i t) / (1 + t^2) with t = tan(k0 r / 2)
    t2 = np.multiply(np.tan(t, out=t), t, out=b_im)
    s /= np.add(1.0, t2, out=b_re)
    g_re = np.multiply(np.subtract(1.0, t2, out=b_re), s, out=b_re)
    g_im = np.multiply(np.multiply(t, 2.0, out=t), s, out=t)
    # D = w g c1 with c1 = 1 - u^2 + i u
    c1 = np.subtract(1.0, np.multiply(u, u, out=s), out=s)
    np.multiply(g_re, c1, out=d_re)
    d_re -= np.multiply(g_im, u, out=b_im)
    np.multiply(g_im, c1, out=d_im)
    d_im += np.multiply(g_re, u, out=u)
    # B = (2 w g - 3 D) / r^2, since c2 = 3 u^2 - 1 - 3 i u = 2 - 3 c1
    np.subtract(np.add(g_re, g_re, out=b_re), np.multiply(d_re, 3.0, out=s), out=b_re)
    b_re /= r2
    np.subtract(np.add(g_im, g_im, out=b_im), np.multiply(d_im, 3.0, out=s), out=b_im)
    b_im /= r2
    # sum_q B d_p d_q with d = c + o, from the moments of B over the nodes
    m = (acc.reshape(4 * b, nq) @ mom).reshape(4, b, 6)
    m0, mx, my, mxx, myy, mxy = (m[0] + 1j * m[1]).T
    diag = m[2, :, 0] + 1j * m[3, :, 0]
    tx, ty = cx * m0 + mx, cy * m0 + my                      # sum_q B d_x, B d_y
    out[:, 0] = cx * tx + cx * mx + mxx + diag
    out[:, 1] = cy * ty + cy * my + myy + diag
    out[:, 2] = cz * cz * m0 + diag
    out[:, 3] = cx * ty + cy * mx + mxy
    out[:, 4] = cz * tx
    out[:, 5] = cz * ty


def patch_channel_batch(rel: np.ndarray, geom: SurfaceGeometry, wave: WaveConfig,
                        quad: QuadratureRule) -> np.ndarray:
    """Quadrature channel for a batch of relative center coordinates.

    ``rel`` has shape (K, 3); returns the six components (K, 6) of each
    pair's symmetric block, in ``POLARIZATIONS`` order and including the
    i*omega*mu prefactor.  The integrand depends on the tx and rx points
    only through their difference, so the 4-D area integral is a 2-D one
    over that offset, on the tensor grid of the two axes' offset rules
    (``_offset_axis``): at most (3q)^2 nodes per pair for a rule of order
    q.  Per node, the kernel forms only the scalars D = w*g*c1 and
    B = w*g*c2/r^2 = (2*w*g - 3*D)/r^2, in real arithmetic, with r^2
    separable over the grid and the carrier exp(i*k0*r) =
    (1 - t^2 + 2i*t)/(1 + t^2) from t = tan(k0*r/2), one tangent in place
    of a cosine and a sine.  One GEMM with the node moments
    (1, ox, oy, ox^2, oy^2, ox*oy) then gives sum_q B*d_p*d_q, with
    d = c + o, in closed form.  Rows are taken _CHUNK_NODES quadrature
    nodes at a time through one workspace of eight such arrays, allocated
    once per call.
    """
    rel = np.atleast_2d(np.asarray(rel, dtype=float))
    # coplanar patches whose footprints overlap: the integral diverges
    overlap = ((rel[:, 2] == 0.0)
               & (np.abs(rel[:, 0]) < (geom.tx_dx + geom.rx_dx) / 2)
               & (np.abs(rel[:, 1]) < (geom.tx_dy + geom.rx_dy) / 2))
    if np.any(overlap):
        raise SingularityError("coplanar patches with overlapping footprints")
    ux, wx = _offset_axis(geom.tx_dx, geom.rx_dx, quad)
    uy, wy = _offset_axis(geom.tx_dy, geom.rx_dy, quad)
    ox, oy = (g.ravel() for g in np.meshgrid(ux, uy, indexing="ij"))
    w = np.outer(wx, wy).ravel()
    mom = np.column_stack([np.ones_like(ox), ox, oy, ox * ox, oy * oy, ox * oy])
    w4 = w / (4.0 * np.pi)
    comps = np.empty((rel.shape[0], 6), dtype=complex)
    step = max(1, _CHUNK_NODES // w.size)
    ws = np.empty(8 * min(step, rel.shape[0]) * w.size)
    for i in range(0, rel.shape[0], step):
        _component_sums(rel[i:i + step], ux, uy, w4, mom, wave.wavenumber, ws,
                        comps[i:i + step])
    comps *= wave.prefactor
    return comps


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
    six components (K, 6), c1*delta_pq + c2*rhat_p*rhat_q times the scale,
    which carries only the transmit patch's sinc pair (the first-order phase
    k0 rhat.(delta_t - delta_r) gives one sinc pair per patch)."""
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


def pairs_to_stacked(a: np.ndarray, lead: int = 0) -> np.ndarray:
    """The pair layout (..., N, M, 6, ...), with ``lead`` axes before N, as
    the stacked layout (..., 6N, M, ...): row k*N + n - 1 and column m - 1
    hold component k of pair (n, m).  M may be any receive axis, such as the
    P outputs of a combiner.  One copy."""
    n, m = a.shape[lead:lead + 2]
    return np.moveaxis(a, lead + 2, lead).reshape(
        a.shape[:lead] + (6 * n, m) + a.shape[lead + 3:])


def stacked_pairs(pair_fn, geom: SurfaceGeometry, p1, f: np.ndarray = None):
    """``pair_fn`` on every patch pair at p1, in the stacked layout.

    ``pair_fn`` maps relative coordinates (K, 3) to the six components
    (K, 6, ...) in ``POLARIZATIONS`` order, or to a tuple of such arrays;
    trailing axes are derivative axes.  ``p1`` is one location (3,) or a
    stack of them (..., 3).  Each output comes back as (..., 6N, M, ...),
    laid out by ``pairs_to_stacked``; behind a combiner ``f`` (P, M) it is
    first contracted with ``f`` over M in the pair layout, one GEMM per
    transmit patch and location, and comes back as the observed
    G = H F^T (..., 6N, P, ...).
    """
    rel = relative_grid(geom, p1)                  # (..., N, M, 3)
    lead = rel.ndim - 3
    parts = pair_fn(rel.reshape(-1, 3))
    single = not isinstance(parts, tuple)
    out = []
    for a in ((parts,) if single else parts):
        rest = a.shape[1:]
        # the explicit trailing size, since -1 cannot be inferred for an empty batch
        a = a.reshape(-1, rel.shape[-2], math.prod(rest))
        if f is not None:
            a = f @ a
        out.append(pairs_to_stacked(a.reshape(rel.shape[:-2] + a.shape[1:2] + rest), lead))
    return out[0] if single else tuple(out)


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
