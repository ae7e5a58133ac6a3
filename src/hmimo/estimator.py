"""Message-passing estimators for parametric near-field channel estimation.

The estimators treat the user surface location p1 = (x1, y1, z1) as the
unknown of interest.  A unitary-transformed AMP recursion produces
per-entry extrinsic Gaussians for the stacked channel; every channel
entry is then tied to the location through the trained surrogate, which
is linearized by a first-order Taylor expansion around the current
location belief so that all messages stay Gaussian.  The final channel
estimate is reconstructed from the surrogate at the location estimate.

One loop serves two receivers: a full-digital receiver observing all M
antenna patches, and a hybrid receiver observing P < M analog-combined
outputs G = H F^T.  The init and the loop both read the surrogate of the
observed channel, projected through the combining matrix F (None for the
full-digital receiver).  The init searches many candidate locations and
reads the model of ``expanded_channel(..., f)``, which evaluates the
network once per location; one helper sums it, through moments of the
expansion basis without a combiner and through ``expanded_channel``
arrays behind one.  The loop, the final channel estimate, the CRLB and
the known-location estimate all read one per-pair model,
``stacked_channel``, which combines in the pair layout; the loop reads it
through ``taylor_linearize``, and converges on it from the init's start.
"""

from __future__ import annotations

import csv
import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from hmimo.geometry import SurfaceGeometry
from hmimo.signals import UnitaryModel
from hmimo.surrogate import (EXPANSION_BASIS, HybridNet, expanded_channel,
                             expansion_terms, stacked_channel, term_coefficients)

VAR_MIN = 1e-12
VAR_MAX = 1e12


class NumericalFailure(RuntimeError):
    """Estimator produced non-finite values; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class EstimatorConfig:
    """Knobs of the message-passing estimators."""

    max_iters: int = 50
    tol: float = 1e-6          # location-change stopping threshold, meters
    grid_points: int = 9       # per-axis resolution of the location init search
    prior_x: tuple = (-1.0, 1.0)
    prior_y: tuple = (-1.0, 1.0)
    prior_z: tuple = (20.0, 40.0)
    init_position: tuple = None  # overrides the grid search when set

    def __post_init__(self):
        for name, least in (("max_iters", 1), ("grid_points", 2)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be >= {least} (an integer), "
                                 f"got {value!r}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be non-negative, got {self.tol!r}")


@dataclass
class EstimateResult:
    """Outputs of one estimator run."""

    h_hat: np.ndarray          # (6N, M) parametric channel reconstruction
    position: np.ndarray       # (3,) location estimate
    position_var: np.ndarray   # (3,) diagonal of the belief covariance of p1
    gamma_hat: float           # estimated noise precision, raw units
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def clamp_var(v):
    """Confine variances to the working range [1e-12, 1e12]."""
    return np.clip(v, VAR_MIN, VAR_MAX)


def ls_estimate(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate from pilots and observations."""
    sol, _, rank, _ = np.linalg.lstsq(s, y, rcond=None)
    if rank < s.shape[1]:
        raise np.linalg.LinAlgError("pilot matrix is rank deficient")
    return sol


def unitary_ls_estimate(model: UnitaryModel) -> np.ndarray:
    """``ls_estimate(s, y)`` from the factors of the unitary model: Phi =
    Sigma V^H has orthogonal rows, so the least-squares channel is
    Phi^H (R / rowsum |Phi|^2)."""
    row2 = np.sum(model.abs_phi2, axis=1)
    return model.phi_h @ (model.r / row2[:, None])


# --- AMP linear stage ---------------------------------------------------


@dataclass
class UampState:
    """Running state of the unitary-transformed AMP recursion."""

    h_mean: np.ndarray   # (K, M) posterior mean of the mixed matrix
    h_var: np.ndarray    # (K, M)
    s_res: np.ndarray    # (rows, M) scaled residual on the rows of Phi
    gamma: float         # working-unit noise precision estimate

    @classmethod
    def from_prior(cls, h_mean: np.ndarray, h_var: np.ndarray,
                   rows: int) -> "UampState":
        """Start the recursion from a prior (mean, var) on the mixed matrix."""
        return cls(h_mean=h_mean, h_var=h_var,
                   s_res=np.zeros((rows, h_mean.shape[1]), dtype=complex),
                   gamma=1.0)


def uamp_linear_step(model: UnitaryModel, state: UampState, gamma_cap: float):
    """One pass of the AMP linear stage on the rows of ``model.phi``.

    Returns (q, v_q, new_state) where (q, v_q) are the per-entry extrinsic
    mean/variance toward the prior side.  The matched-filter output Z is
    evaluated as (gamma*V_Z)*R + P/(gamma*V_P + 1), the textbook
    V_Z*(gamma*R + P/V_P).  On the 3L - 6N rows that the economy model
    drops, Phi is zero, so V_P, P and Z are zero there: those rows enter
    the precision update only, through their energy ``model.dropped`` and
    the count of 3L M entries.  ``gamma_cap`` bounds the refreshed precision
    estimate (``np.inf`` for no bound); the loop uses it to keep the
    effective noise level from dropping below the model-mismatch floor on
    (nearly) noiseless data.
    """
    r = model.r
    v_p = model.abs_phi2 @ state.h_var
    p = model.phi @ state.h_mean - v_p * state.s_res
    denom = state.gamma * v_p + 1.0
    v_z = v_p / denom
    z = (state.gamma * v_z) * r + p / denom
    gamma = min(model.rows * r.shape[1] / (np.linalg.norm(r - z) ** 2
                                           + model.dropped + np.sum(v_z)),
                gamma_cap)
    v_s = 1.0 / (v_p + 1.0 / gamma)
    s_res = v_s * (r - p)
    v_q = clamp_var(1.0 / (model.abs_phi2.T @ v_s))
    q = state.h_mean + v_q * (model.phi_h @ s_res)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v_q)) and np.isfinite(gamma)):
        raise NumericalFailure("non-finite AMP linear-stage output")
    return q, v_q, UampState(h_mean=state.h_mean, h_var=state.h_var,
                             s_res=s_res, gamma=gamma)


# --- Taylor linearization and location messages -------------------------


@dataclass
class Linearization:
    """First-order expansion of the observed channel at the location belief.

    ``h`` and ``xi`` are (6N, P) in the layout of ``green.stacked_pairs``,
    of G = H F^T behind a combiner (P = M and G = H without one) and in the
    units of the caller's scale; ``dh`` (6N, P, 3) carries the partials
    w.r.t. p1 in its last axis.
    """

    h: np.ndarray      # (6N, P) observed channel at the expansion point
    dh: np.ndarray     # (6N, P, 3)
    xi: np.ndarray     # (6N, P) affine intercept

    def affine(self, p1):
        """Evaluate the affine model at the location p1 (3,)."""
        return self.xi + self.dh @ np.asarray(p1, dtype=float)


def taylor_linearize(net: HybridNet, geom: SurfaceGeometry, p1,
                     f: np.ndarray = None, scale: float = 1.0) -> Linearization:
    """Expand the surrogate channel around the location p1, behind the
    combiner ``f`` (P, M) if one is given, in units of ``scale``.

    Every transmit patch sits at its known offset from p1, so the partials
    w.r.t. p1 are those w.r.t. each patch position: the per-pair model of
    ``stacked_channel`` at order 1, which combines in the pair layout.  The
    intercept xi = g - dg . p1 is formed on the stacked arrays.
    """
    p1 = np.asarray(p1, dtype=float)
    g, dg = stacked_channel(net, geom, p1, 1, f)
    g /= scale
    dg /= scale
    return Linearization(h=g, dh=dg, xi=g - dg @ p1)


@dataclass
class LocationState:
    """Joint Gaussian belief of p1: a mean and a 3 x 3 covariance."""

    mean: np.ndarray   # (3,)
    cov: np.ndarray    # (3, 3)


def init_location_state(p0, var0) -> LocationState:
    """Seed the belief at p0 with independent per-axis variances var0."""
    return LocationState(mean=np.array(p0, dtype=float),
                         cov=np.diag(np.asarray(var0, dtype=float)))


def location_round(lin: Linearization, q: np.ndarray, v_q: np.ndarray,
                   state: LocationState) -> LocationState:
    """Joint Gaussian update of p1 from the per-entry extrinsics (q, v_q).

    Under the affine model q = xi + dh . p1 + noise of variance v_q, every
    channel entry is an observation of the vector p1, and the belief is
    the product of all of them (the vector-node rule of Loeliger et al.,
    "The factor graph approach to model-based signal processing", Proc.
    IEEE 2007).  With w = 1 / v_q the information is
    J = 2 Re(dh^H W dh) + I / VAR_MAX and the mean
    J^-1 (2 Re(dh^H W (q - xi)) + mean_prev / VAR_MAX).  The factor 2 is
    the information of a real parameter observed in circular complex
    noise.  The I / VAR_MAX term, a VAR_MAX-wide prior at the previous
    mean, keeps a direction the data do not observe where it was instead
    of making J singular.
    """
    dh = lin.dh.reshape(-1, 3)
    wdh = dh / v_q.reshape(-1, 1)
    info = 2.0 * (wdh.conj().T @ dh).real + np.eye(3) / VAR_MAX
    rhs = 2.0 * (wdh.conj().T @ (q - lin.xi).ravel()).real + state.mean / VAR_MAX
    cov = np.linalg.inv(info)
    return LocationState(mean=cov @ rhs, cov=cov)


def location_prior(lin: Linearization, loc: LocationState):
    """Channel prior (mean, var) implied by the belief of p1, shaped as ``lin.h``.

    With dh = a + ib per entry and the real symmetric covariance C, the
    variance Re(dh C dh^H) is a C a^T + b C b^T: one real product of the
    interleaved (Re, Im) view of dh with C acting on each half.
    """
    d = np.ascontiguousarray(lin.dh).view(float)        # (..., 6): Re, Im per axis
    prior_var = np.einsum("...i,...i->...", d @ np.kron(loc.cov, np.eye(2)), d)
    return lin.affine(loc.mean), clamp_var(prior_var)


def channel_belief(lin: Linearization, q: np.ndarray, v_q: np.ndarray,
                   loc: LocationState):
    """Fuse the location-implied channel prior (``location_prior``) with
    the AMP extrinsics: the per-entry belief (mean, var), shaped as
    ``lin.h``."""
    prior_mean, prior_var = location_prior(lin, loc)
    prec = 1.0 / prior_var + 1.0 / v_q
    var = clamp_var(1.0 / prec)
    return var * (prior_mean / prior_var + q / v_q), var


# --- location init ------------------------------------------------------


def _grid_candidates(cfg: EstimatorConfig):
    gp = cfg.grid_points
    ax = [np.linspace(lo, hi, gp) for lo, hi in (cfg.prior_x, cfg.prior_y, cfg.prior_z)]
    spacing = np.array([(hi - lo) / (gp - 1) for lo, hi in
                        (cfg.prior_x, cfg.prior_y, cfg.prior_z)])
    grid = np.meshgrid(*ax, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1), spacing


# Patch pairs per chunk of locations in the init's sums.  Without a
# combiner a pair costs about 100 B in the moment sums of the normal
# equations (70 B in the costs and scores; tracemalloc peaks at the ci and
# paper geometries), so a chunk peaks near 1.6 MB.
# With one it costs about 1.3 kB in ``expanded_channel`` and the normal
# equations (1.9 kB at P = M), so that path takes _HYBRID_SHARE times fewer
# pairs per chunk, and stays under about 6 MB whatever the geometry.
_CHUNK_POINTS = 16384
_HYBRID_SHARE = 4
# Levenberg-Marquardt steps per z-tooth, and the step (m) that stops one early
_REFINE_STEPS = 8
_REFINE_STEP_TOL = 1e-5


def _chunks(geom: SurfaceGeometry, count: int, f=None):
    """Slices of a batch of ``count`` locations: as few as hold at most
    _CHUNK_POINTS patch pairs each (_CHUNK_POINTS / _HYBRID_SHARE behind a
    combiner ``f``), but at least one location, and of near-equal sizes,
    which differ by one location at most."""
    budget = _CHUNK_POINTS if f is None else _CHUNK_POINTS // _HYBRID_SHARE
    per = max(1, budget // (geom.n_patches * geom.m_patches))
    n = -(-count // per)
    return [slice(i * count // n, (i + 1) * count // n) for i in range(n)]


# The monomials dx^a dy^b, a + b <= 4, of the products of the basis terms
# b_t = f dx^a dy^b (``EXPANSION_BASIS``) that the init's sums read, by degree
_MONOMIALS = [(a, n - a) for n in range(5) for a in range(n, -1, -1)]


def _product_monomials(*counts):
    """For the products b_t b_s ... of the first ``counts`` basis terms in
    each factor: the index into _MONOMIALS of each product and its factor."""
    index, factor = np.empty(counts, int), np.empty(counts)
    for ts in np.ndindex(*counts):
        a, b, f = np.array([EXPANSION_BASIS[t] for t in ts]).T
        index[ts], factor[ts] = _MONOMIALS.index((a.sum(), b.sum())), f.prod()
    return index, factor


# |phi|^2 = sum_ts Re(C^H C)_ts b_t b_s in monomials: the (36, 15) map of
# Re(C^H C) to the coefficients
_SQUARE_INDEX, _SQUARE_FACTOR = _product_monomials(6, 6)
_SQUARE_MAP = np.zeros((36, len(_MONOMIALS)))
_SQUARE_MAP[np.arange(36), _SQUARE_INDEX.ravel()] = _SQUARE_FACTOR.ravel()
# the monomials of b_t b_s m_a, t < 3, with m = (1, dx, dy), and of m_a m_a'
_CROSS_INDEX, _CROSS_FACTOR = _product_monomials(3, 6, 3)
_CARRIER_INDEX, _ = _product_monomials(3, 3)


@functools.lru_cache(maxsize=8)
def _moment_tables(geom: SurfaceGeometry):
    """The full-digital init's tables of the geometry, read-only: of the pair
    offsets (dx, dy) (N M,) the rows (2 dx, 2 dy, 0) and dx^2 + dy^2 of
    r_p^2 - r_c^2 = 2 c . delta_p + |delta_p|^2, the monomials (15, N M) of
    _MONOMIALS and the Gram matrix sum_p b_t(p) b_s(p) of the basis b_t."""
    terms = expansion_terms(geom)
    dx, dy = terms[1:3]
    out = (np.stack([2.0 * dx, 2.0 * dy, np.zeros_like(dx)]), dx * dx + dy * dy,
           np.stack([dx ** a * dy ** b for a, b in _MONOMIALS]), terms @ terms.T)
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Reference:
    """The data h_ref of the init, (6N, M) or, behind a combiner, (6N, P),
    with what its sums read of it: ||h_ref||^2 and, behind a combiner,
    h_ref (6N P,) and its conjugate as a (6N P, 1) column.  Without one,
    they read the products ref_b[(t, k), p] = b_t(p) h_ref[k, p] (36, N M)
    of the expansion basis b_t(p) (6, N M)."""

    norm2: float
    h_ref: np.ndarray = None
    conj: np.ndarray = None
    ref_b: np.ndarray = None

    @classmethod
    def of(cls, geom: SurfaceGeometry, h_ref, f=None) -> "_Reference":
        """The reference of the data h_ref behind the combiner ``f``."""
        norm2 = np.linalg.norm(h_ref) ** 2
        if f is not None:
            return cls(norm2, h_ref.reshape(-1), h_ref.conj().reshape(-1, 1))
        terms = expansion_terms(geom)
        return cls(norm2, ref_b=(terms[:, None]
                                 * np.reshape(h_ref, (6, -1))).reshape(36, -1))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the trailing axes of a * b, one dot product per leading
    index, so that an entry does not depend on the batch: (B, ...) -> (B,)."""
    n = len(a)
    return (a.reshape(n, 1, -1) @ b.reshape(n, -1, 1))[:, 0, 0]


def _moment_sums(net, geom, ref: _Reference, p1s, w_c, w_r=None):
    """The full-digital init's sums at B locations, from moments of the
    expansion basis instead of per-pair channel arrays.

    With phi = C b and h = phi exp(i k0 r) per pair, |exp(i k0 r)| = 1 makes
    ||h||^2 = sum_k C_k^H Gamma C_k with the constant Gram matrix Gamma, and
    sum conj(h) h_ref = sum_p exp(-i k0 r_p) s_p with s_p = sum_tk
    conj(C_kt) b_t(p) h_ref[k, p].  Returns these two (B,).  With the
    workspace ``w_r`` it also returns J^H J (B, 3, 3) and Re J^H (h - h_ref)
    (B, 3) of the Jacobian J of h, dh = (dphi + i k0 phi r-hat) exp(i k0 r).
    The unit vector r-hat of pair p is L m / r_p, with the location's L =
    [c | e_x | e_y] (3, 3) and m = (1, dx, dy), so that a sum weighted by
    r-hat_j is L times sums weighted by m / r.  J^H J and J^H e then read
    three per-pair weights, 1 / r, |phi|^2 / r^2 and exp(-i k0 r) s / r,
    each summed against monomials dx^a dy^b, and the moments R_tk = sum_p
    exp(-i k0 r_p) b_t(p) h_ref[k, p], t < 3; |phi|^2 = sum_ts Re(C^H C)_ts
    b_t b_s is itself a sum of monomials.  The carrier of pair p is that of
    the aperture centres, r_c = |c| (``term_coefficients``), times that
    of the small offset delta_p = r_p - r_c, written without cancellation
    as (r_p^2 - r_c^2) / (r_p + r_c) and evaluated as the cosine and sine
    of a phase of at most a few radians; the sums are linear in the
    carrier, so the rotation exp(-i k0 r_c) multiplies each location's sums
    once.  The per-pair weights are written to the first B rows of the
    workspaces ``w_c`` (complex, the small-phase carrier, (rows, N M)) and
    ``w_r`` (real, the first two weights, (rows, 2, N M)).  Every product
    runs per location, so that a location's sums do not depend on the
    batch.
    """
    k0 = net.wave.wavenumber
    offsets, offsets2, monomials, gram = _moment_tables(geom)
    c_rel, c, c1 = term_coefficients(net, geom, p1s)
    b = len(c)
    w_c = w_c[:b]
    r_c2 = np.square(c_rel).sum(axis=1, keepdims=True)         # (B, 1)
    r_c = np.sqrt(r_c2)
    # r_p^2 - r_c^2 = 2 c . delta_p + |delta_p|^2
    num = (c_rel[:, None] @ offsets)[:, 0]                     # (B, N M)
    num += offsets2
    r2 = num + r_c2
    r = np.sqrt(r2)
    phase = num / (r + r_c)
    phase *= -k0
    np.cos(phase, out=w_c.real)
    np.sin(phase, out=w_c.imag)
    rot = np.exp(-1j * k0 * r_c)[:, 0]                         # (B,)
    # C and C1 are laid out (..., t, k), so that their real views hold the
    # components and (Re, Im) in the last axis, and real products over it
    # are the real parts of products of C^H
    cv = c.view(float)                                         # (B, 6, 12)
    cg = gram @ cv                                             # Gamma C
    norm2 = _dot(cv, cg)
    s = (c.conj().reshape(b, 1, 36) @ ref.ref_b)[:, 0]         # (B, N M)
    inner = _dot(w_c, s) * rot
    if w_r is None:
        return norm2, inner
    # the weights 1 / r and |phi|^2 / r^2, and their sums against the 15
    # monomials (B, 2, 15)
    w_r = w_r[:b]
    inv_r = np.divide(1.0, r, out=w_r[:, 0])
    q = (cv @ cv.transpose(0, 2, 1)).reshape(b, 1, 36)         # Re(C^H C)
    np.matmul(q @ _SQUARE_MAP, monomials, out=w_r[:, 1:2])
    w_r[:, 1] /= r2
    mom = w_r @ monomials.T
    lm = np.zeros((b, 3, 3))
    lm[:, :, 0] = c_rel
    lm[:, 0, 1] = lm[:, 1, 2] = 1.0
    # C^H R^{r-hat_j} = sum_p r-hat_j exp(-i k0 r_p) s_p, the third weight
    # summed against m
    s *= w_c
    s *= inv_r
    d = (lm @ (monomials[:3] @ s.view(float).reshape(b, -1, 2))).view(complex)
    d = d[..., 0] * rot[:, None]                               # (B, 3)
    # Re J^H e pairs dphi_j + i k0 phi r-hat_j with phi - exp(-i k0 r) h_ref:
    # dphi_j gives C1_j . (Gamma C - R) over t < 3, and i k0 phi r-hat_j
    # gives -k0 Im(C^H R^{r-hat_j}) plus Re(-i k0 C^H G^j C), which vanishes
    # as G^j = sum_p r-hat_j b b^T is real and symmetric
    rm = (w_c[:, None] @ ref.ref_b[:18].T)[:, 0] * rot[:, None]   # R, (B, 18)
    e = cg.view(complex)[:, :3] - rm.reshape(b, 3, 6)
    c1v = c1.view(float).reshape(b, 3, 36)
    grad = (c1v @ e.view(float).reshape(b, 36, 1))[..., 0] - k0 * d.imag
    # J^H J = Re(dphi^H dphi) + the cross term Re(i k0 dphi_i^H phi r-hat_j)
    # + (i <-> j) + the carrier term k0^2 |phi|^2 r-hat r-hat^T, each summed
    # over the basis; half of it plus its transpose is symmetric bit for bit
    dd = c1v @ (gram[:3, :3] @ c1.view(float)).reshape(b, 3, 36).transpose(0, 2, 1)
    # the cross term's Im(dphi_i^H phi) = Re((i dphi_i)^H phi) has the
    # coefficients x over the products b_t b_s, t < 3, whose sums weighted
    # by m_a / r are the monomials' g
    x = (1j * c1).view(float).reshape(b, 9, 12) @ cv.transpose(0, 2, 1)
    g = mom[:, 0][:, _CROSS_INDEX] * _CROSS_FACTOR             # (B, 3, 6, 3)
    cross = (x.reshape(b, 3, 18) @ g.reshape(b, 18, 3)) @ lm.transpose(0, 2, 1)
    carrier = lm @ mom[:, 1][:, _CARRIER_INDEX] @ lm.transpose(0, 2, 1)
    half = 0.5 * dd - k0 * cross + 0.5 * k0 ** 2 * carrier
    return norm2, inner, half + half.transpose(0, 2, 1), grad


def _array_sums(net, geom, ref: _Reference, p1s, f, order):
    """The sums of ``_chunked_sums`` behind the combiner ``f``, over the
    ``expanded_channel`` arrays g of the locations p1s, one product each."""
    out = expanded_channel(net, geom, p1s, order, f)
    g = (out[0] if order else out).reshape(len(p1s), 1, -1)
    gv = g.view(float)
    # <g, h_ref> is the conjugate of sum g conj(h_ref)
    sums = [_dot(gv, gv), (g @ ref.conj)[:, 0, 0].conj()]
    if order:
        # Re(u^H v) is the dot product of the (Re, Im) pairs of u and v, so
        # J^H J and J^H e are real products of real views; J^H J as nine
        # dot products, which BLAS does faster than a 3 x 2K x 3 GEMM
        jac = np.ascontiguousarray(np.moveaxis(out[1], -1, 1).reshape(len(g), 3, -1))
        jac = jac.view(float)                                  # (B, 3, 2K)
        e = (g - ref.h_ref).view(float)                        # (B, 1, 2K)
        sums += [(jac[:, :, None, None] @ jac[:, None, :, :, None])[..., 0, 0],
                 (jac @ e.transpose(0, 2, 1))[..., 0]]
    return tuple(sums)


def _chunked_sums(net, geom, ref: _Reference, p1s, f=None, order=0):
    """The init's sums at p1s (B, 3), chunk by chunk: ||model||^2 and
    <model, h_ref> (B,) and, at ``order`` 1, J^H J (B, 3, 3) and
    Re J^H (model - h_ref) (B, 3) of the model's Jacobian J.  Without a
    combiner they are ``_moment_sums``, in one workspace allocated once per
    call, and behind the combiner ``f`` ``_array_sums``."""
    chunks = _chunks(geom, len(p1s), f)
    if not chunks:
        return (np.empty(0), np.empty(0, complex), np.empty((0, 3, 3)),
                np.empty((0, 3)))[:2 + 2 * order]
    if f is None:
        rows, pairs = chunks[-1].stop - chunks[-1].start, geom.n_patches * geom.m_patches
        w_c = np.empty((rows, pairs), dtype=complex)
        w_r = np.empty((rows, 2, pairs)) if order else None
        parts = [_moment_sums(net, geom, ref, p1s[sl], w_c, w_r) for sl in chunks]
    else:
        parts = [_array_sums(net, geom, ref, p1s[sl], f, order) for sl in chunks]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _envelope_scores(net, geom, ref: _Reference, p1s, f=None):
    """Envelope correlation |<model(p), h_ref>| / (|model(p)| |h_ref|), (B,).

    A location whose prediction vanishes scores 0.
    """
    norm2, inner = _chunked_sums(net, geom, ref, p1s, f)
    denom = np.sqrt(np.maximum(norm2, 0.0) * ref.norm2)
    return np.abs(inner / np.where(denom == 0, np.inf, denom))


def _fit(net, geom, ref: _Reference, p1s, f=None, order=0):
    """Squared residual ||model(p) - h_ref||^2 at each of B locations, (B,),
    and at ``order`` 1 also the Gauss-Newton matrix J^H J (B, 3, 3) and the
    gradient Re J^H (model - h_ref) (B, 3)."""
    norm2, inner, *normal = _chunked_sums(net, geom, ref, p1s, f, order)
    cost = norm2 - 2.0 * inner.real + ref.norm2
    return (cost, *normal) if order else cost


def _solve_each(a: np.ndarray, rhs: np.ndarray):
    """Solve a[i] x[i] = rhs[i]; returns (x, ok) with ok False where singular."""
    try:
        return np.linalg.solve(a, rhs[..., None])[..., 0], np.ones(len(a), bool)
    except np.linalg.LinAlgError:
        # the batched solve fails as a whole; find the singular systems
        x = np.zeros_like(rhs)
        ok = np.ones(len(a), bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return x, ok


def _refine_batch(net, geom, ref: _Reference, p0s, f=None):
    """Levenberg-style local fit of B starting locations (B, 3) to h_ref.

    Every start is an independent fit with its own damping, previous cost
    and stop flag: it stops once its step is below _REFINE_STEP_TOL or its
    damped system is singular, so batching does not couple the starts.
    Returns the positions (B, 3) and their residual costs (B,).
    """
    p = np.array(p0s, dtype=float)
    b = len(p)
    mu = np.zeros(b)
    prev_cost = np.full(b, np.inf)
    live = np.ones(b, bool)
    for _ in range(_REFINE_STEPS):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        cost, a, g = _fit(net, geom, ref, p[idx], f, order=1)
        diag_max = np.max(np.diagonal(a, axis1=1, axis2=2), axis=1)
        mu[idx] = (np.where(mu[idx] == 0.0, 1e-3 * diag_max, mu[idx])
                   * np.where(cost > prev_cost[idx], 10.0, 0.3))
        step, ok = _solve_each(a + mu[idx, None, None] * np.eye(3), -g)
        live[idx[~ok]] = False
        idx, step = idx[ok], step[ok]
        p[idx] += step
        prev_cost[idx] = cost[ok]
        live[idx[np.linalg.norm(step, axis=1) < _REFINE_STEP_TOL]] = False
    return p, _fit(net, geom, ref, p, f)


class _OutOfCalls(Exception):
    """The objective of ``_nelder_mead`` was called past ``maxfev``."""


def _nelder_mead(fun, x0, xatol, fatol, maxfev):
    """The best vertex of scipy's unbounded, non-adaptive Nelder-Mead run on
    ``fun`` from ``x0`` (n,), operation for operation: start simplex, steps,
    argsort re-sorting (scipy's second sort of the start changes nothing),
    xatol/fatol test, and a call past ``maxfev`` ending the run mid-step."""
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    sim[1:][np.diag_indices(n)] = np.where(sim[0] != 0, 1.05 * sim[0], 0.00025)
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def counted(x):
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfCalls
        calls += 1
        return fun(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = counted(sim[k])
        while True:
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                return sim[0]
            xbar = np.add.reduce(sim[:-1], 0) / n
            fxr = counted(xr := 2 * xbar - sim[-1])
            if fxr < fsim[0]:
                fxe = counted(xe := 3 * xbar - 2 * sim[-1])
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                fxc = counted(xc := 1.5 * xbar - 0.5 * sim[-1] if outside
                              else 0.5 * xbar + 0.5 * sim[-1])
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = counted(sim[j])
    except _OutOfCalls:
        return sim[np.argsort(fsim)[0]]


def grid_search_init(net: HybridNet, geom: SurfaceGeometry, h_ref: np.ndarray,
                     cfg: EstimatorConfig, f: np.ndarray = None):
    """Locate the prior-box point whose model prediction best matches h_ref.

    The search is staged.  A coarse grid plus one refinement maximize the
    envelope correlation |<model(p), h_ref>|, which localizes x and y but
    is nearly blind along z: the dominant z dependence is the common
    phase factor exp(i k0 z) that the magnitude removes, so the
    likelihood in z is a comb of peaks one wavelength apart under a very
    broad envelope.  Every tooth of the comb across the prior's z range is
    then polished by a damped Gauss-Newton fit of all three coordinates
    against h_ref, and the tooth with the smallest residual wins.  The
    grid and the teeth are each evaluated as one batch.  With a combiner
    ``f`` (P, M), predictions are compared with h_ref in the observation
    space of the hybrid receiver, G = H F^T.

    Every prediction is the model of ``expanded_channel``: the network is
    evaluated once per candidate location, at the relative coordinate of
    the aperture centres, and expanded over the patch pairs (second order
    in the pair offsets for the channel, first order for its partials).
    One helper, ``_chunked_sums``, sums it against h_ref: behind a combiner
    over ``expanded_channel`` arrays, since G = H F^T mixes the carriers of
    different receive patches, and without one on moments of the expansion
    basis (``_moment_sums``).  What the sums read of h_ref is formed once
    per call (``_Reference``), and what they read of the geometry alone
    once per geometry (``_moment_tables``).  The message passing, the CRLB
    and the known-location estimate read the per-pair model instead.
    """
    ref = _Reference.of(geom, h_ref, f)
    cands, _ = _grid_candidates(cfg)
    scores = _envelope_scores(net, geom, ref, cands, f)
    coarse = cands[np.argmax(np.where(np.isnan(scores), -np.inf, scores))]
    xy = _nelder_mead(
        lambda p: -_envelope_scores(net, geom, ref, p[None], f)[0],
        coarse, xatol=1e-3, fatol=1e-10, maxfev=300)

    lam = net.wave.wavelength
    z_lo, z_hi = cfg.prior_z
    teeth = np.arange(z_lo, z_hi + lam / 2, lam)
    # every tooth gets at most _REFINE_STEPS Levenberg-Marquardt steps, and
    # on the ci profile half or more are still moving when the teeth are
    # ranked on their costs (see ROADMAP.md, open item 4)
    starts = np.column_stack([np.full(teeth.size, xy[0]),
                              np.full(teeth.size, xy[1]), teeth])
    p_hat, costs = _refine_batch(net, geom, ref, starts, f)
    valid = np.isfinite(costs) & np.all(np.isfinite(p_hat), axis=1)
    if np.any(valid):
        best_p = p_hat[np.argmin(np.where(valid, costs, np.inf))]
    else:
        best_p = np.array([xy[0], xy[1], 0.5 * (z_lo + z_hi)])

    lo = np.array([cfg.prior_x[0], cfg.prior_y[0], cfg.prior_z[0]])
    hi = np.array([cfg.prior_x[1], cfg.prior_y[1], cfg.prior_z[1]])
    margin = 0.1 * (hi - lo)
    best_p = np.clip(best_p, lo - margin, hi + margin)
    init_var = np.array([(lam / 4) ** 2, (lam / 4) ** 2, (lam / 8) ** 2])
    return best_p, init_var


# --- message-passing loop -----------------------------------------------


def _working_scale(net: HybridNet) -> float:
    """Typical channel-entry magnitude used to normalize the AMP stage."""
    return float(np.sqrt(np.mean(net.output_scale ** 2 + net.output_offset ** 2)))


TRACE_COLUMNS = ("iter", "x", "y", "z", "nmse_h_running", "gamma_hat", "residual")


def _trace_row(it, loc, gamma_raw, resid, channel, h_true):
    """One trace row; the running NMSE evaluates ``channel`` at the location
    mean only when ``h_true`` is given."""
    nmse = float("nan")
    if h_true is not None:
        nmse = 10 * np.log10(np.linalg.norm(channel(loc.mean) - h_true) ** 2
                             / np.linalg.norm(h_true) ** 2)
    return dict(zip(TRACE_COLUMNS, (it, *loc.mean, nmse, gamma_raw, resid)))


def write_trace_csv(path, trace) -> None:
    """Dump an iteration trace with the fixed column set."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=TRACE_COLUMNS)
        w.writeheader()
        w.writerows(trace)


def _estimate(model: UnitaryModel, f, net: HybridNet, geom: SurfaceGeometry,
              cfg: EstimatorConfig, h_true) -> EstimateResult:
    """The message-passing loop of both receivers; ``f`` None is full-digital.

    The AMP recursion on R = Phi G, G = H F^T (G = H without a combiner),
    yields per-entry extrinsics on G.  It runs on the 6N rows of the
    economy model; the rows it drops enter the precision update, its cap
    and the residual through their energy.  The location messages and the
    channel belief read the extrinsics through the linearization of G, and
    the belief is the prior of the next AMP pass.  AMP starts
    from the channel prior that the initial location belief implies, so
    that a correct p0 is not pulled away by the first extrinsics.  The loop
    re-linearizes only when it goes on, and the channel estimate is the
    per-pair model H at the final location mean.
    ``h_true`` is optional and only feeds the iteration trace.
    """
    cfg = cfg or EstimatorConfig()
    channel = functools.partial(stacked_channel, net, geom)
    scale = _working_scale(net)
    # the model in working units; its |Phi|^2 and Phi^H are formed once here
    work = UnitaryModel(phi=model.phi, r=model.r / scale,
                        dropped=model.dropped / scale ** 2, rows=model.rows)
    y_norm = max(np.sqrt(np.linalg.norm(work.r) ** 2 + work.dropped), 1e-300)
    entries = work.rows * work.r.shape[1]

    if cfg.init_position is not None:
        _, spacing = _grid_candidates(cfg)
        p0, var0 = np.asarray(cfg.init_position, float), (spacing / 2.0) ** 2
    else:
        p0, var0 = grid_search_init(net, geom, unitary_ls_estimate(model), cfg, f=f)

    loc = init_location_state(p0, var0)
    lin = taylor_linearize(net, geom, loc.mean, f, scale)
    amp = UampState.from_prior(*location_prior(lin, loc), work.phi.shape[0])
    trace = []
    converged = False
    it = 0
    try:
        for it in range(1, cfg.max_iters + 1):
            cap = entries / max(work.misfit(lin.h), 1e-300)
            q, v_q, amp = uamp_linear_step(work, amp, cap)

            prev = loc.mean
            loc = location_round(lin, q, v_q, loc)
            amp.h_mean, amp.h_var = channel_belief(lin, q, v_q, loc)

            if not np.all(np.isfinite(loc.mean)):
                raise NumericalFailure("non-finite location", trace)
            resid = float(np.sqrt(work.misfit(amp.h_mean)) / y_norm)
            trace.append(_trace_row(it, loc, amp.gamma / scale ** 2, resid,
                                    channel, h_true))
            if np.linalg.norm(loc.mean - prev) < cfg.tol:
                converged = True
                break
            if it < cfg.max_iters:
                lin = taylor_linearize(net, geom, loc.mean, f, scale)
    except NumericalFailure as exc:
        raise NumericalFailure(f"{exc} (iteration {it})", trace) from exc

    return EstimateResult(h_hat=channel(loc.mean), position=loc.mean,
                          position_var=np.diag(loc.cov).copy(),
                          gamma_hat=amp.gamma / scale ** 2,
                          iterations=it, converged=converged, trace=trace)


# The two receivers are separate public names, and neither calls the
# other, so that a profiler wrapping both sees each estimate once.


def estimate_full_digital(model: UnitaryModel, net: HybridNet,
                          geom: SurfaceGeometry, cfg: EstimatorConfig = None,
                          h_true: np.ndarray = None) -> EstimateResult:
    """Joint location/channel estimation from the full-digital receiver,
    given the unitary-rotated observation pair ``model`` = (Phi, R)."""
    return _estimate(model, None, net, geom, cfg, h_true)


def estimate_hybrid(model: UnitaryModel, f: np.ndarray, net: HybridNet,
                    geom: SurfaceGeometry, cfg: EstimatorConfig = None,
                    h_true: np.ndarray = None) -> EstimateResult:
    """Joint location/channel estimation from the analog-combined receiver,
    which observes R = Phi G with G = H F^T through the combiner ``f`` (P, M)."""
    return _estimate(model, f, net, geom, cfg, h_true)
