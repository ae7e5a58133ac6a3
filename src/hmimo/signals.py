"""Pilot generation, receive simulation and unitary preprocessing.

Three co-located orthogonally polarized pilot streams of length L are
transmitted from N patches.  Stacking the three received polarizations
gives the linear model Y = S H + W with Y in C^{3L x M}, the block pilot
matrix S in C^{3L x 6N} and the stacked channel H in C^{6N x M}.  The
eigendecomposition of the Gram matrix S^H S provides the unitary rotation
under which the approximate message-passing recursions stay well behaved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


class PreprocessError(RuntimeError):
    """Raised when the pilot matrix is unusable (rank deficient)."""


@dataclass(frozen=True)
class PilotBlock:
    """QPSK pilot matrices for the three transmit polarizations."""

    sx: np.ndarray  # (N, L)
    sy: np.ndarray  # (N, L)
    sz: np.ndarray  # (N, L)

    def __post_init__(self):
        if not (self.sx.shape == self.sy.shape == self.sz.shape):
            raise ValueError("pilot matrices must share one shape")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Assembled block pilot matrix S of shape (3L, 6N), built once per
        block and read-only.

        Row blocks correspond to the received x, y, z polarizations and
        column blocks to the six stacked channel components
        (xx, yy, zz, xy, xz, yz).
        """
        n, ell = self.sx.shape
        zero = np.zeros((ell, n), dtype=complex)
        sx, sy, sz = self.sx.T, self.sy.T, self.sz.T
        s = np.block([
            [sx, zero, zero, sy, sz, zero],
            [zero, sy, zero, sx, zero, sz],
            [zero, zero, sz, zero, sx, sy],
        ])
        s.flags.writeable = False
        return s


def gen_pilots(n_patches: int, length: int, seed) -> PilotBlock:
    """Draw i.i.d. uniform QPSK pilots for the three polarizations."""
    if n_patches <= 0 or length <= 0:
        raise ValueError("n_patches and length must be positive")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 4, size=(3, n_patches, length))
    sx, sy, sz = QPSK[draws]
    return PilotBlock(sx=sx, sy=sy, sz=sz)


def noise_precision(y0: np.ndarray, snr_db: float) -> float:
    """Noise precision gamma giving the requested signal-referenced SNR for
    the noiseless received signal y0 = S H (3L, M).

    SNR is the per-entry average received signal power over the noise
    variance: snr = ||S H||_F^2 * gamma / (3 L M).
    """
    sig = np.linalg.norm(y0) ** 2 / y0.shape[0] / y0.shape[1]
    return 10.0 ** (snr_db / 10.0) / sig


def _awgn(shape, precision: float, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(0.5 / precision)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def simulate_rx(h: np.ndarray, pilots: PilotBlock, snr_db: float, seed):
    """Simulate Y = S H + W at the requested SNR.

    ``h`` is the stacked channel (6N, M).  Returns (Y, gamma) where gamma
    is the true noise precision; snr_db = inf yields the noiseless Y and
    gamma = inf.
    """
    s = pilots.matrix
    if h.shape[0] != s.shape[1]:
        raise ValueError(f"channel rows {h.shape[0]} != pilot columns {s.shape[1]}")
    y0 = s @ h
    if np.isinf(snr_db):
        return y0, np.inf
    gamma = noise_precision(y0, snr_db)
    rng = np.random.default_rng(seed)
    return y0 + _awgn(y0.shape, gamma, rng), gamma


@dataclass(frozen=True)
class UnitaryModel:
    """Rotated observation model R = Phi H + U_1^H W from the factors
    S = U_1 Sigma V^H of the pilot matrix, with what UAMP reads of the rest.

    A full SVD would add 3L - 6N rows on which Phi is zero.  They carry
    only noise, and UAMP reads them only through their energy ``dropped``
    and their count, so the model keeps those two instead of the rows.
    """

    phi: np.ndarray       # (6N, 6N) = Sigma V^H
    r: np.ndarray         # (6N, M) = U_1^H Y
    dropped: float        # ||Y - U_1 R||^2, the energy of the dropped rows
    rows: int             # 3L, the row count of S and Y

    @functools.cached_property
    def abs_phi2(self) -> np.ndarray:
        """|Phi|^2 entrywise, formed once per model."""
        return self.phi.real ** 2 + self.phi.imag ** 2

    @functools.cached_property
    def phi_h(self) -> np.ndarray:
        """Phi^H as a contiguous array, formed once per model."""
        return np.ascontiguousarray(self.phi.conj().T)

    def misfit(self, h: np.ndarray) -> float:
        """||Y - S h||^2 over all 3L rows: ||R - Phi h||^2 plus the dropped
        energy."""
        return float(np.linalg.norm(self.r - self.phi @ h) ** 2 + self.dropped)


def unitary_transform(s: np.ndarray, y: np.ndarray) -> UnitaryModel:
    """Rotate the observation model by the left singular basis of S.

    The Gram matrix S^H S = V Sigma^2 V^H gives Phi = Sigma V^H and
    R = U_1^H Y = Sigma^-1 V^H (S^H Y), with U_1 = S V Sigma^-1 left
    implicit.  The energy of Y outside the span of S stands in for the
    3L - 6N rows a full SVD adds; it is formed as ||Y - S X||^2 from the
    least-squares channel X = V Sigma^-1 R, not as ||Y||^2 - ||R||^2,
    which cancels when Y lies nearly in that span.

    ``eigh`` resolves the eigenvalues of S^H S only to about 3L eps times
    the largest, so S is refused as rank deficient once its condition
    number sigma_max / sigma_min reaches 1 / sqrt(3L eps), 3.9e6 at
    3L = 300.
    """
    rows, cols = s.shape
    if rows < cols:
        raise PreprocessError(f"pilot matrix {s.shape} has fewer rows than columns")
    s_h = s.conj().T
    lam, v = np.linalg.eigh(s_h @ s)
    if not lam[0] > rows * np.finfo(float).eps * lam[-1]:
        cond = np.sqrt(lam[-1] / lam[0]) if lam[0] > 0 else np.inf
        raise PreprocessError(
            f"pilot matrix is rank deficient: condition number {cond:.3g} "
            f"reaches {1.0 / np.sqrt(rows * np.finfo(float).eps):.3g}")
    sv = np.sqrt(lam)
    vh = v.conj().T
    r = (vh @ (s_h @ y)) / sv[:, None]
    x = v @ (r / sv[:, None])
    return UnitaryModel(phi=sv[:, None] * vh, r=r,
                        dropped=float(np.linalg.norm(y - s @ x) ** 2), rows=rows)


# --- hybrid (analog combining) receiver --------------------------------


def gen_combiner(p: int, m: int, seed) -> np.ndarray:
    """Random unit-modulus combining matrix F of shape (P, M).

    Entries are phase-only with magnitude 1/sqrt(M) so every row has unit
    norm.
    """
    if not 1 <= p <= m:
        raise ValueError(f"need 1 <= P <= M, got P={p}, M={m}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, size=(p, m))
    return np.exp(1j * theta) / np.sqrt(m)


def combine_channel(f: np.ndarray, h: np.ndarray, trailing: int = 0) -> np.ndarray:
    """Observed channel G = H F^T behind the combiner ``f`` (P, M), or ``h``
    itself without one: ``h`` (..., 6N, M, ...) has ``trailing`` derivative
    axes after M, and G keeps every axis with P in place of M."""
    if f is None:
        return h
    axis = h.ndim - 1 - trailing
    if h.shape[axis - 1] % 6:
        raise ValueError("stacked channel row count must be a multiple of 6")
    if f.shape[1] != h.shape[axis]:
        raise ValueError(f"combiner columns {f.shape[1]} != antennas {h.shape[axis]}")
    # one GEMM over the receive axis; an einsum here is over 10x slower
    return np.moveaxis(np.tensordot(h, f, axes=([axis], [1])), -1, axis)


def combine_pairs(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``combine_channel`` in the pair layout: ``h`` (N, M, 6, ...) holds
    the six components of each patch pair, and G (N, P, 6, ...) is its
    contraction with ``f`` (P, M) over M, one GEMM per transmit patch and
    no layout copy.  ``green.pairs_to_stacked`` then lays G out as
    ``combine_channel`` would return it."""
    n, m = h.shape[:2]
    return (f @ h.reshape(n, m, -1)).reshape((n, f.shape[0]) + h.shape[2:])


def simulate_rx_hybrid(f: np.ndarray, h: np.ndarray, pilots: PilotBlock,
                       snr_db: float, seed):
    """Simulate the combined receiver Y = S G + W of shape (3L, P).

    The SNR is referenced to the combined signal S G, so gamma describes
    the per-entry noise after combining.  Returns (Y, gamma).
    """
    return simulate_rx(combine_channel(f, h), pilots, snr_db, seed)
