"""Fisher information and Cramér-Rao bound on the transmitter position.

The received pilot block is Y = S H(p) + W with i.i.d. complex Gaussian
noise of known precision gamma (per-entry variance 1/gamma).  The channel
columns h_m(p) and their position derivatives come from the analytic
surrogate, so the information matrix has the Gaussian-model Gram form

    F_ab = 2 gamma sum_m Re{ (dh_m/da)^H S^H S (dh_m/db) },

the sum running over the columns of the observed dG = dH F^T instead
when an analog combiner F gives Y = S H F^T + W; ``stacked_channel(...,
f=f)`` provides those partials.

The pre-expectation Hessian of the log-likelihood (which retains the
data-dependent residual term and needs second channel derivatives) is kept
as a cross-validation path.
"""

import numpy as np

from hmimo.geometry import SurfaceGeometry
from hmimo.green import WaveConfig
from hmimo.surrogate import HybridNet, stacked_channel

__all__ = [
    "SingularInformationError",
    "fim",
    "crlb_position",
    "crlb_position_normalized",
    "log_likelihood",
    "score",
    "hessian",
]


class SingularInformationError(ValueError):
    """The position is not identifiable: the information matrix is singular."""


def _check_net(net: HybridNet) -> None:
    if not np.any(net.w2 != 0.0):
        raise ValueError("surrogate network is untrained (zero output weights)")


def _gram_re(s: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Re{ sum_m (S dh_m)^H (S dh_m) } for derivatives dh (6N, M, k): the even
    plus the odd diagonal blocks of the Gram of S dh's real view, with no conjugate copy."""
    v = (s @ dh.reshape(dh.shape[0], -1)).reshape(-1, dh.shape[-1]).view(float)
    g = v.T @ v
    return g[0::2, 0::2] + g[1::2, 1::2]


def fim(p1, net: HybridNet, geom: SurfaceGeometry, s: np.ndarray,
        gamma: float, wave: WaveConfig = None, f: np.ndarray = None) -> np.ndarray:
    """Fisher information matrix (3, 3) of the position at precision gamma,
    behind the combiner F (P, M) if one is given."""
    _check_net(net)
    wave = wave or WaveConfig(net.frequency)
    _, dh = stacked_channel(net, geom, p1, wave, order=1, f=f)
    # F_ab = 2 gamma sum_m Re{ dh[:,m,a]^H (S^H S) dh[:,m,b] }
    info = 2.0 * gamma * _gram_re(s, dh)
    return 0.5 * (info + info.T)


def crlb_position(fi: np.ndarray) -> float:
    """Trace of the inverse information matrix (mean-square position bound)."""
    fi = np.asarray(fi, dtype=float)
    cond = np.linalg.cond(fi)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularInformationError(
            f"information matrix is singular (cond={cond:.3g})")
    return float(np.trace(np.linalg.inv(fi)))


def crlb_position_normalized(fi: np.ndarray, p1) -> float:
    """Position bound normalized by ||p1||^2, comparable with position NMSE."""
    return crlb_position(fi) / float(np.sum(np.asarray(p1, dtype=float) ** 2))


# --- validation path: likelihood, score and pre-expectation Hessian -------


def log_likelihood(p1, y, s, net, geom, gamma, wave=None) -> float:
    """Gaussian log-likelihood of Y = S H(p) + W up to an additive constant."""
    wave = wave or WaveConfig(net.frequency)
    h = stacked_channel(net, geom, p1, wave)
    return float(-gamma * np.linalg.norm(y - s @ h) ** 2)


def score(p1, y, s, net, geom, gamma, wave=None) -> np.ndarray:
    """Gradient (3,) of the log-likelihood at p1."""
    wave = wave or WaveConfig(net.frequency)
    h, dh = stacked_channel(net, geom, p1, wave, order=1)
    back = (s.conj().T @ (y - s @ h)).ravel()        # S^H (Y - S H), flattened
    return 2.0 * gamma * (dh.reshape(back.size, 3).conj().T @ back).real


def hessian(p1, y, s, net, geom, gamma, wave=None) -> np.ndarray:
    """Pre-expectation Hessian (3, 3) of the log-likelihood at p1.

    Retains the data-dependent term through the second channel
    derivatives; its expectation over Y equals -fim(p1, ...).
    """
    wave = wave or WaveConfig(net.frequency)
    h, dh, d2h = stacked_channel(net, geom, p1, wave, order=2)
    back = (s.conj().T @ (y - s @ h)).ravel()        # S^H (Y - S H), flattened
    gram_term = -2.0 * gamma * _gram_re(s, dh)
    data_term = 2.0 * gamma * (d2h.reshape(back.size, 9).conj().T
                               @ back).real.reshape(3, 3)
    out = gram_term + data_term
    return 0.5 * (out + out.T)
