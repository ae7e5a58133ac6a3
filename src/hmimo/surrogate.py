"""Single-hidden-layer surrogate of the de-rotated patch channel.

The network maps a relative coordinate triple (x, y, z) to the twelve
real numbers (Re, Im) of the six de-rotated polarization components.
Multiplying by exp(i k0 r) recovers the channel itself, and analytic
first/second derivatives of that product are available for the
linearized message passing and for Fisher-information computations.  The
location init, which evaluates the channel at many candidate locations,
instead evaluates the network and its partials once per location, with
the same kernel, gathers from them the coefficients of an expansion over
the patch pairs (``term_coefficients``) and expands those
(``expanded_channel``).

Slot layout of the 12 outputs: slots 0..5 are the real parts in the
order (xx, yy, zz, xy, xz, yz); slots 6..11 the matching imaginary
parts.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from hmimo.geometry import SurfaceGeometry, relative_grid
from hmimo.green import (QuadratureRule, WaveConfig, approx_channel_batch,
                         patch_channel_batch, stacked_pairs)
from hmimo.signals import combine_channel

WEIGHTS_FORMAT_VERSION = 1


class TrainingError(RuntimeError):
    """Raised when training diverges (non-finite loss)."""


@dataclass
class HybridNet:
    """Weights, biases and normalization maps of the surrogate network.  The
    array fields, in order, are the weights file's arrays; their metadata
    gives each one's shape, "nh" standing for the hidden-unit count."""

    w1: np.ndarray = field(metadata={"shape": ("nh", 3)})
    b1: np.ndarray = field(metadata={"shape": ("nh",)})
    w2: np.ndarray = field(metadata={"shape": ("nh", 12)})
    b2: np.ndarray = field(metadata={"shape": (12,)})
    input_scale: np.ndarray = field(metadata={"shape": (3,)})
    input_offset: np.ndarray = field(metadata={"shape": (3,)})
    output_scale: np.ndarray = field(metadata={"shape": (12,)})
    output_offset: np.ndarray = field(metadata={"shape": (12,)})
    frequency: float  # carrier the net was trained for, Hz

    def __post_init__(self):
        nh = np.shape(self.w1)[0] if np.ndim(self.w1) else 0
        for name, shape in _array_shapes(nh):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite {name}")
            setattr(self, name, a)
        if not (isinstance(self.frequency, numbers.Real)
                and 0 < self.frequency < np.inf):
            raise ValueError(f"frequency must be a positive number, got {self.frequency!r}")

    @property
    def hidden_count(self) -> int:
        return self.w1.shape[0]

    @property
    def wave(self) -> WaveConfig:
        """The carrier of ``frequency``, by which every channel query rotates."""
        return WaveConfig(self.frequency)

    @functools.cached_property
    def _partials_block(self):
        """The network's one output layer, built once per net and read by
        its one kernel, ``_output_partials`` (per pair, and per location of
        the init through ``term_coefficients``): the map (b2, output_scale,
        output_offset) of the value, as (3, 12), and one block (Nh, 12 x 3^n)
        per derivative order n = 0, 1, 2.  A partial of order n in the inputs is
        tanh^(n) of the hidden layer times w2 and n columns of w1; block n
        holds those products, with the input scale and, for n >= 1, the
        output scale folded in (the value takes its map after the product,
        in the order ``train`` fits it).  Block 2 carries the factor -2 of
        tanh'' = -2 tanh tanh'.  The columns are ordered (component,
        coordinates, re/im), so that a product is the real view of the
        complex partial.  Read-only.
        """
        w1s = self.w1 / self.input_scale           # chain rule through input map

        def by_component(a):                       # slots (..., 12) -> (..., 6, 2)
            return np.moveaxis(a.reshape(a.shape[:-1] + (2, 6)), -2, -1)

        value = by_component(self.w2)
        d1 = (by_component(self.w2 * self.output_scale)[:, :, None]
              * w1s[:, None, :, None])                          # (Nh, 6, 3, 2)
        d2 = -2.0 * d1[:, :, :, None] * w1s[:, None, None, :, None]  # (Nh, 6, 3, 3, 2)
        # reshaping the moved axes copies, in C order
        out = (by_component(np.stack([self.b2, self.output_scale,
                                      self.output_offset])).reshape(3, 12),
               *(a.reshape(self.hidden_count, -1) for a in (value, d1, d2)))
        for a in out:
            a.flags.writeable = False
        return out

    # --- forward -----------------------------------------------------

    def _hidden(self, xyz: np.ndarray) -> np.ndarray:
        xn = (np.atleast_2d(xyz) - self.input_offset) / self.input_scale
        a = xn @ self.w1.T
        a += self.b1
        return np.tanh(a, out=a)

    def forward(self, xyz: np.ndarray) -> np.ndarray:
        """Raw-unit 12-vector outputs for inputs of shape (K, 3) or (3,)."""
        phi = _output_partials(self, xyz, 0)[0]
        out = np.concatenate([phi.real, phi.imag], axis=-1)
        return out if np.asarray(xyz).ndim > 1 else out[0]

    # --- serialization -----------------------------------------------

    def save(self, path) -> None:
        doc = {"version": WEIGHTS_FORMAT_VERSION, "hidden_count": self.hidden_count,
               **{name: getattr(self, name).ravel().tolist()
                  for name, _ in _array_shapes(self.hidden_count)},
               "wave": {"frequency_hz": self.frequency}}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path) -> "HybridNet":
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("weights file is not a JSON object")
        if doc.get("version") != WEIGHTS_FORMAT_VERSION:
            raise ValueError(f"unsupported weights file version {doc.get('version')!r}")
        nh = doc["hidden_count"]
        if not (type(nh) is int and nh > 0):
            raise ValueError(f"hidden_count must be a positive integer, got {nh!r}")
        arrays = {}
        for name, shape in _array_shapes(nh):
            a = np.asarray(doc[name], dtype=float)
            # a wrong size is left for __post_init__ to name
            arrays[name] = a.reshape(shape) if a.size == np.prod(shape) else a
        return cls(**arrays, frequency=doc["wave"]["frequency_hz"])


def _array_shapes(nh: int):
    """(name, shape) of the weights-file arrays of a net of ``nh`` hidden units."""
    return [(f.name, tuple(nh if d == "nh" else d for d in f.metadata["shape"]))
            for f in fields(HybridNet) if "shape" in f.metadata]


# --- channel map and derivatives --------------------------------------


def _output_partials(net: HybridNet, xyz: np.ndarray, order: int):
    """De-rotated output phi of the network and its partials up to ``order``.

    Returns [phi, dphi, d2phi][:order + 1], complex of shapes (K, 6),
    (K, 6, 3) and (K, 6, 3, 3): one product per order of tanh, tanh' or
    tanh'' of the hidden layer with the net's ``_partials_block``, whose
    outputs are viewed as complex in place.
    """
    a = net._hidden(xyz)                       # (K, Nh)
    (b2, scale, offset), *blocks = net._partials_block
    value = a @ blocks[0]
    value += b2
    value *= scale
    value += offset
    out = [value.view(complex)]
    if order >= 1:
        gp = np.square(a, out=a if order == 1 else None)   # a is read at order 2
        np.subtract(1.0, gp, out=gp)                       # tanh'
        out.append((gp @ blocks[1]).view(complex).reshape(-1, 6, 3))
    if order >= 2:
        # tanh'' = -2 tanh tanh', whose factor -2 the block carries
        out.append(((a * gp) @ blocks[2]).view(complex).reshape(-1, 6, 3, 3))
    return out


def _rotate(phi, rel: np.ndarray, wave: WaveConfig):
    """The channel h = phi * exp(i k0 r) and its partials, from those of phi.

    ``phi`` is a list (phi, dphi, d2phi)[:order + 1], complex with the
    partials in trailing axes; ``rel`` holds the relative coordinates in its
    last axis, and its other axes broadcast against ``phi[0]``.  Returns
    (h, dh, d2h)[:order + 1], shaped as ``phi``; h and dh overwrite phi and
    dphi in place, which saves two channel-sized allocations a call.
    """
    r = np.linalg.norm(rel, axis=-1)
    k0 = wave.wavenumber
    rot = np.exp(1j * k0 * r)
    if len(phi) > 1:
        dr = rel / r[..., None]
    if len(phi) > 2:
        d2r = (np.eye(3) - dr[..., :, None] * dr[..., None, :]) / r[..., None, None]
        cross = (phi[1][..., :, None] * dr[..., None, :]
                 + phi[1][..., None, :] * dr[..., :, None])
        phi[2] = ((phi[2]
                   + 1j * k0 * (cross + phi[0][..., None, None] * d2r)
                   - k0**2 * phi[0][..., None, None] * dr[..., :, None]
                   * dr[..., None, :]
                   ) * rot[..., None, None])
    if len(phi) > 1:
        # one coordinate at a time: one product broadcast over both the
        # component and the coordinate axis runs several times slower
        ik0phi = 1j * k0 * phi[0]
        term = np.empty_like(ik0phi)
        for j in range(3):
            phi[1][..., j] += np.multiply(ik0phi, dr[..., j], out=term)
        phi[1] *= rot[..., None]
    phi[0] *= rot
    return tuple(phi)


def channel_derivs(net: HybridNet, xyz: np.ndarray, order: int):
    """Channel h = phi * exp(i k0 r) and its partials up to ``order``.

    Returns (h, dh, d2h)[:order + 1], complex of shapes (K, 6), (K, 6, 3)
    and (K, 6, 3, 3).  The partials are w.r.t. the relative coordinates;
    because the channel depends on the transmit-patch coordinates only
    through them, they equal the partials w.r.t. the transmit position.
    """
    xyz = np.atleast_2d(xyz)
    return _rotate(_output_partials(net, xyz, order), xyz[:, None], net.wave)


def hybrid_channel(net: HybridNet, xyz: np.ndarray) -> np.ndarray:
    """Channel components h as complex (K, 6)."""
    return channel_derivs(net, xyz, 0)[0]


def channel_first_derivs(net: HybridNet, xyz: np.ndarray):
    """Channel values and first partials, (h, dh)."""
    return channel_derivs(net, xyz, 1)


def stacked_channel(net: HybridNet, geom: SurfaceGeometry, p1, order: int = 0,
                    f: np.ndarray = None):
    """Surrogate channel at the transmit location p1, in the stacked layout.

    ``p1`` is one location (3,) or a stack of them (..., 3).  Rows follow
    ``green.stacked_pairs`` (polarization, then transmit patch), so the
    channel is (..., 6N, M).  ``order`` 1 returns (h, dh) and 2 returns
    (h, dh, d2h), with the partials w.r.t. p1 in trailing axes: dh is
    (..., 6N, M, 3) and d2h (..., 6N, M, 3, 3).  Behind a combiner ``f``
    (P, M) each output is of the observed G = H F^T instead, P for M,
    combined in the pair layout before it is stacked.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order!r}")
    # the names are looked up per call, so a rebound module attribute is used
    pair_fn = (hybrid_channel, channel_first_derivs,
               functools.partial(channel_derivs, order=2))[order]
    return stacked_pairs(lambda rel: pair_fn(net, rel), geom, p1, f)


# The basis b_t = f dx^a dy^b of the expansion in the pair offsets, as
# (a, b, f): 1, dx, dy, dx^2 / 2, dx dy, dy^2 / 2
EXPANSION_BASIS = ((0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (2, 0, 0.5),
                   (1, 1, 1.0), (0, 2, 0.5))


@functools.lru_cache(maxsize=8)
def _pair_offsets(geom: SurfaceGeometry):
    """The relative coordinate of the aperture centres at p1 = 0, the
    offsets dx, dy (N M,) of the patch pairs from it, and the basis of the
    expansion in those offsets, as terms and as a layout.

    The terms b = (1, dx, dy, dx^2 / 2, dx dy, dy^2 / 2) are (6, N M).  The
    layout is for real views of complex arrays: entry ((t, c), (p, c')) is
    b_t at pair p if c = c' and 0 otherwise, so that the real view of
    coefficients (..., T) times the first 2T rows is the real view of their
    expansion (..., N M).
    """
    rel0 = relative_grid(geom, np.zeros(3)).reshape(-1, 3)
    mean = rel0.mean(axis=0)
    dx, dy = rel0[:, 0] - mean[0], rel0[:, 1] - mean[1]
    terms = np.stack([f * dx ** a * dy ** b for a, b, f in EXPANSION_BASIS])
    basis = np.zeros((6, 2, dx.size, 2))
    basis[:, 0, :, 0] = basis[:, 1, :, 1] = terms
    basis = basis.reshape(12, 2 * dx.size)
    for a in (mean, dx, dy, terms, basis):
        a.flags.writeable = False
    return mean, dx, dy, terms, basis


def expansion_terms(geom: SurfaceGeometry) -> np.ndarray:
    """The basis b_t(p) (6, N M) of ``term_coefficients``, read-only;
    pair p = n M + m is transmit patch n and receive patch m."""
    return _pair_offsets(geom)[3]


def _partial_column(k: int, axes) -> int:
    """The complex column, among the three outputs of ``_output_partials``
    at order 2 side by side (6 values, 6 x 3 first and 6 x 3 x 3 second
    partials), of component k's partial in the input coordinates ``axes``
    (0, 1, 2 for x, y, z), read in ascending order."""
    n = len(axes)
    # the blocks of orders below n hold 6 (1 + ... + 3^(n-1)) columns
    return 3 * (3 ** n - 1) + int(np.ravel_multi_index((k, *sorted(axes)),
                                                       (6,) + (3,) * n))


# The columns ``term_coefficients`` gathers: basis term (a, b, f) reads the
# partial of phi with a x's and b y's, and in the expansion of the partial
# d/dj of phi over the first three terms (1, dx, dy) it reads that partial
# differentiated in j once more (arrays, which ``np.take`` reads without a
# conversion per call)
_COEF_COLUMNS = np.array([[_partial_column(k, (0,) * a + (1,) * b) for k in range(6)]
                          for a, b, _ in EXPANSION_BASIS])
_COEF1_COLUMNS = np.array([[[_partial_column(k, (j,) + (0,) * a + (1,) * b)
                             for k in range(6)]
                            for a, b, _ in EXPANSION_BASIS[:3]] for j in range(3)])


def term_coefficients(net: HybridNet, geom: SurfaceGeometry, p1):
    """The per-location expansion behind ``expanded_channel``.

    For the B locations of ``p1`` (..., 3) returns the relative coordinate
    c (B, 3) of the two aperture centres, c = p1 + mean(transmit offsets) -
    mean(receive centres), and the coefficients of the de-rotated output
    phi and of its partials over the basis b_t(p) of ``expansion_terms``:
    phi[b, k, p] = sum_t coef[b, t, k] b_t(p) with coef (B, 6, 6), and
    dphi[b, k, p, j] = sum_{t < 3} coef1[b, j, t, k] b_t(p) with coef1
    (B, 3, 3, 6).

    The network and its partials up to order 2 are evaluated once per
    location, at c, by ``_output_partials``; ``_COEF_COLUMNS`` and
    ``_COEF1_COLUMNS`` gather the coefficients from its three outputs laid
    side by side.  The inputs (B, 1, 3) make every product of the kernel a
    one-row product per location, so that a location's output does not
    depend on the rest of the batch.
    """
    c = (np.asarray(p1, dtype=float) + _pair_offsets(geom)[0]).reshape(-1, 3)
    # 6 x 3^n complex columns per order n, which also holds for no location
    out = np.concatenate([a.reshape(len(c), 6 * 3 ** n) for n, a in
                          enumerate(_output_partials(net, c[:, None], 2))], axis=1)
    # ``np.take`` returns contiguous arrays, whose real views the init reads
    return (c, np.take(out, _COEF_COLUMNS, axis=1),
            np.take(out, _COEF1_COLUMNS, axis=1))


def expanded_channel(net: HybridNet, geom: SurfaceGeometry, p1, order: int = 0,
                     f: np.ndarray = None):
    """``stacked_channel`` at orders 0 and 1, with the network evaluated once
    per location instead of once per patch pair.

    Every pair's relative coordinate is c + delta: c is the relative
    coordinate of the two aperture centres, and delta a fixed offset in the
    aperture plane.  The de-rotated output phi of each pair is the
    second-order expansion of the network in delta, and its partials the
    first-order one (``term_coefficients``).  The exact exp(i k0 r)
    and r-hat of each pair then give h and dh.  A location's output does
    not depend on the rest of the batch, bit for bit: every product is one
    BLAS call of a fixed shape per location.
    """
    if order not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {order!r}")
    _, dx, dy, _, basis = _pair_offsets(geom)
    lead = np.shape(p1)[:-1]
    n, m = geom.n_patches, geom.m_patches
    c, coef, coef1 = term_coefficients(net, geom, p1)
    # the real views of the coefficients, laid out (..., k, t), hold the
    # terms and (Re, Im) in the last axis, as the rows of ``basis``
    coef = np.ascontiguousarray(coef.transpose(0, 2, 1))
    phi = [(coef.view(float) @ basis).view(complex)]          # (B, 6, N M)
    # the partials and the relative coordinates c + (dx, dy, 0) keep the
    # coordinate axis outermost in memory, so that the elementwise products
    # in ``_rotate`` run along the pairs
    rel = np.empty((3, len(c), dx.size))
    np.add(c[:, 0, None], dx, out=rel[0])
    np.add(c[:, 1, None], dy, out=rel[1])
    rel[2] = c[:, 2, None]
    if order == 1:
        coef1 = np.ascontiguousarray(coef1.transpose(0, 1, 3, 2))
        dphi = (coef1.reshape(-1, 18, 3).view(float) @ basis[:6]).view(complex)
        phi.append(np.moveaxis(dphi.reshape(-1, 3, 6, n * m), 1, -1))
    parts = [a.reshape(lead + (6 * n, m) + a.shape[3:])
             for a in _rotate(phi, np.moveaxis(rel[:, :, None], 0, -1), net.wave)]
    if order == 0:
        return combine_channel(f, parts[0])
    return tuple(combine_channel(f, a, trailing=k) for k, a in enumerate(parts))


# --- training ----------------------------------------------------------


@dataclass(frozen=True)
class CoordinateBox:
    """Axis-aligned box of relative coordinates covered by the surrogate."""

    x: tuple
    y: tuple
    z: tuple

    def __post_init__(self):
        for name in ("x", "y", "z"):
            lo, hi = getattr(self, name)
            if not hi > lo:
                raise ValueError(f"empty {name} range [{lo}, {hi}]")

    @classmethod
    def from_prior(cls, geom: SurfaceGeometry, x1, y1, z1) -> "CoordinateBox":
        """Box reachable by any patch pair when p1 is drawn from the given prior."""
        # relative coordinates are affine in p1, so the prior's corners bound them
        rel = relative_grid(geom, list(itertools.product(x1, y1, z1))).reshape(-1, 3)
        return cls(*zip(rel.min(axis=0).tolist(), rel.max(axis=0).tolist()))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo = np.array([self.x[0], self.y[0], self.z[0]])
        hi = np.array([self.x[1], self.y[1], self.z[1]])
        return lo + (hi - lo) * rng.random((count, 3))


def generate_training_set(box: CoordinateBox, geom: SurfaceGeometry, wave: WaveConfig,
                          quad: QuadratureRule, count: int, seed: int,
                          channel: str = "quadrature"):
    """Uniform samples over the coordinate box with de-rotated channel targets.

    ``channel`` selects the target oracle: "quadrature" (exact) or "approx"
    (closed-form sinc model).  Returns (inputs, targets) of shapes
    (count, 3) and (count, 12): the oracle's components h, de-rotated in
    place to h exp(-i k0 r), in the 12-slot real layout.
    """
    rng = np.random.default_rng(seed)
    rel = box.sample(rng, count)
    if channel == "quadrature":
        comps = patch_channel_batch(rel, geom, wave, quad)
    elif channel == "approx":
        comps = approx_channel_batch(rel, geom, wave)
    else:
        raise ValueError(f"unknown channel oracle {channel!r}")
    comps *= np.exp(-1j * wave.wavenumber * np.linalg.norm(rel, axis=-1))[:, None]
    targets = np.empty((count, 12))
    targets[:, :6], targets[:, 6:] = comps.real, comps.imag
    return rel, targets


@dataclass
class TrainConfig:
    """Hyper-parameters of the surrogate fit."""

    hidden_count: int = 50
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.hidden_count, numbers.Integral)
                and self.hidden_count > 0):
            raise ValueError("hidden_count must be a positive integer, "
                             f"got {self.hidden_count!r}")
        if not (isinstance(self.epochs, numbers.Integral) and self.epochs >= 0):
            raise ValueError(f"epochs must be a non-negative integer, got {self.epochs!r}")


# Fixed settings of the fit: held-out share, mini-batch size, cosine-decayed
# learning rate from LR to LR_FINAL, and the cadence (epochs) of the exact
# output-layer refit.
VAL_FRACTION = 0.1
BATCH_SIZE = 2048
LR = 5e-3
LR_FINAL = 1e-4
LS_REFIT_EVERY = 20


def nmse_db(pred12: np.ndarray, target12: np.ndarray) -> float:
    """NMSE (dB) between 12-slot real stacks, equal to the complex channel NMSE."""
    err = np.sum((pred12 - target12) ** 2)
    ref = np.sum(target12 ** 2)
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(err / ref))


def min_training_samples(hidden_count: int) -> int:
    """Smallest training set ``train`` accepts: ten samples per weight of a
    net with ``hidden_count`` hidden units (4H + 12(H + 1) weights)."""
    return 10 * (4 * hidden_count + 12 * (hidden_count + 1))


def _hidden_layer(W1, x, out):
    """tanh(W1 x), W1 = [w1 | b1], of inputs x (4, n; ones last) into ``out``."""
    return np.tanh(np.matmul(W1, x, out=out), out=out)


def _hidden_blocks(W1, x, block):
    """Hidden outputs of inputs x (4, n; ones last) by column blocks of
    ``block`` (H + 1, cols; ones last), each over the last: yields (cols, view)."""
    n_b = block.shape[1]
    for s in range(0, x.shape[1], n_b):
        blk = block[:, :x.shape[1] - s]
        _hidden_layer(W1, x[:, s:s + n_b], blk[:-1])
        yield slice(s, s + n_b), blk


def _output_layer_lstsq(x, t_of, W1, block):
    """Least-squares W2 = [w2; b2] on inputs x (4, n; ones last) and the
    targets (12, cols) that ``t_of`` gives for a slice of its columns:
    normal equations summed over the column blocks of ``_hidden_blocks``,
    solved by SVD (minimum norm if singular, as lstsq)."""
    k = block.shape[0]
    gram, rhs = np.zeros((k, k)), np.zeros((k, 12))
    for cols, blk in _hidden_blocks(W1, x, block):
        gram += blk @ blk.T
        rhs += blk @ t_of(cols).T
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def train(inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig,
          frequency: float):
    """Fit a HybridNet by Adam on mini-batches, with a cosine-decayed rate.

    The output layer is periodically re-solved exactly (it is linear in the
    weights) which greatly accelerates convergence.  The fit and its
    held-out loss run in workspaces allocated once per call: sample-major
    inputs (n, 4), gathered by whole rows, end in a ones column and hidden
    outputs (H + 1, ``BATCH_SIZE``) in a ones row, so the biases ride in the
    products of W1 = [w1 | b1] (H, 4) and W2 = [w2; b2] (H + 1, 12), views
    into one flat parameter vector (as are the gradient and Adam moments).
    Each batch and block gathers its target rows from ``targets``, which it
    never writes to, and normalises them in the (12, ``BATCH_SIZE``)
    workspace: no normalised copy is held.
    ``inputs`` are (K, 3) and ``targets`` (K, 12), all finite.  Returns
    (net, report); the report carries the held-out validation NMSE in dB.
    """
    if np.ndim(inputs) != 2 or np.shape(inputs)[1] != 3:
        raise ValueError(f"inputs must be (K, 3), got shape {np.shape(inputs)}")
    if np.shape(targets) != (len(inputs), 12):
        raise ValueError(f"targets must be (K, 12) for the K = {len(inputs)} "
                         f"inputs, got shape {np.shape(targets)}")
    for name, arr in (("inputs", inputs), ("targets", targets)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} hold non-finite values")
    n_min = min_training_samples(cfg.hidden_count)
    if inputs.shape[0] < n_min:
        raise ValueError(f"need at least {n_min} samples for hidden_count={cfg.hidden_count}")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(inputs.shape[0])
    n_val = int(round(VAL_FRACTION * inputs.shape[0]))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]

    in_lo, in_hi = inputs.min(axis=0), inputs.max(axis=0)
    in_off = 0.5 * (in_lo + in_hi)
    in_scale = 0.5 * (in_hi - in_lo)
    in_scale[in_scale == 0] = 1.0
    targets = np.asarray(targets, dtype=float)    # normalised in double precision
    out_off, out_scale = targets[tr_idx].mean(axis=0), targets[tr_idx].std(axis=0)
    out_scale[out_scale == 0] = 1.0

    x_tr, x_val = (np.column_stack([(inputs[i] - in_off) / in_scale, np.ones(len(i))])
                   for i in (tr_idx, val_idx))

    nh = cfg.hidden_count
    flat, flat_grad, m_acc, v_acc = np.zeros((4, 16 * nh + 12))
    (W1, W2), (g_W1, g_W2) = ((v[:4 * nh].reshape(nh, 4), v[4 * nh:].reshape(nh + 1, 12))
                              for v in (flat, flat_grad))

    n_tr = x_tr.shape[0]
    n_b = min(BATCH_SIZE, n_tr)
    a = np.ones((nh + 1, n_b))                # hidden outputs, then a ones row
    tb, err, back = (np.empty((rows, n_b)) for rows in (12, 12, nh))
    xb, gb = np.empty((n_b, 4)), np.empty((n_b, 12))

    def normalised(split, cols):
        """The normalised targets (12, n) of the n rows ``split[cols]``,
        gathered from ``targets`` into ``gb`` and normalised in ``tb``."""
        rows = split[cols]
        t = tb[:, :len(rows)]
        np.subtract(np.take(targets, rows, axis=0, out=gb[:len(rows)], mode="clip").T,
                    out_off[:, None], out=t)
        t /= out_scale[:, None]
        return t
    train_targets = functools.partial(normalised, tr_idx)
    W1[:, :3] = rng.normal(scale=1.0, size=(nh, 3))
    W1[:, 3] = rng.uniform(-1.0, 1.0, size=nh)
    W2[...] = _output_layer_lstsq(x_tr.T, train_targets, W1, a)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    steps_per_epoch = max(1, n_tr // BATCH_SIZE)
    total_steps = cfg.epochs * steps_per_epoch
    loss_curve = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        for k in range(steps_per_epoch):
            idx = order[k * n_b:(k + 1) * n_b]
            # idx is in range; "clip" fills ``out`` directly, "raise" via a copy
            np.take(x_tr, idx, axis=0, out=xb, mode="clip")
            h = _hidden_layer(W1, xb.T, a[:-1])
            np.matmul(W2.T, a, out=err)
            err -= train_targets(idx)                         # (12, B)
            np.matmul(a, err.T, out=g_W2)
            g_W2 /= n_b
            np.matmul(W2[:-1], err, out=back)
            back *= np.subtract(1.0, np.square(h, out=h), out=h)  # (Nh, B)
            np.matmul(back, xb, out=g_W1)
            g_W1 /= n_b
            step += 1
            # cosine-decayed learning rate
            frac = step / total_steps
            lr = LR_FINAL + 0.5 * (LR - LR_FINAL) * (1 + np.cos(np.pi * frac))
            m_acc *= beta1
            m_acc += (1 - beta1) * flat_grad
            v_acc *= beta2
            v_acc += (1 - beta2) * flat_grad**2
            flat -= (lr * (m_acc / (1 - beta1**step))
                     / (np.sqrt(v_acc / (1 - beta2**step)) + eps))
        if (epoch + 1) % LS_REFIT_EVERY == 0:
            W2[...] = _output_layer_lstsq(x_tr.T, train_targets, W1, a)
        # the held-out loss in the blocks of ``a``: one block sums as np.mean
        val_loss = float(sum(np.sum((W2.T @ blk - normalised(val_idx, cols)) ** 2)
                             for cols, blk in _hidden_blocks(W1, x_val.T, a)) / (12 * n_val))
        if not np.isfinite(val_loss):
            raise TrainingError(f"training diverged at epoch {epoch}: loss={val_loss}")
        loss_curve.append(val_loss)

    if cfg.epochs % LS_REFIT_EVERY:       # else the last epoch has just refitted
        W2[...] = _output_layer_lstsq(x_tr.T, train_targets, W1, a)
    # release the workspaces before the held-out forward; h is unset at 0 epochs
    x_tr = x_val = a = h = back = xb = tb = gb = err = None

    net = HybridNet(w1=W1[:, :3].copy(), b1=W1[:, 3].copy(),
                    w2=W2[:-1].copy(), b2=W2[-1].copy(),
                    input_offset=in_off, input_scale=in_scale,
                    output_offset=out_off, output_scale=out_scale,
                    frequency=frequency)
    val_pred_raw = net.forward(inputs[val_idx])
    report = {
        "epochs_run": len(loss_curve),
        "val_nmse_db": nmse_db(val_pred_raw, targets[val_idx]),
        "val_loss_curve": loss_curve,
        "train_count": int(n_tr),
        "val_count": int(n_val),
    }
    return net, report
