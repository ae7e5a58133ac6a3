import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import as_blocks
from hmimo import green
from hmimo.geometry import SurfaceGeometry, relative_grid
from hmimo.green import (MAX_QUADRATURE_ORDER, QuadratureRule, SingularityError,
                         WaveConfig, approx_channel_batch, full_channel,
                         patch_channel_batch, _CHUNK_NODES, _component_sums,
                         _dyadic_from_displacement, _offset_axis)
from hmimo.harness import PROFILES, build_geometry

F_3GHZ = 3e9


@pytest.fixture(scope="module")
def wave():
    return WaveConfig(F_3GHZ)


@pytest.fixture(scope="module")
def geom():
    return SurfaceGeometry(10, 10, 5, 5, 0.05, 0.05, 0.01, 0.01)


# patch widths with a flat offset piece (ci), without one (equal widths),
# and with tx_dx != tx_dy (rectangular)
OFFSET_GEOMETRIES = {
    "ci": build_geometry(PROFILES["ci"]),
    "equal": SurfaceGeometry(2, 2, 2, 2, 0.05, 0.05, 0.05, 0.05),
    "rect": SurfaceGeometry(3, 3, 2, 2, 0.03, 0.05, 0.07, 0.02),
}


def _offset_grid(geom, q):
    """The offset nodes (Q, 3) and weights (Q,) of ``patch_channel_batch``'s
    rule: the tensor grid of the two axes' offset rules at o_z = 0, x
    outermost."""
    (ux, wx), (uy, wy) = (_offset_axis(geom.tx_dx, geom.rx_dx, q),
                          _offset_axis(geom.tx_dy, geom.rx_dy, q))
    gx, gy = np.meshgrid(ux, uy, indexing="ij")
    offs = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=-1)
    return offs, np.outer(wx, wy).ravel()


def _tensor_product_blocks(rel, geom, wave, order):
    """Reference blocks from the 4-D product rule over both patch areas."""
    q = QuadratureRule(order)
    xt, yt, xr, yr = np.meshgrid(q.nodes * geom.tx_dx, q.nodes * geom.tx_dy,
                                 q.nodes * geom.rx_dx, q.nodes * geom.rx_dy,
                                 indexing="ij")
    offs = np.stack([(xt - xr).ravel(), (yt - yr).ravel(),
                     np.zeros(xt.size)], axis=-1)
    w = np.einsum("i,j,k,l->ijkl", q.weights * geom.tx_dx,
                  q.weights * geom.tx_dy, q.weights * geom.rx_dx,
                  q.weights * geom.rx_dy).ravel()
    return np.stack([wave.prefactor * np.einsum(
        "q,qij->ij", w, _dyadic_from_displacement(r + offs, wave.wavenumber))
        for r in rel])


class TestDyadicGreen:
    def test_zero_distance_raises(self, wave):
        with pytest.raises(SingularityError):
            _dyadic_from_displacement(np.zeros(3), wave.wavenumber)

    def test_symmetry(self, wave):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rt = rng.normal(size=3) + np.array([0, 0, 10.0])
            rr = rng.normal(size=3)
            g = _dyadic_from_displacement(rt - rr, wave.wavenumber)
            assert np.array_equal(g, g.T)

    def test_far_field_coefficients(self, wave):
        # c1 -> 1, c2 -> -1 as k0*r -> infinity
        lam = wave.wavelength
        r = 1e6 * lam
        g = _dyadic_from_displacement(np.array([0, 0, r]), wave.wavenumber)
        scal = np.exp(1j * wave.wavenumber * r) / (4 * np.pi * r)
        c1 = g[0, 0] / scal
        c2 = g[2, 2] / scal - c1
        assert abs(c1 - 1.0) < 1e-5
        assert abs(c2 + 1.0) < 1e-5

    def test_z_aligned_structure(self, wave):
        g = _dyadic_from_displacement(np.array([0, 0, 25.0]), wave.wavenumber)
        offdiag = g - np.diag(np.diag(g))
        assert np.max(np.abs(offdiag)) == 0.0
        kr = wave.wavenumber * 25.0
        scal = np.exp(1j * kr) / (4 * np.pi * 25.0)
        c1 = 1 + 1j / kr - 1 / kr**2
        c2 = 3 / kr**2 - 3j / kr - 1
        assert g[2, 2] == pytest.approx(scal * (c1 + c2), rel=1e-12)
        assert g[0, 0] == pytest.approx(scal * c1, rel=1e-12)


class TestQuadrature:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match=">= 2"):
            QuadratureRule(1)
        # refused before a rule is built: 2**63 and 10**400 used to escape
        # as an OverflowError, and a large order would factor a matrix of
        # its size
        for order in (MAX_QUADRATURE_ORDER + 1, 2**63, 10**400):
            with pytest.raises(ValueError, match=f"<= {MAX_QUADRATURE_ORDER}$"):
                QuadratureRule(order)

    def test_rule_is_numpys_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss
        for order in [*range(2, 33), MAX_QUADRATURE_ORDER]:
            q, (x, w) = QuadratureRule(order), leggauss(order)
            assert np.array_equal(q.nodes, 0.5 * x), order
            assert np.array_equal(q.weights, 0.5 * w), order

    def test_oracle_loads_no_numpy_polynomial(self):
        # numpy.polynomial is nine modules, about 0.75 MB resident, for a
        # rule that _leggauss computes alike
        src = str(Path(green.__file__).resolve().parents[1])
        code = ("import sys, numpy as np\n"
                "from hmimo import QuadratureRule, SurfaceGeometry, WaveConfig, full_channel\n"
                "g = SurfaceGeometry(6, 6, 3, 3, 0.05, 0.05, 0.01, 0.01)\n"
                "h = full_channel(g, np.array([0.3, -0.2, 25.0]), WaveConfig(3e9),\n"
                "                 QuadratureRule(4)).stacked\n"
                "assert h.shape == (54, 36)\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_weights_sum_to_one(self):
        for order in (2, 4, 8, 16):
            q = QuadratureRule(order)
            assert np.sum(q.weights) == pytest.approx(1.0, rel=1e-14)
            assert np.all(np.abs(q.nodes) < 0.5)

    def test_patch_channel_symmetric(self, geom, wave):
        rel = relative_grid(geom, (0.3, -0.2, 25.0))[12, 6]     # rx 7, tx 13
        b = as_blocks(patch_channel_batch(rel, geom, wave, QuadratureRule(4)))[0]
        assert np.array_equal(b, b.T)

    def test_self_convergence(self, geom, wave):
        rel = relative_grid(geom, (0.3, -0.2, 25.0))[0, 0]
        b8 = as_blocks(patch_channel_batch(rel, geom, wave, QuadratureRule(8)))
        b16 = as_blocks(patch_channel_batch(rel, geom, wave, QuadratureRule(16)))
        err = np.linalg.norm(b8 - b16) / np.linalg.norm(b16)
        assert err < 1e-8

    def test_convergence_monotone_until_machine_eps(self, geom, wave):
        rel = relative_grid(geom, (0.1, 0.2, 5.0))[0, 0]
        ref = as_blocks(patch_channel_batch(rel, geom, wave, QuadratureRule(32)))
        errs = []
        for order in (2, 4, 8):
            b = as_blocks(patch_channel_batch(rel, geom, wave, QuadratureRule(order)))
            errs.append(np.linalg.norm(b - ref) / np.linalg.norm(ref))
        assert errs[0] > errs[1] > errs[2] or errs[-1] < 1e-14

    def test_translation_invariance(self, geom, wave):
        q = QuadratureRule(6)
        # pairs (m=1,n=2) and shifted surfaces must give identical blocks
        rel = relative_grid(geom, (0.3, -0.2, 25.0))[1, 0]
        b_a = as_blocks(patch_channel_batch(rel, geom, wave, q))
        # shift both surfaces: equivalent to evaluating the same relative coords
        b_b = as_blocks(patch_channel_batch(np.array([[0.31, -0.2, 25.0]]), geom,
                                            wave, q))
        assert np.allclose(b_a, b_b, rtol=1e-14)

    @pytest.mark.parametrize("order", [4, 8])
    @pytest.mark.parametrize("profile", ["ci", "paper"])
    def test_batch_matches_dyadic_form(self, wave, order, profile):
        # the 3x3 dyad at every node, then the weighted sum over the nodes
        g = PROFILES[profile]["geometry"]
        geom = SurfaceGeometry(g["rx_rows"], g["rx_cols"], g["tx_rows"],
                               g["tx_cols"], g["rx_dx"], g["rx_dy"],
                               g["tx_dx"], g["tx_dy"])
        q = QuadratureRule(order)
        rng = np.random.default_rng(order)
        rel = np.column_stack([rng.uniform(-1.5, 1.5, 30),
                               rng.uniform(-1.5, 1.5, 30),
                               rng.uniform(0.5, 40.0, 30)])
        offs, w = _offset_grid(geom, q)
        dyads = _dyadic_from_displacement(rel[:, None, :] + offs, wave.wavenumber)
        ref = wave.prefactor * np.einsum("q,bqij->bij", w, dyads)
        out = as_blocks(patch_channel_batch(rel, geom, wave, q))
        err = np.linalg.norm(out - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert np.max(err) <= 1e-13
        assert np.array_equal(out, out.transpose(0, 2, 1))

    def test_batch_zero_separation_raises(self, wave):
        # a coplanar pair at zero centre separation: its footprints overlap,
        # which is refused before the kernel runs
        geom = SurfaceGeometry(2, 2, 2, 2, 0.05, 0.05, 0.05, 0.05)
        rel = np.array([[0.0, 0.0, 25.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SingularityError):
            patch_channel_batch(rel, geom, wave, QuadratureRule(4))

    def test_kernel_zero_distance_raises(self, wave):
        # the centre c = (-ux[i], -uy[j], 0) puts node (i, j) at zero
        # distance; patch_channel_batch refuses it as a coplanar overlap
        # first, so the kernel's own check is called directly
        g, q = OFFSET_GEOMETRIES["rect"], QuadratureRule(4)
        ux, uy = _offset_axis(g.tx_dx, g.rx_dx, q)[0], _offset_axis(g.tx_dy, g.rx_dy, q)[0]
        offs, w = _offset_grid(g, q)
        ox, oy = offs[:, 0], offs[:, 1]
        mom = np.column_stack([np.ones(w.size), ox, oy, ox * ox, oy * oy, ox * oy])

        def sums(*centres):
            c = np.array(centres)
            out = np.empty((len(c), 6), dtype=complex)
            _component_sums(c, ux, uy, w / (4.0 * np.pi), mom, wave.wavenumber,
                            np.empty(8 * len(c) * w.size), out)
            return out

        with pytest.raises(SingularityError, match="zero distance"):
            sums([0.0, 0.0, 25.0], [-ux[2], -uy[5], 0.0])
        # one or two of the three terms of r^2 vanishing is no singularity
        for c in ([-ux[2], -uy[5], 1e-3], [-ux[2], 0.5 * (uy[4] + uy[5]), 0.0],
                  [0.5 * (ux[1] + ux[2]), -uy[5], 0.0]):
            assert np.all(np.isfinite(sums(c)))


class TestOffsetRule:
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    @pytest.mark.parametrize("name", sorted(OFFSET_GEOMETRIES))
    def test_weights_sum_to_area_product(self, name, order):
        g = OFFSET_GEOMETRIES[name]
        q = QuadratureRule(order)
        for a, b in ((g.tx_dx, g.rx_dx), (g.tx_dy, g.rx_dy)):
            u, w = _offset_axis(a, b, q)
            assert np.sum(w) == pytest.approx(a * b, rel=1e-14)
            assert np.all(np.abs(u) < (a + b) / 2) and np.all(w > 0)
        offs, w = _offset_grid(g, q)
        area = g.tx_dx * g.tx_dy * g.rx_dx * g.rx_dy
        assert np.sum(w) == pytest.approx(area, rel=1e-14)
        pieces = 2 if name == "equal" else 3
        assert offs.shape == ((pieces * order) ** 2, 3)

    @pytest.mark.parametrize("z", [0.1, 0.5, 2.0, 20.0])
    @pytest.mark.parametrize("name", sorted(OFFSET_GEOMETRIES))
    def test_matches_tensor_product_rule(self, wave, name, z):
        g = OFFSET_GEOMETRIES[name]
        rel = np.array([[0.0, 0.0, z], [0.04, -0.03, z], [-0.25, 0.3, z]])
        ref = _tensor_product_blocks(rel, g, wave, 16)
        out = as_blocks(patch_channel_batch(rel, g, wave, QuadratureRule(8)))
        err = np.linalg.norm(out - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("order", [4, 8])
    def test_coplanar_overlap_raises(self, wave, order):
        g = OFFSET_GEOMETRIES["ci"]
        q = QuadratureRule(order)
        for x in (0.0, 0.004):
            with pytest.raises(SingularityError):
                patch_channel_batch(np.array([[x, 0.0, 0.0]]), g, wave, q)
        b = patch_channel_batch(np.array([[0.1, 0.0, 0.0]]), g, wave, q)
        assert np.all(np.isfinite(b))


class TestChunks:
    """Batches that ``patch_channel_batch`` takes in several chunks."""

    @staticmethod
    def _rows(n, seed=5):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n),
                                rng.uniform(0.5, 40.0, n)])

    @staticmethod
    def _chunk_rows(geom, q):
        return _CHUNK_NODES // _offset_grid(geom, q)[1].size

    def test_rows_match_single_row_calls(self, wave):
        # three chunks, the last one partial; each row's node sum is its own
        # rows of one GEMM, so it does not depend on the rows beside it, nor
        # on the workspace size, at either profile's patch widths and at the
        # orders 4 (both profiles) and 8 (held-out sets)
        for profile, order in itertools.product(("ci", "paper"), (4, 8)):
            g, q = build_geometry(PROFILES[profile]), QuadratureRule(order)
            step = self._chunk_rows(g, q)
            rel = self._rows(2 * step + step // 2)
            out = patch_channel_batch(rel, g, wave, q)
            ref = np.concatenate([patch_channel_batch(r, g, wave, q) for r in rel])
            assert np.array_equal(out, ref), (profile, order)

    def test_zero_distance_in_last_chunk_raises(self, wave):
        # off the patch plane, so the coplanar check passes, but z^2
        # underflows and the first node sits at zero distance
        g, q = OFFSET_GEOMETRIES["ci"], QuadratureRule(4)
        step = self._chunk_rows(g, q)
        rel = self._rows(2 * step + 3)
        offs, _ = _offset_grid(g, q)
        rel[-2] = (-offs[0, 0], -offs[0, 1], 1e-200)
        with pytest.raises(SingularityError, match="zero distance"):
            patch_channel_batch(rel, g, wave, q)
        rel[-2] = (0.0, 0.0, 0.0)
        with pytest.raises(SingularityError, match="overlapping footprints"):
            patch_channel_batch(rel, g, wave, q)

    def test_memory_bounded(self, wave):
        # doubling the rows adds their input and output, not more workspace
        g, q = OFFSET_GEOMETRIES["ci"], QuadratureRule(4)
        peaks = []
        for n in (20_000, 40_000):
            rel = self._rows(n)
            tracemalloc.start()
            try:
                out = patch_channel_batch(rel, g, wave, q)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del out
        added = 20_000 * (3 * 8 + 6 * 16)
        assert peaks[1] - peaks[0] <= added + 2 ** 20


class TestApproxChannel:
    def test_aligned_patch_sinc_is_one(self, geom, wave):
        # aligned: x_m^r == x_n^t and y_m^r == y_n^t -> pure prefactor * C
        rel = relative_grid(geom, (0.0, 0.0, 30.0))[0, 0]
        b = as_blocks(approx_channel_batch(rel, geom, wave))[0]
        r = 30.0
        area = (0.01 * 0.01) * (0.05 * 0.05)
        expect_mag = abs(wave.prefactor) * area / (4 * np.pi * r)
        kr = wave.wavenumber * r
        c1 = 1 + 1j / kr - 1 / kr**2
        assert abs(b[0, 0]) == pytest.approx(expect_mag * abs(c1), rel=1e-12)

    def test_magnitude_prefactor(self, wave, geom):
        rel = relative_grid(geom, (0.0, 0.0, 30.0))[0, 0]
        b = as_blocks(approx_channel_batch(rel, geom, wave))[0]
        omega_mu = abs(wave.prefactor)
        area_t, area_r = 1e-4, 2.5e-3
        expected = omega_mu * area_t * area_r / (4 * np.pi * 30.0)
        kr = wave.wavenumber * 30.0
        c1 = abs(1 + 1j / kr - 1 / kr**2)
        assert abs(b[0, 0]) == pytest.approx(expected * c1, rel=1e-12)

    def test_zero_distance_raises(self, geom, wave):
        # the point dyad's singularity, not a NaN block
        with pytest.raises(SingularityError):
            approx_channel_batch(np.zeros((1, 3)), geom, wave)

    def test_matches_quadrature_far(self, geom, wave):
        rel = relative_grid(geom, (0.3, -0.2, 25.0))[4, 2]      # rx 3, tx 5
        b_quad = as_blocks(patch_channel_batch(rel, geom, wave, QuadratureRule(8)))
        b_approx = as_blocks(approx_channel_batch(rel, geom, wave))
        err = np.linalg.norm(b_approx - b_quad) / np.linalg.norm(b_quad)
        assert err < 0.05

    def test_error_decreases_with_distance(self, geom, wave):
        q = QuadratureRule(8)
        errs = []
        for z in (5.0, 10.0, 20.0, 40.0):
            rel = relative_grid(geom, (0.2, 0.1, z))[0, 0]
            b_q = as_blocks(patch_channel_batch(rel, geom, wave, q))
            b_a = as_blocks(approx_channel_batch(rel, geom, wave))
            errs.append(np.linalg.norm(b_a - b_q) / np.linalg.norm(b_q))
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))


class TestChannelTensor:
    def test_dimensions(self, geom, wave):
        h = full_channel(geom, (0.3, -0.2, 25.0), wave, QuadratureRule(4))
        assert h.stacked.shape == (150, 100)

    def test_blocks_match_pairwise_quadrature(self, geom, wave):
        # the six components of pair (n, m) sit in rows n - 1, n - 1 + N, ...
        # of column m - 1, and equal the entries of the pair's own block
        q = QuadratureRule(4)
        p1 = (0.3, -0.2, 25.0)
        h = full_channel(geom, p1, wave, q).stacked
        rel = relative_grid(geom, p1)
        n_tx = geom.n_patches
        for m, n in [(1, 1), (42, 7), (100, 25)]:
            block = as_blocks(patch_channel_batch(rel[n - 1, m - 1], geom, wave, q))[0]
            rows = np.arange(6) * n_tx + n - 1
            assert np.array_equal(block, block.T)
            assert np.allclose(as_blocks(h[rows, m - 1]), block, rtol=1e-12)

    def test_identical_relative_coords_share_blocks(self, wave):
        # equal patch sizes make offsets collide between pairs
        geom = SurfaceGeometry(3, 3, 2, 2, 0.05, 0.05, 0.05, 0.05)
        h = full_channel(geom, (0.0, 0.0, 25.0), wave, QuadratureRule(4)).stacked
        # rel(m=2, n=2) has x: 0.05-0.05 = 0 = rel(1,1); the six components
        # of pair (n, m) sit in rows n - 1, n - 1 + N, ... of column m - 1
        assert np.allclose(h[1::4, 1], h[0::4, 0], rtol=1e-13)


class TestFieldDump:
    def test_derotated_varies_slowly(self, geom, wave):
        # the xx component over the plane y = 0 (x on [-1, 1] m, z on
        # [20, 24] m) changes along x more than ten times faster than the
        # same component de-rotated by exp(-i k0 |rel|), which is what the
        # surrogate fits
        x, z = np.meshgrid(np.linspace(-1.0, 1.0, 41), np.linspace(20.0, 24.0, 9),
                           indexing="ij")
        rel = np.stack([x, np.zeros_like(x), z], axis=-1).reshape(-1, 3)
        raw = patch_channel_batch(rel, geom, wave, QuadratureRule(4))[:, 0]
        derot = raw * np.exp(-1j * wave.wavenumber * np.linalg.norm(rel, axis=-1))
        grad_raw = np.max(np.abs(np.diff(raw.real.reshape(41, 9), axis=0)))
        grad_derot = np.max(np.abs(np.diff(derot.real.reshape(41, 9), axis=0)))
        assert grad_raw > 10 * grad_derot

