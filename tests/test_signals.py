import numpy as np
import pytest

from hmimo.signals import (PilotBlock, PreprocessError, combine_channel,
                           gen_combiner, gen_pilots, noise_precision,
                           simulate_rx, simulate_rx_hybrid, unitary_transform)


@pytest.fixture(scope="module")
def pilots():
    return gen_pilots(25, 100, seed=11)


@pytest.fixture(scope="module")
def channel():
    rng = np.random.default_rng(5)
    return rng.normal(size=(150, 100)) + 1j * rng.normal(size=(150, 100))


class TestPilots:
    def test_unit_magnitude(self, pilots):
        for s in (pilots.sx, pilots.sy, pilots.sz):
            assert np.allclose(np.abs(s), 1.0)

    def test_qpsk_alphabet(self, pilots):
        vals = np.concatenate([pilots.sx.ravel(), pilots.sy.ravel(), pilots.sz.ravel()])
        r = np.sqrt(0.5)
        assert np.allclose(np.abs(vals.real), r) and np.allclose(np.abs(vals.imag), r)

    def test_deterministic(self):
        a = gen_pilots(4, 7, seed=3)
        b = gen_pilots(4, 7, seed=3)
        assert np.array_equal(a.matrix, b.matrix)

    def test_mean_concentrates(self):
        p = gen_pilots(200, 500, seed=1)
        vals = np.concatenate([p.sx.ravel(), p.sy.ravel(), p.sz.ravel()])
        assert abs(vals.mean()) < 0.02

    def test_block_pattern(self):
        p = gen_pilots(3, 5, seed=0)
        s = p.matrix
        assert s.shape == (15, 18)
        n, ell = 3, 5
        zero = np.zeros((ell, n))
        # row block 1: [sx^T, 0, 0, sy^T, sz^T, 0]
        assert np.array_equal(s[:ell, :n], p.sx.T)
        assert np.array_equal(s[:ell, n:2 * n], zero)
        assert np.array_equal(s[:ell, 2 * n:3 * n], zero)
        assert np.array_equal(s[:ell, 3 * n:4 * n], p.sy.T)
        assert np.array_equal(s[:ell, 4 * n:5 * n], p.sz.T)
        assert np.array_equal(s[:ell, 5 * n:], zero)
        # row block 2: [0, sy^T, 0, sx^T, 0, sz^T]
        assert np.array_equal(s[ell:2 * ell, n:2 * n], p.sy.T)
        assert np.array_equal(s[ell:2 * ell, 3 * n:4 * n], p.sx.T)
        assert np.array_equal(s[ell:2 * ell, 5 * n:], p.sz.T)
        assert np.array_equal(s[ell:2 * ell, :n], zero)
        # row block 3: [0, 0, sz^T, 0, sx^T, sy^T]
        assert np.array_equal(s[2 * ell:, 2 * n:3 * n], p.sz.T)
        assert np.array_equal(s[2 * ell:, 3 * n:4 * n], zero)
        assert np.array_equal(s[2 * ell:, 4 * n:5 * n], p.sx.T)
        assert np.array_equal(s[2 * ell:, 5 * n:], p.sy.T)

    def test_matrix_built_once_read_only(self):
        # every read returns the one read-only array, equal to the np.block
        # assembly of the three pilot matrices
        p = gen_pilots(3, 5, seed=4)
        s = p.matrix
        assert p.matrix is s
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = 0.0
        zero = np.zeros((5, 3), dtype=complex)
        sx, sy, sz = p.sx.T, p.sy.T, p.sz.T
        assert np.array_equal(s, np.block([[sx, zero, zero, sy, sz, zero],
                                           [zero, sy, zero, sx, zero, sz],
                                           [zero, zero, sz, zero, sx, sy]]))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gen_pilots(0, 5, seed=0)


class TestSimulateRx:
    def test_noiseless(self, pilots, channel):
        y, gamma = simulate_rx(channel, pilots, np.inf, seed=0)
        assert np.array_equal(y, pilots.matrix @ channel)
        assert gamma == np.inf

    @pytest.mark.parametrize("snr", [-3.0, 10.0, 25.0])
    def test_precision_equals_noise_precision(self, pilots, channel, snr):
        # simulate_rx reads the signal power from its noiseless output
        _, gamma = simulate_rx(channel, pilots, snr, seed=0)
        assert gamma == noise_precision(pilots.matrix @ channel, snr)

    def test_snr_calibration(self, pilots, channel):
        y, gamma = simulate_rx(channel, pilots, 10.0, seed=0)
        w = y - pilots.matrix @ channel
        sig = np.linalg.norm(pilots.matrix @ channel) ** 2 / y.size
        measured = 10 * np.log10(sig * gamma)
        assert measured == pytest.approx(10.0, abs=1e-12)
        emp_var = np.mean(np.abs(w) ** 2)
        assert emp_var == pytest.approx(1.0 / gamma, rel=0.05)

    def test_signal_referenced(self, pilots, channel):
        _, g1 = simulate_rx(channel, pilots, 10.0, seed=0)
        _, g2 = simulate_rx(2 * channel, pilots, 10.0, seed=0)
        assert g2 == pytest.approx(g1 / 4, rel=1e-12)

    def test_dimension_mismatch(self, pilots):
        with pytest.raises(ValueError):
            simulate_rx(np.zeros((151, 100), dtype=complex), pilots, 10.0, seed=0)


class TestUnitaryTransform:
    def test_phi_shape_and_residual(self, pilots, channel):
        # the economy model keeps the 6N rows of Phi; its misfit adds the
        # dropped energy, so that it is the residual over all 3L rows
        y, _ = simulate_rx(channel, pilots, 5.0, seed=2)
        s = pilots.matrix
        model = unitary_transform(s, y)
        assert model.phi.shape == (150, 150)
        assert model.r.shape == (150, 100)
        assert model.rows == 300
        assert model.misfit(channel) == pytest.approx(
            np.linalg.norm(y - s @ channel) ** 2, rel=1e-10)

    def test_gram_preserved(self, pilots):
        s = pilots.matrix
        model = unitary_transform(s, np.zeros((300, 1), dtype=complex))
        assert np.allclose(model.phi.conj().T @ model.phi, s.conj().T @ s,
                           atol=1e-9 * np.linalg.norm(s) ** 2)

    def test_norm_preserved(self, pilots, channel):
        s = pilots.matrix
        model = unitary_transform(s, s @ channel)
        assert np.linalg.norm(model.phi @ channel) == pytest.approx(
            np.linalg.norm(s @ channel), rel=1e-12)

    def test_trailing_rows_zero(self, pilots, channel):
        # the 3L - 6N rows a full SVD adds, on which Phi is zero, are kept
        # only as their energy: that of Y along the trailing left singular
        # vectors
        s = pilots.matrix
        y, _ = simulate_rx(channel, pilots, 5.0, seed=3)
        model = unitary_transform(s, y)
        u = np.linalg.svd(s, full_matrices=True)[0]
        trailing = np.linalg.norm(u[:, 150:].conj().T @ y) ** 2
        assert model.dropped == pytest.approx(trailing, rel=1e-12)
        zero = unitary_transform(s, np.zeros((300, 2), dtype=complex))
        assert zero.r.shape == (150, 2) and zero.dropped == 0.0

    def test_energy_split(self, pilots, channel):
        y, _ = simulate_rx(channel, pilots, 5.0, seed=4)
        model = unitary_transform(pilots.matrix, y)
        assert (np.linalg.norm(model.r) ** 2 + model.dropped
                == pytest.approx(np.linalg.norm(y) ** 2, rel=1e-12))

    def test_noiseless_dropped_at_roundoff(self, pilots, channel):
        y = pilots.matrix @ channel
        model = unitary_transform(pilots.matrix, y)
        assert model.dropped <= 1e-24 * np.linalg.norm(y) ** 2

    def test_rank_deficient_rejected(self):
        s = np.ones((10, 4), dtype=complex)
        with pytest.raises(PreprocessError):
            unitary_transform(s, np.zeros((10, 1), dtype=complex))

    def test_wide_rejected(self):
        with pytest.raises(PreprocessError):
            unitary_transform(np.ones((4, 10), dtype=complex),
                              np.zeros((4, 1), dtype=complex))


class TestGramRefusal:
    @staticmethod
    def _pilots_of_condition(cond, rows=40, cols=8):
        rng = np.random.default_rng(1)
        q1 = np.linalg.qr(rng.normal(size=(rows, cols))
                          + 1j * rng.normal(size=(rows, cols)))[0]
        q2 = np.linalg.qr(rng.normal(size=(cols, cols))
                          + 1j * rng.normal(size=(cols, cols)))[0]
        return (q1 * np.geomspace(1.0, 1.0 / cond, cols)) @ q2.conj().T

    def test_refused_between_old_and_new_thresholds(self):
        # the Gram matrix resolves sigma_min only above sqrt(3L eps) sigma_max
        # (1.1e7 at 3L = 40), so a condition number of 1e9, which the SVD
        # threshold 1 / (3L eps) = 1.1e14 let pass, is refused by name
        s = self._pilots_of_condition(1e9)
        assert np.linalg.cond(s) == pytest.approx(1e9, rel=1e-3)
        with pytest.raises(PreprocessError, match=r"condition number .* 1\.06e\+07"):
            unitary_transform(s, np.zeros((40, 1), dtype=complex))

    def test_accepted_below_new_threshold(self):
        # at a condition number of 1e5 the model is built, and its dropped
        # energy is the least-squares residual (first-order insensitive to
        # the cond^2 eps error of the Gram solve)
        s = self._pilots_of_condition(1e5)
        rng = np.random.default_rng(2)
        y = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        model = unitary_transform(s, y)
        ls = np.linalg.lstsq(s, y, rcond=None)[0]
        assert model.dropped == pytest.approx(np.linalg.norm(y - s @ ls) ** 2,
                                              rel=1e-10)
        assert np.allclose(model.phi.conj().T @ model.phi, s.conj().T @ s,
                           rtol=0, atol=1e-12)


class TestCombiner:
    def test_entry_magnitude(self):
        f = gen_combiner(5, 20, seed=4)
        assert np.allclose(np.abs(f), 1 / np.sqrt(20))
        assert np.allclose(np.linalg.norm(f, axis=1), 1.0)

    def test_deterministic(self):
        assert np.array_equal(gen_combiner(3, 9, seed=1), gen_combiner(3, 9, seed=1))

    def test_invalid(self):
        with pytest.raises(ValueError):
            gen_combiner(10, 5, seed=0)

    def test_combine_blockdiag_oracle(self, channel):
        f = gen_combiner(20, 100, seed=3)
        g = combine_channel(f, channel)
        assert g.shape == (150, 20)
        # oracle: apply blockdiag(F,...,F) to the transposed stacked blocks
        n = 25

        def oracle(h):                                 # (6N, M) -> (6N, P)
            return np.vstack([(f @ h[k * n:(k + 1) * n].T).T for k in range(6)])

        assert np.allclose(g, oracle(channel))
        # a leading batch axis and trailing derivative axes stay in place
        rng = np.random.default_rng(8)
        for lead, trail in (((2,), ()), ((), (3,)), ((2,), (3, 3))):
            shape = lead + channel.shape + trail
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            g = combine_channel(f, h, trailing=len(trail))
            assert g.shape == lead + (150, 20) + trail
            for i in np.ndindex(lead):
                for j in np.ndindex(trail):
                    assert np.allclose(g[i + (...,) + j], oracle(h[i + (...,) + j]))
        # the shape checks read the axes before the trailing ones
        with pytest.raises(ValueError):
            combine_channel(f, h)
        # without a combiner the receiver observes the channel itself
        assert combine_channel(None, channel) is channel
        assert combine_channel(None, h, trailing=2) is h

    def test_hybrid_identity_reduces(self, pilots, channel):
        f = np.eye(100, dtype=complex)
        y_h, g_h = simulate_rx_hybrid(f, channel, pilots, 10.0, seed=7)
        y, g = simulate_rx(channel, pilots, 10.0, seed=7)
        assert np.array_equal(y_h, y)
        assert g_h == g

    def test_hybrid_dims(self, channel):
        pilots = gen_pilots(25, 200, seed=2)
        f = gen_combiner(20, 100, seed=1)
        y, _ = simulate_rx_hybrid(f, channel, pilots, 10.0, seed=0)
        assert y.shape == (600, 20)


class TestNoisePrecision:
    def test_known_value(self):
        s = np.eye(4, dtype=complex)
        h = np.full((4, 2), 2.0, dtype=complex)
        # per-entry signal power = 8*|2|^2/(4*2) = 4; snr 0 dB -> gamma = 1/4
        assert noise_precision(s @ h, 0.0) == pytest.approx(0.25, rel=1e-12)
