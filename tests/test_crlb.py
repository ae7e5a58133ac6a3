"""Tests for the Fisher information matrix and position error bound."""

import tracemalloc

import numpy as np
import pytest

from hmimo.green import QuadratureRule, WaveConfig, full_channel
from hmimo.harness import PROFILES, build_geometry
from hmimo.signals import gen_combiner, gen_pilots
from hmimo.surrogate import HybridNet, stacked_channel
from hmimo.crlb import (SingularInformationError, _gram_re, crlb_position,
                        crlb_position_normalized, fim, hessian, log_likelihood,
                        score)


@pytest.fixture(scope="module")
def pilot_matrix(small_geometry):
    return gen_pilots(small_geometry.n_patches, 60, seed=21).matrix


@pytest.fixture(scope="module")
def paper_case():
    """The paper geometry (10 x 10 receive, 5 x 5 transmit patches), a
    random 50-node net, the profile's 100 pilots and a 32-chain combiner."""
    geom = build_geometry(PROFILES["paper"])
    rng = np.random.default_rng(3)
    net = HybridNet(w1=rng.normal(size=(50, 3)), b1=rng.normal(size=50),
                    w2=rng.normal(size=(50, 12)), b2=rng.normal(size=12),
                    input_offset=np.array([0.0, 0.0, 30.0]),
                    input_scale=np.array([1.5, 1.5, 10.0]),
                    output_offset=rng.normal(size=12) * 1e-6,
                    output_scale=np.abs(rng.normal(size=12)) * 1e-5,
                    frequency=3e9)
    return (geom, net, gen_pilots(geom.n_patches, 100, seed=1).matrix,
            gen_combiner(32, geom.m_patches, seed=2))


class TestFim:
    def test_symmetric_and_psd(self, trained_net, small_geometry, pilot_matrix):
        rng = np.random.default_rng(0)
        for _ in range(4):
            p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(20, 40)])
            f = fim(p, trained_net, small_geometry, pilot_matrix, 1e9)
            assert np.allclose(f, f.T)
            eig = np.linalg.eigvalsh(f)
            assert eig.min() >= -1e-10 * np.trace(f)

    def test_linear_in_gamma(self, trained_net, small_geometry, pilot_matrix):
        p = np.array([0.2, 0.4, 25.0])
        f1 = fim(p, trained_net, small_geometry, pilot_matrix, 3e8)
        f10 = fim(p, trained_net, small_geometry, pilot_matrix, 3e9)
        assert np.allclose(f10, 10.0 * f1, rtol=1e-12)

    def test_matches_einsum_reference(self, trained_net, small_geometry,
                                      pilot_matrix):
        """The GEMM forms of fim and score equal the explicit Gram sums,
        fim also behind a P < M combiner."""
        p, gamma = np.array([0.2, 0.4, 25.0]), 1e9
        h, dh = stacked_channel(trained_net, small_geometry, p, order=1)
        gram = pilot_matrix.conj().T @ pilot_matrix
        ref = 2.0 * gamma * np.einsum("kma,kl,lmb->ab", dh.conj(), gram, dh).real
        f = fim(p, trained_net, small_geometry, pilot_matrix, gamma)
        assert np.linalg.norm(f - ref) <= 1e-12 * np.linalg.norm(ref)
        comb = gen_combiner(8, small_geometry.m_patches, seed=5)
        ref = 2.0 * gamma * np.einsum("kma,pm,kl,lnb,pn->ab", dh.conj(),
                                      comb.conj(), gram, dh, comb,
                                      optimize=True).real
        f = fim(p, trained_net, small_geometry, pilot_matrix, gamma, f=comb)
        assert np.linalg.norm(f - ref) <= 1e-12 * np.linalg.norm(ref)
        y0 = pilot_matrix @ h
        rng = np.random.default_rng(2)
        y = y0 + 1e-3 * (rng.standard_normal(y0.shape)
                         + 1j * rng.standard_normal(y0.shape))
        ref = 2.0 * gamma * np.einsum("kma,kl,lm->a", dh.conj(),
                                      pilot_matrix.conj().T,
                                      y - y0).real
        g = score(p, y, pilot_matrix, trained_net, small_geometry, gamma)
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_wave_is_only_checked(self, trained_net, small_geometry, pilot_matrix):
        # the information rotates by the net's own carrier: a wave at the
        # net's frequency changes nothing, one at another is refused
        p = np.array([0.2, 0.4, 25.0])
        f = fim(p, trained_net, small_geometry, pilot_matrix, 1e9)
        assert np.array_equal(fim(p, trained_net, small_geometry, pilot_matrix,
                                  1e9, trained_net.wave), f)
        with pytest.raises(ValueError, match="^wave is at 6e\\+09 Hz, but the "
                           "surrogate was trained at 3e\\+09 Hz$"):
            fim(p, trained_net, small_geometry, pilot_matrix, 1e9, WaveConfig(6e9))

    def test_identity_combiner_changes_nothing(self, trained_net,
                                               small_geometry, pilot_matrix):
        p = np.array([0.2, 0.4, 25.0])
        eye = np.eye(small_geometry.m_patches)
        assert np.array_equal(
            fim(p, trained_net, small_geometry, pilot_matrix, 1e9, f=eye),
            fim(p, trained_net, small_geometry, pilot_matrix, 1e9))

    def test_score_covariance_identity(self, trained_net, small_geometry,
                                       pilot_matrix, true_position):
        """Empirical covariance of the score at the truth equals the FIM."""
        gamma = 1.0 / (np.abs(stacked_channel(
            trained_net, small_geometry, true_position)) ** 2).mean()
        h = stacked_channel(trained_net, small_geometry, true_position)
        y0 = pilot_matrix @ h
        f = fim(true_position, trained_net, small_geometry, pilot_matrix, gamma)
        rng = np.random.default_rng(5)
        scores = []
        for _ in range(1000):
            w = np.sqrt(0.5 / gamma) * (rng.standard_normal(y0.shape)
                                        + 1j * rng.standard_normal(y0.shape))
            scores.append(score(true_position, y0 + w, pilot_matrix,
                                trained_net, small_geometry, gamma))
        scores = np.array(scores)
        assert np.allclose(scores.mean(axis=0), 0.0,
                           atol=0.15 * np.sqrt(np.diag(f)))
        emp = scores.T @ scores / scores.shape[0]
        rel = np.linalg.norm(emp - f) / np.linalg.norm(f)
        assert rel < 0.1


class TestGramRe:
    """The real Gram of ``_gram_re`` against the complex form."""

    @pytest.mark.parametrize("combined", [False, True], ids=["digital", "combined"])
    @pytest.mark.parametrize("shape", ["ci", "paper"])
    def test_matches_complex_form(self, shape, combined, trained_net,
                                  small_geometry, pilot_matrix, paper_case):
        if shape == "ci":
            geom, net, s = small_geometry, trained_net, pilot_matrix
            comb = gen_combiner(8, geom.m_patches, seed=5)
        else:
            geom, net, s, comb = paper_case
        f = comb if combined else None
        p, gamma = np.array([0.2, 0.4, 25.0]), 1e9
        _, dh = stacked_channel(net, geom, p, order=1, f=f)
        sd = (s @ dh.reshape(dh.shape[0], -1)).reshape(-1, 3)
        ref = (sd.conj().T @ sd).real                 # Re((S dh)^H (S dh))
        got = _gram_re(s, dh)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        fi = fim(p, net, geom, s, gamma, f=f)
        assert np.array_equal(fi, fi.T)
        ref = 2.0 * gamma * ref
        assert np.linalg.norm(fi - ref) <= 1e-13 * np.linalg.norm(ref)


class TestTrialPathMemory:
    """Traced peaks of the trial path's channel-sized work at the paper
    geometry.  The bounds of fim and stacked_channel lie between the peak
    with the conjugate copy of S dh in the Gram and tanh' out of place, and
    the peak without them: fim 3.66 -> 2.29 MiB digital and 3.15 -> 2.09 MiB
    at P = 32, stacked_channel(order=1) at P = 32 3.15 -> 2.09 MiB.  Behind
    the combiner both then lie between 2.09 MiB, with the hidden layer and
    the net's value formed out of place, and 1.93 MiB, with each written
    once.  full_channel peaks at 2.47 MiB, 2 MB of it the quadrature
    workspace (``green._CHUNK_NODES`` says why it stays)."""

    @pytest.mark.parametrize("name, bound_mib", [
        ("fim-digital", 3.0), ("fim-p32", 2.0), ("stacked-p32", 2.0),
        ("full-channel", 2.75)])
    def test_traced_peak_pinned(self, name, bound_mib, paper_case, wave):
        geom, net, s, comb = paper_case
        p = np.array([0.3, -0.2, 27.0])
        call = {
            "fim-digital": lambda: fim(p, net, geom, s, 1e9),
            "fim-p32": lambda: fim(p, net, geom, s, 1e9, f=comb),
            "stacked-p32": lambda: stacked_channel(net, geom, p, order=1,
                                                   f=comb),
            "full-channel": lambda: full_channel(geom, p, wave, QuadratureRule(4)),
        }[name]
        call()                  # the net's blocks and the geometry caches
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


class TestCrlbPosition:
    def test_diagonal_oracle(self):
        assert crlb_position(np.diag([2.0, 4.0, 8.0])) == pytest.approx(
            0.5 + 0.25 + 0.125)

    def test_snr_shift(self, trained_net, small_geometry, pilot_matrix):
        p = np.array([0.37, -0.51, 27.3])
        b1 = crlb_position(fim(p, trained_net, small_geometry, pilot_matrix, 1e8))
        b2 = crlb_position(fim(p, trained_net, small_geometry, pilot_matrix, 1e9))
        assert 10 * np.log10(b1 / b2) == pytest.approx(10.0, abs=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(SingularInformationError):
            crlb_position(np.diag([1.0, 1.0, 0.0]))

    def test_normalized_form(self):
        fi = np.diag([1.0, 2.0, 4.0])
        p = np.array([0.0, 3.0, 4.0])
        assert crlb_position_normalized(fi, p) == pytest.approx(
            crlb_position(fi) / 25.0)


class TestHessianValidation:
    def test_noiseless_hessian_at_truth_equals_minus_fim(
            self, trained_net, small_geometry, pilot_matrix, true_position):
        gamma = 2.5e9
        y0 = pilot_matrix @ stacked_channel(trained_net, small_geometry,
                                            true_position)
        hess = hessian(true_position, y0, pilot_matrix, trained_net,
                       small_geometry, gamma)
        f = fim(true_position, trained_net, small_geometry, pilot_matrix, gamma)
        assert np.allclose(hess, -f, rtol=1e-10)

    def test_matches_finite_differences(self, trained_net, small_geometry,
                                        pilot_matrix, true_position):
        gamma = 1e9
        rng = np.random.default_rng(9)
        h = stacked_channel(trained_net, small_geometry, true_position)
        y = pilot_matrix @ h + 1e-3 * np.abs(h).mean() * (
            rng.standard_normal((pilot_matrix.shape[0], h.shape[1]))
            + 1j * rng.standard_normal((pilot_matrix.shape[0], h.shape[1])))
        p = true_position + np.array([0.003, -0.002, 0.004])

        def ll(pp):
            return log_likelihood(pp, y, pilot_matrix, trained_net,
                                  small_geometry, gamma)

        eps = 1e-5
        fd_grad = np.zeros(3)
        fd_hess = np.zeros((3, 3))
        eye = np.eye(3)
        for a in range(3):
            fd_grad[a] = (ll(p + eps * eye[a]) - ll(p - eps * eye[a])) / (2 * eps)
            for b in range(3):
                fd_hess[a, b] = (ll(p + eps * (eye[a] + eye[b]))
                                 - ll(p + eps * (eye[a] - eye[b]))
                                 - ll(p - eps * (eye[a] - eye[b]))
                                 + ll(p - eps * (eye[a] + eye[b]))) / (4 * eps ** 2)
        g = score(p, y, pilot_matrix, trained_net, small_geometry, gamma)
        hess = hessian(p, y, pilot_matrix, trained_net, small_geometry, gamma)
        assert np.allclose(g, fd_grad, rtol=1e-5, atol=1e-7 * np.abs(g).max())
        assert (np.linalg.norm(hess - fd_hess) / np.linalg.norm(hess)) < 1e-3
