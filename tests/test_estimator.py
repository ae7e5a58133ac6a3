"""Tests for the message-passing location/channel estimators."""

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmimo.crlb import fim
from hmimo.geometry import SurfaceGeometry, relative_grid
from hmimo.green import QuadratureRule, WaveConfig, full_channel
from hmimo.harness import (PROFILES, _draw_trial, build_geometry,
                           estimator_config, point_trials)
from hmimo.signals import (PilotBlock, UnitaryModel, gen_combiner, gen_pilots,
                           simulate_rx, simulate_rx_hybrid, unitary_transform,
                           combine_channel)
from hmimo import estimator
from hmimo.surrogate import (HybridNet, term_coefficients, hybrid_channel,
                             stacked_channel, _output_partials)
from hmimo.estimator import (VAR_MAX, VAR_MIN, EstimatorConfig, Linearization,
                             LocationState, NumericalFailure, UampState,
                             channel_belief, clamp_var, estimate_full_digital,
                             estimate_hybrid, grid_search_init,
                             init_location_state, location_round, ls_estimate,
                             taylor_linearize, uamp_linear_step,
                             unitary_ls_estimate, write_trace_csv,
                             _refine_batch)


# --- Gaussian message algebra --------------------------------------------


class TestEstimatorConfig:
    @pytest.mark.parametrize("kwargs, match", [
        ({"max_iters": -3}, "max_iters must be >= 1 \\(an integer\\), got -3"),
        ({"max_iters": 2.5}, "max_iters must be >= 1 \\(an integer\\), got 2.5"),
        ({"tol": -1.0}, "tol must be non-negative, got -1.0"),
        ({"grid_points": 1}, "grid_points must be >= 2 \\(an integer\\), got 1"),
    ])
    def test_out_of_range_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            EstimatorConfig(**kwargs)
        EstimatorConfig(max_iters=1, tol=0.0, grid_points=2)


class TestGaussianOps:
    def test_clamp_var_bounds(self):
        v = clamp_var(np.array([0.0, 1e-20, 1.0, 1e20, np.inf]))
        assert np.all(v >= VAR_MIN)
        assert np.all(v <= VAR_MAX)


# --- least-squares baseline ----------------------------------------------


class TestLsEstimate:
    def _system(self, seed=0, n_rows=40, n_cols=12, m=5):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(n_rows, n_cols)) + 1j * rng.normal(size=(n_rows, n_cols))
        h = rng.normal(size=(n_cols, m)) + 1j * rng.normal(size=(n_cols, m))
        return s, h

    def test_noiseless_exact(self):
        s, h = self._system()
        assert np.allclose(ls_estimate(s, s @ h), h, atol=1e-10)

    def test_unitary_invariance(self):
        s, h = self._system(seed=1)
        y = s @ h
        q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(40, 40)))
        assert np.allclose(ls_estimate(q @ s, q @ y), ls_estimate(s, y), atol=1e-9)

    def test_rank_deficient_rejected(self):
        s, h = self._system()
        s[:, 1] = s[:, 0]
        with pytest.raises(np.linalg.LinAlgError):
            ls_estimate(s, s @ h)

    def test_noise_floor_matches_theory(self, small_geometry, true_channel):
        """LS error power is (#unknown rows)/(#pilot rows) over the SNR."""
        pilots = gen_pilots(small_geometry.n_patches, 100, seed=4)
        snr_db = 10.0
        errs = []
        for seed in range(8):
            y, _ = simulate_rx(true_channel, pilots, snr_db, seed=seed)
            h_ls = ls_estimate(pilots.matrix, y)
            errs.append(np.linalg.norm(h_ls - true_channel) ** 2)
        nmse = np.mean(errs) / np.linalg.norm(true_channel) ** 2
        rows_ratio = true_channel.shape[0] / pilots.matrix.shape[0]
        expect = rows_ratio / 10 ** (snr_db / 10)
        assert nmse == pytest.approx(expect, rel=0.3)

    @pytest.mark.parametrize("chains", [None, 24])
    def test_init_start_from_unitary_factors(self, small_geometry, true_channel,
                                             chains):
        # the ls estimator and the init's start take the LS channel of the
        # unitary model, formed from its orthogonal rows, not by an lstsq over
        # all 3L rows of the pilot matrix
        geom = small_geometry
        pilots = gen_pilots(geom.n_patches, 100, seed=4)
        if chains is None:
            y, _ = simulate_rx(true_channel, pilots, 8.0, seed=1)
        else:
            f = gen_combiner(chains, geom.m_patches, seed=5)
            y, _ = simulate_rx_hybrid(f, true_channel, pilots, 8.0, seed=1)
        model = unitary_transform(pilots.matrix, y)
        want = ls_estimate(pilots.matrix, y)
        got = unitary_ls_estimate(model)
        assert got.shape == want.shape == (6 * geom.n_patches,
                                           chains or geom.m_patches)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- AMP linear stage -----------------------------------------------------


def _full_svd_model(s, y):
    """The model of a full SVD of S, its 3L - 6N trailing rows kept: Phi is
    zero on them and R holds Y along the trailing left singular vectors.
    The leading rows are those ``unitary_transform`` computes."""
    eco = unitary_transform(s, y)
    u2 = np.linalg.svd(s, full_matrices=True)[0][:, s.shape[1]:]
    phi = np.zeros_like(s)
    phi[:s.shape[1]] = eco.phi
    r = np.concatenate([eco.r, u2.conj().T @ y])
    return UnitaryModel(phi=phi, r=r, dropped=0.0, rows=s.shape[0])


def _economy_svd_model(s, y):
    """The economy-SVD model S = U_1 Sigma V^H, and U_1."""
    u1, sv, vh = np.linalg.svd(s, full_matrices=False)
    r = u1.conj().T @ y
    return UnitaryModel(phi=sv[:, None] * vh, r=r,
                        dropped=float(np.linalg.norm(y - u1 @ r) ** 2),
                        rows=s.shape[0]), u1


def _flat_state(model):
    """The non-informative start of the recursion on ``model``: zero mean
    and unit variance."""
    shape = (model.phi.shape[1], model.r.shape[1])
    return UampState.from_prior(np.zeros(shape, dtype=complex), np.ones(shape),
                                model.phi.shape[0])


class TestUampLinearStep:
    def _model(self, small_geometry, true_channel, snr_db, seed=0):
        pilots = gen_pilots(small_geometry.n_patches, 60, seed=9)
        y, gamma = simulate_rx(true_channel, pilots, snr_db, seed=seed)
        return unitary_transform(pilots.matrix, y), gamma

    def test_first_pass_is_matched_filter(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        r = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        model = UnitaryModel(phi, r, 0.0, 8)
        state = _flat_state(model)
        state.gamma = 5.0
        q, v_q, out = uamp_linear_step(model, state, np.inf)
        # zero-mean unit-variance start: P = 0, V_P = |phi|^2 1, and the
        # filter reads the refreshed precision
        assert out.gamma != 5.0
        v_p = (np.abs(phi) ** 2) @ np.ones((4, 3))
        v_s = 1.0 / (v_p + 1.0 / out.gamma)
        assert np.allclose(q, v_q * (phi.conj().T @ (v_s * r)))
        assert np.allclose(v_q, 1.0 / ((np.abs(phi) ** 2).T @ v_s))

    def test_noiseless_first_pass_recovers_truth(self, small_geometry,
                                                 true_channel):
        # with a non-informative starting state the linear stage already
        # solves the (noise-free) least-squares problem in one pass
        model, _ = self._model(small_geometry, true_channel, np.inf)
        state = _flat_state(model)
        state.gamma = 1e10
        q, _, _ = uamp_linear_step(model, state, np.inf)
        rel = np.linalg.norm(q - true_channel) / np.linalg.norm(true_channel)
        assert rel < 1e-6

    def test_gamma_estimate_near_truth(self, small_geometry, true_channel):
        model, gamma_true = self._model(small_geometry, true_channel, 5.0, seed=3)
        state = _flat_state(model)
        for _ in range(25):
            q, v_q, state = uamp_linear_step(model, state, np.inf)
            state.h_mean, state.h_var = q, v_q
        assert gamma_true / 2 < state.gamma < gamma_true * 2

    def test_gamma_cap_respected(self, small_geometry, true_channel):
        model, _ = self._model(small_geometry, true_channel, np.inf)
        state = _flat_state(model)
        for _ in range(10):
            q, v_q, state = uamp_linear_step(model, state, gamma_cap=123.0)
            state.h_mean, state.h_var = q, v_q
        assert state.gamma <= 123.0

    # ids (gamma refreshed, cap): the step always refreshes gamma, and
    # np.inf is no cap
    @pytest.mark.parametrize("gamma_cap", [np.inf, 0.25],
                             ids=["True-None", "True-0.25"])
    def test_economy_step_matches_full_svd(self, small_geometry, true_channel,
                                           gamma_cap):
        # the rows the economy model drops enter only gamma's update, through
        # their energy and count: two steps from a non-trivial state agree
        # with the same steps on the full-SVD model within 1e-12
        pilots = gen_pilots(small_geometry.n_patches, 60, seed=9)
        y, _ = simulate_rx(true_channel, pilots, 5.0, seed=3)
        scale = np.max(np.abs(true_channel))
        y = y / scale
        eco = unitary_transform(pilots.matrix, y)
        full = _full_svd_model(pilots.matrix, y)
        k, m = eco.r.shape
        rng = np.random.default_rng(8)
        h_mean = (true_channel / scale + 0.1 * rng.normal(size=(k, m))
                  + 0.1j * rng.normal(size=(k, m)))
        h_var = rng.uniform(0.005, 0.02, size=(k, m))
        s_res = rng.normal(size=(full.rows, m)) + 1j * rng.normal(size=(full.rows, m))
        states = [UampState(h_mean, h_var, s_res[:k].copy(), 2.0),
                  UampState(h_mean, h_var, s_res.copy(), 2.0)]
        for _ in range(2):
            (q_e, v_e, states[0]), (q_f, v_f, states[1]) = (
                uamp_linear_step(mod, st, gamma_cap)
                for mod, st in zip((eco, full), states))
            for got, want in ((q_e, q_f), (v_e, v_f),
                              (states[0].s_res, states[1].s_res[:k])):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert states[0].gamma == pytest.approx(states[1].gamma, rel=1e-12)
            for st in states:
                st.h_mean, st.h_var = q_f, v_f
        if np.isfinite(gamma_cap):
            assert states[0].gamma == gamma_cap
        else:
            assert states[0].gamma != 2.0

    # ids (gamma refreshed, cap): the step always refreshes gamma, and
    # np.inf is no cap
    @pytest.mark.parametrize("gamma_cap", [np.inf, 0.25],
                             ids=["True-None", "True-0.25"])
    def test_gram_step_matches_economy_svd(self, small_geometry, true_channel,
                                           gamma_cap):
        # the Gram-matrix model's rows are the economy SVD's up to unit
        # phases; from the same state, a residual of the same 3L-row vector
        # in each basis, one step gives the same q, v_q, gamma and (mapped
        # back to the 3L rows) residual within 1e-12
        pilots = gen_pilots(small_geometry.n_patches, 60, seed=9)
        s = pilots.matrix
        y, _ = simulate_rx(true_channel, pilots, 5.0, seed=3)
        scale = np.max(np.abs(true_channel))
        y = y / scale
        gram = unitary_transform(s, y)
        svd, u_svd = _economy_svd_model(s, y)
        u_gram = s @ gram.phi_h / np.sum(gram.abs_phi2, axis=1)   # S V Sigma^-1
        k, m = gram.r.shape
        rng = np.random.default_rng(8)
        h_mean = (true_channel / scale + 0.1 * rng.normal(size=(k, m))
                  + 0.1j * rng.normal(size=(k, m)))
        h_var = rng.uniform(0.005, 0.02, size=(k, m))
        e = rng.normal(size=(s.shape[0], m)) + 1j * rng.normal(size=(s.shape[0], m))
        out = [uamp_linear_step(mod, UampState(h_mean, h_var, u.conj().T @ e, 2.0),
                                gamma_cap)
               for mod, u in ((gram, u_gram), (svd, u_svd))]
        (q_g, v_g, st_g), (q_s, v_s, st_s) = out
        for got, want in ((q_g, q_s), (v_g, v_s),
                          (u_gram @ st_g.s_res, u_svd @ st_s.s_res)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert st_g.gamma == pytest.approx(st_s.gamma, rel=1e-12)
        assert gram.dropped == pytest.approx(svd.dropped, rel=1e-12)
        if np.isfinite(gamma_cap):
            assert st_g.gamma == gamma_cap
        else:
            assert st_g.gamma != 2.0

    def test_nonfinite_input_raises(self):
        phi = np.eye(4, dtype=complex)
        r = np.full((4, 2), np.nan, dtype=complex)
        model = UnitaryModel(phi, r, 0.0, 4)
        with pytest.raises(NumericalFailure):
            uamp_linear_step(model, _flat_state(model), np.inf)


# --- Taylor linearization -------------------------------------------------


class TestTaylorLinearize:
    def test_affine_exact_at_expansion_point(self, trained_net, small_geometry,
                                             wave, true_position):
        pos = true_position
        lin = taylor_linearize(trained_net, small_geometry, pos, wave)
        assert np.allclose(lin.affine(pos), lin.h, rtol=1e-10, atol=0)

    def test_remainder_is_second_order(self, trained_net, small_geometry, wave,
                                       true_position):
        pos = true_position
        lin = taylor_linearize(trained_net, small_geometry, pos, wave)

        def exact_at(p):
            return taylor_linearize(trained_net, small_geometry, p, wave).h

        errs = []
        for delta in (2e-4, 1e-4):
            shifted = pos + delta
            errs.append(np.linalg.norm(lin.affine(shifted) - exact_at(shifted)))
        # halving the offset shrinks the remainder roughly fourfold
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    @pytest.mark.parametrize("chains", [None, 24, 32, 36])
    def test_observed_matches_raw_reference(self, trained_net, small_geometry,
                                            wave, true_position, chains):
        # the expansion of G = H F^T in working units, combined in the pair
        # layout and stacked once, equals the raw expansion of H stacked,
        # divided by the scale and then pushed through F, within 1e-13 of
        # each array's largest entry; 36 chains is the identity combiner
        geom = small_geometry
        m = geom.m_patches
        f = (None if chains is None else np.eye(m, dtype=complex) if chains == m
             else gen_combiner(chains, m, seed=5))
        scale = estimator._working_scale(trained_net)
        assert not 0.1 < scale < 10.0      # so that a unit slip shows
        p = true_position
        h, dh = stacked_channel(trained_net, geom, p, wave, order=1)
        want = (combine_channel(f, h / scale),
                combine_channel(f, dh / scale, trailing=1),
                combine_channel(f, (h - dh @ p) / scale))
        lin = taylor_linearize(trained_net, geom, p, wave, f, scale)
        for got, ref in zip((lin.h, lin.dh, lin.xi), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- location and channel messages ----------------------------------------


def _toy_linearization(n, m, seed=0):
    rng = np.random.default_rng(seed)
    dh = rng.normal(size=(6 * n, m, 3)) + 1j * rng.normal(size=(6 * n, m, 3))
    xi = rng.normal(size=(6 * n, m)) + 1j * rng.normal(size=(6 * n, m))
    return Linearization(h=xi.copy(), dh=dh, xi=xi)


class TestLocationRound:
    def test_recovers_position_from_exact_observations(self):
        n, m = 3, 4
        p_true = np.array([0.3, -0.2, 25.0])
        lin = _toy_linearization(n, m)
        q = lin.affine(p_true)
        v_q = np.full(q.shape, 1e-10)
        state = init_location_state(p_true + [0.05, -0.05, 0.3],
                                    np.array([0.01, 0.01, 0.25]))
        for _ in range(8):
            state = location_round(lin, q, v_q, state)
        assert np.allclose(state.mean, p_true, atol=1e-4)
        assert np.all(np.diag(state.cov) < 1e-8)

    def test_dead_derivative_ignored(self):
        n, m = 2, 3
        lin = _toy_linearization(n, m, seed=2)
        lin.dh[..., 2] = 0.0   # no information about z anywhere
        p_true = np.array([0.1, 0.2, 30.0])
        q = lin.affine(p_true)
        v_q = np.full(q.shape, 1e-10)
        p0 = np.array([0.0, 0.0, 28.0])
        state = init_location_state(p0, np.array([0.01, 0.01, 1.0]))
        for _ in range(5):
            state = location_round(lin, q, v_q, state)
        assert np.allclose(state.mean[:2], p_true[:2], atol=1e-4)
        assert np.isfinite(state.mean[2])
        # z stays near the prior: the data carry no z information
        assert state.cov[2, 2] > 1e2 or abs(state.mean[2] - 28.0) < 1.0


    def test_matches_real_stacked_posterior(self):
        # every complex entry is two real observations of p1 with noise
        # variance v_q / 2 each; the VAR_MAX-wide prior sits at the old mean
        n, m = 2, 3
        lin = _toy_linearization(n, m, seed=6)
        rng = np.random.default_rng(7)
        q = (lin.affine([0.2, -0.1, 24.0]) + rng.normal(size=lin.xi.shape)
             + 1j * rng.normal(size=lin.xi.shape))
        v_q = rng.uniform(0.5, 2.0, lin.xi.shape)
        state = init_location_state([0.0, 0.0, 25.0], np.ones(3))
        out = location_round(lin, q, v_q, state)
        dh = lin.dh.reshape(-1, 3)
        a = np.concatenate([dh.real, dh.imag])
        b = (q - lin.xi).ravel()
        b = np.concatenate([b.real, b.imag])
        w = np.tile(2.0 / v_q.ravel(), 2)
        cov = np.linalg.inv(a.T @ (w[:, None] * a) + np.eye(3) / VAR_MAX)
        assert np.allclose(out.cov, cov, rtol=1e-12, atol=0)
        assert np.allclose(out.mean, cov @ (a.T @ (w * b) + state.mean / VAR_MAX),
                           rtol=1e-12, atol=0)


class TestLocationPrior:
    @pytest.mark.parametrize("chains", [None, 32])
    def test_variance_matches_complex_form(self, trained_net, small_geometry,
                                           wave, true_position, chains):
        # the real-arithmetic variance equals Re(dh C dh^H) formed in complex
        # arithmetic, within 1e-13 of its largest entry, for a diagonal and
        # a full covariance; the mean is the affine model at the belief
        f = (None if chains is None
             else gen_combiner(chains, small_geometry.m_patches, seed=5))
        lin = taylor_linearize(trained_net, small_geometry, true_position, wave,
                               f, estimator._working_scale(trained_net))
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        for cov in (np.diag([1e-4, 2e-4, 5e-3]), 1e-4 * (a @ a.T + np.eye(3))):
            loc = LocationState(mean=true_position + 0.01, cov=cov)
            mean, var = estimator.location_prior(lin, loc)
            want = clamp_var(np.sum((lin.dh @ cov) * lin.dh.conj(), axis=-1).real)
            assert var.shape == mean.shape == lin.h.shape
            assert np.max(np.abs(var - want)) <= 1e-13 * np.max(want)
            assert np.array_equal(mean, lin.affine(loc.mean))


class TestChannelBelief:
    def test_flat_prior_returns_extrinsics(self):
        n, m = 2, 3
        lin = _toy_linearization(n, m, seed=3)
        rng = np.random.default_rng(4)
        q = rng.normal(size=(6 * n, m)) + 1j * rng.normal(size=(6 * n, m))
        v_q = np.full(q.shape, 0.5)
        loc = init_location_state(np.zeros(3), np.full(3, VAR_MAX))
        mean, var = channel_belief(lin, q, v_q, loc)
        assert np.allclose(mean, q, rtol=1e-6)
        assert np.allclose(var, 0.5, rtol=1e-6)

    def test_sharp_prior_returns_model_prediction(self):
        n, m = 2, 3
        lin = _toy_linearization(n, m, seed=5)
        p = np.array([0.1, -0.3, 22.0])
        q = np.ones((6 * n, m), dtype=complex) * 100.0
        loc = init_location_state(p, np.full(3, 1e-14))
        v_q = np.full(q.shape, 1e6)
        mean, var = channel_belief(lin, q, v_q, loc)
        prior_mean, _ = estimator.location_prior(lin, loc)
        assert np.allclose(prior_mean, lin.affine(p), rtol=1e-8)
        assert np.allclose(mean, prior_mean, atol=1e-3)
        assert np.all(var < 1e-4)

    def test_gaussian_fusion_value(self):
        n, m = 1, 1
        dh = np.zeros((6 * n, m, 3), dtype=complex)
        dh[..., 0] = 1.0
        xi = np.ones((6 * n, m), dtype=complex)
        lin = Linearization(h=xi.copy(), dh=dh, xi=xi)
        loc = init_location_state(np.zeros(3), np.ones(3))
        # prior = (xi + 0, |dh|^2 * 1) = (1, 1); extrinsic = (3, 1) -> (2, 0.5)
        q = np.full((6 * n, m), 3.0 + 0j)
        v_q = np.ones((6 * n, m))
        mean, var = channel_belief(lin, q, v_q, loc)
        prior_mean, prior_var = estimator.location_prior(lin, loc)
        assert np.allclose(prior_mean, 1.0)
        assert np.allclose(prior_var, 1.0)
        assert np.allclose(mean, 2.0)
        assert np.allclose(var, 0.5)


# --- initialization --------------------------------------------------------


class TestGridSearchInit:
    def test_locates_true_position_noiseless(self, trained_net, small_geometry,
                                             wave, true_channel, true_position):
        cfg = EstimatorConfig()
        p0, var0 = grid_search_init(trained_net, small_geometry, true_channel,
                                    cfg, wave)
        assert np.all(np.abs(p0[:2] - true_position[:2]) < 0.05)
        assert abs(p0[2] - true_position[2]) < 0.3
        assert np.all(var0 > 0)

    def test_locates_true_position_noiseless_hybrid(self, trained_net,
                                                    small_geometry, wave,
                                                    true_channel, true_position):
        f = gen_combiner(24, small_geometry.m_patches, seed=5)
        cfg = EstimatorConfig()
        p0, var0 = grid_search_init(trained_net, small_geometry,
                                    combine_channel(f, true_channel), cfg, wave,
                                    f=f)
        assert np.all(np.abs(p0[:2] - true_position[:2]) < 0.05)
        assert abs(p0[2] - true_position[2]) < 0.3
        assert np.all(var0 > 0)

    @pytest.mark.parametrize("snr", [8.0, 20.0])
    def test_same_tooth_as_per_pair_model(self, trained_net, small_geometry,
                                          wave, monkeypatch, snr):
        # the init evaluates the network once per location; on the first
        # three run_point draws it picks the z-tooth that the per-pair
        # model picks, at a position within 1e-3 m of that model's.  The
        # identity combiner is exact, so f = I runs the full-digital init on
        # ``expanded_channel`` arrays, which the reference swaps for the
        # per-pair model; the full-digital init's moment sums must land
        # where those arrays do, within 1e-9 m
        cfg = PROFILES["ci"]
        ecfg = estimator_config(cfg)
        eye = np.eye(small_geometry.m_patches, dtype=complex)
        winners = []
        refine = estimator._refine_batch

        def record_winner(*args, **kwargs):
            p, costs = refine(*args, **kwargs)
            winners.append(int(np.argmin(np.where(np.isfinite(costs), costs,
                                                  np.inf))))
            return p, costs

        monkeypatch.setattr(estimator, "_refine_batch", record_winner)
        for seq in point_trials(cfg, "snr", snr, 0)[2][:3]:
            seeds, p1, pilots, _ = _draw_trial(cfg, small_geometry, cfg["fixed"],
                                               seq)
            h = full_channel(small_geometry, p1, wave, QuadratureRule(8)).stacked
            y, _ = simulate_rx(h, pilots, snr, seed=seeds[2])
            h_ls = ls_estimate(pilots.matrix, y)
            p_init, _ = grid_search_init(trained_net, small_geometry, h_ls, cfg=ecfg,
                                         wave=wave)
            p_eye, _ = grid_search_init(trained_net, small_geometry, h_ls,
                                        cfg=ecfg, wave=wave, f=eye)
            with monkeypatch.context() as per_pair:
                per_pair.setattr(estimator, "expanded_channel", stacked_channel)
                p_ref, _ = grid_search_init(trained_net, small_geometry, h_ls,
                                            cfg=ecfg, wave=wave, f=eye)
            assert winners[-3] == winners[-2] == winners[-1]
            assert np.max(np.abs(p_init - p_eye)) <= 1e-9
            assert np.max(np.abs(p_init - p_ref)) <= 1e-3

    def test_respects_prior_box(self, trained_net, small_geometry, wave):
        rng = np.random.default_rng(7)
        fake = rng.normal(size=(6 * small_geometry.n_patches,
                                small_geometry.m_patches)) * 1e-5
        cfg = EstimatorConfig()
        p0, _ = grid_search_init(trained_net, small_geometry, fake + 0j, cfg, wave)
        lo = np.array([cfg.prior_x[0], cfg.prior_y[0], cfg.prior_z[0]])
        hi = np.array([cfg.prior_x[1], cfg.prior_y[1], cfg.prior_z[1]])
        margin = 0.1 * (hi - lo)
        assert np.all(p0 >= lo - margin - 1e-9)
        assert np.all(p0 <= hi + margin + 1e-9)


def _saturating_net():
    """Net whose hidden units all saturate to +1 far up in z.

    There tanh' is exactly 0 and the outputs cancel to exactly 0, so the
    channel and its location Jacobian vanish and the damped Gauss-Newton
    system of a start placed there is singular.
    """
    rng = np.random.default_rng(4)
    w1 = np.column_stack([rng.normal(scale=0.3, size=(3, 2)), np.ones(3)])
    w2 = rng.normal(size=(3, 12))
    return HybridNet(w1=w1, b1=np.array([-2.0, -2.5, -3.0]), w2=w2,
                     b2=-w2.sum(axis=0), input_offset=np.zeros(3),
                     input_scale=np.ones(3), output_offset=np.zeros(12),
                     output_scale=np.ones(12), frequency=3e9)


def _reference_coefficients(net, geom, p1s):
    """``term_coefficients``' (coef, coef1) from the full output Jacobian
    and Hessian, stacked term by term before the component."""
    mean = relative_grid(geom, np.zeros(3)).reshape(-1, 3).mean(axis=0)
    out, d, d2 = _output_partials(net, p1s + mean, 2)
    coef = np.stack([out, d[..., 0], d[..., 1], d2[..., 0, 0], d2[..., 0, 1],
                     d2[..., 1, 1]], axis=1)
    coef1 = np.stack([d, d2[..., 0], d2[..., 1]], axis=1)     # (B, t, k, j)
    return coef, coef1.transpose(0, 3, 1, 2)


class TestExpansionCoefficients:
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("saturating", [False, True])
    def test_matches_full_hessian_reference(self, trained_net, small_geometry,
                                            order, count, saturating):
        # the coefficients of phi (order 0) and of its partials (order 1),
        # gathered from one product per location, agree with the full
        # Jacobian and Hessian within 1e-13 of the array's largest entry
        geom = small_geometry
        if saturating:
            net = _saturating_net()
            p1s = np.array([[0.0, 0.0, 2.8], [0.05, 0.0, 3.0], [0.1, -0.05, 3.2],
                            [0.0, 0.1, 3.1], [0.0, 0.0, 60.0], [-0.3, 0.2, 1.5],
                            [0.2, 0.4, 4.0]])[:count]
        else:
            net = trained_net
            rng = np.random.default_rng(10)
            p1s = np.column_stack([rng.uniform(-1, 1, (count, 2)),
                                   rng.uniform(20, 40, count)])
        centre, *got = term_coefficients(net, geom, p1s)
        pairs = relative_grid(geom, p1s).reshape(count, -1, 3)
        assert np.allclose(centre, pairs.mean(axis=1), rtol=0, atol=1e-12)
        assert got[0].shape == (count, 6, 6) and got[1].shape == (count, 3, 3, 6)
        got, want = got[order], _reference_coefficients(net, geom, p1s)[order]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRefineBatch:
    @pytest.mark.parametrize("chains", [None, 24])
    def test_batching_does_not_mix_starts(self, small_geometry, wave,
                                          monkeypatch, chains):
        net = _saturating_net()
        f = (None if chains is None
             else gen_combiner(chains, small_geometry.m_patches, seed=5))
        h_ref = stacked_channel(net, small_geometry, [0.1, -0.05, 3.0], wave)
        if f is not None:
            h_ref = combine_channel(f, h_ref)
        # the starts stop after different step counts, and the cost of the
        # last one rises at some steps, which raises its damping alone
        starts = np.array([[0.0, 0.0, 2.8], [0.0, 0.0, 2.9], [0.05, 0.0, 3.0],
                           [0.0, 0.0, 60.0],        # singular system
                           [0.0, 0.1, 3.1], [0.1, -0.05, 3.2],
                           [0.05, 0.0, 4.0]])
        # two starts per surrogate call, so the batch spans several chunks
        monkeypatch.setattr(estimator, "_CHUNK_POINTS",
                            2 * small_geometry.n_patches * small_geometry.m_patches)
        ref = estimator._Reference.of(small_geometry, h_ref, f)
        p_all, c_all = _refine_batch(net, small_geometry, ref, starts, wave, f)
        assert np.array_equal(p_all[3], starts[3])
        regular = [0, 1, 2, 4, 5, 6]
        assert np.all(np.any(p_all[regular] != starts[regular], axis=1))
        for i, start in enumerate(starts):
            p_one, c_one = _refine_batch(net, small_geometry, ref, start[None],
                                         wave, f)
            assert np.max(np.abs(p_all[i] - p_one[0])) <= 1e-12
            assert abs(c_all[i] - c_one[0]) <= 1e-12 * c_one[0]


class TestInitHelpers:
    @pytest.mark.parametrize("chains", [None, 24])
    def test_chunks_do_not_mix_locations(self, trained_net, small_geometry, wave,
                                         true_channel, monkeypatch, chains):
        # the init's costs, normal equations and envelope scores of a location
        # are the same bit for bit whether it is evaluated alone or in a batch
        # that spans several chunks
        geom = small_geometry
        f = None if chains is None else gen_combiner(chains, geom.m_patches, seed=5)
        h_ref = combine_channel(f, true_channel)
        rng = np.random.default_rng(8)
        p1s = np.column_stack([rng.uniform(-1, 1, (7, 2)), rng.uniform(20, 40, 7)])
        monkeypatch.setattr(estimator, "_CHUNK_POINTS",
                            2 * geom.n_patches * geom.m_patches)
        assert len(estimator._chunks(geom, len(p1s))) == 4
        batch = _init_sums(trained_net, geom, h_ref, p1s, wave, f)
        for i, p1 in enumerate(p1s):
            one = _init_sums(trained_net, geom, h_ref, p1[None], wave, f)
            for b, o in zip(batch, one):
                assert np.array_equal(b[i], o[0])

    @pytest.mark.parametrize("chains", [None, 24])
    def test_empty_batch(self, trained_net, small_geometry, wave, true_channel,
                         chains):
        # no location gives empty outputs of the batch's shapes
        geom = small_geometry
        f = None if chains is None else gen_combiner(chains, geom.m_patches, seed=5)
        h_ref, p1s = combine_channel(f, true_channel), np.empty((0, 3))
        scores, costs, cost, a, g = _init_sums(trained_net, geom, h_ref, p1s,
                                               wave, f)
        assert scores.shape == costs.shape == cost.shape == (0,)
        assert a.shape == (0, 3, 3) and g.shape == (0, 3)

    @pytest.mark.parametrize("saturating", [False, True])
    def test_moments_match_expansion_path(self, trained_net, small_geometry,
                                          wave, true_channel, true_position,
                                          saturating):
        # without a combiner the helpers sum basis moments; through the exact
        # identity combiner they sum ``expanded_channel`` arrays.  Each output
        # agrees within 1e-12 of its largest entry.  The saturating net's
        # prediction at z = 60 m vanishes: score 0, cost ||h_ref||^2 and a
        # singular system
        geom = small_geometry
        rng = np.random.default_rng(9)
        if saturating:
            net = _saturating_net()
            h_ref = stacked_channel(net, geom, [0.1, -0.05, 3.0], wave)
            p1s = np.array([[0.0, 0.0, 2.8], [0.05, 0.0, 3.0], [0.1, -0.05, 3.2],
                            [0.0, 0.1, 3.1], [0.0, 0.0, 60.0]])
        else:
            # the corners of the init's clipped prior box at z = 18 m put the
            # carrier phase of a pair's offset from the aperture centres,
            # k0 (r_p - r_c), beyond pi / 4
            net, h_ref = trained_net, true_channel
            corners = [[x, y, 18.0] for x in (-1.2, 1.2) for y in (-1.2, 1.2)]
            p1s = np.vstack([np.column_stack([rng.uniform(-1, 1, (6, 2)),
                                              rng.uniform(20, 40, 6)]),
                             true_position, corners])
            rel = relative_grid(geom, p1s).reshape(len(p1s), -1, 3)
            offset = (np.linalg.norm(rel, axis=-1)
                      - np.linalg.norm(rel.mean(axis=1), axis=-1)[:, None])
            assert np.max(np.abs(wave.wavenumber * offset[-4:])) > np.pi / 4
        eye = np.eye(geom.m_patches, dtype=complex)
        moments = _init_sums(net, geom, h_ref, p1s, wave)
        arrays = _init_sums(net, geom, h_ref, p1s, wave, eye)
        for m, e in zip(moments, arrays):
            assert np.max(np.abs(m - e)) <= 1e-12 * np.max(np.abs(e))
        if saturating:
            score, _, cost, a, g = (s[-1] for s in moments)
            assert score == 0.0
            assert cost == pytest.approx(np.linalg.norm(h_ref) ** 2, rel=1e-12)
            assert not np.any(a) and not np.any(g)


    def test_moments_match_expansion_path_at_paper_geometry(self, trained_net,
                                                            wave):
        # the paper profile's shapes: 10 x 10 receive and 5 x 5 transmit
        # patches, 2,500 pairs and 6 locations a chunk, so that the moment
        # sums' batch spans three chunks; each output agrees with the
        # identity-combiner expansion path within 1e-12 of its largest entry
        geom = build_geometry(PROFILES["paper"])
        assert geom.n_patches * geom.m_patches == 2500
        assert len(estimator._chunks(geom, 13)) == 3
        p_true = np.array([0.37, -0.51, 27.3])
        h_ref = full_channel(geom, p_true, wave, QuadratureRule(4)).stacked
        rng = np.random.default_rng(12)
        corners = [[x, y, 18.0] for x in (-1.2, 1.2) for y in (-1.2, 1.2)]
        p1s = np.vstack([np.column_stack([rng.uniform(-1, 1, (8, 2)),
                                          rng.uniform(20, 40, 8)]),
                         p_true, corners])
        eye = np.eye(geom.m_patches, dtype=complex)
        moments = _init_sums(trained_net, geom, h_ref, p1s, wave)
        arrays = _init_sums(trained_net, geom, h_ref, p1s, wave, eye)
        for m, e in zip(moments, arrays):
            assert m.shape == e.shape
            assert np.max(np.abs(m - e)) <= 1e-12 * np.max(np.abs(e))

    @pytest.mark.parametrize("profile, count, chains", [
        ("ci", 201, None), ("ci", 729, None), ("ci", 201, 24),
        ("paper", 201, None), ("paper", 729, None), ("paper", 7, 32)])
    def test_chunks_cover_the_batch_evenly(self, profile, count, chains):
        # contiguous slices that cover the batch exactly, as many as the pair
        # budget needs, each of at least one and at most the budget's
        # locations, and sizes within one location of each other; no chunk
        # is a one-location remainder unless the budget is one location
        geom = build_geometry(PROFILES[profile])
        f = None if chains is None else gen_combiner(chains, geom.m_patches, seed=5)
        budget = estimator._CHUNK_POINTS
        if f is not None:
            budget //= estimator._HYBRID_SHARE
        per = max(1, budget // (geom.n_patches * geom.m_patches))
        chunks = estimator._chunks(geom, count, f)
        assert len(chunks) == -(-count // per)
        assert chunks[0].start == 0 and chunks[-1].stop == count
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start
        sizes = [sl.stop - sl.start for sl in chunks]
        assert 1 <= min(sizes) and max(sizes) <= per
        assert max(sizes) - min(sizes) <= 1
        if per > 1:
            assert min(sizes) > 1
        assert estimator._chunks(geom, 0, f) == []


def _init_sums(net, geom, h_ref, p1s, wave, f=None):
    """The init helpers at p1s against h_ref: the envelope scores, the
    residual costs, and the cost, J^H J and J^H e of the order-1 fit."""
    ref = estimator._Reference.of(geom, h_ref, f)
    return (estimator._envelope_scores(net, geom, ref, p1s, wave, f),
            estimator._fit(net, geom, ref, p1s, wave, f),
            *estimator._fit(net, geom, ref, p1s, wave, f, order=1))


def _rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


class TestNelderMead:
    """``_nelder_mead`` runs the iterates of scipy's Nelder-Mead."""

    def _assert_matches_scipy(self, fun, x0, maxfev=300):
        optimize = pytest.importorskip("scipy.optimize")
        x0 = np.asarray(x0, dtype=float)
        ref = optimize.minimize(fun, x0, method="Nelder-Mead",
                                options={"xatol": 1e-3, "fatol": 1e-10,
                                         "maxfev": maxfev})
        seen = []
        x = estimator._nelder_mead(lambda p: seen.append(p) or fun(p), x0,
                                   xatol=1e-3, fatol=1e-10, maxfev=maxfev)
        assert np.array_equal(x, ref.x)
        assert len(seen) == ref.nfev <= maxfev
        return ref

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 2.0], [2.5, -1.5]])
    def test_rosenbrock(self, x0):
        # [0, 2] starts its simplex with the 0.00025 step of a zero coordinate
        self._assert_matches_scipy(_rosenbrock, x0)

    @pytest.mark.parametrize("x0", [[1.0, 1.0], [0.5, -2.0]])
    def test_staircase_forces_shrink_steps(self, x0):
        # on a flat step neither the reflected nor the contracted vertex is
        # better, so the simplex shrinks; equal values also tie in the sort
        self._assert_matches_scipy(lambda x: np.floor(4.0 * np.sum(x ** 2)), x0)

    @pytest.mark.parametrize("maxfev", [6, 7])
    def test_stops_at_maxfev(self, maxfev):
        # the start simplex takes 3 calls and each of the first two steps 2;
        # at 6 the second step is cut after its reflection and abandoned
        ref = self._assert_matches_scipy(_rosenbrock, [-1.2, 1.0], maxfev=maxfev)
        assert ref.nfev == maxfev

    def test_envelope_objective_of_a_ci_draw(self, trained_net, small_geometry,
                                             wave):
        cfg = PROFILES["ci"]
        seq = point_trials(cfg, "snr", 8.0, 0)[2][0]
        seeds, p1, pilots, _ = _draw_trial(cfg, small_geometry, cfg["fixed"], seq)
        h = full_channel(small_geometry, p1, wave, QuadratureRule(8)).stacked
        y, _ = simulate_rx(h, pilots, 8.0, seed=seeds[2])
        h_ls = ls_estimate(pilots.matrix, y)
        cands, _ = estimator._grid_candidates(estimator_config(cfg))
        ref = estimator._Reference.of(small_geometry, h_ls)
        scores = estimator._envelope_scores(trained_net, small_geometry, ref,
                                            cands, wave)
        self._assert_matches_scipy(
            lambda p: -estimator._envelope_scores(trained_net, small_geometry,
                                                  ref, p[None], wave)[0],
            cands[np.argmax(scores)])

    @pytest.mark.parametrize("saturating", [False, True])
    def test_objective_is_a_row_of_a_batch(self, trained_net, small_geometry,
                                           wave, true_channel, monkeypatch,
                                           saturating):
        # the objective's one-location call equals that location's row of a
        # batch spanning several chunks, bit for bit, also where the
        # prediction vanishes and the score is 0; of both receivers, each
        # reading the reference that ``grid_search_init`` builds once
        geom = small_geometry
        if saturating:
            net = _saturating_net()
            h_ref = stacked_channel(net, geom, [0.1, -0.05, 3.0], wave)
            p1s = np.array([[0.0, 0.0, 2.8], [0.05, 0.0, 3.0], [0.0, 0.0, 60.0],
                            [0.1, -0.05, 3.2], [0.0, 0.1, 3.1]])
        else:
            net, h_ref = trained_net, true_channel
            p1s = np.array([[0.37, -0.51, 27.3], [-0.8, 0.2, 21.0],
                            [0.0, 0.0, 30.0], [0.9, 0.9, 39.5], [-1.1, 1.1, 18.0]])
        for f in (None, gen_combiner(24, geom.m_patches, seed=5)):
            share = 1 if f is None else estimator._HYBRID_SHARE
            monkeypatch.setattr(estimator, "_CHUNK_POINTS",
                                2 * share * geom.n_patches * geom.m_patches)
            assert len(estimator._chunks(geom, len(p1s), f)) == 3
            ref = estimator._Reference.of(geom, combine_channel(f, h_ref), f)
            batch = estimator._envelope_scores(net, geom, ref, p1s, wave, f)
            for i, p in enumerate(p1s):
                one = -estimator._envelope_scores(net, geom, ref, p[None], wave, f)[0]
                assert one.tobytes() == (-batch[i]).tobytes()
            if saturating:
                assert batch[2] == 0.0


def test_import_loads_no_scipy():
    # the init's Nelder-Mead was the package's only use of scipy, whose
    # optimize module alone took ``import hmimo`` from 27 to 79 MB resident
    src = str(Path(estimator.__file__).resolve().parents[1])
    code = ("import sys, hmimo, hmimo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


# --- end-to-end estimators --------------------------------------------------


@pytest.fixture(scope="module")
def rx_model(small_geometry, true_channel):
    pilots = gen_pilots(small_geometry.n_patches, 100, seed=7)
    y, gamma = simulate_rx(true_channel, pilots, 8.0, seed=3)
    return pilots, unitary_transform(pilots.matrix, y), gamma


def _nmse_db(est, ref):
    return 10 * np.log10(np.linalg.norm(est - ref) ** 2
                         / np.linalg.norm(ref) ** 2)


def _warm_start_trials(net, geom, wave, chains=None):
    """12 ci trials at 8 dB, drawn as run_point draws them and started at the
    truth.  Returns the number that converged, the reported / CRLB lateral
    s.d. of each, and the position error of each."""
    cfg = PROFILES["ci"]
    fixed, _, seqs = point_trials(cfg, "chains", chains, 0)
    converged, ratios, errors = 0, [], []
    for seq in seqs[:12]:
        seeds, p1, pilots, f = _draw_trial(cfg, geom, fixed, seq)
        h = full_channel(geom, p1, wave, QuadratureRule(8)).stacked
        ecfg = dataclasses.replace(estimator_config(cfg), init_position=p1)
        if f is None:
            y, gamma = simulate_rx(h, pilots, 8.0, seed=seeds[2])
            res = estimate_full_digital(unitary_transform(pilots.matrix, y),
                                        net, geom, ecfg)
        else:
            y, gamma = simulate_rx_hybrid(f, h, pilots, 8.0, seed=seeds[2])
            res = estimate_hybrid(unitary_transform(pilots.matrix, y), f, net,
                                  geom, ecfg)
        bound = np.linalg.inv(fim(p1, net, geom, pilots.matrix, gamma, wave,
                                  f)).diagonal()
        converged += res.converged
        ratios.append(np.sqrt(np.sum(res.position_var[:2]) / np.sum(bound[:2])))
        errors.append(np.linalg.norm(res.position - p1))
    return converged, ratios, errors


class TestFullDigitalEstimator:
    def test_beats_ls_and_locates_source(self, trained_net, small_geometry,
                                         rx_model, true_channel, true_position):
        pilots, model, gamma_true = rx_model
        res = estimate_full_digital(model, trained_net, small_geometry,
                                    h_true=true_channel)
        nmse_mp = _nmse_db(res.h_hat, true_channel)
        h_ls = ls_estimate(model.phi, model.r)
        nmse_ls = _nmse_db(h_ls, true_channel)
        assert nmse_mp < -35.0
        assert nmse_mp < nmse_ls - 10.0
        # transverse coordinates pinned well below a wavelength; range may
        # settle on a neighbouring carrier-period ambiguity of the phase comb
        assert np.all(np.abs(res.position[:2] - true_position[:2]) < 0.05)
        assert abs(res.position[2] - true_position[2]) < 0.35
        assert gamma_true / 2 < res.gamma_hat < gamma_true * 2
        assert res.iterations >= 1
        assert len(res.trace) == res.iterations

    def test_trace_csv_format(self, trained_net, small_geometry, rx_model,
                              true_channel, tmp_path):
        _, model, _ = rx_model
        cfg = EstimatorConfig(max_iters=4,
                              init_position=np.array([0.37, -0.51, 27.3]))
        res = estimate_full_digital(model, trained_net, small_geometry, cfg,
                                    h_true=true_channel)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["iter", "x", "y", "z",
                                        "nmse_h_running", "gamma_hat", "residual"]
        assert len(rows) == len(res.trace)
        assert float(rows[-1]["nmse_h_running"]) < -30.0

    def test_failure_names_iteration_once(self, trained_net, small_geometry,
                                          rx_model, true_position, monkeypatch):
        _, model, _ = rx_model
        monkeypatch.setattr(estimator, "location_round",
                            lambda obs, q, v_q, loc: dataclasses.replace(
                                loc, mean=np.full(3, np.nan)))
        cfg = EstimatorConfig(max_iters=4, init_position=true_position)
        with pytest.raises(NumericalFailure) as info:
            estimate_full_digital(model, trained_net, small_geometry, cfg)
        assert str(info.value) == "non-finite location (iteration 1)"
        assert info.value.trace == []

    def test_known_init_converges_fast(self, trained_net, small_geometry,
                                       rx_model, true_channel, true_position):
        _, model, _ = rx_model
        cfg = EstimatorConfig(max_iters=15, init_position=true_position)
        res = estimate_full_digital(model, trained_net, small_geometry, cfg,
                                    h_true=true_channel)
        assert _nmse_db(res.h_hat, true_channel) < -35.0
        assert np.all(np.abs(res.position[:2] - true_position[:2]) < 0.05)
        assert abs(res.position[2] - true_position[2]) < 0.01


    def test_warm_start_converges_with_crlb_variance(self, trained_net,
                                                      small_geometry, wave):
        converged, ratios, errors = _warm_start_trials(trained_net,
                                                       small_geometry, wave)
        assert converged >= 11
        assert 0.8 <= np.median(ratios) <= 1.25
        assert max(errors) < 0.5


@pytest.mark.parametrize("chains", [None, 24])
def test_economy_model_matches_full_svd(trained_net, small_geometry,
                                        true_channel, chains):
    # the loop reads the dropped rows in gamma's update, its cap and the
    # residual; on the full-SVD model, rows kept, every iteration lands
    # where it does on the economy model, up to round-off
    geom = small_geometry
    pilots = gen_pilots(geom.n_patches, 100, seed=7)
    f = None if chains is None else gen_combiner(chains, geom.m_patches, seed=5)
    y, _ = simulate_rx(combine_channel(f, true_channel), pilots, 8.0, seed=3)
    cfg = EstimatorConfig(max_iters=6, init_position=np.array([0.3, -0.4, 27.0]))
    eco, full = (estimator._estimate(model, f, trained_net, geom, cfg, None)
                 for model in (unitary_transform(pilots.matrix, y),
                               _full_svd_model(pilots.matrix, y)))
    assert len(eco.trace) == len(full.trace) == 6
    for a, b in zip(eco.trace, full.trace):
        assert max(abs(a[k] - b[k]) for k in "xyz") <= 1e-8
        for key in ("gamma_hat", "residual"):
            assert a[key] == pytest.approx(b[key], rel=1e-10)


@pytest.mark.parametrize("chains", [None, 24])
def test_converged_estimate_linearizes_once_per_iteration(
        trained_net, small_geometry, wave, true_channel, true_position,
        monkeypatch, chains):
    # the loop re-linearizes only when it goes on, so a converged estimate
    # linearizes once per iteration; its channel estimate is the per-pair
    # model at the final location mean
    geom = small_geometry
    pilots = gen_pilots(geom.n_patches, 100, seed=7)
    f = None if chains is None else gen_combiner(chains, geom.m_patches, seed=5)
    y, _ = simulate_rx(combine_channel(f, true_channel), pilots, 8.0, seed=3)
    model = unitary_transform(pilots.matrix, y)
    linearize, calls = estimator.taylor_linearize, []

    def counted(*args):
        calls.append(args[2])
        return linearize(*args)

    monkeypatch.setattr(estimator, "taylor_linearize", counted)
    cfg = EstimatorConfig(init_position=true_position)
    res = (estimate_full_digital(model, trained_net, geom, cfg) if f is None
           else estimate_hybrid(model, f, trained_net, geom, cfg))
    assert res.converged and res.iterations > 1
    assert len(calls) == res.iterations
    assert np.array_equal(res.h_hat,
                          stacked_channel(trained_net, geom, res.position, wave))


class TestHybridEstimator:
    def test_identity_combiner_matches_full_digital(self, trained_net,
                                                    small_geometry, rx_model,
                                                    true_channel):
        _, model, _ = rx_model
        m = small_geometry.m_patches
        f_id = np.eye(m, dtype=complex)
        cfg = EstimatorConfig(max_iters=8,
                              init_position=np.array([0.3, -0.4, 27.0]))
        res_fd = estimate_full_digital(model, trained_net, small_geometry, cfg)
        res_hy = estimate_hybrid(model, f_id, trained_net, small_geometry, cfg)
        assert len(res_hy.trace) == len(res_fd.trace)
        for a, b in zip(res_fd.trace, res_hy.trace):
            for key in ("x", "y", "z", "gamma_hat"):
                assert b[key] == pytest.approx(a[key], rel=1e-12)
        assert np.allclose(res_hy.h_hat, res_fd.h_hat, rtol=1e-12, atol=0)

    def test_warm_start_few_chains_converges_with_crlb_variance(
            self, trained_net, small_geometry, wave):
        # 4 RF chains for 36 receive patches: MP still converges, reports
        # the lateral s.d. of the combined receiver's CRLB, and stays put
        converged, ratios, errors = _warm_start_trials(trained_net,
                                                       small_geometry, wave, 4)
        assert converged >= 11
        assert 0.8 <= np.median(ratios) <= 1.25
        assert max(errors) < 0.5

    def test_noiseless_stays_at_truth(self, trained_net, small_geometry, wave,
                                      true_position):
        # hybrid counterpart of acceptance criterion 6(c): started at the
        # truth on noiseless model-consistent data, nothing is left to move
        pilots = gen_pilots(small_geometry.n_patches, 100, seed=7)
        f = gen_combiner(24, small_geometry.m_patches, seed=5)
        h_model = stacked_channel(trained_net, small_geometry, true_position, wave)
        y, _ = simulate_rx_hybrid(f, h_model, pilots, np.inf, seed=0)
        res = estimate_hybrid(unitary_transform(pilots.matrix, y), f, trained_net,
                              small_geometry,
                              EstimatorConfig(init_position=true_position))
        assert np.linalg.norm(res.position - true_position) < 1e-6
        assert res.converged

    def test_reduced_chains_still_estimate(self, trained_net, small_geometry,
                                           true_channel, true_position):
        pilots = gen_pilots(small_geometry.n_patches, 100, seed=7)
        f = gen_combiner(24, small_geometry.m_patches, seed=5)
        y, gamma_true = simulate_rx_hybrid(f, true_channel, pilots, 8.0, seed=3)
        model = unitary_transform(pilots.matrix, y)
        res = estimate_hybrid(model, f, trained_net, small_geometry,
                              h_true=true_channel)
        assert _nmse_db(res.h_hat, true_channel) < -30.0
        assert np.all(np.abs(res.position[:2] - true_position[:2]) < 0.05)
        assert abs(res.position[2] - true_position[2]) < 0.35
        assert gamma_true / 2 < res.gamma_hat < gamma_true * 2
