"""Acceptance gate: ten system-level criteria, one pass/fail line each.

Each test prints a line of the form ``CRITERION <n>: PASS|FAIL - <summary>``
directly to the terminal (bypassing capture) before asserting, so a full run
always shows the status of every criterion.
"""

import sys

import numpy as np
import pytest

import conftest

from hmimo.geometry import SurfaceGeometry, rx_centers, tx_offsets
from hmimo.green import (WaveConfig, QuadratureRule, full_channel,
                         patch_channel, approx_channel)
from hmimo.surrogate import (CoordinateBox, HybridNet, TrainConfig,
                             channel_first_derivs, channel_second_derivs,
                             generate_training_set, hybrid_channel, nmse_db,
                             stacked_channel as _model_stacked, train)
from hmimo.signals import gen_pilots, simulate_rx, unitary_transform
from hmimo.estimator import (EstimatorConfig, UampState, estimate_full_digital,
                             estimate_hybrid, ls_estimate, uamp_linear_step)
from hmimo.crlb import fim, score
from hmimo.harness import (PROFILES, _deep_merge, run_point, sweep,
                           train_net, training_data, write_rows_csv)


def _report(num, ok, summary):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num}: {status} - {summary}"
    print(line, file=sys.__stderr__)
    sys.__stderr__.flush()
    conftest.criterion_lines.append(line)


@pytest.fixture(scope="module")
def heldout_set(small_geometry, wave):
    """Held-out samples over the full prior box with exact-quadrature targets."""
    box = CoordinateBox.from_prior(small_geometry, (-1.0, 1.0), (-1.0, 1.0),
                                   (20.0, 40.0))
    return generate_training_set(box, small_geometry, wave, QuadratureRule(8),
                                 2000, seed=999)


@pytest.fixture(scope="module")
def training_set():
    return training_data(PROFILES["ci"])


@pytest.fixture(scope="module")
def approx_net():
    """The ci profile's surrogate fitted to the closed-form sinc-approximation
    channel."""
    net, report = train_net(PROFILES["ci"], "approx")
    # fit quality against its own closed-form targets, not the exact channel
    assert report["val_nmse_db"] < -45.0
    return net


@pytest.fixture(scope="module")
def ordering_rows(trained_net, approx_net):
    """Criterion 3/4 sweep point: SNR 8 dB, L=100, CI scale, 20 trials."""
    cfg = _deep_merge(PROFILES["ci"], {
        "trials": 20,
        "estimators": ["mp-hybrid", "mp-approx", "ls", "known-location"],
    })
    nets = {"exact": trained_net, "approx": approx_net}
    rows = run_point(cfg, nets, "snr", 8.0, 0)
    return {r["estimator"]: r for r in rows}


def test_criterion_1_surrogate_fidelity(trained_net, heldout_set):
    inputs, targets = heldout_set
    fit_db = nmse_db(trained_net.forward(inputs), targets)
    ok = fit_db <= -45.0
    _report(1, ok, f"held-out channel NMSE {fit_db:.1f} dB (need <= -45)")
    assert ok


def test_criterion_2_hidden_node_sweep(training_set, wave):
    inputs, targets = training_set
    vals = {}
    for nh in (5, 10, 20, 50, 100):
        _, report = train(inputs, targets,
                          TrainConfig(hidden_count=nh, epochs=600, seed=3),
                          wave.frequency)
        vals[nh] = report["val_nmse_db"]
    monotone = all(vals[a] > vals[b]
                   for a, b in ((5, 10), (10, 20), (20, 50)))
    marginal = vals[50] - vals[100] < 3.0
    ok = monotone and marginal
    _report(2, ok, "val NMSE by hidden nodes "
            + ", ".join(f"{k}:{v:.1f}" for k, v in vals.items())
            + f" (monotone={monotone}, 50->100 gain "
              f"{vals[50] - vals[100]:.1f} dB < 3)")
    assert ok


def test_criterion_3_estimator_ordering(ordering_rows):
    mp = ordering_rows["mp-hybrid"]["nmse_h_db"]
    ap = ordering_rows["mp-approx"]["nmse_h_db"]
    ls = ordering_rows["ls"]["nmse_h_db"]
    bound = ordering_rows["known-location"]["nmse_h_db"]
    ok = bound <= mp and mp < ap and mp <= ls - 10.0
    _report(3, ok, f"NMSE_H dB: bound {bound:.1f} <= mp {mp:.1f} "
            f"< closed-form-model mp {ap:.1f}; mp <= ls {ls:.1f} - 10")
    assert ok


def test_criterion_4_crlb_bound_property(ordering_rows, trained_net,
                                         small_geometry):
    row = ordering_rows["mp-hybrid"]
    # mean squared position error must not beat the bound by more than 3
    # standard errors of the trial mean
    mse_db = row["nmse_p_db"]
    slack_db = 3.0 * row["nmse_p_stderr_db"]
    bound_ok = mse_db >= row["crlb_db"] - slack_db
    s = gen_pilots(small_geometry.n_patches, 100, seed=1).matrix
    p = np.array([0.37, -0.51, 27.3])
    f1 = fim(p, trained_net, small_geometry, s, 1e8)
    f10 = fim(p, trained_net, small_geometry, s, 1e9)
    linear_ok = np.allclose(f10, 10.0 * f1, rtol=1e-12)
    ok = bound_ok and linear_ok
    _report(4, ok, f"NMSE_p {mse_db:.1f} dB >= CRLB {row['crlb_db']:.1f} dB "
            f"- {slack_db:.1f}; FIM gamma-linearity exact={linear_ok}")
    assert ok


def test_criterion_5_degenerate_reduction(trained_net, small_geometry,
                                          true_channel):
    pilots = gen_pilots(small_geometry.n_patches, 100, seed=7)
    y, _ = simulate_rx(true_channel, pilots, 8.0, seed=3)
    model = unitary_transform(pilots.matrix, y)
    m = small_geometry.m_patches
    cfg = EstimatorConfig(max_iters=10,
                          init_position=np.array([0.3, -0.4, 27.0]))
    res_fd = estimate_full_digital(model, trained_net, small_geometry, cfg)
    res_hy = estimate_hybrid(model, np.eye(m, dtype=complex),
                             trained_net, small_geometry, cfg)
    worst = 0.0
    for a, b in zip(res_fd.trace, res_hy.trace):
        for key in ("x", "y", "z", "gamma_hat"):
            worst = max(worst, abs(a[key] - b[key]) / max(abs(a[key]), 1e-300))
    ok = worst < 1e-6
    _report(5, ok, f"identity-combiner cascade matches full-digital "
            f"per-iteration (worst rel diff {worst:.2e} < 1e-6)")
    assert ok


def test_criterion_6_noiseless_oracles(trained_net, small_geometry,
                                       true_channel, true_position):
    pilots = gen_pilots(small_geometry.n_patches, 100, seed=7)
    s = pilots.matrix

    # (a) least squares is exact without noise
    h_ls = ls_estimate(s, s @ true_channel)
    rel_ls = np.linalg.norm(h_ls - true_channel) / np.linalg.norm(true_channel)
    ok_a = rel_ls < 1e-10

    # (b) the AMP linear stage reaches the LS solution from the
    # non-informative state
    y, _ = simulate_rx(true_channel, pilots, np.inf, seed=0)
    model = unitary_transform(s, y)
    flat = (model.phi.shape[1], model.r.shape[1])
    state = UampState.from_prior(np.zeros(flat, dtype=complex), np.ones(flat),
                                 model.phi.shape[0])
    state.gamma = 1e10
    q, _, _ = uamp_linear_step(model, state, np.inf)
    rel_amp = np.linalg.norm(q - h_ls) / np.linalg.norm(h_ls)
    ok_b = rel_amp < 1e-6

    # (c) initialized at the truth on model-consistent noiseless data, the
    # final position estimate stays at the truth
    h_model = _model_stacked(trained_net, small_geometry, true_position)
    y_model, _ = simulate_rx(h_model, pilots, np.inf, seed=0)
    res = estimate_full_digital(unitary_transform(s, y_model), trained_net,
                                small_geometry,
                                EstimatorConfig(init_position=true_position))
    dev = float(np.linalg.norm(res.position - true_position))
    ok_c = dev < 1e-6

    ok = ok_a and ok_b and ok_c
    _report(6, ok, f"LS exact rel {rel_ls:.1e}; AMP->LS rel {rel_amp:.1e}; "
            f"stay-at-truth deviation {dev:.1e} m (need < 1e-6)")
    assert ok


def test_criterion_7_derivative_suite(trained_net, small_geometry, wave,
                                      true_position):
    rng = np.random.default_rng(42)
    worst1 = worst2 = 0.0
    eps = 1e-4
    eye = np.eye(3)
    for trial in range(100):
        nh = 16
        net = HybridNet(w1=rng.normal(size=(nh, 3)), b1=rng.normal(size=nh),
                        w2=rng.normal(size=(nh, 12)) * 0.3,
                        b2=rng.normal(size=12) * 0.1,
                        input_offset=np.array([0.0, 0.0, 30.0]),
                        input_scale=np.array([1.5, 1.5, 10.0]),
                        output_offset=rng.normal(size=12) * 1e-6,
                        output_scale=np.full(12, 1e-5),
                        frequency=wave.frequency)
        p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(20, 40)])
        h, dh = channel_first_derivs(net, p)
        _, _, d2h = channel_second_derivs(net, p)
        scale = np.abs(h).max()
        for a in range(3):
            fd1 = (hybrid_channel(net, p + eps * eye[a])
                   - hybrid_channel(net, p - eps * eye[a])) / (2 * eps)
            worst1 = max(worst1, np.abs(dh[0, :, a] - fd1[0]).max()
                         / np.abs(fd1).max())
            # directional finite difference of the analytic gradient
            fd2 = (channel_first_derivs(net, p + eps * eye[a])[1]
                   - channel_first_derivs(net, p - eps * eye[a])[1]) \
                / (2 * eps)
            worst2 = max(worst2, np.abs(d2h[0, :, :, a] - fd2[0]).max()
                         / np.abs(fd2).max())
    ok_fd = worst1 < 1e-4 and worst2 < 1e-3

    # FIM versus empirical score covariance
    s = gen_pilots(small_geometry.n_patches, 60, seed=21).matrix
    h = _model_stacked(trained_net, small_geometry, true_position)
    gamma = 1.0 / (np.abs(h) ** 2).mean()
    y0 = s @ h
    f = fim(true_position, trained_net, small_geometry, s, gamma)
    rng = np.random.default_rng(5)
    scores = []
    for _ in range(1000):
        w = np.sqrt(0.5 / gamma) * (rng.standard_normal(y0.shape)
                                    + 1j * rng.standard_normal(y0.shape))
        scores.append(score(true_position, y0 + w, s, trained_net,
                            small_geometry, gamma))
    scores = np.array(scores)
    emp = scores.T @ scores / scores.shape[0]
    rel = np.linalg.norm(emp - f) / np.linalg.norm(f)
    ok_fim = rel < 0.1

    ok = ok_fd and ok_fim
    _report(7, ok, f"FD rel err first {worst1:.1e} < 1e-4, "
            f"second {worst2:.1e} < 1e-3; score-cov vs FIM {rel:.3f} < 0.1")
    assert ok


def test_criterion_8_quadrature_convergence(small_geometry, wave):
    rng = np.random.default_rng(3)
    geom = small_geometry
    worst = 0.0
    for _ in range(5):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(20, 40)])
        b8 = patch_channel(1, 1, geom, p, wave, QuadratureRule(8))
        b16 = patch_channel(1, 1, geom, p, wave, QuadratureRule(16))
        worst = max(worst, np.linalg.norm(b8 - b16) / np.linalg.norm(b16))
    ok_conv = worst < 1e-8

    p = np.array([0.3, -0.2, 25.0])
    blk = patch_channel(2, 3, geom, p, wave, QuadratureRule(8))
    ok_sym = np.array_equal(blk, blk.T)
    approx = approx_channel(2, 3, geom, p, wave)
    rel = np.linalg.norm(approx - blk) / np.linalg.norm(blk)
    ok_approx = rel < 0.05

    ok = ok_conv and ok_sym and ok_approx
    _report(8, ok, f"order 8 vs 16 rel {worst:.1e} < 1e-8; blocks symmetric "
            f"{ok_sym}; closed-form vs quadrature rel {rel:.1e} < 0.05")
    assert ok


def test_criterion_9_closed_form_model_floor(trained_net, approx_net):
    cfg = _deep_merge(PROFILES["ci"], {
        "trials": 6,
        "sweep": {"values": [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]},
        "estimators": ["mp-hybrid", "mp-approx"],
    })
    nets = {"exact": trained_net, "approx": approx_net}
    rows = sweep(cfg, nets)
    snrs = cfg["sweep"]["values"]
    mp = {r["sweep_value"]: r["nmse_h_db"] for r in rows
          if r["estimator"] == "mp-hybrid"}
    ap = {r["sweep_value"]: r["nmse_h_db"] for r in rows
          if r["estimator"] == "mp-approx"}
    # closed-form-model estimator flattens above 12 dB...
    ap_slopes = [ap[s1] - ap[s2] for s1, s2 in ((12.0, 16.0), (16.0, 20.0))]
    flattens = all(sl < 0.5 for sl in ap_slopes)
    # ...while the exact-model estimator keeps improving to a lower floor
    improves = all(mp[s1] > mp[s2] for s1, s2 in zip(snrs[:-1], snrs[1:]))
    lower_floor = mp[20.0] < ap[20.0]
    ok = flattens and improves and lower_floor
    _report(9, ok, "closed-form-model NMSE_H "
            + "/".join(f"{ap[s]:.1f}" for s in snrs)
            + " dB vs exact-model "
            + "/".join(f"{mp[s]:.1f}" for s in snrs)
            + f" (flattens={flattens}, improves={improves},"
              f" lower floor={lower_floor})")
    assert ok


def test_criterion_10_reproducibility(trained_net, approx_net, tmp_path):
    cfg = _deep_merge(PROFILES["ci"], {
        "trials": 1,
        "sweep": {"values": [8.0]},
        "estimators": ["mp-hybrid", "ls", "known-location"],
        "record_timing": False,
    })
    nets = {"exact": trained_net, "approx": approx_net}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(p1, sweep(cfg, nets))
    write_rows_csv(p2, sweep(cfg, nets))
    ok = p1.read_bytes() == p2.read_bytes()
    _report(10, ok, "fixed-seed sweep produces byte-identical CSV "
            f"({p1.stat().st_size} bytes)")
    assert ok
