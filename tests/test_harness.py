"""Tests for config handling, Monte-Carlo orchestration and the CLI."""

import csv
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import hmimo
from hmimo import cli, harness
from hmimo.harness import (CSV_COLUMNS, ConfigError, PROFILES, _deep_merge,
                           _draw_trial, _format_cell, _mean_stderr_db,
                           build_geometry, crlb_rows, load_config, load_nets,
                           point_trials, run_point, run_trial, sweep,
                           train_surrogates, validate_config, write_rows_csv)
from hmimo.green import (MAX_QUADRATURE_ORDER, QuadratureRule, SingularityError,
                         WaveConfig, full_channel)
from hmimo.estimator import NumericalFailure
from hmimo.signals import PreprocessError
from hmimo.surrogate import HybridNet, TrainingError, min_training_samples


def _child_env():
    """The environment of a child process that imports the same hmimo
    package as this test process."""
    src = str(Path(hmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class TestConfig:
    def test_profiles_valid(self):
        for profile in PROFILES.values():
            validate_config(profile)

    @pytest.mark.parametrize("profile", ["ci", "paper"])
    def test_oracle_order_matches_order_16(self, profile):
        # the profile's quadrature order, of the truth and of the training
        # targets alike, reproduces the order-16 channel within 1e-12
        # relative at the 8 corners of its prior box, where the integrand
        # varies fastest over a patch
        cfg = load_config(profile=profile)
        geom = build_geometry(cfg)
        wave = WaveConfig(cfg["wave"]["frequency"])
        corners = np.array(list(itertools.product(
            *(cfg["prior"][axis] for axis in "xyz"))), dtype=float)
        ref = full_channel(geom, corners, wave, QuadratureRule(16)).stacked
        order = cfg["quadrature_order"]
        got = full_channel(geom, corners, wave, QuadratureRule(order)).stacked
        rel = (np.linalg.norm(got - ref, axis=(1, 2))
               / np.linalg.norm(ref, axis=(1, 2)))
        assert np.max(rel) <= 1e-12, (order, rel)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="profile"):
            load_config(profile="nope")

    def test_file_overrides_profile(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("trials: 5\nsweep:\n  values: [2.0]\n")
        cfg = load_config(path, profile="ci")
        assert cfg["trials"] == 5
        assert cfg["sweep"]["values"] == [2.0]
        assert cfg["sweep"]["variable"] == "snr"   # untouched profile value

    def test_empty_sweep_rejected(self):
        cfg = _deep_merge(PROFILES["ci"], {"sweep": {"values": []}})
        with pytest.raises(ConfigError, match="empty"):
            validate_config(cfg)

    def test_bad_trials_rejected(self):
        cfg = _deep_merge(PROFILES["ci"], {"trials": 0})
        with pytest.raises(ConfigError, match="trials"):
            validate_config(cfg)

    def test_degenerate_prior_rejected(self):
        cfg = _deep_merge(PROFILES["ci"], {"prior": {"z": [30.0, 30.0]}})
        with pytest.raises(ConfigError, match="degenerate"):
            validate_config(cfg)

    def test_unknown_estimator_rejected(self):
        cfg = _deep_merge(PROFILES["ci"], {"estimators": ["magic"]})
        with pytest.raises(ConfigError, match="estimator"):
            validate_config(cfg)

    @pytest.mark.parametrize("names, match", [
        ([], "estimators is empty"),
        (["ls", "ls"], "estimators lists ls more than once"),
        (["mp-hybrid", "ls", "known-location", "ls", "mp-hybrid"],
         "estimators lists ls, mp-hybrid more than once")],
        ids=["empty", "repeated", "two-repeated"])
    def test_meaningless_estimator_list_rejected(self, names, match):
        # [] wrote a header-only CSV and [ls, ls] two identical rows
        cfg = _deep_merge(PROFILES["ci"], {"estimators": names})
        with pytest.raises(ConfigError, match=match):
            validate_config(cfg)

    def test_nonsquare_patch_sweep_rejected(self):
        cfg = _deep_merge(PROFILES["ci"],
                          {"sweep": {"variable": "patches", "values": [35]}})
        with pytest.raises(ConfigError, match="square"):
            validate_config(cfg)
        cfg = _deep_merge(PROFILES["ci"], {"fixed": {"patches": 35}})
        with pytest.raises(ConfigError, match="patch count 35 is not a square"):
            validate_config(cfg)

    def test_short_pilot_rejected(self):
        # ci transmit surface: N = 9 patches, so L must be at least 18
        cfg = _deep_merge(PROFILES["ci"], {"fixed": {"length": 17}})
        with pytest.raises(ConfigError, match="pilot length"):
            validate_config(cfg)
        validate_config(_deep_merge(PROFILES["ci"], {"fixed": {"length": 18}}))

    def test_short_pilot_in_length_sweep_rejected(self):
        cfg = _deep_merge(PROFILES["ci"],
                          {"sweep": {"variable": "length", "values": [40, 12]}})
        with pytest.raises(ConfigError, match="pilot length 12"):
            validate_config(cfg)

    def test_chains_above_m_rejected(self):
        # ci receive surface: M = 36 patches, so 1 <= P <= 36
        for chains in (0, 37, 100):
            cfg = _deep_merge(PROFILES["ci"], {"fixed": {"chains": chains}})
            with pytest.raises(ConfigError, match=f"chains {chains} "):
                validate_config(cfg)
        validate_config(_deep_merge(PROFILES["ci"], {"fixed": {"chains": 36}}))

    @pytest.mark.parametrize("variable, values", [
        ("length", [50.5, 100.0]), ("patches", [16.0, 36])])
    def test_non_integer_sweep_values_rejected(self, variable, values):
        # a trial would run int(50.5) = 50 pilots under a row that says 50.5
        cfg = _deep_merge(PROFILES["ci"],
                          {"sweep": {"variable": variable, "values": values}})
        with pytest.raises(ConfigError,
                           match=f"sweep.values .*: a {variable} sweep"):
            validate_config(cfg)
        validate_config(_deep_merge(cfg, {"sweep": {"values": [50, 100]
                                                    if variable == "length"
                                                    else [16, 36]}}))

    def test_chains_sweep_value_above_m_rejected(self):
        cfg = _deep_merge(PROFILES["ci"],
                          {"sweep": {"variable": "chains", "values": [8, 40]}})
        with pytest.raises(ConfigError, match="chains 40 "):
            validate_config(cfg)

    def test_chains_checked_against_each_patch_count(self):
        sweep = {"variable": "patches", "values": [16, 36]}
        cfg = _deep_merge(PROFILES["ci"], {"sweep": sweep,
                                           "fixed": {"chains": 20}})
        with pytest.raises(ConfigError, match="M = 16"):
            validate_config(cfg)
        validate_config(_deep_merge(PROFILES["ci"], {"sweep": sweep,
                                                     "fixed": {"chains": 16}}))

    def test_chains_checked_against_fixed_patches_in_a_patches_sweep(self):
        # hmimo point runs at fixed.patches = 4, where 16 chains used to
        # pass validation and die in the combiner draw
        cfg = _deep_merge(PROFILES["ci"], {
            "sweep": {"variable": "patches", "values": [36]},
            "fixed": {"patches": 4, "chains": 16}})
        with pytest.raises(ConfigError, match="chains 16 .*M = 4 "):
            validate_config(cfg)
        validate_config(_deep_merge(cfg, {"fixed": {"chains": 4}}))

    @pytest.mark.parametrize("override, match", [
        ({"fixed": {"chains": True}}, "^chains True must be an integer"),
        ({"record_timing": "x"}, "record_timing \\(a bool, got 'x'\\)"),
        ({"record_timing": np.nan}, "record_timing \\(a bool, got nan\\)"),
        ({"record_timing": 1}, "record_timing \\(a bool, got 1\\)")],
        ids=["bool-chains", "string-timing", "nan-timing", "int-timing"])
    def test_bool_and_untyped_keys_rejected(self, override, match):
        # chains: true ran as P = int(True) = 1, and record_timing took any
        # value; a key the profile holds a bool at takes a bool only
        with pytest.raises(ConfigError, match=match):
            load_config(profile="ci", overrides=override)
        load_config(profile="ci", overrides={"record_timing": False})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="pilot_length"):
            load_config(profile="ci", overrides={"pilot_length": 10})
        with pytest.raises(ConfigError, match="training.quad_order"):
            load_config(profile="ci", overrides={"training": {"quad_order": 4}})
        with pytest.raises(ConfigError, match="rx"):
            load_config(profile="ci", overrides={"rx": {"nx": 6, "ny": 6}})

    def test_training_quadrature_order_is_unknown(self):
        # the training targets are built at the truth's quadrature_order,
        # so a separate training order is an unknown key
        with pytest.raises(ConfigError, match="^unknown config keys: "
                           "training.quadrature_order$"):
            load_config(profile="ci",
                        overrides={"training": {"quadrature_order": 4}})

    def test_optional_keys_accepted(self):
        cfg = load_config(profile="ci", overrides={"threads": 1,
                                                   "fixed": {"patches": 16}})
        assert cfg["threads"] == 1 and cfg["fixed"]["patches"] == 16
        # the paper-geometry hybrid set-up of the benchmark
        load_config(profile="paper", overrides={
            "seed": 1, "trials": 5, "threads": 1,
            "paths": {"weights": "w.json", "weights_approx": "wa.json"},
            "fixed": {"chains": 32}, "estimators": ["mp-hybrid"],
            "training": PROFILES["ci"]["training"]})

    @pytest.mark.parametrize("threads", [0, 2])
    def test_threads_other_than_one_rejected(self, threads):
        # the thread pool is gone; the key stays, at 1, for configs that set it
        with pytest.raises(ConfigError,
                           match=f"threads {threads}: the option was removed"):
            load_config(profile="ci", overrides={"threads": threads})

    def test_too_few_training_samples_rejected(self):
        # hidden_count = 50 needs 10 * (4*50 + 12*51) = 8120 samples
        assert min_training_samples(50) == 8120
        cfg = _deep_merge(PROFILES["ci"], {"training": {"samples": 8119}})
        with pytest.raises(ConfigError, match="training.samples 8119 .* 8120"):
            validate_config(cfg)
        validate_config(_deep_merge(PROFILES["ci"],
                                    {"training": {"samples": 8120}}))
        cfg = _deep_merge(PROFILES["ci"], {"training": {"samples": 8120,
                                                        "hidden_count": 60}})
        with pytest.raises(ConfigError, match="hidden_count=60"):
            validate_config(cfg)

    def test_non_numeric_values_rejected(self, tmp_path):
        # PyYAML reads 3.0e9 (no sign in the exponent) as a string
        path = tmp_path / "cfg.yaml"
        path.write_text("wave:\n  frequency: 3.0e9\n")
        with pytest.raises(ConfigError, match="wave.frequency"):
            load_config(path, profile="ci")
        for override, key in (({"geometry": {"rx_rows": 6.5}}, "geometry.rx_rows"),
                              ({"prior": {"z": [20.0, "40"]}}, "prior.z"),
                              ({"sweep": {"values": [0.0, None]}}, "sweep.values"),
                              ({"fixed": {"snr": "8"}}, "fixed.snr"),
                              ({"estimator": {"tol": None}}, "estimator.tol"),
                              ({"training": {"epochs": 1.5}}, "training.epochs"),
                              ({"trials": True}, "trials"),
                              ({"fixed": {"patches": "16"}}, "fixed.patches"),
                              ({"threads": 1.5}, "threads"),
                              # an integer path would be taken as a descriptor
                              ({"paths": {"out": 1}}, "paths.out \\(a string, got 1\\)"),
                              ({"paths": {"weights": 5}}, "paths.weights \\(a string"),
                              ({"sweep": {"variable": 5}}, "sweep.variable \\(a string"),
                              # a section of the wrong kind
                              ({"prior": 5}, "prior \\(a mapping"),
                              ({"geometry": 5}, "geometry \\(a mapping"),
                              ({"paths": 5}, "paths \\(a mapping"),
                              ({"sweep": 5}, "sweep \\(a mapping"),
                              ({"fixed": 5}, "fixed \\(a mapping"),
                              ({"estimators": 5}, "estimators \\(a list")):
            with pytest.raises(ConfigError, match=key):
                validate_config(_deep_merge(PROFILES["ci"], override))
        # an integer where the profile holds a float is a number
        validate_config(_deep_merge(PROFILES["ci"], {"wave": {"frequency": 3000000000},
                                                     "fixed": {"snr": 8}}))
        # an SNR of +inf is noiseless data, as a fixed SNR or in an SNR sweep
        validate_config(_deep_merge(PROFILES["ci"], {
            "fixed": {"snr": np.inf}, "sweep": {"values": [np.inf, 10.0]}}))

    @pytest.mark.parametrize("override, match", [
        ({"quadrature_order": 1}, "^quadrature_order: .* >= 2"),
        ({"quadrature_order": MAX_QUADRATURE_ORDER + 1},
         f"^quadrature_order: .* <= {MAX_QUADRATURE_ORDER}$"),
        ({"estimator": {"grid_points": 1}}, "grid_points must be >= 2"),
        ({"wave": {"frequency": -3.0e9}}, "frequency must be positive"),
        ({"geometry": {"rx_dx": 0.0}}, "rx_dx must be positive"),
        ({"geometry": {"tx_dy": -0.01}}, "tx_dy must be positive"),
        ({"sweep": {"variable": "patches", "values": [0]}}, "rx_rows"),
        ({"fixed": {"patches": -4}}, "patch count -4 is not a square"),
        ({"prior": {"x": [0.5]}}, "degenerate prior range for x: \\[0.5\\]"),
        ({"prior": {"z": [0.0, 0.5, 1.0]}}, "degenerate prior range for z"),
        ({"geometry": {"tx_rows": 0}}, "^geometry: tx_rows must be a positive"),
        ({"wave": {"frequency": np.inf}},
         "wave.frequency \\(a finite number, got inf\\)"),
        ({"geometry": {"rx_dx": np.inf}}, "geometry.rx_dx \\(a finite number"),
        ({"sweep": {"variable": "patches", "values": [np.inf]}},
         "^sweep values \\[inf\\]: only snr values may be .inf"),
        ({"prior": {"x": [-np.inf, 1.0]}},
         "prior.x \\(a list of finite numbers, got \\[-inf, 1.0\\]\\)"),
        ({"estimator": {"tol": np.nan}}, "estimator.tol \\(a finite number, got nan"),
        ({"fixed": {"snr": np.nan}}, "fixed.snr \\(a finite number, got nan"),
        ({"fixed": {"snr": -np.inf}}, "fixed.snr \\(a finite number, got -inf"),
        ({"sweep": {"values": [0.0, -np.inf]}}, "sweep.values \\(a list of finite"),
        ({"sweep": {"variable": "length", "values": [np.inf]}},
         "^sweep values \\[inf\\]: only snr"),
        ({"training": {"hidden_count": 0}},
         "^training: hidden_count must be a positive integer, got 0$"),
        ({"training": {"hidden_count": -3}},
         "^training: hidden_count must be a positive integer, got -3$"),
        ({"training": {"epochs": -5}},
         "^training: epochs must be a non-negative integer, got -5$"),
        ({"estimator": {"max_iters": -3}},
         "^estimator: max_iters must be >= 1 \\(an integer\\), got -3$"),
        ({"estimator": {"max_iters": 0}},
         "^estimator: max_iters must be >= 1 \\(an integer\\), got 0$"),
        ({"estimator": {"tol": -1.0}}, "^estimator: tol must be non-negative, got -1.0$"),
    ], ids=["quadrature", "quadrature-above-bound", "grid-points", "frequency",
            "rx-dx", "tx-dy", "zero-patches", "negative-patches",
            "short-prior", "long-prior", "zero-tx-rows", "inf-frequency",
            "inf-rx-dx", "inf-patches", "inf-prior", "nan-tol", "nan-snr",
            "minus-inf-snr", "minus-inf-snr-sweep", "inf-length-sweep",
            "zero-hidden", "negative-hidden", "negative-epochs",
            "negative-max-iters", "zero-max-iters", "negative-tol"])
    def test_out_of_range_values_rejected(self, override, match):
        # the values the program's own constructors refuse, prior ranges
        # that are not two increasing numbers, and NaN or infinite numbers
        with pytest.raises(ConfigError, match=match):
            validate_config(_deep_merge(PROFILES["ci"], override))

    @pytest.mark.parametrize("override, key", [
        ({"seed": -1}, "seed"),
        ({"training": {"seed": -1}}, "training.seed"),
        ({"training": {"sample_seed": -1}}, "training.sample_seed"),
    ])
    def test_negative_seeds_rejected(self, override, key):
        # each used to die in numpy's seeding with a bare ValueError
        with pytest.raises(ConfigError, match=f"^{key}: expected non-negative"):
            load_config(profile="ci", overrides=override)

    def test_profile_alone_does_not_import_yaml(self):
        # PyYAML is imported only to read a config file; a fresh interpreter
        # shows it, since this process has imported it already
        code = ("import sys, hmimo; hmimo.load_config(profile='ci'); "
                "print('yaml' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
        assert proc.stdout.split() == ["False"], proc.stderr

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)

    def test_build_geometry_patch_override(self):
        geom = build_geometry(PROFILES["ci"], patches=16)
        assert geom.m_patches == 16


# Values a mutated config key takes: signs and zero, small integers, integers
# past int64 and past any float, a fraction, the largest float, NaN and the
# infinities, a bool, null, a string and both empty containers.  No integer
# lies between 3 and 2**63, which as a quadrature order would be a large
# matrix to factor if a check let it through.
EDGE_VALUES = [-1, 0, 1, 2, 3, 2**63, 10**400, 0.5, 1e308, float("nan"),
               float("inf"), float("-inf"), True, None, "x", [], {}]
# the ci profile, and with each other sweep variable at four values it accepts
SWEEP_BASES = [{}, {"sweep": {"variable": "length", "values": [40, 60, 80, 100]}},
               {"sweep": {"variable": "patches", "values": [4, 9, 16, 36]}},
               {"sweep": {"variable": "chains", "values": [1, 2, 4, 8]}}]


def _key_paths(tree, prefix=()):
    """Every key path of a config tree, sections and list elements included
    (an element's index ends its path)."""
    for key, val in tree.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))
        elif isinstance(val, list):
            yield from (prefix + (key, i) for i in range(len(val)))


KEY_PATHS = [*_key_paths(PROFILES["ci"]),
             ("fixed", "patches"), ("threads",)]


def _mutation(base, path, value):
    """The override ``base`` with ``path`` set to ``value``.  An element
    path replaces one element of the list that ``base`` merged onto the ci
    profile holds there, and leaves ``base`` as it is if an earlier edit
    replaced that list."""
    if isinstance(path[-1], int):
        items = _deep_merge(PROFILES["ci"], base)
        for key in path[:-1]:
            items = items.get(key) if isinstance(items, dict) else None
        if not (isinstance(items, list) and path[-1] < len(items)):
            return base
        items = list(items)
        items[path[-1]] = value
        path, value = path[:-1], items
    for key in reversed(path):
        value = {key: value}
    return _deep_merge(base, value)


def _validates_or_config_error(override):
    try:
        load_config(profile="ci", overrides=override)
    except ConfigError:
        pass
    except Exception as exc:
        pytest.fail(f"{override!r} raised {type(exc).__name__}: {exc}")


class TestValidationIsTotal:
    """A config mutated from the profile, one key or list element at a time
    and then in drawn pairs, validates or raises ConfigError: an
    OverflowError from a quadrature order of 2**63 and a TypeError from a
    patch count of 10**400 used to escape as tracebacks."""

    @pytest.mark.parametrize("base", SWEEP_BASES, ids=lambda b: str(b.get(
        "sweep", {}).get("variable", "snr")))
    def test_mutations(self, base):
        for path, value in itertools.product(KEY_PATHS, EDGE_VALUES):
            _validates_or_config_error(_mutation(base, path, value))

        @settings(derandomize=True, max_examples=50, deadline=None)
        @given(st.lists(st.tuples(st.sampled_from(KEY_PATHS),
                                  st.sampled_from(EDGE_VALUES)),
                        min_size=2, max_size=2))
        def pairs(edits):
            override = base
            for path, value in edits:
                override = _mutation(override, path, value)
            _validates_or_config_error(override)

        pairs()


class TestStats:
    def test_mean_stderr_db_single_value(self):
        db, se = _mean_stderr_db([0.01])
        assert db == pytest.approx(-20.0)
        assert se == 0.0

    def test_mean_stderr_db_known(self):
        vals = np.array([1.0, 3.0])
        db, se = _mean_stderr_db(vals)
        assert db == pytest.approx(10 * np.log10(2.0))
        expect_se = vals.std(ddof=1) / np.sqrt(2) / 2.0 * 10 / np.log(10)
        assert se == pytest.approx(expect_se)


@pytest.fixture(scope="module")
def mini_cfg():
    return _deep_merge(PROFILES["ci"], {
        "trials": 2,
        "sweep": {"values": [8.0]},
        "estimators": ["mp-hybrid", "ls", "known-location"],
    })


@pytest.fixture(scope="module")
def nets(trained_net):
    return {"exact": trained_net, "approx": trained_net}


class TestRunTrial:
    def test_trial_metrics(self, mini_cfg, nets):
        seq = np.random.SeedSequence(entropy=1, spawn_key=(0,))
        fixed, geom, _ = point_trials(mini_cfg, "snr", 8.0, 0)
        out = run_trial(mini_cfg, nets, fixed, geom, seq)
        assert set(out) == {"mp-hybrid", "ls", "known-location", "crlb"}
        assert out["mp-hybrid"]["ok"]
        assert out["mp-hybrid"]["nmse_h"] < out["ls"]["nmse_h"]
        assert out["known-location"]["nmse_h"] < 10 ** (-4.0)
        assert out["ls"]["nmse_p"] is None
        assert np.isfinite(out["crlb"])

    def test_trial_reproducible(self, mini_cfg, nets):
        # two equal sequences, then a second call on the same sequence object
        seq = np.random.SeedSequence(entropy=7, spawn_key=(0,))
        fixed, geom, _ = point_trials(mini_cfg, "snr", 8.0, 0)
        outs = [run_trial(mini_cfg, nets, fixed, geom, s) for s in
                (np.random.SeedSequence(entropy=7, spawn_key=(0,)), seq, seq)]
        for out in outs:
            for name in ("mp-hybrid", "ls", "known-location"):
                del out[name]["wall_s"]
        assert outs[0] == outs[1] == outs[2]

    def test_mp_outcome_holds_the_estimate_without_its_channel(self, mini_cfg,
                                                              nets):
        fixed, geom, seqs = point_trials(mini_cfg, "snr", 8.0, 0)
        out = run_trial(mini_cfg, nets, fixed, geom, seqs[0])["mp-hybrid"]
        p1 = _draw_trial(mini_cfg, geom, fixed, seqs[0])[1]
        assert set(out) == {"ok", "nmse_h", "nmse_p", "position", "iterations",
                            "converged", "wall_s"}
        assert (float(np.sum((np.asarray(out["position"]) - p1) ** 2))
                / float(np.sum(p1 ** 2)) == out["nmse_p"])
        assert 1 <= out["iterations"] <= mini_cfg["estimator"]["max_iters"]
        assert isinstance(out["converged"], bool)
        assert max(np.size(v) for v in out.values()) == 3

    def test_draw_children_are_those_of_a_first_spawn(self, mini_cfg):
        seq = np.random.SeedSequence(entropy=7, spawn_key=(0, 3), pool_size=8)
        geom = build_geometry(mini_cfg)
        seeds, *_ = _draw_trial(mini_cfg, geom, mini_cfg["fixed"], seq)
        fresh = np.random.SeedSequence(entropy=7, spawn_key=(0, 3),
                                       pool_size=8).spawn(4)
        assert [s.state for s in seeds] == [s.state for s in fresh]
        assert seq.n_children_spawned == 0

    def test_chains_variable_runs_hybrid_receiver(self, mini_cfg, nets):
        fixed, geom, _ = point_trials(mini_cfg, "chains", 24, 0)
        out = run_trial(mini_cfg, nets, fixed, geom,
                        np.random.SeedSequence(entropy=2, spawn_key=(0,)))
        assert out["mp-hybrid"]["ok"]
        assert out["mp-hybrid"]["nmse_h"] < 10 ** (-2.5)
        assert out["ls"]["ok"]   # minimum-norm completion through the combiner


class TestRunPointAndSweep:
    def test_crlb_rows_and_run_point_draw_the_same_trials(self, mini_cfg, nets,
                                                          monkeypatch):
        # behind a combiner, so that the combiner draws are compared too
        cfg = _deep_merge(mini_cfg, {"fixed": {"chains": 16},
                                     "estimators": ["ls"]})
        draw, draws = harness._draw_trial, []

        def recorded(*args):
            out = draw(*args)
            draws.append(out[1:])
            return out

        monkeypatch.setattr(harness, "_draw_trial", recorded)
        crlb_rows(cfg, nets["exact"])
        by_crlb, draws[:] = list(draws), []
        run_point(cfg, nets, "snr", cfg["sweep"]["values"][0], 0)
        assert len(by_crlb) == len(draws) == cfg["trials"]
        assert not np.array_equal(draws[0][0], draws[1][0])
        for (p1, s1, f1), (p2, s2, f2) in zip(by_crlb, draws):
            assert np.array_equal(p1, p2)
            assert np.array_equal(s1.matrix, s2.matrix)
            assert np.array_equal(f1, f2)

    def test_rows_shape_and_order(self, mini_cfg, nets):
        rows = run_point(mini_cfg, nets, "snr", 8.0, 0)
        assert [r["estimator"] for r in rows] == mini_cfg["estimators"]
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["trials_ok"] + row["trials_failed"] == 2
        by_name = {r["estimator"]: r for r in rows}
        assert by_name["mp-hybrid"]["nmse_h_db"] < by_name["ls"]["nmse_h_db"] - 10
        assert np.isnan(by_name["ls"]["nmse_p_db"])

    @staticmethod
    def _fail_preprocessing(monkeypatch, trials):
        """Make ``unitary_transform`` raise in the given trials, counted
        from 1 in the order the point runs them."""
        transform, calls = harness.unitary_transform, []

        def flaky(*args):
            calls.append(args)
            if len(calls) in trials:
                raise PreprocessError("pilot matrix is rank deficient")
            return transform(*args)

        monkeypatch.setattr(harness, "unitary_transform", flaky)

    def test_failed_trial_counts_against_every_estimator(self, mini_cfg, nets,
                                                         monkeypatch):
        # a trial whose preprocessing fails is a failed trial of every
        # estimator and gives no bound; the other three fill every row
        cfg = _deep_merge(mini_cfg, {"trials": 4})
        self._fail_preprocessing(monkeypatch, {2})
        rows = run_point(cfg, nets, "snr", 8.0, 0)
        assert [r["estimator"] for r in rows] == cfg["estimators"]
        for row in rows:
            assert (row["trials_ok"], row["trials_failed"]) == (3, 1)
            figures = ["nmse_h_db", "nmse_h_stderr_db", "crlb_db", "wall_s"]
            if row["estimator"] == "mp-hybrid":
                figures += ["nmse_p_db", "nmse_p_stderr_db"]
            assert all(np.isfinite(row[c]) for c in figures), row

    def test_point_of_failed_trials_raises(self, mini_cfg, nets, monkeypatch):
        cfg = _deep_merge(mini_cfg, {"trials": 4})
        self._fail_preprocessing(monkeypatch, {1, 2, 3, 4})
        with pytest.raises(NumericalFailure, match="^all 4 trials failed for "
                           "mp-hybrid at snr=8.0 \\(first error: pilot matrix"):
            run_point(cfg, nets, "snr", 8.0, 0)

    @staticmethod
    def _cells(rows):
        return [[_format_cell(row[c]) for c in CSV_COLUMNS] for row in rows]

    def test_sweep_reproducible_rows(self, mini_cfg, nets):
        cfg = _deep_merge(mini_cfg, {"record_timing": False})
        assert self._cells(sweep(cfg, nets)) == self._cells(sweep(cfg, nets))

    def test_csv_bytes_reproducible(self, mini_cfg, nets, tmp_path):
        cfg = _deep_merge(mini_cfg, {"record_timing": False})
        rows = sweep(cfg, nets)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(p1, rows)
        write_rows_csv(p2, sweep(cfg, nets))
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == CSV_COLUMNS

    def test_csv_io_error(self, mini_cfg):
        with pytest.raises(IOError):
            write_rows_csv("/nonexistent-dir/x.csv", [])


class TestCrlbRows:
    def test_rows_per_point(self, mini_cfg, nets):
        cfg = _deep_merge(mini_cfg, {"trials": 3,
                                     "sweep": {"values": [0.0, 10.0]}})
        rows = crlb_rows(cfg, nets["exact"])
        assert len(rows) == 2
        assert all(r["estimator"] == "crlb" for r in rows)
        assert rows[0]["crlb_db"] > rows[1]["crlb_db"]

    def test_snr_shift_exact_on_matched_draws(self, mini_cfg, nets):
        # single-point grids share the point index, hence identical draws
        lo = _deep_merge(mini_cfg, {"trials": 2, "sweep": {"values": [0.0]}})
        hi = _deep_merge(mini_cfg, {"trials": 2, "sweep": {"values": [10.0]}})
        row_lo = crlb_rows(lo, nets["exact"])[0]
        row_hi = crlb_rows(hi, nets["exact"])[0]
        assert row_lo["crlb_db"] - row_hi["crlb_db"] == pytest.approx(10.0,
                                                                      abs=1e-9)

    def test_noiseless_point_has_no_bound(self, mini_cfg, nets):
        # at infinite SNR the precision is infinite: no draw has a bound
        cfg = _deep_merge(mini_cfg, {"trials": 2,
                                     "sweep": {"values": [float("inf"), 10.0]}})
        noiseless, noisy = crlb_rows(cfg, nets["exact"])
        assert np.isnan(noiseless["crlb_db"])
        assert (noiseless["trials_ok"], noiseless["trials_failed"]) == (0, 2)
        assert np.isfinite(noisy["crlb_db"])
        assert (noisy["trials_ok"], noisy["trials_failed"]) == (2, 0)

    def test_fewer_chains_raise_bound_on_matched_draws(self, mini_cfg, nets):
        # single-point chain grids share the point index, hence the draws
        # of p1 and the pilots; only the combiner's width differs
        rows = {p: crlb_rows(_deep_merge(mini_cfg, {
                    "trials": 2, "sweep": {"variable": "chains", "values": [p]}}),
                    nets["exact"])[0] for p in (4, 36)}
        assert rows[4]["sweep_value"] == 4 and rows[36]["sweep_value"] == 36
        assert rows[4]["crlb_db"] > rows[36]["crlb_db"]


def _weights_text(**changes) -> str:
    """A v1 weights file of a one-unit net at 3 GHz, with ``changes`` made
    to its top-level entries."""
    doc = {"version": 1, "hidden_count": 1, "w1": [0.5, 0.0, 0.0], "b1": [0.0],
           "w2": [1.0] * 12, "b2": [0.0] * 12, "input_scale": [1.0] * 3,
           "input_offset": [0.0] * 3, "output_scale": [1.0] * 12,
           "output_offset": [0.0] * 12, "wave": {"frequency_hz": 3.0e9}}
    return json.dumps({**doc, **changes})


class TestLoadNets:
    def _cfg(self, tmp_path, frequency):
        rng = np.random.default_rng(0)
        HybridNet(w1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
                  w2=rng.normal(size=(4, 12)), b2=rng.normal(size=12),
                  input_offset=np.zeros(3), input_scale=np.ones(3),
                  output_offset=np.zeros(12), output_scale=np.ones(12),
                  frequency=3.0e9).save(tmp_path / "w.json")
        return _deep_merge(PROFILES["ci"], {
            "wave": {"frequency": frequency},
            "estimators": ["mp-hybrid"],
            "paths": {"weights": str(tmp_path / "w.json"),
                      "weights_approx": str(tmp_path / "w.json")}})

    def test_matching_frequency_loads(self, tmp_path):
        nets = load_nets(self._cfg(tmp_path, 3.0e9))
        assert nets["exact"].frequency == 3.0e9

    def test_frequency_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trained at"):
            load_nets(self._cfg(tmp_path, 2.8e9))

    @pytest.mark.parametrize("text, match", [
        ('{"version": 2}', "ValueError: unsupported weights file version 2"),
        ("not json", "JSONDecodeError: Expecting value"),
        ("[]", "ValueError: weights file is not a JSON object"),
        (_weights_text(wave={"frequency_hz": "3e9"}),
         "ValueError: frequency must be a positive number, got '3e9'"),
        (_weights_text(output_scale=[1.0] * 11),
         "ValueError: output_scale has shape \\(11,\\), expected \\(12,\\)"),
        (_weights_text(input_scale=[1.0]),
         "ValueError: input_scale has shape \\(1,\\), expected \\(3,\\)"),
        (_weights_text(output_scale=[float("nan")] * 12),
         "ValueError: non-finite output_scale"),
        (_weights_text(hidden_count="4"),
         "ValueError: hidden_count must be a positive integer, got '4'"),
        (_weights_text(wave=[]), "TypeError: list indices must be integers"),
    ], ids=["version", "not-json", "not-object", "string-frequency",
            "short-output-scale", "short-input-scale", "nan-output-scale",
            "string-hidden-count", "list-wave"])
    def test_unreadable_weights_rejected(self, tmp_path, text, match):
        cfg = self._cfg(tmp_path, 3.0e9)
        path = tmp_path / "w.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"cannot read exact surrogate "
                           f"weights {re.escape(str(path))}, needed by "
                           f"mp-hybrid, crlb: {match}.*train"):
            load_nets(cfg)


# Trains in well under a second; only the files written and the bits matter.
TINY_TRAINING = {"samples": 800, "hidden_count": 4, "epochs": 2}


class TestTrainSurrogates:
    def _cfg(self, directory, estimators):
        directory.mkdir()
        return load_config(profile="ci", overrides={
            "estimators": estimators, "training": TINY_TRAINING,
            "paths": {"weights": str(directory / "w.json"),
                      "weights_approx": str(directory / "wa.json")}})

    def test_trains_only_the_nets_the_estimators_read(self, tmp_path):
        cfg = self._cfg(tmp_path / "lean", ["mp-hybrid", "ls"])
        messages = []
        trained = train_surrogates(cfg, progress=messages.append)
        assert set(trained) == {"exact"}
        assert sorted(p.name for p in (tmp_path / "lean").iterdir()) == ["w.json"]
        assert ("approx surrogate: skipped (no configured estimator uses it)"
                in messages)
        assert set(load_nets(cfg)) == {"exact"}
        with pytest.raises(ConfigError, match="needed by mp-approx.*train subcommand"):
            load_nets({**cfg, "estimators": ["mp-hybrid", "mp-approx"]})

    def test_mp_approx_trains_both_with_the_same_exact_net(self, tmp_path):
        lean = self._cfg(tmp_path / "lean", ["mp-hybrid", "ls"])
        full = self._cfg(tmp_path / "full", ["mp-hybrid", "mp-approx", "ls"])
        train_surrogates(lean)
        assert set(train_surrogates(full)) == {"exact", "approx"}
        assert sorted(p.name for p in (tmp_path / "full").iterdir()) == [
            "w.json", "wa.json"]
        assert set(load_nets(full)) == {"exact", "approx"}
        assert ((tmp_path / "lean" / "w.json").read_bytes()
                == (tmp_path / "full" / "w.json").read_bytes())


class TestCli:
    def _run(self, *args, cwd=None):
        return subprocess.run([sys.executable, "-m", "hmimo.cli", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env=_child_env())

    def test_bad_profile_is_usage_error(self):
        proc = self._run("sweep", "--profile", "nope")
        assert proc.returncode == 2

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("trials: 0\n")
        proc = self._run("sweep", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_section_of_wrong_kind_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("prior: 5\n")
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "prior (a mapping" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_weights_exit_code(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "paths": {"weights": str(tmp_path / "none.json"),
                      "weights_approx": str(tmp_path / "none2.json"),
                      "out": str(tmp_path / "out.csv")}}))
        proc = self._run("sweep", "--config", str(path))
        assert proc.returncode == 2
        assert "train subcommand" in proc.stderr

    def test_unreadable_weights_exit_code(self, tmp_path):
        weights = tmp_path / "w.json"
        weights.write_text('{"version": 2}')
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "estimators": ["ls"],
            "paths": {"weights": str(weights), "out": str(tmp_path / "out.csv")}}))
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "version 2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_malformed_weights_exit_code(self, tmp_path):
        # a one-entry input map used to broadcast over all three inputs
        weights = tmp_path / "w.json"
        weights.write_text(_weights_text(input_scale=[1.0]))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "estimators": ["ls"],
            "paths": {"weights": str(weights), "out": str(tmp_path / "out.csv")}}))
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and str(weights) in proc.stderr
        assert "input_scale has shape (1,)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_nonfinite_value_exit_code(self, tmp_path):
        path = tmp_path / "freq.yaml"
        path.write_text("wave:\n  frequency: .inf\n")
        proc = self._run("crlb", "--config", str(path),
                         "--out", str(tmp_path / "crlb.csv"))
        assert proc.returncode == 2
        assert "wave.frequency (a finite number, got inf)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "crlb.csv").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("crlb", {"wave": {"frequency": 10**400}}, "wave.frequency (a finite"),
        ("point", {"estimator": {"grid_points": 10**400}},
         "estimator.grid_points (an integer")], ids=["frequency", "grid-points"])
    def test_number_too_large_for_a_float_exit_code(self, tmp_path, command,
                                                    override, key):
        # each validated, then died in the run: crlb with an OverflowError
        # in load_nets' float(), point in the init's np.arange
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(override))
        proc = self._run(command, "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"config error: config values of the wrong type: {key}")
        assert "Traceback" not in proc.stderr

    def test_short_pilot_exit_code(self, tmp_path):
        path = tmp_path / "short.yaml"
        path.write_text("fixed:\n  length: 10\n")
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_chains_above_m_exit_code(self, tmp_path):
        path = tmp_path / "chains.yaml"
        path.write_text("fixed:\n  chains: 100\n")
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "chains 100" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_chains_above_fixed_patches_exit_code(self, tmp_path):
        # refused before the weights are read, so no weights file is needed
        path = tmp_path / "chains.yaml"
        path.write_text(yaml.safe_dump({
            "sweep": {"variable": "patches", "values": [36]},
            "fixed": {"patches": 4, "chains": 16}}))
        proc = self._run("point", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: chains 16 must be an "
                                      "integer in 1..M = 4 ")
        assert "Traceback" not in proc.stderr

    def test_short_training_set_exit_code(self, tmp_path):
        path = tmp_path / "train.yaml"
        path.write_text("training:\n  samples: 300\n  epochs: 2\n")
        proc = self._run("train", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "training.samples 300" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "weights.json").exists()

    @pytest.mark.parametrize("setting, message", [
        ({"hidden_count": 0}, "hidden_count must be a positive integer, got 0"),
        ({"hidden_count": -3}, "hidden_count must be a positive integer, got -3"),
        ({"epochs": -5}, "epochs must be a non-negative integer, got -5"),
    ])
    def test_bad_training_settings_exit_code(self, tmp_path, setting, message):
        # each used to train: a net crlb then rejects, a traceback from the
        # weight draw, and a fit of zero epochs
        path = tmp_path / "train.yaml"
        path.write_text(yaml.safe_dump(
            {"training": {"samples": 2000, "epochs": 2, **setting}}))
        proc = self._run("train", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "config error: training: " + message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "weights.json").exists()

    def test_non_numeric_value_exit_code(self, tmp_path):
        path = tmp_path / "freq.yaml"
        path.write_text("wave:\n  frequency: 3.0e9\n")
        proc = self._run("crlb", "--config", str(path),
                         "--out", str(tmp_path / "crlb.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "wave.frequency" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_integer_path_exit_code(self, tmp_path):
        path = tmp_path / "out.yaml"
        path.write_text("paths:\n  out: 1\n")
        proc = self._run("crlb", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert ("config values of the wrong type: paths.out (a string, got 1)"
                in proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_out_of_range_value_exit_code(self, tmp_path):
        path = tmp_path / "freq.yaml"
        path.write_text("wave:\n  frequency: -3.0e+9\n")
        proc = self._run("train", "--config", str(path), cwd=tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "frequency" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [path]

    def test_removed_threads_exit_code(self, tmp_path, capsys):
        # a config asking for two threads is a config error; the flag is gone
        path = tmp_path / "threads.yaml"
        path.write_text("threads: 2\n")
        assert cli.main(["point", "--config", str(path)]) == cli.EXIT_CONFIG
        assert ("config error: threads 2: the option was removed"
                in capsys.readouterr().err)
        with pytest.raises(SystemExit) as exc:
            cli.main(["point", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["point", "crlb", "sweep"])
    def test_negative_seed_exit_code(self, command, capsys):
        assert cli.main([command, "--seed", "-1"]) == 2
        assert "config error: seed: expected non-negative" in capsys.readouterr().err

    def test_diverged_training_exit_code(self, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise TrainingError("training diverged at epoch 3: loss=nan")

        monkeypatch.setattr(harness, "train", diverge)
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "training": TINY_TRAINING,
            "paths": {"weights": str(tmp_path / "w.json"),
                      "weights_approx": str(tmp_path / "wa.json")}}))
        assert cli.main(["train", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert ("numerical failure: training diverged at epoch 3"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [path]

    def _point_config(self, tmp_path, net, **extra):
        net.save(tmp_path / "w.json")
        path = tmp_path / "point.yaml"
        path.write_text(yaml.safe_dump({
            "trials": 1, "estimators": ["ls"], "record_timing": False,
            "paths": {"weights": str(tmp_path / "w.json"),
                      "weights_approx": str(tmp_path / "w.json"),
                      "out": str(tmp_path / "point.csv")}, **extra}))
        return path

    def test_empty_estimator_list_exit_code(self, tmp_path, trained_net,
                                            monkeypatch, capsys):
        # refused before a trial runs: no CSV is written
        monkeypatch.setattr(harness, "run_trial", None)
        path = self._point_config(tmp_path, trained_net, estimators=[])
        assert cli.main(["point", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: estimators is empty: " \
                                          "a run needs at least one\n"
        assert not (tmp_path / "point.csv").exists()

    @pytest.mark.parametrize("stage, error", [
        ("full_channel", SingularityError("dyadic Green's function evaluated "
                                          "at zero distance")),
        ("unitary_transform", PreprocessError("pilot matrix is rank deficient"))],
        ids=["singular", "preprocess"])
    def test_package_error_exit_code(self, stage, error, tmp_path, trained_net,
                                     monkeypatch, capsys):
        # the error fails its trial; a point whose every trial failed exits
        # with one line on stderr naming it, no traceback and no CSV
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, stage, fail)
        path = self._point_config(tmp_path, trained_net)
        assert cli.main(["point", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: all 1 trials failed for ls at snr=8.0 "
            f"(first error: {error})\n")
        assert not (tmp_path / "point.csv").exists()

    def test_train_out_rejected(self, tmp_path):
        proc = self._run("train", "--out", "w.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "paths.weights and paths.weights_approx" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_point_on_patches_sweep(self, tmp_path, trained_net):
        # the profiles' fixed block has no patch count, so point runs at the
        # first sweep value
        trained_net.save(tmp_path / "w.json")
        out = tmp_path / "point.csv"
        path = tmp_path / "patches.yaml"
        path.write_text(yaml.safe_dump({
            "sweep": {"variable": "patches", "values": [16, 36]},
            "trials": 1, "estimators": ["ls"], "record_timing": False,
            "paths": {"weights": str(tmp_path / "w.json"),
                      "weights_approx": str(tmp_path / "w.json"),
                      "out": str(out)}}))
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["sweep_var"], r["sweep_value"], r["estimator"])
                for r in rows] == [("patches", "16", "ls")]

    def test_train_then_point_without_mp_approx(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "training": TINY_TRAINING, "trials": 1,
            "estimators": ["mp-hybrid", "ls"], "record_timing": False,
            "paths": {"weights": str(tmp_path / "w.json"),
                      "weights_approx": str(tmp_path / "wa.json"),
                      "out": str(tmp_path / "point.csv")}}))
        proc = self._run("train", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "approx surrogate: skipped" in proc.stdout
        proc = self._run("point", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "point.csv").exists()
        assert not (tmp_path / "wa.json").exists()

    def test_subcommands(self):
        proc = self._run("--help")
        assert proc.returncode == 0, proc.stderr
        listed = re.search(r"\{([\w,-]+)\}", proc.stdout).group(1)
        assert listed.split(",") == ["train", "sweep", "point", "crlb"]
        proc = self._run("field-dump")
        assert proc.returncode == 2
        assert "invalid choice: 'field-dump'" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCsvDiff:
    """``docs/csv_diff.py``, the cell-by-cell gate on two result CSVs."""

    SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "csv_diff.py"

    def _run(self, tmp_path, before, after, *extra):
        paths = []
        for name, rows in (("a.csv", before), ("b.csv", after)):
            path = tmp_path / name
            path.write_text("\n".join(",".join(r) for r in rows) + "\n")
            paths.append(str(path))
        return subprocess.run([sys.executable, str(self.SCRIPT), *paths, *extra],
                              capture_output=True, text=True)

    def test_exit_codes(self, tmp_path):
        head = ["sweep_var", "estimator", "nmse_h_db", "crlb_db"]
        base = [head, ["snr", "ls", "-15.5", "nan"], ["snr", "mp", "-44.4", "nan"]]
        same = self._run(tmp_path, base, base)
        assert same.returncode == 0 and "nmse_h_db" in same.stdout
        moved = [head, ["snr", "ls", "-15.5", "nan"], ["snr", "mp", "-44.40002", "nan"]]
        out = self._run(tmp_path, base, moved)
        assert out.returncode == 1
        assert re.search(r"nmse_h_db\s+max \|delta\| 2e-05 \(row 2\)", out.stdout)
        assert self._run(tmp_path, base, moved, "--tol", "1e-4").returncode == 0
        renamed = [head, ["snr", "lsq", "-15.5", "nan"], base[2]]
        assert self._run(tmp_path, base, renamed).returncode == 1
        nan_vs_number = [head, ["snr", "ls", "-15.5", "-60"], base[2]]
        assert self._run(tmp_path, base, nan_vs_number).returncode == 1
        assert self._run(tmp_path, base, base[:2]).returncode == 1
        missing = subprocess.run([sys.executable, str(self.SCRIPT),
                                  str(tmp_path / "none.csv"), str(tmp_path / "a.csv")],
                                 capture_output=True, text=True)
        assert missing.returncode == 2


class TestBenchPairs:
    """``docs/bench_pairs.py``'s claim rule, imported from the script."""

    SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "bench_pairs.py"

    @pytest.fixture(scope="class")
    def script(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location("bench_pairs", self.SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture(scope="class")
    def verdict(self, script):
        return script.claim_verdict

    def test_clear_gain_holds(self, verdict):
        base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
        new = [b - 0.5 for b in base]
        lower, ties, gap, iqr, holds = verdict(base, new)
        assert (lower, ties, holds) == (10, 0, True)
        assert gap == pytest.approx(0.5) and 0 < iqr < gap

    def test_nine_of_ten_needed_and_ties_count_for_neither(self, verdict):
        base = [1.0] * 10
        # lower in 9 of 10 and a tie: 9 / 10 holds
        assert verdict(base, [0.5] * 9 + [1.0])[:2] == (9, 1)
        assert verdict(base, [0.5] * 9 + [1.0])[4]
        # lower in 8 and two ties: the ties count for neither side
        lower, ties, _, _, holds = verdict(base, [0.5] * 8 + [1.0, 1.0])
        assert (lower, ties, holds) == (8, 2, False)

    def test_gap_must_exceed_base_spread(self, verdict):
        # lower in every pair, but by less than the base runs spread
        base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        lower, _, gap, iqr, holds = verdict(base, [b - 0.1 for b in base])
        assert lower == 10 and gap < iqr and not holds

    def test_round_off_move_of_a_deterministic_metric_does_not_hold(self, verdict):
        # twelve equal base runs have no spread; a change lower by 1.1e-16
        # in every pair is round-off, below the gap floor
        base = [1.0] * 12
        lower, ties, gap, iqr, holds = verdict(base, [1.0 - 1.1e-16] * 12)
        assert (lower, ties, iqr) == (12, 0, 0.0) and 0 < gap < 1e-15
        assert not holds

    # base runs whose interquartile range is 4 % of their median
    TIGHT = [0.98, 1.0, 1.02, 0.97, 1.03, 1.0, 0.99, 1.01, 1.0, 1.0]

    def test_regression_no_worse(self, script):
        rule = script.regression_verdict
        # 20 % slower, inside a 25 % bound; 10 % faster, in either direction
        assert rule(self.TIGHT, [1.2 * b for b in self.TIGHT], 0.25) == "no worse"
        assert rule(self.TIGHT, [0.9 * b for b in self.TIGHT], 0.25) == "no worse"
        assert rule(self.TIGHT, [1.1 * b for b in self.TIGHT], 0.25, "higher") == "no worse"

    def test_regression_worse(self, script):
        rule = script.regression_verdict
        assert rule(self.TIGHT, [1.3 * b for b in self.TIGHT], 0.25) == "worse"
        # the higher-is-better direction: 10 % lower against a 5 % bound
        assert rule(self.TIGHT, [0.9 * b for b in self.TIGHT], 0.05, "higher") == "worse"

    def test_regression_unresolved(self, script):
        rule = script.regression_verdict
        # the base IQR (4 % of the median) exceeds a 1 % bound
        assert rule(self.TIGHT, list(self.TIGHT), 0.01) == "unresolved"
        assert rule(self.TIGHT, [1.5 * b for b in self.TIGHT], 0.01) == "unresolved"
        # unless every new run beats every base run
        assert rule(self.TIGHT, [0.9 * min(self.TIGHT)] * 10, 0.01) == "no worse"
        assert rule(self.TIGHT, [1.1 * max(self.TIGHT)] * 10, 0.01, "higher") == "no worse"

    def test_beats_every(self, script):
        beats = script.beats_every
        assert beats([51.0, 50.9, 51.1], [48.2, 48.1, 48.3])
        # one NEW run above one BASE run, or level with it: the sides overlap
        assert not beats([51.0, 50.9, 51.1], [48.2, 50.95, 48.3])
        assert not beats([1.0, 1.1], [1.0, 0.5])
        assert beats([1.0, 1.1], [1.2, 1.3], "higher")
        assert not beats([1.0, 1.1], [1.2, 1.3])

    def test_printout_gives_spread_and_whether_every_run_beats(self, script,
                                                               tmp_path, capsys):
        # fixture checkouts whose run.py reports, at seed s, a steady
        # peak_rss_mb (BASE 51 + s / 100, NEW 48 + s / 100) and a trial_s
        # whose sides overlap (BASE 1 + s / 10, NEW 1.4 - s / 10)
        for side, rss, trial in (("base", "51 + s / 100", "1 + s / 10"),
                                 ("next", "48 + s / 100", "1.4 - s / 10")):
            bench = tmp_path / side / "perfbench"
            bench.mkdir(parents=True)
            (bench / "run.py").write_text(
                "import json, sys\n"
                "s = int(sys.argv[sys.argv.index('--seed') + 1])\n"
                "print(json.dumps({'correct': True, 'metrics': {\n"
                f"    'peak_rss_mb': {{'value': {rss}, 'unit': 'MB'}},\n"
                f"    'trial_s': {{'value': {trial}, 'unit': 's'}}}}}}))\n")
        (tmp_path / "base" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "peak_rss_mb", "bound": 0.05, "better": "lower"},
            {"name": "trial_s", "bound": 0.25, "better": "lower"}]}))
        assert script.main([str(tmp_path / "base"), str(tmp_path / "next"),
                            "--workload", "w", "--seeds", "1-3"]) == 0
        out = capsys.readouterr().out
        rss, trial = out.split("\npeak_rss_mb")[1].split("\ntrial_s")
        # median, quartiles, minimum and maximum of each side
        assert re.search(r"^\s+base\s+51\.02\s+51\.015\s+51\.025\s+51\.01\s+51\.03$",
                         rss, re.M)
        assert re.search(r"^\s+new\s+48\.02\s+48\.015\s+48\.025\s+48\.01\s+48\.03$",
                         rss, re.M)
        assert "every new run lower than every base run: yes" in rss
        assert "every new run lower than every base run: no" in trial

    def test_checkout_paths_of_unequal_length_refused(self, script, tmp_path,
                                                     capsys):
        # two copies of one commit, at paths that differed only in length,
        # read peak_rss_mb 0.2 MB apart on ci-digital-cold
        for side in ("base", "longer"):
            (tmp_path / side / "perfbench").mkdir(parents=True)
            (tmp_path / side / "perfbench" / "run.py").write_text(
                "raise SystemExit('not run')\n")
        (tmp_path / "base" / "BENCHMARK.json").write_text('{"end_to_end": []}')
        with pytest.raises(SystemExit) as exc:
            script.main([str(tmp_path / "base"), str(tmp_path / "longer"),
                         "--workload", "w", "--seeds", "1-2"])
        assert exc.value.code == 2
        n = len(str((tmp_path / "base").resolve()))
        assert f"paths are {n} and {n + 2} characters long" in capsys.readouterr().err

    def test_bounds_read_from_benchmark_file(self, script):
        root = self.SCRIPT.parents[1]
        before = (root / "BENCHMARK.json").read_bytes()
        bounds = script.end_to_end_bounds(root)
        assert bounds["trial_s"] == (0.25, "lower")
        assert bounds["peak_rss_mb"] == (0.05, "lower")
        assert (root / "BENCHMARK.json").read_bytes() == before


class TestToothCheck:
    """``docs/tooth_check.py --compare`` on hand-written records."""

    SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "tooth_check.py"

    def _compare(self, tmp_path, a, b):
        paths = []
        for name, doc in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(doc))
            paths.append(str(tmp_path / name))
        return subprocess.run([sys.executable, str(self.SCRIPT), "--compare", *paths],
                              capture_output=True, text=True)

    @staticmethod
    def _doc(p0, cpu=None):
        doc = {"wavelength_m": 0.5, "p0": p0}
        return doc if cpu is None else dict(doc, cpu_s=cpu)

    def test_exit_codes(self, tmp_path):
        p0 = [[0.1, -0.2, 30.0], [0.3, 0.4, 25.0], [-0.5, 0.6, 38.0]]
        base = self._doc(p0, [0.05, 0.07, 0.06])
        nudged = [[x, y, z + 1e-9] for x, y, z in p0]
        same = self._compare(tmp_path, base, self._doc(nudged, [0.04, 0.05, 0.09]))
        assert same.returncode == 0
        assert "same tooth 3 of 3" in same.stdout
        assert "median CPU s per init: 0.0600 -> 0.0500" in same.stdout
        # half a wavelength is another tooth
        moved = [p0[0], [0.3, 0.4, 25.25], p0[2]]
        out = self._compare(tmp_path, base, self._doc(moved, [0.05] * 3))
        assert out.returncode == 1
        assert "same tooth 2 of 3" in out.stdout
        assert re.search(r"draw 1: z 25\.0+ -> 25\.250+ m", out.stdout)
        assert "draw 0" not in out.stdout and "draw 2" not in out.stdout
        fewer = self._compare(tmp_path, base, self._doc(p0[:2], [0.05] * 2))
        assert fewer.returncode == 1 and "draw counts differ" in fewer.stdout
        # a file written before the CPU times were recorded has none
        old = self._compare(tmp_path, self._doc(p0), base)
        assert old.returncode == 0 and "CPU" not in old.stdout
        assert "p_hat" not in old.stdout

    def test_final_estimates_compared(self, tmp_path):
        p0 = [[0.1, -0.2, 30.0], [0.3, 0.4, 25.0], [-0.5, 0.6, 38.0]]

        def final(p_hat, iterations, converged):
            return {"p_hat": p_hat, "iterations": iterations,
                    "converged": converged}

        base = dict(self._doc(p0), final=[
            final([0.1, -0.2, 30.0], 7, True), final([0.3, 0.4, 25.0], 50, False),
            None])
        # draw 0 moves by 2e-9 m in y and draw 1 stops one iteration earlier;
        # draw 2 raised at the base, so only draws 0 and 1 are compared
        new = dict(self._doc(p0), final=[
            final([0.1, -0.2 + 2e-9, 30.0], 7, True),
            final([0.3, 0.4, 25.0], 49, True), final([-0.5, 0.6, 38.0], 9, True)])
        out = self._compare(tmp_path, base, new)
        assert out.returncode == 0
        assert ("max |dp_hat| 2e-09 m and iterations agree on 1 of 2 draws "
                "that both finished; converged 1 -> 3") in out.stdout


class TestRssPhases:
    """``docs/rss_phases.py``'s per-phase bookkeeping, on stub stages."""

    SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "rss_phases.py"

    @pytest.fixture(scope="class")
    def script(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location("rss_phases", self.SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_each_phase_gets_its_own_traced_peak(self, script):
        import tracemalloc
        tracemalloc.start()
        try:
            phases = script.Phases()
            big = phases.wrap("big", lambda n: len(b"x" * n))
            assert big(4 * 2**20) == 4 * 2**20        # the result passes through
            phases.wrap("small", lambda: None)()
            phases.mark("end")
        finally:
            tracemalloc.stop()
        names, rss, traced, _, _ = zip(*phases.rows)
        assert names == ("big", "small", "end")
        # the 4 MiB block freed in "big" counts there, not in the next phase
        assert traced[0] >= 4.0 and traced[1] < 0.5
        assert list(rss) == sorted(rss) and rss[0] > 0

    def test_heap_in_use_follows_live_blocks(self, script):
        if script.MALLINFO2 is None:
            pytest.skip("the C library has no mallinfo2")
        phases = script.Phases()
        phases.mark("before")
        held = phases.wrap("hold", lambda n: bytearray(n))(8 * 2**20)
        del held
        phases.mark("release")
        # the 8 MiB block is in use after "hold" and freed after "release"
        (_, _, _, _, used0), (_, _, _, heap1, used1), (_, _, _, _, used2) = phases.rows
        assert heap1 >= used1 >= used0 + 8.0
        assert used1 - used2 >= 8.0

    def test_heap_without_mallinfo2_is_not_available(self, script, monkeypatch):
        monkeypatch.setattr(script, "MALLINFO2", None)
        phases = script.Phases()
        phases.wrap("stage", lambda: None)()
        assert phases.rows[0][3:] == (None, None)
        lines = script.table(phases.rows, phases.rows)
        assert lines[1].split()[2:4] == ["n/a", "n/a"]
        assert lines[-1] == "peak set in: stage"

    def test_table_aligns_heap_and_traced_columns(self, script):
        rows = [("set-up", 45.07, 0.0, 7.68, 6.2), ("estimate", 48.16, 0.0, 13.68, 9.22)]
        traced = [("set-up", 46.0, 5.978, 8.0, 7.0), ("estimate", 49.0, 5.424, 14.0, 10.0)]
        lines = script.table(rows, traced)
        assert lines[0].split() == ["phase", "ru_maxrss", "MB", "heap", "MB", "in",
                                    "use", "MB", "traced", "peak", "MiB"]
        assert lines[1].split() == ["set-up", "45.07", "7.68", "6.20", "5.978"]
        assert lines[2].split() == ["estimate", "48.16", "13.68", "9.22", "5.424"]
        assert lines[3] == "peak set in: estimate"
        assert len({len(line) for line in lines[:3]}) == 1

    def test_peak_phase_is_first_to_reach_the_final_peak(self, script):
        rows = [("set-up", 40.0, 3.0), ("oracle", 41.5, 1.0),
                ("estimate", 41.5, 2.0), ("fim", 41.5, 1.5)]
        assert script.peak_phase(rows) == "oracle"
        assert script.peak_phase(rows[:1]) == "set-up"


class TestApiCallers:
    """``docs/api_callers.py`` on a small package tree."""

    SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "api_callers.py"

    def _run(self, root):
        return subprocess.run([sys.executable, str(self.SCRIPT), str(root)],
                              capture_output=True, text=True)

    def test_shared_method_name_listed_for_hand_check(self, tmp_path):
        # HybridNet.phi is called by tests only, but the estimator reads the
        # field of the same name of another class, model.phi
        files = {
            "src/hmimo/__init__.py": "",
            "src/hmimo/surrogate.py": (
                "class HybridNet:\n"
                "    def phi(self, x):\n        return x\n\n"
                "    def forward(self, x):\n        return x\n\n"
                "def train():\n    return HybridNet()\n\n"
                "def only_tested():\n    pass\n"),
            "src/hmimo/signals.py": (
                "from dataclasses import dataclass\n\n"
                "@dataclass\nclass UnitaryModel:\n    phi: float\n"),
            "src/hmimo/estimator.py": (
                "from hmimo.surrogate import train\n\n"
                "def estimate(model, net):\n"
                "    return net.forward(model.phi), train()\n"),
            "tests/test_net.py": (
                "from hmimo.surrogate import HybridNet, only_tested\n\n"
                "def test_phi():\n    HybridNet().phi(1)\n    only_tested()\n"),
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        out = self._run(tmp_path)
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "estimator.estimate: nothing reaches it",
            "signals.UnitaryModel: nothing reaches it",
            "surrogate.only_tested: tests only (1 test references)",
            "shared name, check by hand:",
            "  surrogate.HybridNet.phi: 1 test references (also signals.UnitaryModel)",
        ]

    def test_names_only_benchmark_reaches_listed_apart(self, tmp_path):
        # the tracer names a function by string, a workload calls another;
        # neither counts as reached, and both are listed under their heading
        files = {
            "src/hmimo/__init__.py": "",
            "src/hmimo/estimator.py": (
                "def estimate():\n    return ls_estimate()\n\n"
                "def ls_estimate():\n    pass\n\n"
                "def traced():\n    pass\n\n"
                "def only_tested():\n    pass\n"),
            "src/hmimo/signals.py": "def simulate_rx_hybrid():\n    pass\n",
            "perfbench/layers.py": (
                'TARGETS = [("hmimo.estimator", "traced")]\n'),
            "perfbench/workloads.py": (
                "from hmimo import signals\n\n"
                "def run():\n    signals.simulate_rx_hybrid()\n"),
            "docs/check.py": (
                "from hmimo.estimator import estimate\n\nestimate()\n"),
            "tests/test_est.py": (
                "from hmimo.estimator import only_tested, traced\n\n"
                "def test_it():\n    only_tested()\n    traced()\n"),
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        out = self._run(tmp_path)
        assert out.returncode == 0
        assert out.stdout.splitlines() == [
            "estimator.only_tested: tests only (1 test references)",
            "tests and perfbench/ only:",
            "  estimator.traced: 1 perfbench/ references, 1 test references",
            "  signals.simulate_rx_hybrid: 1 perfbench/ references, 0 test references",
        ]

    def test_root_without_package_exits_2(self, tmp_path):
        out = self._run(tmp_path)
        assert out.returncode == 2 and "no src/hmimo" in out.stderr
