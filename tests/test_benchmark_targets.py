"""The benchmark's tracer wraps hmimo functions by module and name, and
its workloads build hmimo configs and call hmimo functions.

``perfbench/layers.py`` lists the wrapped functions in ``TARGETS``, and
``perfbench/workloads.py`` sets config keys and runs the trials; a function
renamed or deleted here, a parameter it no longer takes, or a key the
config no longer accepts, would otherwise surface only as a crash of a
benchmark run.  Both modules are imported read-only, without installing
any wrapper.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from hmimo import harness, surrogate
from hmimo.green import QuadratureRule, full_channel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_exist(small_geometry, wave):
    layers = _perfbench_module("layers")
    missing = [f"{module}.{attr}" for module, attr, *_ in layers.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert not missing
    # the workloads read the truth channel as full_channel(...).stacked
    h = full_channel(small_geometry, np.array([0.1, -0.2, 25.0]), wave,
                     QuadratureRule(2))
    assert h.stacked.shape == (6 * small_geometry.n_patches,
                               small_geometry.m_patches)


@pytest.mark.parametrize("name", ["ci-digital-cold", "paper-hybrid-warm"])
def test_workload_configs_load(tmp_path, name):
    # the config of every workload the benchmark declares passes the
    # harness's validation, with the seed and trial count it sets
    cfg = _perfbench_module("workloads").config(name, 1, 3, tmp_path)
    assert (cfg["seed"], cfg["trials"]) == (1, 3)


# A net that trains in well under a second; the smoke run checks that the
# trial code runs, not what it reads.
TINY_TRAINING = {"samples": 800, "hidden_count": 4, "epochs": 2}


@pytest.mark.parametrize("name, attempted", [("ci-digital-cold", 4),
                                             ("paper-hybrid-warm", 2)])
def test_workload_runs_one_trial(tmp_path, name, attempted):
    # one trial of each workload's own trial code, on a tiny net trained on
    # its config: an Outcome of (trial, estimator) pairs and CRLBs comes
    # back, whatever the figures of so small a net
    workloads = _perfbench_module("workloads")
    cfg = workloads.config(name, 1, 1, tmp_path)
    net, _ = harness.train_net(harness._deep_merge(cfg, {"training": TINY_TRAINING}))
    out = workloads.run(name, cfg, {"exact": net})
    assert isinstance(out, workloads.Outcome)
    assert out.attempted == attempted


def test_stacked_channel_calls_traced_names(monkeypatch, small_geometry):
    # the tracer counts the grid init's jacobian_calls and forward_calls, and
    # the surrogate.*.points figures, on these module names; a stacked_channel
    # that called the kernel directly would leave them reading 0
    names = ("hybrid_channel", "channel_first_derivs", "channel_second_derivs")
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(surrogate, name,
                            counting(name, getattr(surrogate, name)))
    rng = np.random.default_rng(0)
    net = surrogate.HybridNet(
        w1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
        w2=rng.normal(size=(4, 12)), b2=rng.normal(size=12),
        input_offset=np.zeros(3), input_scale=np.ones(3),
        output_offset=np.zeros(12), output_scale=np.ones(12), frequency=3e9)
    for order, name in enumerate(names):
        calls.clear()
        surrogate.stacked_channel(net, small_geometry, [0.1, -0.2, 25.0], order)
        assert calls == [name]


def test_train_report_keys():
    # layers.py reads the fit's epoch count from the report, and the
    # workloads its validation NMSE
    rng = np.random.default_rng(0)
    cfg = surrogate.TrainConfig(hidden_count=4, epochs=3, seed=0)
    _, report = surrogate.train(rng.normal(size=(1000, 3)),
                                rng.normal(size=(1000, 12)), cfg, 3e9)
    assert report["epochs_run"] == cfg.epochs
    assert len(report["val_loss_curve"]) == cfg.epochs
    assert np.isfinite(report["val_nmse_db"])
    assert (report["train_count"], report["val_count"]) == (900, 100)
