"""The benchmark's tracer wraps hmimo functions by module and name.

``perfbench/layers.py`` lists them in ``TARGETS``; a function renamed or
deleted here would otherwise surface only as a crash of a traced benchmark
run.  The layers module is imported without installing any wrapper.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from hmimo.green import QuadratureRule, full_channel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(small_geometry, wave):
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{module}.{attr}" for module, attr, *_ in layers.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert not missing
    # the workloads read the truth channel as full_channel(...).stacked
    h = full_channel(small_geometry, np.array([0.1, -0.2, 25.0]), wave,
                     QuadratureRule(2))
    assert h.stacked.shape == (6 * small_geometry.n_patches,
                               small_geometry.m_patches)
