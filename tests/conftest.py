"""Shared fixtures: a small geometry and a surrogate trained once per session."""

import numpy as np
import pytest

from hmimo.geometry import SurfaceGeometry
from hmimo.green import WaveConfig, QuadratureRule, full_channel
from hmimo.harness import PROFILES, build_geometry, train_net


# Per-criterion result lines collected by the acceptance tests; printed as a
# terminal-summary section so they survive pytest's output capture.
criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_geometry():
    """6x6 receive / 3x3 transmit surface used by the slower integration tests."""
    return SurfaceGeometry(6, 6, 3, 3, 0.05, 0.05, 0.01, 0.01)


@pytest.fixture(scope="session")
def wave():
    return WaveConfig(3e9)


@pytest.fixture(scope="session")
def trained_net(small_geometry, wave):
    """The ci profile's surrogate, as ``hmimo train`` fits it; it is fitted on
    the small geometry and reaches roughly -50 dB NMSE."""
    cfg = PROFILES["ci"]
    assert build_geometry(cfg) == small_geometry
    assert cfg["wave"]["frequency"] == wave.frequency
    net, report = train_net(cfg)
    assert report["val_nmse_db"] < -40.0
    return net


@pytest.fixture(scope="session")
def true_position():
    return np.array([0.37, -0.51, 27.3])


@pytest.fixture(scope="session")
def true_channel(small_geometry, true_position, wave):
    """Exact quadrature channel (6N, M) at the session's true location."""
    return full_channel(small_geometry, true_position, wave,
                        QuadratureRule(8)).stacked
