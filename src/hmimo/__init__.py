"""Near-field holographic MIMO channel simulation and parametric estimation."""

from hmimo.geometry import SurfaceGeometry
from hmimo.green import WaveConfig, QuadratureRule, ChannelTensor, full_channel
from hmimo.surrogate import (HybridNet, TrainConfig, CoordinateBox,
                             generate_training_set, train)
from hmimo.signals import PilotBlock, UnitaryModel, gen_pilots, simulate_rx, unitary_transform
from hmimo.estimator import (EstimatorConfig, EstimateResult, NumericalFailure,
                             estimate_full_digital, estimate_hybrid, ls_estimate,
                             unitary_ls_estimate)
from hmimo.crlb import fim, crlb_position, crlb_position_normalized
from hmimo.harness import ConfigError, load_config, run_point, sweep, train_surrogates

__all__ = [
    "SurfaceGeometry",
    "WaveConfig",
    "QuadratureRule",
    "ChannelTensor",
    "full_channel",
    "HybridNet",
    "TrainConfig",
    "CoordinateBox",
    "generate_training_set",
    "train",
    "PilotBlock",
    "UnitaryModel",
    "gen_pilots",
    "simulate_rx",
    "unitary_transform",
    "EstimatorConfig",
    "EstimateResult",
    "NumericalFailure",
    "estimate_full_digital",
    "estimate_hybrid",
    "ls_estimate",
    "unitary_ls_estimate",
    "fim",
    "crlb_position",
    "crlb_position_normalized",
    "ConfigError",
    "load_config",
    "run_point",
    "sweep",
    "train_surrogates",
]
