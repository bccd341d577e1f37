"""Repeated parallel-link routing game with partial route recommendations."""

__version__ = "0.3.0"

from .dynamics import (SimulationState, Trajectory, TrajectoryRecord, calibration_score,
                       initial_state, simulate, step, write_trajectory_csv)
from .equilibrium import (BestResponse, ObedienceReport, check_obedience, expected_latency,
                          potential, solve_bwe, verify_vi)
from .errors import ConfigurationError, SolverError
from .estimators import LuenbergerSpec, SmoothingSpec, envelope_series
from .model import (DisobedienceMatrix, GameConfig, LatencyModel, Prior, Scenario, Signal,
                    m_max_default)

__all__ = [
    "BestResponse", "ConfigurationError", "DisobedienceMatrix", "GameConfig",
    "LatencyModel", "LuenbergerSpec", "ObedienceReport", "Prior", "Scenario",
    "Signal", "SimulationState", "SmoothingSpec", "SolverError",
    "Trajectory", "TrajectoryRecord", "calibration_score", "check_obedience",
    "envelope_series", "expected_latency", "initial_state", "m_max_default", "potential",
    "simulate", "solve_bwe", "step", "verify_vi", "write_trajectory_csv",
]
