"""Repeated parallel-link routing game with partial route recommendations."""

__version__ = "0.1.0"

from .dynamics import (SimulationState, Trajectory, TrajectoryRecord, calibration_score,
                       initial_state, instantaneous_regret, recover_theta, regret_update,
                       simulate, step, theta_of_m, write_trajectory_csv)
from .equilibrium import (BestResponse, ObedienceReport, check_obedience, expected_latency,
                          lipschitz_estimate, potential, project_simplex, solve_bwe, verify_vi)
from .errors import ConfigurationError, SolverError, UnidentifiableError
from .estimators import (BetaSchedule, LuenbergerSpec, LuenbergerState, SmoothingSpec,
                         SmoothingState, delta_tilde, envelope_series, luenberger_update,
                         smoothing_update)
from .model import (DisobedienceMatrix, GameConfig, LatencyModel, Prior, Scenario, Signal,
                    eval_latency, m_max_default, p_flows)

__all__ = [
    "BestResponse", "BetaSchedule", "ConfigurationError", "DisobedienceMatrix", "GameConfig",
    "LatencyModel", "LuenbergerSpec", "LuenbergerState", "ObedienceReport", "Prior", "Scenario",
    "Signal", "SimulationState", "SmoothingSpec", "SmoothingState", "SolverError",
    "Trajectory", "TrajectoryRecord", "UnidentifiableError", "calibration_score", "check_obedience",
    "delta_tilde", "envelope_series", "eval_latency", "expected_latency", "initial_state",
    "instantaneous_regret", "lipschitz_estimate", "luenberger_update", "m_max_default",
    "p_flows", "potential", "project_simplex", "recover_theta", "regret_update", "simulate",
    "smoothing_update", "solve_bwe", "step", "theta_of_m", "verify_vi", "write_trajectory_csv",
]
