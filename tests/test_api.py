"""The package's public names, pinned: adding or removing one is an edit here."""

from __future__ import annotations

import types

import routegame

PUBLIC_NAMES = [
    "BestResponse", "ConfigurationError", "DisobedienceMatrix", "GameConfig",
    "LatencyModel", "LuenbergerSpec", "ObedienceReport", "Prior", "Scenario", "Signal",
    "SimulationState", "SmoothingSpec", "SolverError", "Trajectory", "TrajectoryRecord",
    "calibration_score", "check_obedience", "envelope_series", "expected_latency",
    "initial_state", "m_max_default", "potential", "simulate", "solve_bwe", "step",
    "verify_vi", "write_trajectory_csv",
]


def test_public_names_are_pinned():
    namespace: dict = {}
    exec("from routegame import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert sorted(routegame.__all__) == PUBLIC_NAMES
    public = {name for name, value in vars(routegame).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(PUBLIC_NAMES)
