"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as
they complete.  The long simulations are shared across criteria through
module-scoped fixtures.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from routegame import (Scenario, SmoothingSpec, check_obedience, envelope_series,
                       expected_latency, calibration_score, potential, simulate, solve_bwe,
                       verify_vi)
from routegame.cli import main
from routegame.dynamics import fold_regret, theta_of_m
from routegame.estimators import observe, smooth

from conftest import (beta_weight, benchmark_config, delta_tilde, grid_best_response,
                      random_affine_config)

SEEDS = list(range(10))
ROUNDS = 5000
WINDOW = 500

REPO = Path(__file__).resolve().parent.parent
PAPER_CONFIG = REPO / "configs" / "paper_affine.yaml"


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _run_sweep(config):
    started = time.perf_counter()
    trajectories = [simulate(replace(config, seed=s)) for s in SEEDS]
    return trajectories, time.perf_counter() - started


@pytest.fixture(scope="module")
def homogeneous_runs():
    config = benchmark_config(nu=1.0, rounds=ROUNDS)
    assert check_obedience(config).obedient, "acceptance signal must be verified obedient"
    return _run_sweep(config)


@pytest.fixture(scope="module")
def baseline_runs():
    config = benchmark_config(rounds=ROUNDS)
    assert check_obedience(config).obedient, "acceptance signal must be verified obedient"
    return _run_sweep(config)


@pytest.fixture(scope="module")
def discounted_runs():
    return _run_sweep(benchmark_config(rounds=ROUNDS, scenario=Scenario.discounted(0.9)))


@pytest.fixture(scope="module")
def dynamic_nu_runs():
    return _run_sweep(benchmark_config(rounds=ROUNDS, scenario=Scenario.dynamic_nu()))


def test_criterion_01_homogeneous_convergence(homogeneous_runs):
    trajectories, elapsed = homogeneous_runs
    worst = max(max(r.flow_gap for r in t[-WINDOW:]) for t in trajectories)
    ok = worst < 0.02 and elapsed < 10.0
    _verdict(1, "homogeneous convergence (nu=1)", ok,
             f"worst final-window flow gap {worst:.3g} (<0.02), {elapsed:.1f}s for "
             f"{len(SEEDS)} runs (<10s)")


def test_criterion_02_main_theorem(baseline_runs):
    trajectories, _ = baseline_runs
    mean_gaps = [float(np.mean([r.flow_gap for r in t[-WINDOW:]])) for t in trajectories]
    thetas = [t[-1].theta for t in trajectories]
    theta_hats = [t[-1].theta_hat for t in trajectories]
    ok = max(mean_gaps) < 0.02 and max(thetas) < 0.05 and max(theta_hats) < 0.05
    _verdict(2, "main convergence (nu=0.5)", ok,
             f"worst mean gap {max(mean_gaps):.3g} (<0.02), worst theta(K) "
             f"{max(thetas):.3g} and forecast {max(theta_hats):.3g} (<0.05)")


def test_criterion_03_scenario_variants(discounted_runs, dynamic_nu_runs):
    details = []
    ok = True
    for name, (trajectories, _) in (("discounted=0.9", discounted_runs),
                                    ("dynamic_nu", dynamic_nu_runs)):
        mean_gaps = [float(np.mean([r.flow_gap for r in t[-WINDOW:]])) for t in trajectories]
        thetas = [t[-1].theta for t in trajectories]
        theta_hats = [t[-1].theta_hat for t in trajectories]
        ok = ok and max(mean_gaps) < 0.02 and max(thetas) < 0.05 and max(theta_hats) < 0.05
        details.append(f"{name}: gap {max(mean_gaps):.2g}, theta {max(thetas):.2g}, "
                       f"forecast {max(theta_hats):.2g}")
    _verdict(3, "scenario variants", ok, "; ".join(details))


def test_criterion_04_fixed_m_forecast_decay():
    m, m_max = 20.0, 51.0
    theta = theta_of_m(m, m_max)
    beta = 0.5
    theta_hat = 0.25
    e1 = abs(theta - theta_hat)
    worst = 0.0
    for k in range(1, 1000):
        theta_hat = smooth(theta_hat, theta, beta)
        worst = max(worst, abs(abs(theta - theta_hat) - (1 - beta) ** k * e1))
    exact_ok = worst < 1e-12

    rng = np.random.default_rng(2024)
    envelope_ok = True
    beta_min, beta_max = 0.3, 0.7
    for _ in range(3):
        schedule = SmoothingSpec(rng.uniform(beta_min, beta_max, size=1000), beta_min=beta_min)
        theta_hat = float(rng.uniform(0, 1))
        e1 = abs(theta - theta_hat)
        for k in range(1, 1000):
            theta_hat = smooth(theta_hat, theta, beta_weight(schedule, k + 1))
            err = abs(theta - theta_hat)
            lo = (1 - beta_max) ** k * e1 - 1e-15
            hi = (1 - beta_min) ** k * e1 + 1e-15
            envelope_ok = envelope_ok and lo <= err <= hi
    ok = exact_ok and envelope_ok
    _verdict(4, "fixed-m forecast decay", ok,
             f"max deviation from closed form {worst:.2e} (<1e-12), "
             f"randomized schedules inside geometric envelopes: {envelope_ok}")


def test_criterion_05_envelope_containment(homogeneous_runs, baseline_runs, discounted_runs,
                                           dynamic_nu_runs):
    beta_min = 0.3
    worst_violation = 0.0
    checked = 0
    for runs, config in ((homogeneous_runs, benchmark_config(nu=1.0)),
                         (baseline_runs, benchmark_config()),
                         (discounted_runs, benchmark_config()),
                         (dynamic_nu_runs, benchmark_config())):
        for trajectory in runs[0]:
            e = np.array([r.e_theta for r in trajectory])
            lower, upper = envelope_series(len(trajectory), e[0], config.estimator)
            worst_violation = max(worst_violation,
                                  float(np.max(lower - e)), float(np.max(e - upper)))
            checked += 1
    drift = delta_tilde(10_000, beta_min)
    ok = worst_violation <= 1e-12 and drift < 1e-3
    _verdict(5, "forecast-error envelope", ok,
             f"{checked} trajectories contained (worst violation {worst_violation:.2g}), "
             f"drift sum at 1e4 rounds {drift:.2e} (<1e-3)")


def test_criterion_06_observer_closed_form():
    e1 = 1.0
    # plant seeded e1 above the observer, both driven by the same payoffs;
    # a zero-payoff stream keeps round-off far below the tolerance out to 1e6
    zeros = np.zeros(2)
    m = e1
    m_hat = 0.0
    worst_scaled = 0.0
    for k in range(1, 1_000_000):
        m = fold_regret(m, 0.0, k, None)
        m_hat = observe(m_hat, k, 0.0, zeros, zeros, zeros)
        err = (m - m_hat) * (k + 1) - e1
        worst_scaled = max(worst_scaled, abs(err) / (k + 1))
    long_ok = worst_scaled < 1e-12

    rng = np.random.default_rng(7)
    m = 0.4 + e1
    m_hat = 0.4
    noisy_ok = True
    for k in range(1, 10_000):
        u = float(rng.uniform(-5, 5))
        m = fold_regret(m, u, k, None)
        m_hat = observe(m_hat, k, u, zeros, zeros, zeros)
        noisy_ok = noisy_ok and abs((m - m_hat) * (k + 1) - e1) < 1e-12 * (k + 1)
    ok = long_ok and noisy_ok
    _verdict(6, "observer closed form (zero gain)", ok,
             f"|e*k - e1|/k below 1e-12 up to 1e6 rounds (worst {worst_scaled:.2g}); "
             f"holds under a driven payoff stream to 1e4: {noisy_ok}")


def test_criterion_07_best_response_oracle():
    rng = np.random.default_rng(515)
    worst = 0.0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        config = random_affine_config(rng, n)
        theta = float(rng.uniform(0, 1))
        solved = solve_bwe(config, theta).y
        oracle = grid_best_response(config, theta)
        worst = max(worst, float(np.abs(solved - oracle).max()))
    corner = solve_bwe(benchmark_config(), 0.0).y
    corner_err = float(np.abs(corner - np.array([0.5, 0.0])).max())
    ok = worst <= 2e-3 and corner_err <= 1e-8
    _verdict(7, "best-response grid oracle", ok,
             f"worst gap to 1e-3 grid over 50 configs {worst:.2e} (<=2e-3), "
             f"corner case off by {corner_err:.2e}")


def test_criterion_08_vi_and_gradient_checks():
    rng = np.random.default_rng(99)
    worst_margin = 0.0
    for _ in range(25):
        config = random_affine_config(rng, int(rng.integers(2, 4)))
        theta = float(rng.uniform(0, 1))
        br = solve_bwe(config, theta)
        worst_margin = min(worst_margin, verify_vi(config, theta, br.y))
    vi_ok = worst_margin >= -1e-8

    config = benchmark_config()
    h = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0, 1))
        y = rng.uniform(0.05, 0.5, size=2)
        for i in range(2):
            up, down = y.copy(), y.copy()
            up[i] += h
            down[i] -= h
            fd = (potential(config, theta, up) - potential(config, theta, down)) / (2 * h)
            ref = expected_latency(config, theta, y)[i]
            worst_rel = max(worst_rel, abs(fd - ref) / abs(ref))
    grad_ok = worst_rel < 1e-5
    ok = vi_ok and grad_ok
    _verdict(8, "VI certificate and gradient checks", ok,
             f"worst VI margin {worst_margin:.2e} (>=-1e-8), worst gradient relative "
             f"error {worst_rel:.2e} (<1e-5)")


def test_criterion_09_calibration(baseline_runs):
    trajectories, _ = baseline_runs
    worst = max(float(calibration_score(t).max()) for t in trajectories)
    ok = worst < 0.01
    _verdict(9, "forecast calibration", ok,
             f"worst per-link calibration score {worst:.2e} (<0.01)")


def test_invariant_homogeneous_regret_nonpositive(homogeneous_runs):
    # full-participation runs with an obedient signal keep the aggregate
    # regret asymptotically nonpositive
    finals = [t[-1].m_next for t in homogeneous_runs[0]]
    assert max(finals) <= 1e-2, finals


def test_invariant_forecast_tracking(baseline_runs):
    # the forecast gap vanishes: check the last 10% of every run
    tail = ROUNDS // 10
    for trajectory in baseline_runs[0]:
        worst = max(abs(r.e_theta) for r in trajectory[-tail:])
        assert worst < 0.01, worst


def test_criterion_10_determinism(tmp_path):
    args = ["simulate", "--config", str(PAPER_CONFIG), "--rounds", "500", "--seed", "7"]
    for out in ("first", "second"):
        rc = main(args + ["--out", str(tmp_path / out)])
        assert rc == 0
    a = (tmp_path / "first" / "run000_seed7.csv").read_bytes()
    b = (tmp_path / "second" / "run000_seed7.csv").read_bytes()
    ok = a == b and len(a) > 0
    _verdict(10, "byte-identical reruns", ok,
             f"two invocations, {len(a)} bytes each, identical: {a == b}")
