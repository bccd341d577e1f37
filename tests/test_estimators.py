from __future__ import annotations

import numpy as np
import pytest

from routegame import (BetaSchedule, ConfigurationError, LuenbergerState, SmoothingState,
                       delta_tilde, e_theta_envelope, envelope_series, luenberger_update,
                       simulate, smoothing_update, theta_of_m)

from conftest import benchmark_config


class TestBetaSchedule:
    def test_exactly_one_form(self):
        with pytest.raises(ConfigurationError):
            BetaSchedule(value=0.5, values=(0.4, 0.5))
        with pytest.raises(ConfigurationError):
            BetaSchedule(value=None, values=None)

    def test_range_checks(self):
        with pytest.raises(ConfigurationError):
            BetaSchedule.constant(1.0)
        with pytest.raises(ConfigurationError):
            BetaSchedule.from_sequence([0.4, 0.0])
        BetaSchedule.constant(0.5).check_bounds(0.3, 0.7)
        with pytest.raises(ConfigurationError):
            BetaSchedule.constant(0.3).check_bounds(0.3, 0.7)

    def test_custom_indexing(self):
        sched = BetaSchedule.from_sequence([0.4, 0.5, 0.6])
        assert sched.at(2) == 0.4
        assert sched.at(4) == 0.6
        with pytest.raises(ConfigurationError):
            sched.at(5)
        with pytest.raises(ConfigurationError):
            sched.at(1)


class TestSmoothing:
    def test_single_update(self):
        state = SmoothingState(theta_hat=0.25, schedule=BetaSchedule.constant(0.5))
        assert smoothing_update(state, 0.5, 1).theta_hat == pytest.approx(0.375, abs=1e-15)

    def test_matching_observation_is_fixed_point(self):
        state = SmoothingState(theta_hat=0.42, schedule=BetaSchedule.constant(0.6))
        assert smoothing_update(state, 0.42, 7).theta_hat == pytest.approx(0.42, abs=1e-15)

    def test_constant_observation_unrolls_geometrically(self):
        beta, target = 0.5, 0.8
        state = SmoothingState(theta_hat=0.1, schedule=BetaSchedule.constant(beta))
        e1 = target - state.theta_hat
        for k in range(1, 400):
            state = smoothing_update(state, target, k)
            expected = (1 - beta) ** k * e1
            assert target - state.theta_hat == pytest.approx(expected, abs=1e-13)

    def test_random_schedule_stays_in_geometric_envelope(self):
        rng = np.random.default_rng(4)
        beta_min, beta_max = 0.3, 0.7
        schedule = BetaSchedule.from_sequence(rng.uniform(beta_min, beta_max, size=300))
        target = 0.6
        state = SmoothingState(theta_hat=0.05, schedule=schedule)
        e1 = abs(target - state.theta_hat)
        for k in range(1, 300):
            state = smoothing_update(state, target, k)
            err = abs(target - state.theta_hat)
            assert (1 - beta_max) ** k * e1 - 1e-15 <= err <= (1 - beta_min) ** k * e1 + 1e-15

    def test_observation_range_enforced(self):
        state = SmoothingState(theta_hat=0.2, schedule=BetaSchedule.constant(0.5))
        with pytest.raises(ConfigurationError):
            smoothing_update(state, 1.5, 1)


class TestLuenberger:
    def test_zero_gain_error_shrinks_harmonically(self):
        # plant and observer share the payoff stream; only the initial value differs
        rng = np.random.default_rng(5)
        us = rng.uniform(-3.0, 3.0, size=2000)
        m = 1.0
        obs = LuenbergerState(m_hat=0.0, gain=(0.0, 0.0), k=1)
        zeros = np.zeros(2)
        for k in range(1, 2000):
            u = us[k - 1]
            m = k / (k + 1.0) * m + u / (k + 1.0)
            obs = luenberger_update(obs, u, zeros, zeros)
            assert (m - obs.m_hat) * (k + 1) == pytest.approx(1.0, abs=1e-9)

    def test_tenth_round_error(self):
        m = 1.0
        obs = LuenbergerState(m_hat=0.0, gain=(0.0,) * 2, k=1)
        zeros = np.zeros(2)
        for k in range(1, 10):
            m = k / (k + 1.0) * m
            obs = luenberger_update(obs, 0.0, zeros, zeros)
        assert m - obs.m_hat == pytest.approx(0.1, abs=1e-12)

    def test_exact_initialization_stays_exact(self):
        rng = np.random.default_rng(6)
        m = 0.7
        obs = LuenbergerState(m_hat=0.7, gain=(0.0, 0.0), k=1)
        zeros = np.zeros(2)
        for k in range(1, 500):
            u = float(rng.uniform(-2, 2))
            m = k / (k + 1.0) * m + u / (k + 1.0)
            obs = luenberger_update(obs, u, zeros, zeros)
            assert m == obs.m_hat

    def test_gain_feeds_latency_gap(self):
        obs = LuenbergerState(m_hat=0.0, gain=(0.5, -0.25), k=3)
        nxt = luenberger_update(obs, 0.0, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert nxt.m_hat == pytest.approx(0.5, abs=1e-15)
        assert nxt.k == 4

    def test_forecast_clamps(self):
        # the observer's forecast is the fraction its regret estimate m_hat implies
        assert theta_of_m(-3.0, 10.0) == 0.0
        assert theta_of_m(5.0, 10.0) == 0.5
        assert theta_of_m(20.0, 10.0) == 1.0


class TestEnvelope:
    def test_hand_values_at_k2(self):
        lower, upper = e_theta_envelope(2, 0.25, 0.5, BetaSchedule.constant(0.5))
        assert lower == pytest.approx(-0.875, abs=1e-15)
        assert upper == pytest.approx(1.125, abs=1e-15)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ConfigurationError):
            e_theta_envelope(1, 0.25, 0.3, BetaSchedule.constant(0.5))

    def test_drift_sum_small_at_ten_thousand(self):
        assert delta_tilde(10_000, 0.3) < 1e-3

    def test_drift_sum_eventually_monotone(self):
        vals = [delta_tilde(k, 0.3) for k in range(2, 400)]
        peak = int(np.argmax(vals))
        assert all(a >= b for a, b in zip(vals[peak:], vals[peak + 1:]))

    def test_zero_initial_error_envelope_shrinks(self):
        lower, upper = e_theta_envelope(10_000, 0.0, 0.3, BetaSchedule.constant(0.5))
        assert upper == -lower
        assert upper < 2e-3

    def test_series_matches_pointwise_definition(self):
        schedule = BetaSchedule.from_sequence(
            np.random.default_rng(8).uniform(0.31, 0.69, size=60))
        lower, upper = envelope_series(60, 0.2, 0.3, schedule)
        for k in (2, 3, 17, 42, 60):
            lo, up = e_theta_envelope(k, 0.2, 0.3, schedule)
            assert lower[k - 1] == pytest.approx(lo, rel=1e-12, abs=1e-15)
            assert upper[k - 1] == pytest.approx(up, rel=1e-12, abs=1e-15)

    def test_containment_on_simulated_run(self):
        cfg = benchmark_config(rounds=400)
        trajectory = simulate(cfg)
        e = np.array([r.e_theta for r in trajectory])
        lower, upper = envelope_series(len(trajectory), e[0], cfg.beta_min,
                                       cfg.estimator.schedule)
        assert np.all(e >= lower - 1e-12)
        assert np.all(e <= upper + 1e-12)
