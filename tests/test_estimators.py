from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import (BetaSchedule, ConfigurationError, SmoothingSpec, delta_tilde,
                       envelope_series, eval_latency, luenberger_update, simulate,
                       smoothing_update, theta_of_m)

from conftest import benchmark_config
from test_dynamics import skip_games


def e_theta_envelope(k: int, e1: float, beta_min: float,
                     beta_schedule: BetaSchedule) -> tuple[float, float]:
    """Bracket for the forecast error at round k, by its pointwise definition.

    The reference that ``envelope_series`` is checked against.  The center is the product of (1 - beta(t)) over t = 2..k applied to e1; the
    width is twice the harmonic drift term, which uses beta_min only.
    """
    if k < 2:
        raise ConfigurationError(f"envelope defined for k >= 2, got {k}")
    prod = 1.0
    for t in range(2, k + 1):
        prod *= 1.0 - beta_schedule.at(t)
    center = prod * e1
    width = 2.0 * delta_tilde(k, beta_min)
    return center - width, center + width


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
        assert smoothing_update(0.25, 0.5, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_matching_observation_is_fixed_point(self):
        assert smoothing_update(0.42, 0.42, 0.6) == pytest.approx(0.42, abs=1e-15)

    def test_constant_observation_unrolls_geometrically(self):
        beta, target = 0.5, 0.8
        theta_hat = 0.1
        e1 = target - theta_hat
        for k in range(1, 400):
            theta_hat = smoothing_update(theta_hat, target, beta)
            expected = (1 - beta) ** k * e1
            assert target - theta_hat == pytest.approx(expected, abs=1e-13)

    def test_random_schedule_stays_in_geometric_envelope(self):
        rng = np.random.default_rng(4)
        beta_min, beta_max = 0.3, 0.7
        schedule = BetaSchedule.from_sequence(rng.uniform(beta_min, beta_max, size=300))
        target = 0.6
        theta_hat = 0.05
        e1 = abs(target - theta_hat)
        for k in range(1, 300):
            theta_hat = smoothing_update(theta_hat, target, schedule.at(k + 1))
            err = abs(target - theta_hat)
            assert (1 - beta_max) ** k * e1 - 1e-15 <= err <= (1 - beta_min) ** k * e1 + 1e-15

    def test_observation_range_enforced(self):
        with pytest.raises(ConfigurationError):
            smoothing_update(0.2, 1.5, 0.5)

    @pytest.mark.parametrize("theta_hat, theta_observed, beta", [
        (-0.1, 0.5, 0.5), (1.1, 0.5, 0.5), (np.nan, 0.5, 0.5), (0.2, -0.1, 0.5),
        (0.2, np.nan, 0.5), (0.2, 0.5, 0.0), (0.2, 0.5, 1.0), (0.2, 0.5, np.nan),
    ])
    def test_invalid_input_rejected(self, theta_hat, theta_observed, beta):
        with pytest.raises(ConfigurationError):
            smoothing_update(theta_hat, theta_observed, beta)


class TestLuenberger:
    def test_zero_gain_error_shrinks_harmonically(self):
        # plant and observer share the payoff stream; only the initial value differs
        rng = np.random.default_rng(5)
        us = rng.uniform(-3.0, 3.0, size=2000)
        m = 1.0
        m_hat = 0.0
        zeros = np.zeros(2)
        for k in range(1, 2000):
            u = us[k - 1]
            m = k / (k + 1.0) * m + u / (k + 1.0)
            m_hat = luenberger_update(m_hat, k, u, zeros, zeros, zeros)
            assert (m - m_hat) * (k + 1) == pytest.approx(1.0, abs=1e-9)

    def test_tenth_round_error(self):
        m = 1.0
        m_hat = 0.0
        zeros = np.zeros(2)
        for k in range(1, 10):
            m = k / (k + 1.0) * m
            m_hat = luenberger_update(m_hat, k, 0.0, (0.0,) * 2, zeros, zeros)
        assert m - m_hat == pytest.approx(0.1, abs=1e-12)

    def test_exact_initialization_stays_exact(self):
        rng = np.random.default_rng(6)
        m = 0.7
        m_hat = 0.7
        zeros = np.zeros(2)
        for k in range(1, 500):
            u = float(rng.uniform(-2, 2))
            m = k / (k + 1.0) * m + u / (k + 1.0)
            m_hat = luenberger_update(m_hat, k, u, (0.0, 0.0), zeros, zeros)
            assert m == m_hat

    def test_gain_feeds_latency_gap(self):
        m_hat = luenberger_update(0.0, 3, 0.0, (0.5, -0.25), np.array([2.0, 1.0]),
                                  np.array([1.0, 1.0]))
        assert m_hat == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("m_hat, k, u, gain, ell, ell_hat", [
        (np.nan, 1, 0.0, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (np.inf, 1, 0.0, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 1, np.nan, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 1, -np.inf, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 0, 0.0, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 2.0, 0.0, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 1, 0.0, [0.0, np.nan], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 1, 0.0, [0.0, 0.0], [1.0, np.inf], [1.0, 2.0]),
        (0.0, 1, 0.0, [0.0, 0.0], [1.0, 2.0], [np.nan, 2.0]),
        (0.0, 1, 0.0, [0.0, 0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        (0.0, 1, 0.0, [0.0, 0.0], [1.0, 2.0], [1.0]),
        (0.0, 1, 0.0, 0.0, 1.0, 1.0),
    ])
    def test_invalid_input_rejected(self, m_hat, k, u, gain, ell, ell_hat):
        with pytest.raises(ConfigurationError):
            luenberger_update(m_hat, k, u, gain, ell, ell_hat)

    def test_forecast_clamps(self):
        # the observer's forecast is the fraction its regret estimate m_hat implies
        assert theta_of_m(-3.0, 10.0) == 0.0
        assert theta_of_m(5.0, 10.0) == 0.5
        assert theta_of_m(20.0, 10.0) == 1.0


class TestReplay:
    """The public wrappers, fed a run's own columns, give its forecasts bit for bit."""

    @given(skip_games(), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @settings(max_examples=40, deadline=None)
    def test_wrappers_replay_simulate(self, config, schedule_seed):
        if isinstance(config.estimator, SmoothingSpec) and schedule_seed is not None:
            betas = np.random.default_rng(schedule_seed).uniform(0.31, 0.69, size=config.rounds)
            config = replace(config, estimator=SmoothingSpec(BetaSchedule.from_sequence(betas)))
        trajectory = simulate(config)
        theta_hat = [config.theta_hat_init]
        m_hat = config.theta_hat_init * config.m_max
        for rec in trajectory[:-1]:
            if isinstance(config.estimator, SmoothingSpec):
                beta = config.estimator.schedule.at(rec.k + 1)
                theta_hat.append(smoothing_update(theta_hat[-1], rec.theta, beta))
            else:
                ell_hat = eval_latency(config.latency, rec.omega, rec.x_hat + rec.y)
                m_hat = luenberger_update(m_hat, rec.k, rec.u, config.estimator.gain, rec.ell,
                                          ell_hat)
                theta_hat.append(theta_of_m(m_hat, config.m_max))
        assert np.array(theta_hat).tobytes() == trajectory.theta_hat.tobytes()


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
