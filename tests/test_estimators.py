from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import ConfigurationError, Signal, SmoothingSpec, envelope_series, simulate
from routegame.cli import load_config
from routegame.dynamics import theta_of_m
from routegame.estimators import observe, smooth
from routegame.model import poly_rows

from conftest import beta_weight, benchmark_config, delta_tilde
from test_dynamics import skip_games

PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_affine.yaml"


def e_theta_envelope(k: int, e1: float, smoothing: SmoothingSpec) -> tuple[float, float]:
    """Bracket for the forecast error at round k, by its pointwise definition.

    The reference that ``envelope_series`` is checked against.  The center is
    the product of (1 - beta(t)) over t = 2..k applied to e1; the width is
    twice the harmonic drift term, which uses beta_min only.
    """
    if k < 2:
        raise ConfigurationError(f"envelope defined for k >= 2, got {k}")
    prod = 1.0
    for t in range(2, k + 1):
        prod *= 1.0 - beta_weight(smoothing, t)
    center = prod * e1
    width = 2.0 * delta_tilde(k, smoothing.beta_min)
    return center - width, center + width


class TestSmoothingSpec:
    def test_range_checks(self):
        with pytest.raises(ConfigurationError):
            SmoothingSpec(1.0)
        with pytest.raises(ConfigurationError):
            SmoothingSpec([0.4, 0.0])
        # a weight lies in (beta_min, 1): any weight above beta_min, 0.99 included
        for beta in (0.5, 0.7, 0.99):
            SmoothingSpec(beta, beta_min=0.3)
        SmoothingSpec([0.31, 0.99], beta_min=0.3)
        with pytest.raises(ConfigurationError, match=re.escape("0.3 not strictly inside (0.3, 1)")):
            SmoothingSpec(0.3, beta_min=0.3)
        with pytest.raises(ConfigurationError, match=re.escape("0.2 not strictly inside (0.3, 1)")):
            SmoothingSpec([0.5, 0.2], beta_min=0.3)

    def test_custom_indexing(self):
        # the first weight is beta(2): the envelope's center (1 - beta(2)) ... (1 - beta(k)) e1;
        # a sequence too short for its rounds is rejected by GameConfig and envelope_series
        # (TestEnvelope.test_short_schedule_rejected)
        lower, upper = envelope_series(4, 1.0, SmoothingSpec([0.4, 0.5, 0.6]))
        assert (lower + upper) / 2.0 == pytest.approx([1.0, 0.6, 0.6 * 0.5, 0.6 * 0.5 * 0.4],
                                                      abs=1e-15)

    def test_stored_as_floats(self):
        # a constant is a float and a list a tuple of floats, whatever numeric types they came as
        spec = SmoothingSpec(np.float32(0.5), beta_min=np.float32(0.25))
        assert (spec.beta, spec.beta_min) == (0.5, 0.25)
        assert type(spec.beta) is float and type(spec.beta_min) is float
        spec = SmoothingSpec(np.array([0.5, 0.75]))
        assert spec.beta == (0.5, 0.75) and type(spec.beta[0]) is float
        assert spec == SmoothingSpec([0.5, 0.75])

    @pytest.mark.parametrize("make, message", [
        (lambda: SmoothingSpec(["a"]), "beta entry must be a number, got 'a'"),
        (lambda: SmoothingSpec([0.4, [0.5]]), "beta entry must be a number, got [0.5]"),
        (lambda: SmoothingSpec("a"), "beta must be a number, got 'a'"),
        (lambda: SmoothingSpec(None), "beta must be a number, got None"),
    ], ids=["sequence-string", "sequence-list", "constant-string", "constant-None"])
    def test_non_numeric_weight_rejected(self, make, message):
        with pytest.raises(ConfigurationError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("beta, beta_min, message", [
        # beta_min lies in (0, 1)
        (0.5, np.nan, "beta_min = nan outside (0, 1)"),
        (0.5, 1.0, "beta_min = 1.0 outside (0, 1)"),
        (0.5, 0.0, "beta_min = 0.0 outside (0, 1)"),
        (0.5, "a", "beta_min must be a number, got 'a'"),
        (0.5, True, "beta_min must be a number, got True"),
        # each weight lies above beta_min, so the envelope holds for every spec that exists
        (0.01, 0.95, "smoothing weight 0.01 not strictly inside (0.95, 1)"),
        ([0.96, 0.01], 0.95, "smoothing weight 0.01 not strictly inside (0.95, 1)"),
        (np.nan, 0.3, "smoothing weight nan not strictly inside (0.3, 1)"),
        ([0.5, 1.0], 0.3, "smoothing weight 1.0 not strictly inside (0.3, 1)"),
    ])
    def test_bounds_rejected(self, beta, beta_min, message):
        with pytest.raises(ConfigurationError) as info:
            SmoothingSpec(beta, beta_min=beta_min)
        assert str(info.value) == message


class TestSmoothing:
    def test_single_update(self):
        assert smooth(0.25, 0.5, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_matching_observation_is_fixed_point(self):
        assert smooth(0.42, 0.42, 0.6) == pytest.approx(0.42, abs=1e-15)

    def test_constant_observation_unrolls_geometrically(self):
        beta, target = 0.5, 0.8
        theta_hat = 0.1
        e1 = target - theta_hat
        for k in range(1, 400):
            theta_hat = smooth(theta_hat, target, beta)
            expected = (1 - beta) ** k * e1
            assert target - theta_hat == pytest.approx(expected, abs=1e-13)

    def test_random_schedule_stays_in_geometric_envelope(self):
        rng = np.random.default_rng(4)
        beta_min, beta_max = 0.3, 0.7
        schedule = SmoothingSpec(rng.uniform(beta_min, beta_max, size=300), beta_min=beta_min)
        target = 0.6
        theta_hat = 0.05
        e1 = abs(target - theta_hat)
        for k in range(1, 300):
            theta_hat = smooth(theta_hat, target, beta_weight(schedule, k + 1))
            err = abs(target - theta_hat)
            assert (1 - beta_max) ** k * e1 - 1e-15 <= err <= (1 - beta_min) ** k * e1 + 1e-15

    @pytest.mark.parametrize("theta_hat, theta_observed, beta", [
        (-0.1, 0.5, 0.5), (1.1, 0.5, 0.5), (np.nan, 0.5, 0.5),
        (0.2, 0.5, 0.0), (0.2, 0.5, 1.0), (0.2, 0.5, np.nan),
    ])
    def test_invalid_input_rejected(self, theta_hat, theta_observed, beta):
        # smooth checks nothing: a run's first forecast and its weights are checked where
        # they enter, and its observations come from theta_of_m, here through m_init
        match = "theta_hat_init" if beta == 0.5 else "smoothing weight"
        with pytest.raises(ConfigurationError, match=match):
            benchmark_config(m_init=theta_observed * 51.0, theta_hat_init=theta_hat,
                             estimator=SmoothingSpec(beta))


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
            m_hat = observe(m_hat, k, u, zeros, zeros, zeros)
            assert (m - m_hat) * (k + 1) == pytest.approx(1.0, abs=1e-9)

    def test_tenth_round_error(self):
        m = 1.0
        m_hat = 0.0
        zeros = np.zeros(2)
        for k in range(1, 10):
            m = k / (k + 1.0) * m
            m_hat = observe(m_hat, k, 0.0, zeros, zeros, zeros)
        assert m - m_hat == pytest.approx(0.1, abs=1e-12)

    def test_exact_initialization_stays_exact(self):
        rng = np.random.default_rng(6)
        m = 0.7
        m_hat = 0.7
        zeros = np.zeros(2)
        for k in range(1, 500):
            u = float(rng.uniform(-2, 2))
            m = k / (k + 1.0) * m + u / (k + 1.0)
            m_hat = observe(m_hat, k, u, zeros, zeros, zeros)
            assert m == m_hat

    def test_gain_feeds_latency_gap(self):
        m_hat = observe(0.0, 3, 0.0, np.array([0.5, -0.25]), np.array([2.0, 1.0]),
                        np.array([1.0, 1.0]))
        assert m_hat == pytest.approx(0.5, abs=1e-15)

    def test_forecast_clamps(self):
        # the observer's forecast is the fraction its regret estimate m_hat implies
        assert theta_of_m(-3.0, 10.0) == 0.0
        assert theta_of_m(5.0, 10.0) == 0.5
        assert theta_of_m(20.0, 10.0) == 1.0


def with_signed_zeros(config, seed: int):
    """``config`` with 1 to n - 1 entries of each signal row set to -0.0.

    Their mass moves onto one of the row's other entries.
    """
    rng = np.random.default_rng(seed)
    pi = config.signal.pi.copy()
    n = pi.shape[1]
    for row in pi:
        order = rng.permutation(n)
        zeros = order[:rng.integers(1, n)]
        row[order[-1]] += np.add.reduce(row[zeros])
        row[zeros] = -0.0
    return replace(config, signal=Signal(pi=pi, nu=config.signal.nu))


class TestReplay:
    """The kernels, fed a run's own columns, give its forecasts and flow gaps bit for bit."""

    @given(skip_games(), st.one_of(st.none(), st.integers(0, 2**32 - 1)),
           st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @settings(max_examples=40, deadline=None)
    def test_kernels_replay_simulate(self, config, schedule_seed, zeros_seed):
        if isinstance(config.estimator, SmoothingSpec) and schedule_seed is not None:
            betas = np.random.default_rng(schedule_seed).uniform(0.31, 0.69, size=config.rounds)
            config = replace(config, estimator=SmoothingSpec(betas))
        if zeros_seed is not None:
            config = with_signed_zeros(config, zeros_seed)
        trajectory = simulate(config)
        theta_hat = [config.theta_hat_init]
        m_hat = config.theta_hat_init * config.m_max
        for rec in trajectory[:-1]:
            if isinstance(config.estimator, SmoothingSpec):
                beta = beta_weight(config.estimator, rec.k + 1)
                theta_hat.append(smooth(theta_hat[-1], rec.theta, beta))
            else:
                ell_hat = poly_rows(config.latency.coeffs[:, rec.omega, :], rec.x_hat + rec.y)
                m_hat = observe(m_hat, rec.k, rec.u, np.array(config.estimator.gain), rec.ell,
                                ell_hat)
                theta_hat.append(theta_of_m(m_hat, config.m_max))
        assert np.array(theta_hat).tobytes() == trajectory.theta_hat.tobytes()
        # step writes theta_of_m inline, unchecked; the drawn fractions have its bits too
        m = [config.m_init, *trajectory.m_next[:-1].tolist()]
        theta = [theta_of_m(v, config.m_max) for v in m]
        assert np.array(theta).tobytes() == trajectory.theta.tobytes()
        # the largest deviation from the round's recommendation row, rescaled under dynamic nu
        nu, gaps = config.signal.nu, []
        for i, rec in enumerate(trajectory):
            pi_w = config.signal.pi[rec.omega]
            if config.scenario.kind == "dynamic_nu" and i:
                pi_w = pi_w * (trajectory.theta[i - 1] / nu)
            gaps.append(np.maximum.reduce(np.abs(rec.x - pi_w)))
        assert np.array(gaps).tobytes() == trajectory.flow_gap.tobytes()


class TestEnvelope:
    def test_hand_values_at_k2(self):
        # at k = 2 the drift is 1/2 whatever beta_min is
        lower, upper = e_theta_envelope(2, 0.25, SmoothingSpec(0.5, beta_min=0.3))
        assert lower == pytest.approx(-0.875, abs=1e-15)
        assert upper == pytest.approx(1.125, abs=1e-15)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ConfigurationError):
            e_theta_envelope(1, 0.25, SmoothingSpec())

    def test_drift_sum_small_at_ten_thousand(self):
        assert delta_tilde(10_000, 0.3) < 1e-3

    def test_drift_sum_eventually_monotone(self):
        vals = [delta_tilde(k, 0.3) for k in range(2, 400)]
        peak = int(np.argmax(vals))
        assert all(a >= b for a, b in zip(vals[peak:], vals[peak + 1:]))

    def test_zero_initial_error_envelope_shrinks(self):
        lower, upper = e_theta_envelope(10_000, 0.0, SmoothingSpec())
        assert upper == -lower
        assert upper < 2e-3

    def test_series_matches_pointwise_definition(self):
        smoothing = SmoothingSpec(np.random.default_rng(8).uniform(0.31, 0.69, size=60))
        lower, upper = envelope_series(60, 0.2, smoothing)
        for k in (2, 3, 17, 42, 60):
            lo, up = e_theta_envelope(k, 0.2, smoothing)
            assert lower[k - 1] == pytest.approx(lo, rel=1e-12, abs=1e-15)
            assert upper[k - 1] == pytest.approx(up, rel=1e-12, abs=1e-15)

    # beta_min is checked by the spec (TestSmoothingSpec.test_bounds_rejected)
    @pytest.mark.parametrize("num_rounds, e1, message", [
        (2.5, 0.2, "num_rounds must be an integer, got 2.5"),
        (True, 0.2, "num_rounds must be an integer, got True"),
        (0, 0.2, "envelope series needs at least one round"),
        (5, np.nan, "e1 must be finite, got nan"),
        (5, np.inf, "e1 must be finite, got inf"),
        (5, -np.inf, "e1 must be finite, got -inf"),
    ])
    def test_invalid_input_rejected(self, num_rounds, e1, message):
        with pytest.raises(ConfigurationError) as info:
            envelope_series(num_rounds, e1, SmoothingSpec())
        assert str(info.value) == message

    def test_short_schedule_rejected(self):
        smoothing = SmoothingSpec([0.4, 0.5, 0.6])  # beta(2), beta(3), beta(4)
        assert len(envelope_series(4, 0.2, smoothing)[0]) == 4
        with pytest.raises(ConfigurationError,
                           match="^beta schedule has 3 entries, round 5 requested$"):
            envelope_series(5, 0.2, smoothing)

    @pytest.mark.parametrize("smoothing", [
        SmoothingSpec(0.7),
        SmoothingSpec(0.9),
        SmoothingSpec([0.31 + 0.17 * (k % 5) for k in range(2000)]),  # to 0.99
    ], ids=["constant-0.7", "constant-0.9", "list-to-0.99"])
    def test_containment_with_weights_up_to_one(self, smoothing):
        # each weight lies in (beta_min, 1); the envelope needs no upper bound below 1
        cfg = replace(load_config(PAPER_CONFIG), rounds=2000, estimator=smoothing)
        trajectory = simulate(cfg)
        theta_hat = trajectory.theta_hat
        assert np.all((theta_hat >= 0.0) & (theta_hat <= 1.0))
        e = trajectory.e_theta
        lower, upper = envelope_series(len(trajectory), e[0], cfg.estimator)
        assert max(float(np.max(lower - e)), float(np.max(e - upper))) <= 1e-12

    def test_containment_on_simulated_run(self):
        cfg = benchmark_config(rounds=400)
        trajectory = simulate(cfg)
        e = np.array([r.e_theta for r in trajectory])
        lower, upper = envelope_series(len(trajectory), e[0], cfg.estimator)
        assert np.all(e >= lower - 1e-12)
        assert np.all(e <= upper + 1e-12)
