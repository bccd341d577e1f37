from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import (ConfigurationError, DisobedienceMatrix, GameConfig, LatencyModel, Prior,
                       Scenario, Signal, eval_latency, instantaneous_regret, m_max_default,
                       p_flows)
from routegame.model import CompiledGame, flows, poly_rows

from conftest import affine_latency

SWAP = DisobedienceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestEvalLatency:
    def test_affine_state1_midpoint(self):
        out = eval_latency(affine_latency(), 0, np.array([0.5, 0.5]))
        assert out == pytest.approx([7.0, 26.0], abs=1e-12)

    def test_affine_state2_corner(self):
        out = eval_latency(affine_latency(), 1, np.array([1.0, 0.0]))
        assert out == pytest.approx([21.0, 15.0], abs=1e-12)

    def test_zero_flow_returns_free_flow_terms(self):
        model = affine_latency()
        for w in range(model.num_states):
            out = eval_latency(model, w, np.zeros(2))
            assert np.array_equal(out, model.coeffs[0, w])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            eval_latency(affine_latency(), 0, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ConfigurationError):
            eval_latency(affine_latency(), 5, np.array([0.5, 0.5]))

    def test_negative_flow_rejected(self):
        with pytest.raises(ConfigurationError):
            eval_latency(affine_latency(), 0, np.array([-0.1, 0.5]))

    @given(st.integers(0, 2**32), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_each_flow(self, seed, omega):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(0.0, 5.0, size=(3, 2, 2))
        model = LatencyModel(states=("a", "b"), coeffs=coeffs)
        f = rng.uniform(0.0, 1.0, size=2)
        base = eval_latency(model, omega, f)
        for i in range(2):
            bumped = f.copy()
            bumped[i] += 1e-4
            assert eval_latency(model, omega, bumped)[i] >= base[i]


class TestPolyRows:
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_horner_bits_in_a_new_array(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-2.0, 2.0, size=(degree + 1, 2, 5))
        coeffs.setflags(write=False)
        f = rng.uniform(0.0, 1.0, size=5)
        for w in range(2):
            rows = coeffs[:, w, :]
            want = np.array(rows[-1])  # Horner's rule from a copy of the top coefficients
            for d in range(degree - 1, -1, -1):
                want = want * f + rows[d]
            got = poly_rows(rows, f)
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and not np.shares_memory(got, coeffs)


class TestMMaxDefault:
    def test_affine_benchmark(self):
        assert m_max_default(affine_latency()) == pytest.approx(51.0, abs=1e-12)

    def test_single_active_link(self):
        # second link all-zero keeps the two-link minimum while matching the
        # one-link arithmetic 3 + 2 = 5
        model = LatencyModel(states=("only",), coeffs=[[[3.0, 0.0]], [[2.0, 0.0]]])
        assert m_max_default(model) == pytest.approx(5.0, abs=1e-15)

    def test_all_zero_rejected_downstream(self):
        model = LatencyModel(states=("a",), coeffs=[[[0.0, 0.0]]])
        assert m_max_default(model) == 0.0
        from routegame import GameConfig
        with pytest.raises(ConfigurationError):
            GameConfig(latency=model, prior=Prior([1.0]),
                       signal=Signal(pi=[[0.5, 0.5]], nu=1.0),
                       disobedience=DisobedienceMatrix.default(2))

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_bounds_instantaneous_regret_at_unit_mass(self, seed):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        coeffs = rng.uniform(0.0, 5.0, size=(int(rng.integers(1, 4)), s, n))
        model = LatencyModel(states=tuple(f"s{w}" for w in range(s)), coeffs=coeffs)
        cap = m_max_default(model)
        nu = float(rng.uniform(0.0, 1.0))
        pi = rng.dirichlet(np.ones(n), size=s) * nu
        signal = Signal(pi=pi * (nu / pi.sum(axis=1, keepdims=True)) if nu else pi * 0.0, nu=nu)
        P = DisobedienceMatrix.default(n)
        f = rng.dirichlet(np.ones(n)) * rng.uniform(0.0, 1.0)
        for w in range(s):
            u = instantaneous_regret(signal, P, eval_latency(model, w, f), w)
            assert abs(u) <= cap + 1e-9


class TestFlowMaps:
    def test_theta_zero_is_recommendation(self):
        sig = Signal(pi=[[0.3, 0.2], [0.1, 0.4]], nu=0.5)
        for w in range(2):
            assert np.array_equal(p_flows(sig, SWAP, 0.0, w), sig.pi[w])

    def test_full_swap(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        assert p_flows(sig, SWAP, 1.0, 0) == pytest.approx([0.2, 0.3], abs=1e-15)

    def test_half_swap_midpoint(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        assert p_flows(sig, SWAP, 0.5, 0) == pytest.approx([0.25, 0.25], abs=1e-15)

    def test_forecast_is_same_map(self):
        # the round loop's forecast flows come from the compiled game's rows
        sig = Signal(pi=[[0.5, 0.0]], nu=0.5)
        game = CompiledGame.of(GameConfig(
            latency=LatencyModel(states=("only",), coeffs=[[[1.0, 2.0]]]),
            prior=Prior([1.0]), signal=sig, disobedience=SWAP))
        assert p_flows(sig, SWAP, 0.25, 0) == pytest.approx([0.375, 0.125], abs=1e-15)
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = float(rng.uniform(0, 1))
            assert np.array_equal(p_flows(sig, SWAP, theta, 0),
                                  flows(game.pi[0], game.shift[0], theta))

    def test_forecast_zero_is_recommendation(self):
        sig = Signal(pi=[[0.5, 0.0]], nu=0.5)
        assert np.array_equal(p_flows(sig, SWAP, 0.0, 0), sig.pi[0])

    @given(st.integers(0, 2**32), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_simplex_membership(self, seed, theta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        nu = float(rng.uniform(0.0, 1.0))
        pi = rng.dirichlet(np.ones(n), size=1) * nu
        sig = Signal(pi=pi * (nu / pi.sum()) if nu else pi * 0.0, nu=nu)
        x = p_flows(sig, DisobedienceMatrix.default(n), theta, 0)
        assert np.all(x >= -1e-15)
        assert abs(float(x.sum()) - nu) <= 1e-10

    @given(st.integers(0, 2**32), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_affine_in_theta(self, seed, theta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        pi = rng.dirichlet(np.ones(n), size=1) * 0.7
        sig = Signal(pi=pi * (0.7 / pi.sum()), nu=0.7)
        P = DisobedienceMatrix.default(n)
        blended = (1 - theta) * p_flows(sig, P, 0.0, 0) + theta * p_flows(sig, P, 1.0, 0)
        assert p_flows(sig, P, theta, 0) == pytest.approx(blended, abs=1e-12)


class TestValidation:
    def test_negative_constant_coefficient(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(states=("a",), coeffs=[[[-1.0, 2.0]]])

    def test_negative_linear_coefficient(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[-0.5, 1.0]]])

    def test_quadratic_coefficient_may_be_negative(self):
        # only the constant and linear terms are sign-constrained
        LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.5, 1.0]], [[-0.1, 0.0]]])

    def test_strict_increase_flag(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.0, 1.0]]],
                         require_strict_increase=True)
        model = LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.1, 1.0]]],
                             require_strict_increase=True)
        assert model.is_strictly_increasing

    def test_prior_needs_full_support(self):
        with pytest.raises(ConfigurationError):
            Prior([1.0, 0.0])
        with pytest.raises(ConfigurationError):
            Prior([0.5, 0.4])

    def test_signal_row_sum(self):
        with pytest.raises(ConfigurationError, match="signal row 0"):
            Signal(pi=[[0.3, 0.18]], nu=0.5)

    def test_zero_and_full_participation_are_legal(self):
        Signal(pi=[[0.0, 0.0]], nu=0.0)
        Signal(pi=[[0.4, 0.6]], nu=1.0)

    def test_signal_rescaling(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        scaled = sig.with_mass(0.25)
        assert scaled.pi[0] == pytest.approx([0.15, 0.1], abs=1e-15)
        assert sig.with_mass(0.5) is sig
        zero = Signal(pi=[[0.0, 0.0]], nu=0.0)
        assert zero.with_mass(0.0) is zero
        with pytest.raises(ConfigurationError):
            zero.with_mass(0.5)

    def test_disobedience_invariants(self):
        with pytest.raises(ConfigurationError):
            DisobedienceMatrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            DisobedienceMatrix(np.array([[0.0, 0.9], [1.0, 0.0]]))

    def test_default_disobedience(self):
        assert np.array_equal(DisobedienceMatrix.default(2).matrix, [[0, 1], [1, 0]])
        u3 = DisobedienceMatrix.default(3).matrix
        assert np.allclose(u3, np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]))

    def test_small_m_max_needs_flag(self, caplog):
        from conftest import benchmark_config
        with pytest.raises(ConfigurationError):
            benchmark_config(m_max=10.0, m_init=0.0)
        import logging
        with caplog.at_level(logging.WARNING, logger="routegame.model"):
            benchmark_config(m_max=10.0, m_init=0.0, allow_small_m_max=True)
        assert any("m_max" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be nonnegative"),
        ("solver_tol", math.nan, "solver_tol must be finite and positive"),
        ("solver_tol", math.inf, "solver_tol must be finite and positive"),
        ("solver_tol", 0.0, "solver_tol must be finite and positive"),
        ("m_max", math.nan, "m_max must be finite and positive"),
        ("m_max", math.inf, "m_max must be finite and positive"),
        ("m_max", -1.0, "m_max must be finite and positive"),
    ])
    def test_setting_out_of_range_rejected(self, key, value, message):
        from conftest import benchmark_config
        with pytest.raises(ConfigurationError, match=message):
            benchmark_config(**{key: value})

    def test_zero_nu_rejected_with_dynamic_nu(self):
        from conftest import benchmark_config
        with pytest.raises(ConfigurationError, match=r"dynamic_nu.*nu = 0"):
            benchmark_config(nu=0.0, scenario=Scenario.dynamic_nu(), rounds=5)
        benchmark_config(nu=0.0, rounds=5)

    def test_types_are_frozen(self):
        model = affine_latency()
        with pytest.raises(Exception):
            model.coeffs[0, 0, 0] = 99.0
