from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import (ConfigurationError, DisobedienceMatrix, GameConfig, LatencyModel,
                       LuenbergerSpec, Prior, Scenario, Signal, SmoothingSpec, check_obedience,
                       envelope_series, expected_latency, m_max_default, potential, solve_bwe,
                       verify_vi)
from routegame.dynamics import payoff_gap
from routegame.errors import SignalRowError
from routegame.model import CompiledGame, flows, poly_rows, rerouting_shift

from conftest import (affine_latency, benchmark_config, edge_vectors, kernel_outcome,
                      reference_poly_rows)

SWAP = DisobedienceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
NAN, INF = math.nan, math.inf


def coeffs_with(d: int, value: float) -> dict:
    """Latency arguments with ``value`` at degree d of the second link; all else is valid."""
    coeffs = [[[1.0, 2.0]], [[0.5, 1.0]], [[0.25, 0.5]]]
    coeffs[d][0][1] = value
    return {"states": ("a",), "coeffs": coeffs}


def signal_with(value: float) -> dict:
    """Signal arguments with ``value`` beside 0.5 in row 0, at nu = 0.5."""
    return {"pi": [[0.5, value], [0.25, 0.25]], "nu": 0.5}


def matrix_with(i: int, j: int, value: float) -> dict:
    """Disobedience arguments with entry (i, j) of the 3-link uniform matrix set to ``value``."""
    m = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    m[i][j] = value
    return {"matrix": m}


def reference_default_matrix(n: int) -> np.ndarray:
    """``DisobedienceMatrix.default``'s matrix as first written, the byte reference."""
    if n == 2:
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    m = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(m, 0.0)
    return m


def latency(model: LatencyModel, w: int, f: np.ndarray) -> np.ndarray:
    """Per-link latencies in state w at flows f."""
    return poly_rows(model.coeffs[:, w, :], f)


def state_flows(signal: Signal, rerouting: DisobedienceMatrix, theta: float,
                w: int) -> np.ndarray:
    """State w's participating flows when a fraction theta deviates."""
    return flows(signal.pi[w], rerouting_shift(rerouting.matrix, signal.pi[w]), theta)


class TestPolyRowsLatencies:
    """Latencies from the kernel, and the check of the flows ``expected_latency`` takes."""

    def test_affine_state1_midpoint(self):
        out = latency(affine_latency(), 0, np.array([0.5, 0.5]))
        assert out == pytest.approx([7.0, 26.0], abs=1e-12)

    def test_affine_state2_corner(self):
        out = latency(affine_latency(), 1, np.array([1.0, 0.0]))
        assert out == pytest.approx([21.0, 15.0], abs=1e-12)

    def test_zero_flow_returns_free_flow_terms(self):
        model = affine_latency()
        for w in range(model.num_states):
            out = latency(model, w, np.zeros(2))
            assert np.array_equal(out, model.coeffs[0, w])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_latency(benchmark_config(), 0.0, np.array([0.5, 0.5, 0.5]))

    def test_negative_flow_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_latency(benchmark_config(), 0.0, np.array([-0.1, 0.5]))

    @given(st.integers(0, 2**32), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_each_flow(self, seed, omega):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(0.0, 5.0, size=(3, 2, 2))
        model = LatencyModel(states=("a", "b"), coeffs=coeffs)
        f = rng.uniform(0.0, 1.0, size=2)
        base = latency(model, omega, f)
        for i in range(2):
            bumped = f.copy()
            bumped[i] += 1e-4
            assert latency(model, omega, bumped)[i] >= base[i]


class TestPolyRows:
    @pytest.mark.parametrize("degree", [1, 3])
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

    @given(st.integers(1, 4), st.integers(1, 3), edge_vectors(max_size=256),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_out_of_place_reference(self, degree, states, f, seed):
        rng = np.random.default_rng(seed)
        shape = (degree + 1, states, f.size)
        coeffs = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
        coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
        per_state = np.stack([np.roll(f, w) for w in range(states)])
        for rows, x in [(coeffs[:, 0, :], f), (coeffs, per_state)]:
            assert kernel_outcome(poly_rows, rows, x) == kernel_outcome(
                reference_poly_rows, rows, x)


class TestMMaxDefault:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4), st.integers(2, 300))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_reduction_wrappers(self, seed, dplus1, s, n):
        rng = np.random.default_rng(seed)
        coeffs = 10.0 ** rng.uniform(-300, 300, size=(dplus1, s, n))
        coeffs[2:] *= rng.choice([-1.0, 1.0], size=coeffs[2:].shape)  # only d >= 2 may be < 0
        coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
        flat = ~np.logical_or.reduce(coeffs[1:] > 0.0, axis=0)  # the rule: a positive d >= 1 term
        coeffs[1][flat] = 10.0 ** rng.uniform(-300, 300, size=int(flat.sum()))
        model = LatencyModel(states=tuple(f"s{w}" for w in range(s)), coeffs=coeffs)
        want = float(model.coeffs.max(axis=1).sum())  # the expression as first written
        assert m_max_default(model).hex() == want.hex()

    def test_affine_benchmark(self):
        assert m_max_default(affine_latency()) == pytest.approx(51.0, abs=1e-12)

    def test_single_active_link(self):
        # every latency strictly increases, so the second link keeps a slope of 2**-40,
        # the only term it adds to the one-link arithmetic 3 + 2 = 5
        model = LatencyModel(states=("only",), coeffs=[[[3.0, 0.0]], [[2.0, 2.0**-40]]])
        assert m_max_default(model) == 5.0 + 2.0**-40

    def test_all_zero_rejected_downstream(self):
        # an all-zero model is not strictly increasing; a default that sums to zero,
        # here with latencies f - f**2, is rejected by GameConfig
        with pytest.raises(ConfigurationError, match="latencies must strictly increase"):
            LatencyModel(states=("a",), coeffs=[[[0.0, 0.0]], [[0.0, 0.0]]])
        model = LatencyModel(states=("a",), coeffs=[[[0.0, 0.0]], [[1.0, 1.0]], [[-1.0, -1.0]]])
        assert m_max_default(model) == 0.0
        with pytest.raises(ConfigurationError, match="m_max must be finite and positive, got 0.0"):
            GameConfig(latency=model, prior=Prior([1.0]),
                       signal=Signal(pi=[[0.5, 0.5]], nu=1.0),
                       disobedience=DisobedienceMatrix.default(2))

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_bounds_payoff_gap_at_unit_mass(self, seed):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        coeffs = rng.uniform(0.0, 5.0, size=(int(rng.integers(2, 5)), s, n))
        model = LatencyModel(states=tuple(f"s{w}" for w in range(s)), coeffs=coeffs)
        cap = m_max_default(model)
        nu = float(rng.uniform(0.0, 1.0))
        pi = rng.dirichlet(np.ones(n), size=s) * nu
        signal = Signal(pi=pi * (nu / pi.sum(axis=1, keepdims=True)) if nu else pi * 0.0, nu=nu)
        P = DisobedienceMatrix.default(n)
        f = rng.dirichlet(np.ones(n)) * rng.uniform(0.0, 1.0)
        for w in range(s):
            u = payoff_gap(signal.pi[w], P.matrix, latency(model, w, f))
            assert abs(u) <= cap + 1e-9


class TestFlowMaps:
    def test_theta_zero_is_recommendation(self):
        sig = Signal(pi=[[0.3, 0.2], [0.1, 0.4]], nu=0.5)
        for w in range(2):
            assert np.array_equal(state_flows(sig, SWAP, 0.0, w), sig.pi[w])

    def test_full_swap(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        assert state_flows(sig, SWAP, 1.0, 0) == pytest.approx([0.2, 0.3], abs=1e-15)

    def test_half_swap_midpoint(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        assert state_flows(sig, SWAP, 0.5, 0) == pytest.approx([0.25, 0.25], abs=1e-15)

    def test_flows_of_compiled_rows_is_same_map(self):
        # the round loop's forecast flows come from the compiled game's rows
        sig = Signal(pi=[[0.5, 0.0]], nu=0.5)
        game = CompiledGame.of(GameConfig(
            latency=LatencyModel(states=("only",), coeffs=[[[1.0, 2.0]], [[1.0, 1.0]]]),
            prior=Prior([1.0]), signal=sig, disobedience=SWAP))
        assert state_flows(sig, SWAP, 0.25, 0) == pytest.approx([0.375, 0.125], abs=1e-15)
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = float(rng.uniform(0, 1))
            assert np.array_equal(state_flows(sig, SWAP, theta, 0),
                                  flows(game.pi[0], game.shift[0], theta))

    def test_forecast_zero_is_recommendation(self):
        sig = Signal(pi=[[0.5, 0.0]], nu=0.5)
        assert np.array_equal(state_flows(sig, SWAP, 0.0, 0), sig.pi[0])

    @given(st.integers(0, 2**32), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_simplex_membership(self, seed, theta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        nu = float(rng.uniform(0.0, 1.0))
        pi = rng.dirichlet(np.ones(n), size=1) * nu
        sig = Signal(pi=pi * (nu / pi.sum()) if nu else pi * 0.0, nu=nu)
        x = state_flows(sig, DisobedienceMatrix.default(n), theta, 0)
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
        blended = (1 - theta) * state_flows(sig, P, 0.0, 0) + theta * state_flows(sig, P, 1.0, 0)
        assert state_flows(sig, P, theta, 0) == pytest.approx(blended, abs=1e-12)


class TestValidation:
    def test_negative_constant_coefficient(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(states=("a",), coeffs=[[[-1.0, 2.0]], [[1.0, 1.0]]])

    def test_negative_linear_coefficient(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[-0.5, 1.0]]])

    def test_quadratic_coefficient_may_be_negative(self):
        # only the constant and linear terms are sign-constrained
        LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.5, 1.0]], [[-0.1, 0.0]]])

    def test_latencies_strictly_increase(self):
        # every (state, link) needs a positive coefficient of degree >= 1, linear or higher
        with pytest.raises(ConfigurationError, match="latencies must strictly increase"):
            LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.0, 1.0]]])
        with pytest.raises(ConfigurationError, match="latencies must strictly increase"):
            LatencyModel(states=("a", "b"), coeffs=[[[1.0, 2.0], [1.0, 2.0]],
                                                    [[0.1, 1.0], [0.1, 0.0]],
                                                    [[0.0, 1.0], [0.0, -1.0]]])
        LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.1, 1.0]]])
        LatencyModel(states=("a",), coeffs=[[[1.0, 2.0]], [[0.0, 1.0]], [[0.5, -0.5]]])

    def test_prior_needs_full_support(self):
        with pytest.raises(ConfigurationError):
            Prior([1.0, 0.0])
        with pytest.raises(ConfigurationError):
            Prior([0.5, 0.4])

    @pytest.mark.parametrize("mu0", [[math.nan, 0.5], [0.5, math.nan]])
    def test_prior_must_be_finite(self, mu0):
        # nan <= 0 and abs(nan - 1) > tol are both false, so a NaN passed the other checks
        with pytest.raises(ConfigurationError, match="prior must be finite"):
            Prior(mu0)

    def test_signal_row_sum(self):
        with pytest.raises(ConfigurationError, match="signal row 0"):
            Signal(pi=[[0.3, 0.18]], nu=0.5)

    def test_zero_and_full_participation_are_legal(self):
        Signal(pi=[[0.0, 0.0]], nu=0.0)
        Signal(pi=[[0.4, 0.6]], nu=1.0)

    def test_signal_rescaling(self):
        sig = Signal(pi=[[0.3, 0.2], [0.0, 0.5]], nu=0.5)
        game = CompiledGame.of(benchmark_config(signal=sig))
        assert game.signal_at(0.25)[0][0] == pytest.approx([0.15, 0.1], abs=1e-15)
        pi, shift = game.signal_at(0.5)
        assert pi is game.pi and shift is game.shift

    def test_disobedience_invariants(self):
        with pytest.raises(ConfigurationError):
            DisobedienceMatrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            DisobedienceMatrix(np.array([[0.0, 0.9], [1.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 32])
    def test_default_disobedience(self, n):
        got = DisobedienceMatrix.default(n).matrix
        assert got.shape == (n, n) and got.tobytes() == reference_default_matrix(n).tobytes()
        assert not got.flags.writeable

    # Every check on the construction path, with the type and message of its
    # error; where an input breaks two checks, the first one's error.
    @pytest.mark.parametrize("constructor, kwargs, exc_type, message", [
        *[(LatencyModel, coeffs_with(d, v), ConfigurationError,
           "latency coefficients must be finite")
          for d in (0, 1, 2) for v in (NAN, INF, -INF)],
        (LatencyModel, coeffs_with(0, -1.0), ConfigurationError,
         "constant latency coefficients must be nonnegative"),
        (LatencyModel, coeffs_with(1, -1.0), ConfigurationError,
         "linear latency coefficients must be nonnegative"),
        (LatencyModel, {"states": ("a",), "coeffs": [[[-1.0, 2.0]], [[NAN, 1.0]]]},
         ConfigurationError, "latency coefficients must be finite"),
        (LatencyModel, {"states": ("a",), "coeffs": [[[1.0, 2.0]], [[0.0, 1.0]]]},
         ConfigurationError, "latencies must strictly increase: some (state, link) has no "
         "positive coefficient of degree >= 1"),
        (LatencyModel, {"states": ("a",), "coeffs": [[[1.0, 2.0]], [[-0.0, 1.0]]]},
         ConfigurationError, "latencies must strictly increase: some (state, link) has no "
         "positive coefficient of degree >= 1"),
        *[(Prior, {"mu0": mu0}, ConfigurationError,
           "prior must be finite and strictly positive on every state")
          for mu0 in ([0.0, 1.0], [-0.0, 1.0], [NAN, 0.5], [0.5, NAN], [-INF, 0.5], [-0.5, 1.5])],
        (Prior, {"mu0": [INF, 0.5]}, ConfigurationError, "prior sums to inf, expected 1"),
        # a sum that overflows raises the check's own error, not numpy's RuntimeWarning
        (Prior, {"mu0": [1e308, 1e308]}, ConfigurationError, "prior sums to inf, expected 1"),
        (Prior, {"mu0": [0.5, 0.4]}, ConfigurationError, "prior sums to 0.9, expected 1"),
        (Prior, {"mu0": [0.5, 0.5 + 2e-12]}, ConfigurationError,
         "prior sums to 1.000000000002, expected 1"),
        *[(Signal, signal_with(v), ConfigurationError,
           "signal entries must be finite and nonnegative") for v in (NAN, INF, -INF, -1.0)],
        (Signal, {"pi": [[0.3, 0.2], [0.2, 0.4]], "nu": 0.5}, SignalRowError,
         "signal row 1 sums to 0.6000000000000001, expected nu=0.5"),
        (Signal, {"pi": [[0.3, 0.18], [0.2, 0.4]], "nu": 0.5}, SignalRowError,
         "signal row 0 sums to 0.48, expected nu=0.5"),
        (Signal, {"pi": [[0.5, 0.0]], "nu": 1.0}, SignalRowError,
         "signal row 0 sums to 0.5, expected nu=1.0"),
        (Signal, {"pi": [[0.5, 0.5], [1e308, 1e308]], "nu": 1.0}, SignalRowError,
         "signal row 1 sums to inf, expected nu=1.0"),
        *[(DisobedienceMatrix, matrix_with(i, j, v), ConfigurationError,
           "disobedience matrix entries must be finite and nonnegative")
          for i, j in ((0, 1), (2, 2)) for v in (NAN, INF, -INF, -0.5)],
        (DisobedienceMatrix, matrix_with(1, 1, 0.5), ConfigurationError,
         "disobedience matrix must have a zero diagonal"),
        (DisobedienceMatrix, {"matrix": [[0.5, 0.5], [1.0, 0.0]]}, ConfigurationError,
         "disobedience matrix must have a zero diagonal"),
        (DisobedienceMatrix, matrix_with(2, 0, 0.4), ConfigurationError,
         "disobedience matrix row 2 sums to 0.9, expected 1"),
        (DisobedienceMatrix, {"matrix": [[0.0, 0.9], [1.0, 0.0]]}, ConfigurationError,
         "disobedience matrix row 0 sums to 0.9, expected 1"),
        (DisobedienceMatrix, {"matrix": [[0.0, 0.5, 0.5], [1e308, 0.0, 1e308], [0.5, 0.5, 0.0]]},
         ConfigurationError, "disobedience matrix row 1 sums to inf, expected 1"),
        # m_max_default's sum of per-link maxima overflows
        (benchmark_config,
         {"latency": LatencyModel(states=("a", "b"), coeffs=np.full((2, 2, 2), 1e308))},
         ConfigurationError, "m_max must be finite and positive, got inf"),
        (DisobedienceMatrix.default, {"n": 1}, ConfigurationError, "need at least 2 links, got 1"),
        # m_max = 1e308 is finite, but 5000 rounds of (k m + u) / (k + 1) can overflow k m
        (benchmark_config, {"latency": LatencyModel(
            states=("a", "b"), coeffs=[[[1e308, 25.0], [20.0, 15.0]], [[4.0, 2.0], [1.0, 2.0]]])},
         ConfigurationError, "rounds=5000 and m_max=1e+308 can overflow the running-average "
         "regret: (rounds + 1) * max(m_max, 1e+308) must be finite"),
        # so the response mass 1 - nu, which the solver's projection takes unchecked,
        # is finite and nonnegative
        *[(Signal, {"pi": [[0.5, 0.5]], "nu": nu}, ConfigurationError,
           f"participation fraction nu = {nu} outside [0, 1]")
          for nu in (NAN, INF, -INF, -0.5, 1.0000000000000002)],
        # a constant latency does not increase: degree 0 is rejected whatever its terms
        (LatencyModel, {"states": ("a",), "coeffs": [[[1.0, 2.0]]]}, ConfigurationError,
         "need at least one state and degree >= 1, got shape (1, 1, 2)"),
        (LatencyModel, {"states": ("a", "b"), "coeffs": [[[0.0, 0.0], [1.0, 2.0]]]},
         ConfigurationError, "need at least one state and degree >= 1, got shape (1, 2, 2)"),
        # a boolean is not a number, though numpy reads one in an array as 1.0 or 0.0:
        # in a list, as numpy's np.bool_, or as an array's dtype
        *[(constructor, kwargs, ConfigurationError, f"{name} must hold numbers, got a boolean")
          for constructor, name, kwargs in [
              (LatencyModel, "latency coefficients", coeffs_with(1, True)),
              (LatencyModel, "latency coefficients",
               {"states": ("a",), "coeffs": np.ones((2, 1, 2), dtype=bool)}),
              (Prior, "prior", {"mu0": [True, False]}),
              (Prior, "prior", {"mu0": np.array([True, True])}),
              (Signal, "signal", {"pi": [[np.True_, 0.0]], "nu": 1.0}),
              (Signal, "signal", {"pi": np.eye(2, dtype=bool), "nu": 1.0}),
              (DisobedienceMatrix, "disobedience matrix",
               {"matrix": [[False, True], [True, False]]}),
              (DisobedienceMatrix, "disobedience matrix",
               {"matrix": np.array([[0.0, True], [1.0, 0.0]], dtype=object)}),
          ]],
        # nor is it a scalar number, though float(True) is 1.0
        *[(benchmark_config, {name: True}, ConfigurationError, f"{name} must be a number, got True")
          for name in ("m_max", "m_init", "theta_hat_init")],
        (SmoothingSpec, {"beta_min": True}, ConfigurationError, "beta_min must be a number, got True"),
        # beta_min alone bounds the weights from below; 1 bounds them from above
        (SmoothingSpec, {"beta_min": 1.0}, ConfigurationError, "beta_min = 1.0 outside (0, 1)"),
        (benchmark_config, {"solver_tol": True}, ConfigurationError,
         "solver_tol must be a number, got True"),
        (Signal, {"pi": [[0.5, 0.5]], "nu": True}, ConfigurationError,
         "participation fraction nu must be a number, got True"),
        (Scenario.discounted, {"discount": True}, ConfigurationError,
         "scenario discount must be a number, got True"),
        # m_max is checked before it is converted: float() would read "60" as 60.0
        *[(benchmark_config, {"m_max": v}, ConfigurationError, f"m_max must be a number, got {v!r}")
          for v in ("a", [60], "60")],
        # str() would make a label of a null or a list
        (LatencyModel, {"states": (None, [1]), "coeffs": np.ones((2, 2, 2))}, ConfigurationError,
         "states entries must be strings or numbers, got None"),
        (LuenbergerSpec, {"gain": ("a", 0.0)}, ConfigurationError,
         "observer gain must be a number, got 'a'"),
        (LuenbergerSpec, {"gain": (True, 0.0)}, ConfigurationError,
         "observer gain must be a number, got True"),
        (LuenbergerSpec.from_scalar, {"gain": True, "n": 2}, ConfigurationError,
         "observer gain must be a number, got True"),
        (LuenbergerSpec, {"gain": 0.5}, ConfigurationError,
         "observer gain must be a list of numbers, got 0.5"),
        # nor is a string, though numpy reads one that spells a number as that number, just
        # as a scalar is not read from one: at any depth, as numpy's str_ or bytes_, in an
        # object array, or as an array's dtype
        *[(constructor, kwargs, ConfigurationError,
           f"{name} must be a rectangular array of numbers, got a string")
          for constructor, name, kwargs in [
              (Prior, "prior", {"mu0": ["0.6", "0.4"]}),
              (Prior, "prior", {"mu0": np.array(["0.6", "0.4"])}),
              (Prior, "prior", {"mu0": (0.6, np.bytes_(b"0.4"))}),
              (Signal, "signal", {"pi": [["0.5", "0"], ["0", "0.5"]], "nu": 0.5}),
              (Signal, "signal", signal_with(np.str_("0"))),
              (LatencyModel, "latency coefficients", coeffs_with(2, "0.5")),
              (DisobedienceMatrix, "disobedience matrix",
               {"matrix": np.array([[0.0, "1"], [1.0, 0.0]], dtype=object)}),
              (DisobedienceMatrix, "disobedience matrix", {"matrix": "1"}),
          ]],
    ])
    def test_check_table(self, constructor, kwargs, exc_type, message):
        with pytest.raises(ConfigurationError) as info:
            constructor(**kwargs)
        assert type(info.value) is exc_type
        assert str(info.value) == message
        if exc_type is SignalRowError:
            assert message.startswith(f"signal row {info.value.row} ")

    @pytest.mark.parametrize("cls, kwargs", [
        (LatencyModel, coeffs_with(0, -0.0)),
        (LatencyModel, coeffs_with(1, -0.0)),
        (LatencyModel, coeffs_with(2, -0.0)),
        (Signal, {"pi": [[0.5, -0.0], [-0.0, 0.5]], "nu": 0.5}),
        (Signal, {"pi": [[-0.0, -0.0]], "nu": 0.0}),
        (DisobedienceMatrix, {"matrix": [[0.0, -0.0, 1.0], [0.5, -0.0, 0.5], [1.0, -0.0, -0.0]]}),
    ])
    def test_negative_zero_accepted(self, cls, kwargs):
        cls(**kwargs)

    def test_numpy_scalars_are_labels(self):
        model = LatencyModel(states=[np.int64(1), np.float64(2.5)], coeffs=np.ones((2, 2, 2)))
        assert model.states == ("1", "2.5")
        assert LatencyModel(states=np.array(["a", "b"]), coeffs=model.coeffs).states == ("a", "b")

    def test_large_finite_coefficient_runs(self):
        # 1e300 leaves (rounds + 1) * m_max finite, so every round's regret is too
        from routegame import simulate
        config = benchmark_config(latency=LatencyModel(
            states=("a", "b"), coeffs=[[[1e300, 25.0], [20.0, 15.0]], [[4.0, 2.0], [1.0, 2.0]]]))
        assert config.rounds == 5000
        assert np.logical_and.reduce(np.isfinite(simulate(config).m_next))

    def test_small_m_max_rejected(self):
        # m_max must bound the regret: the safe default 51 less INPUT_TOL is the least value
        with pytest.raises(ConfigurationError,
                           match=r"m_max=10.0 below the safe default 51.0: it must bound"):
            benchmark_config(m_max=10.0, m_init=0.0)
        with pytest.raises(ConfigurationError, match="below the safe default"):
            benchmark_config(m_max=51.0 - 2e-12, m_init=0.0)
        assert benchmark_config(m_max=51.0 - 0.5e-12, m_init=0.0).m_max == 51.0 - 0.5e-12

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be nonnegative"),
        ("solver_tol", math.nan, "solver_tol must be finite and positive"),
        ("solver_tol", math.inf, "solver_tol must be finite and positive"),
        ("solver_tol", 0.0, "solver_tol must be finite and positive"),
        ("m_max", math.nan, "m_max must be finite and positive"),
        ("m_max", math.inf, "m_max must be finite and positive"),
        ("m_max", -1.0, "m_max must be finite and positive"),
        ("rounds", 2.5, "rounds must be an integer"),
        ("rounds", 5.0, "rounds must be an integer"),
        ("rounds", "5", "rounds must be an integer"),
        ("rounds", True, "rounds must be an integer"),
        ("seed", True, "seed must be an integer"),
        # LuenbergerSpec checks its own gain, so these are built inside the test
        ("estimator", partial(LuenbergerSpec, (0.0, math.nan)), "observer gain must be finite"),
        ("estimator", partial(LuenbergerSpec, (math.inf, 0.0)), "observer gain must be finite"),
        ("estimator", partial(LuenbergerSpec, (0.0, -math.inf)), "observer gain must be finite"),
        ("estimator", LuenbergerSpec((0.0,) * 3), "observer gain has 3 entries for 2 links"),
        ("disobedience", DisobedienceMatrix.default(3), "disobedience matrix is 3x3 for 2 links"),
    ])
    def test_setting_out_of_range_rejected(self, key, value, message):
        from conftest import benchmark_config
        with pytest.raises(ConfigurationError, match=message):
            benchmark_config(**{key: value() if isinstance(value, partial) else value})

    # A scalar that is not a number is rejected before its range check compares it;
    # each is a ConfigurationError naming the argument, not a comparison's bare TypeError.
    @pytest.mark.parametrize("call, message", [
        (lambda c: solve_bwe(c, "0.3"), "theta must be a number, got '0.3'"),
        (lambda c: solve_bwe(c, None), "theta must be a number, got None"),
        (lambda c: expected_latency(c, "a", [0.25, 0.25]), "theta must be a number, got 'a'"),
        (lambda c: potential(c, "a", [0.25, 0.25]), "theta must be a number, got 'a'"),
        (lambda c: verify_vi(c, "a", [0.25, 0.25]), "theta must be a number, got 'a'"),
        (lambda c: check_obedience(c, tol="a"), "tol must be a number, got 'a'"),
        (lambda c: envelope_series(5, "a", SmoothingSpec()), "e1 must be a number, got 'a'"),
        (lambda c: envelope_series("5", 0.1, SmoothingSpec()),
         "num_rounds must be an integer, got '5'"),
        (lambda c: Scenario.discounted("a"), "scenario discount must be a number, got 'a'"),
        (lambda c: Signal(c.signal.pi, nu="a"),
         "participation fraction nu must be a number, got 'a'"),
        (lambda c: replace(c, m_init="a"), "m_init must be a number, got 'a'"),
        (lambda c: replace(c, theta_hat_init="a"), "theta_hat_init must be a number, got 'a'"),
        (lambda c: SmoothingSpec(beta_min="a"), "beta_min must be a number, got 'a'"),
        (lambda c: replace(c, solver_tol="a"), "solver_tol must be a number, got 'a'"),
    ], ids=["solve_bwe-str", "solve_bwe-None", "expected_latency", "potential", "verify_vi",
            "check_obedience-tol", "envelope_series-e1", "envelope_series-num_rounds",
            "Scenario-discount", "Signal-nu", "m_init", "theta_hat_init", "beta_min",
            "solver_tol"])
    def test_non_numeric_scalar_rejected(self, call, message):
        with pytest.raises(ConfigurationError) as info:
            call(benchmark_config())
        assert str(info.value) == message

    def test_zero_nu_rejected_with_dynamic_nu(self):
        from conftest import benchmark_config
        with pytest.raises(ConfigurationError, match=r"dynamic_nu.*nu = 0"):
            benchmark_config(nu=0.0, scenario=Scenario.dynamic_nu(), rounds=5)
        benchmark_config(nu=0.0, rounds=5)

    def test_types_are_frozen(self):
        model = affine_latency()
        with pytest.raises(Exception):
            model.coeffs[0, 0, 0] = 99.0
