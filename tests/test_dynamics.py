from __future__ import annotations

import csv
import hashlib
import io
import logging
import sys
import tracemalloc
from bisect import bisect_right
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import routegame.dynamics as dynamics
import routegame.equilibrium as equilibrium
import routegame.model as model
from routegame import (ConfigurationError, DisobedienceMatrix, GameConfig, LatencyModel,
                       LuenbergerSpec, Prior, Scenario, Signal, SolverError, Trajectory,
                       TrajectoryRecord, calibration_score, initial_state, simulate, step,
                       write_trajectory_csv)
from routegame.cli import load_config
from routegame.dynamics import fold_regret, payoff_gap, theta_of_m, trajectory_columns
from routegame.estimators import envelope_series
from routegame.model import CompiledGame, _rescaled, flows, rerouting_shift

from conftest import AFFINE_COEFFS, benchmark_config, reference_states
from test_golden import DIGESTS, SCENARIOS, case, cubic_config

PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_affine.yaml"

SWAP = DisobedienceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def equal_constant_config(**overrides) -> GameConfig:
    """Both links 3 + f, recommended equally: flows and latencies stay equal on the two
    links, so every payoff difference vanishes.  m_max is the safe default 8."""
    kwargs = dict(
        latency=LatencyModel(states=("only",), coeffs=[[[3.0, 3.0]], [[1.0, 1.0]]]),
        prior=Prior([1.0]),
        signal=Signal(pi=[[0.25, 0.25]], nu=0.5),
        disobedience=SWAP,
        m_init=0.5,
        theta_hat_init=0.5 / 8.0,
    )
    kwargs.update(overrides)
    return GameConfig(**kwargs)


class TestPayoffGap:
    def test_two_link_expansion(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        u = payoff_gap(sig.pi[0], SWAP.matrix, np.array([7.0, 26.0]))
        assert u == pytest.approx(-1.9, abs=1e-12)

    def test_equal_latencies_vanish(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            nu = 0.8
            pi = rng.dirichlet(np.ones(n), size=1) * nu
            sig = Signal(pi=pi * (nu / pi.sum()), nu=nu)
            u = payoff_gap(sig.pi[0], DisobedienceMatrix.default(n).matrix, np.full(n, 3.7))
            assert u == pytest.approx(0.0, abs=1e-12)

    def test_uniform_signal_uniform_rerouting_vanish(self):
        rng = np.random.default_rng(1)
        n = 4
        sig = Signal(pi=np.full((1, n), 0.6 / n), nu=0.6)
        P = DisobedienceMatrix.default(n)
        ell = rng.uniform(0, 30, size=n)
        u = payoff_gap(sig.pi[0], P.matrix, ell)
        # oracle: the full matrix product, written out
        oracle = float(sig.pi[0] @ ((np.eye(n) - P.matrix) @ ell))
        assert u == pytest.approx(oracle, abs=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)

    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           zeros=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 3))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_the_matmul_form(self, n, seed, zeros):
        """``payoff_gap`` takes its products with ``ndarray.dot``, with the bits of ``@``.

        A share ``zeros`` of the row, the latencies and the matrix is -0.0.
        """
        rng = np.random.default_rng(seed)
        pi_w = rng.dirichlet(np.ones(n)) * rng.uniform(0.0, 1.0)
        ell = rng.uniform(0.0, 50.0, size=n)
        matrix = rng.dirichlet(np.ones(n), size=n)
        for a, share in zip((pi_w, ell, matrix.reshape(-1)), zeros):
            a[rng.random(a.size) < share] = -0.0
        want = float(pi_w @ ell - pi_w @ (matrix @ ell))
        assert np.float64(payoff_gap(pi_w, matrix, ell)).tobytes() == np.float64(want).tobytes()


class TestFoldRegret:
    def test_running_average_step(self):
        assert fold_regret(0.5, -1.9, 1, None) == pytest.approx(-0.7, abs=1e-15)

    def test_constant_stream_unrolls_exactly(self):
        m, c = 0.8, -0.3
        for k in range(1, 200):
            m = fold_regret(m, c, k, None)
            assert m == pytest.approx((0.8 + k * c) / (k + 1), abs=1e-13)

    def test_discounted_step(self):
        sc = Scenario.discounted(0.9)
        assert fold_regret(0.5, -1.9, 1, sc.discount) == pytest.approx(0.26, abs=1e-15)

    def test_dynamic_nu_uses_running_average(self):
        sc = Scenario.dynamic_nu()
        assert fold_regret(0.5, -1.9, 1, sc.discount) == pytest.approx(-0.7, abs=1e-15)

    @pytest.mark.parametrize("m, u", [(0.0, np.nan), (np.nan, 0.0), (np.inf, 0.0),
                                      (0.0, -np.inf)])
    def test_non_finite_inputs_rejected(self, monkeypatch, m, u):
        # fold_regret checks nothing; step rejects what it folded in the same round,
        # from a carried regret m or a payoff gap u (TestNonFiniteRegret)
        monkeypatch.setattr(dynamics, "payoff_gap", lambda *args: u)
        for scenario in SCENARIOS.values():
            config = benchmark_config(rounds=1, scenario=scenario)
            state = initial_state(config)
            state.m = m
            with pytest.raises(ConfigurationError, match="^round 1: regret must be finite"):
                step(config, state, Trajectory.for_run(config))


class TestThetaOfM:
    def test_negative_regret_means_obedience(self):
        assert theta_of_m(-0.7, 51.0) == 0.0

    def test_cap(self):
        assert theta_of_m(51.0, 51.0) == 1.0

    def test_benchmark_half(self):
        assert theta_of_m(25.5, 51.0) == pytest.approx(0.5, abs=1e-15)

    def test_clamp_is_safety_net(self):
        assert theta_of_m(120.0, 51.0) == 1.0

    # theta_of_m checks nothing: its m_max is the validated config's, and step
    # raises on a regret that is not finite before a round reads it

    @pytest.mark.parametrize("m_max", [np.nan, np.inf, 0.0, -1.0])
    def test_m_max_must_be_finite_and_positive(self, m_max):
        with pytest.raises(ConfigurationError, match="m_max must be finite and positive"):
            benchmark_config(m_max=m_max)

    @pytest.mark.parametrize("m", [np.nan, np.inf, -np.inf])
    def test_regret_must_be_finite(self, m):
        config = benchmark_config(rounds=1)
        state = initial_state(config)
        state.m = m
        with pytest.raises(ConfigurationError, match="^round 1: regret must be finite"):
            step(config, state, Trajectory.for_run(config))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_regret_outside_m_max_is_clamped(self, sign, caplog):
        # m_max bounds the regret of every validated config, so the clamp in step is a
        # safety net; a regret of 4 m_max, set by hand, folds to about 2 m_max in round 1
        config = benchmark_config(rounds=1)
        state, trajectory = initial_state(config), Trajectory.for_run(config)
        state.m = sign * 4.0 * config.m_max
        with caplog.at_level(logging.WARNING, logger="routegame.dynamics"):
            step(config, state, trajectory)
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1 and messages[0].startswith("round 1: regret ")
        assert f"clamped to [-{config.m_max}, {config.m_max}]" in messages[0]
        assert trajectory.m_next[0] == state.m == sign * config.m_max
        assert trajectory.theta[0] == (1.0 if sign > 0 else 0.0)


class TestStep:
    def test_single_round_against_straight_line_script(self, paper_config):
        cfg = replace(paper_config, seed=2)
        state, trajectory = initial_state(cfg), Trajectory.for_run(cfg)
        new_state = step(cfg, state, trajectory)
        rec = trajectory[0]

        # oracle: replay the round with no package machinery beyond the rng
        rng = np.random.Generator(np.random.PCG64(2))
        draw = rng.random()
        cdf, omega = 0.0, None
        for w, mu in enumerate([0.6, 0.4]):
            cdf += mu
            if draw < cdf:
                omega = w
                break
        assert rec.omega == omega

        theta = max(25.5, 0.0) / 51.0
        pi = [[0.5, 0.0], [0.0, 0.5]][omega]
        x = [pi[0] + theta * (pi[1] - pi[0]), pi[1] + theta * (pi[0] - pi[1])]
        theta_hat = 0.25
        x_hat = [pi[0] + theta_hat * (pi[1] - pi[0]), pi[1] + theta_hat * (pi[0] - pi[1])]
        # hand-derived: the first link keeps strictly lower expected latency at
        # full background mass for every forecast, so the response is a corner
        y = [0.5, 0.0]
        alpha0 = [[5.0, 25.0], [20.0, 15.0]][omega]
        alpha1 = [[4.0, 2.0], [1.0, 2.0]][omega]
        ell = [alpha0[i] + alpha1[i] * (x[i] + y[i]) for i in range(2)]
        u = (pi[0] - pi[1]) * (ell[0] - ell[1])
        m2 = (25.5 + u) / 2.0
        theta_hat2 = 0.5 * theta + 0.5 * theta_hat

        assert rec.k == 1
        assert rec.theta == pytest.approx(theta, abs=1e-15)
        assert rec.theta_hat == pytest.approx(theta_hat, abs=1e-15)
        assert rec.x == pytest.approx(x, abs=1e-15)
        assert rec.x_hat == pytest.approx(x_hat, abs=1e-15)
        assert rec.y == pytest.approx(y, abs=1e-8)
        assert rec.ell == pytest.approx(ell, abs=1e-7)
        assert rec.u == pytest.approx(u, abs=1e-7)
        assert rec.m_next == pytest.approx(m2, abs=1e-7)
        assert rec.e_theta == pytest.approx(theta - theta_hat, abs=1e-15)
        assert rec.flow_gap == pytest.approx(max(abs(x[0] - pi[0]), abs(x[1] - pi[1])), abs=1e-15)
        assert new_state.k == 2
        assert new_state.m == rec.m_next
        assert new_state.theta_hat == pytest.approx(theta_hat2, abs=1e-15)

    def test_vanishing_drivers_leave_only_averaging(self):
        cfg = equal_constant_config(rounds=300)
        trajectory = simulate(cfg)
        for rec in trajectory:
            assert rec.u == 0.0
            assert rec.m_next == pytest.approx(0.5 / (rec.k + 1), abs=1e-13)
        # the forecast chases a vanishing target from a matching start
        assert abs(trajectory[-1].e_theta) < 1e-3

    def test_dynamic_nu_second_round_uses_first_theta(self, paper_config):
        cfg = replace(paper_config, scenario=Scenario.dynamic_nu(), rounds=2)
        trajectory = simulate(cfg)
        theta1 = trajectory[0].theta
        assert theta1 == pytest.approx(0.5, abs=1e-15)
        assert trajectory[1].x.sum() == pytest.approx(theta1, abs=1e-10)

    def test_solver_failure_carries_round_index(self, paper_config, monkeypatch):
        import routegame.dynamics as dyn

        def boom(*args, **kwargs):
            raise SolverError("synthetic", last_iterate=np.zeros(2), vi_margin=-1.0,
                              iterations=0)

        monkeypatch.setattr(dyn, "best_response", boom)
        with pytest.raises(SolverError, match="round 1"):
            simulate(paper_config)


    def test_returns_the_state_it_was_given(self, paper_config):
        state, trajectory = initial_state(paper_config), Trajectory.for_run(paper_config)
        for k in (1, 2, 3):
            advanced = step(paper_config, state, trajectory)
            record = trajectory[k - 1]
            assert advanced is state and record.k == k and state.k == k + 1
            assert state.m == record.m_next


class TestNonFiniteRegret:
    """A regret or observer estimate that is not finite raises in the round that made it."""

    @staticmethod
    def five_rounds(paper_config: GameConfig, estimator: str) -> GameConfig:
        config = replace(paper_config, rounds=5)
        if estimator == "luenberger":
            config = replace(config, estimator=LuenbergerSpec.from_scalar(0.0, 2))
        return config

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad_round", [3, 5])
    @pytest.mark.parametrize("estimator", ["smoothing", "luenberger"])
    def test_payoff_gap(self, paper_config, monkeypatch, estimator, bad_round, value):
        config, calls = self.five_rounds(paper_config, estimator), []
        gap = dynamics.payoff_gap

        def poisoned(*args):
            calls.append(args)
            return value if len(calls) == bad_round else gap(*args)

        monkeypatch.setattr(dynamics, "payoff_gap", poisoned)
        state, trajectory = initial_state(config), Trajectory.for_run(config)
        for _ in range(bad_round - 1):
            step(config, state, trajectory)
        m, theta_hat = state.m, state.theta_hat
        with pytest.raises(ConfigurationError,
                           match=f"^round {bad_round}: regret must be finite, got {value}$"):
            step(config, state, trajectory)
        # the failed round leaves the regret and the forecast as they were
        assert (state.k, state.m, state.theta_hat) == (bad_round, m, theta_hat)
        calls.clear()
        with pytest.raises(ConfigurationError, match=f"^round {bad_round}: "):
            simulate(config)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad_round", [3, 5])
    def test_observer_estimate(self, paper_config, monkeypatch, bad_round, value):
        config, calls = self.five_rounds(paper_config, "luenberger"), []
        observe = dynamics.observe

        def poisoned(*args):
            calls.append(args)
            return value if len(calls) == bad_round else observe(*args)

        monkeypatch.setattr(dynamics, "observe", poisoned)
        with pytest.raises(ConfigurationError,
                           match=f"^round {bad_round}: regret estimate must be finite, "
                                 f"got {value}$"):
            simulate(config)
        assert len(calls) == bad_round


def states_config(mu0, **overrides) -> GameConfig:
    """A game on the prior ``mu0``, with one state per entry and two links."""
    s = len(mu0)
    return GameConfig(latency=LatencyModel(states=tuple(f"s{w}" for w in range(s)),
                                           coeffs=np.ones((2, s, 2))),
                      prior=Prior(mu0), signal=Signal(pi=np.full((s, 2), 0.5), nu=1.0),
                      disobedience=SWAP, **overrides)


class TestStateDraws:
    """``Trajectory.for_run`` draws the states of one reference draw per round, as bytes."""

    # A shrink of 4e-13 keeps the prior within its tolerance of 1 and its
    # cumulative sum below 1; about 1 in 20 unshrunk priors also ends below 1.
    @given(st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 2, 5000]),
           st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 2.0**-52, 4e-13]))
    @settings(max_examples=100, deadline=None)
    def test_omega_has_the_bytes_of_reference_draws(self, s, rounds, seed, prior_seed, shrink):
        mu0 = np.random.default_rng(prior_seed).dirichlet(np.ones(s))
        config = states_config(mu0 / mu0.sum() * (1.0 - shrink), rounds=rounds, seed=seed)
        assert same_bytes(Trajectory.for_run(config).omega, reference_states(config))

    def test_draws_on_and_above_the_cumulative_sums(self, monkeypatch):
        # Doubles on each boundary, a hair either side, and above a cumulative
        # sum that ends below 1, where the last state is drawn.
        config = states_config([0.5075997380112671, 0.4110121475105249, 0.08138811447820796])
        cum = np.add.accumulate(config.prior.mu0)
        assert cum[-1] < 1.0
        doubles = [0.0, np.nextafter(cum[0], 0.0), cum[0], cum[1], np.nextafter(cum[1], 1.0),
                   np.nextafter(cum[2], 0.0), cum[2], np.nextafter(cum[2], 1.0), 1.0 - 2.0**-53]
        config = replace(config, rounds=len(doubles))

        class Replay:  # a generator whose doubles are ``doubles``, in order
            def __init__(self, bit_generator):
                self.doubles = iter(doubles)

            def random(self, size=None):
                if size is None:
                    return float(next(self.doubles))
                return np.array([next(self.doubles) for _ in range(size)])

        monkeypatch.setattr(np.random, "Generator", Replay)
        omega, want = Trajectory.for_run(config).omega, reference_states(config)
        assert same_bytes(omega, want)
        assert omega.tolist() == [0, 0, 1, 2, 2, 2, 2, 2, 2]
        assert [bisect_right(cum.tolist(), u) for u in doubles[-3:]] == [3, 3, 3]  # clamped

    @pytest.mark.parametrize("rounds", [10**30, 2**60])
    def test_rounds_too_large_to_allocate(self, paper_config, rounds):
        # numpy rejects either size before it allocates anything
        config = replace(paper_config, rounds=rounds)
        with pytest.raises(ConfigurationError, match=f"^rounds = {rounds} is too many to allocate: "):
            simulate(config)
        with pytest.raises(ConfigurationError, match=f"^rounds = {rounds} "):
            Trajectory.for_run(config)


class TestSimulate:
    def test_identical_seeds_identical_trajectories(self, paper_config):
        cfg = replace(paper_config, rounds=300, seed=11)
        a = simulate(cfg)
        b = simulate(cfg)
        for ra, rb in zip(a, b):
            assert ra.omega == rb.omega
            assert ra.m_next == rb.m_next
            assert np.array_equal(ra.x, rb.x)
            assert np.array_equal(ra.y, rb.y)
            assert np.array_equal(ra.ell, rb.ell)

    def test_conservation_of_demand(self, paper_config):
        for rec in simulate(replace(paper_config, rounds=400)):
            assert float(rec.x.sum() + rec.y.sum()) == pytest.approx(1.0, abs=1e-10)
            assert 0.0 <= rec.theta <= 1.0
            assert 0.0 <= rec.theta_hat <= 1.0

    def test_dynamic_nu_mass_identity(self, paper_config):
        cfg = replace(paper_config, scenario=Scenario.dynamic_nu(), rounds=400)
        trajectory = simulate(cfg)
        b_mass = 1.0 - cfg.signal.nu
        assert trajectory[0].x.sum() == pytest.approx(cfg.signal.nu, abs=1e-10)
        for prev, rec in zip(trajectory, trajectory[1:]):
            assert rec.x.sum() + rec.y.sum() == pytest.approx(prev.theta + b_mass, abs=1e-10)

    def test_regret_stays_bounded(self, paper_config):
        for scenario in (Scenario.baseline(), Scenario.discounted(0.9), Scenario.dynamic_nu()):
            cfg = replace(paper_config, scenario=scenario, rounds=500)
            for rec in simulate(cfg):
                assert abs(rec.m_next) <= cfg.m_max + 1e-12
                if scenario.kind != "dynamic_nu":
                    assert rec.x.sum() + rec.y.sum() == pytest.approx(1.0, abs=1e-10)

    def test_config_warnings_not_repeated_per_round(self, paper_config, caplog):
        # the dynamic-nu rescaling must not rebuild, and so revalidate, the config
        cfg = replace(paper_config, scenario=Scenario.dynamic_nu(),
                      estimator=LuenbergerSpec.from_scalar(0.01, 2), rounds=50)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            simulate(cfg)
        assert [r.getMessage() for r in caplog.records
                if "stability unanalyzed" in r.getMessage()] == []

    def test_luenberger_estimator_tracks_regret(self, paper_config):
        cfg = replace(paper_config, estimator=LuenbergerSpec.from_scalar(0.0, 2), rounds=800)
        state, trajectory = initial_state(cfg), Trajectory.for_run(cfg)
        e1 = cfg.m_init - state.m_hat
        for i in range(cfg.rounds):
            state = step(cfg, state, trajectory)
            rec = trajectory[i]
            # zero-gain observer: estimation error decays exactly harmonically
            assert (rec.m_next - state.m_hat) * state.k == pytest.approx(e1, abs=1e-9)
        assert trajectory[-1].theta_hat == pytest.approx(trajectory[-1].theta, abs=1e-2)


class TestCalibration:
    def test_perfect_forecast_scores_zero(self, paper_config):
        cfg = replace(paper_config, m_init=0.0, theta_hat_init=0.0, rounds=50)
        scores = calibration_score(simulate(cfg))
        assert scores == pytest.approx(np.zeros(2), abs=1e-15)

    def test_constant_error_two_links(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        c = 0.12
        rng = np.random.default_rng(3)
        thetas = rng.uniform(c, 1.0, size=39)
        zeros, zero_rows = np.zeros(39), np.zeros((39, 2))
        shift = rerouting_shift(SWAP.matrix, sig.pi[0])
        trajectory = Trajectory(
            rounds=range(1, 40), omega=np.zeros(39, dtype=np.intp), theta=thetas,
            theta_hat=thetas - c, u=zeros, m_next=zeros, flow_gap=zeros,
            x=np.stack([flows(sig.pi[0], shift, float(t)) for t in thetas]),
            x_hat=np.stack([flows(sig.pi[0], shift, float(t) - c) for t in thetas]),
            y=zero_rows, ell=zero_rows)
        expected = abs(c * (sig.pi[0, 1] - sig.pi[0, 0]))
        assert calibration_score(trajectory) == pytest.approx([expected, expected], abs=1e-12)

    def test_empty_trajectory_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            calibration_score(simulate(replace(paper_config, rounds=3))[:0])


def reference_trajectory_csv(path, trajectory, config, with_envelope=False) -> None:
    """Reference writer: every value through ``format(v, ".17g")``, every row through csv."""
    lower = upper = None
    if with_envelope:
        lower, upper = envelope_series(len(trajectory), trajectory[0].e_theta, config.estimator)

    def fmt(v: float) -> str:
        return format(float(v), ".17g")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trajectory_columns(config.latency.n, with_envelope))
        for idx, r in enumerate(trajectory):
            row = [str(r.k), config.latency.states[r.omega], fmt(r.theta), fmt(r.theta_hat),
                   fmt(r.e_theta), fmt(r.u), fmt(r.m_next)]
            for vec in (r.x, r.x_hat, r.y, r.ell):
                row += [fmt(v) for v in vec]
            row.append(fmt(r.flow_gap))
            if with_envelope:
                row += [fmt(lower[idx]), fmt(upper[idx])]
            writer.writerow(row)


def labelled_config(states: tuple[str, str], **overrides) -> GameConfig:
    return benchmark_config(latency=LatencyModel(states=states, coeffs=AFFINE_COEFFS),
                            **overrides)


CSV_CASES = {
    "quoted_labels": lambda: labelled_config(("a,b", 'q"t'), rounds=60, seed=2),
    "empty_and_spaced_labels": lambda: labelled_config(("", " s "), rounds=60, seed=3),
    "line_break_label": lambda: labelled_config(("line\nbreak", "plain"), rounds=60, seed=4),
    "cubic_n8": lambda: replace(cubic_config(), rounds=60),
    "one_row": lambda: benchmark_config(rounds=1),
}


class TestTrajectoryCsv:
    @pytest.mark.parametrize("envelope", [False, True])
    @pytest.mark.parametrize("name", sorted(CSV_CASES))
    def test_bytes_match_reference_writer(self, name, envelope, tmp_path):
        config = CSV_CASES[name]()
        trajectory = simulate(config)
        write_trajectory_csv(tmp_path / "new.csv", trajectory, config, with_envelope=envelope)
        reference_trajectory_csv(tmp_path / "ref.csv", trajectory, config, with_envelope=envelope)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # Literal bytes, with no csv call: the rule is RFC 4180's on every Python,
    # where 3.10's csv raises on a NUL and 3.11's writes it as it is.
    @pytest.mark.parametrize("labels, cells", [
        (("a\0b", "\tt\t"), ("a\0b", "\tt\t")),
        ((" s ", "a,b"), (" s ", '"a,b"')),
        (('q"t', "cr\r"), ('"q""t"', '"cr\r"')),
        (("", "lf\n"), ("", '"lf\n"')),
    ])
    def test_label_cells(self, labels, cells, tmp_path):
        config = labelled_config(labels, rounds=30, seed=5)
        trajectory = simulate(config)
        write_trajectory_csv(tmp_path / "run.csv", trajectory, config)
        data = (tmp_path / "run.csv").read_bytes()
        header = ",".join(trajectory_columns(2)) + "\r\n"
        assert data.startswith(header.encode())
        assert set(trajectory.omega.tolist()) == {0, 1}
        for k, w in zip(trajectory.k.tolist(), trajectory.omega.tolist()):
            assert f"\r\n{k},{cells[w]},".encode() in data, (k, w)

    @given(st.text(st.one_of(st.sampled_from(',"\r\n \t'), st.characters(exclude_characters="\0"))))
    @settings(max_examples=300, deadline=None)
    def test_cell_matches_csv_writer(self, text):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, ""])
        assert dynamics._csv_cell(text) == buf.getvalue()[:-len(",\r\n")]

    def test_envelope_needs_the_run_from_round_1(self, tmp_path):
        config = replace(load_config(PAPER_CONFIG), rounds=20)
        trajectory = simulate(config)
        for part in (trajectory[10:], trajectory[::2]):
            with pytest.raises(ConfigurationError, match="from round 1 on"):
                write_trajectory_csv(tmp_path / "part.csv", part, config, with_envelope=True)
        for envelope, rows in ((True, slice(0, 10)), (False, slice(10, 20))):
            write_trajectory_csv(tmp_path / "full.csv", trajectory, config, with_envelope=envelope)
            write_trajectory_csv(tmp_path / "part.csv", trajectory[rows], config,
                                 with_envelope=envelope)
            lines = (tmp_path / "full.csv").read_bytes().splitlines(keepends=True)
            want = b"".join(lines[:1] + lines[1:][rows])
            assert (tmp_path / "part.csv").read_bytes() == want


def assert_same_record(got: TrajectoryRecord, want: TrajectoryRecord) -> None:
    """Every field holds the same dtype, shape and bits."""
    for name in TrajectoryRecord._fields:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# Both shipped configs x {baseline, discounted 0.9, dynamic nu} x {smoothing,
# observer gain 0}, and the golden cubic n = 8 network, at the golden length.
AGREEMENT_CASES = [f"{network}-{scenario}-{estimator}"
                   for network in ("paper_affine", "paper_affine_nu1")
                   for scenario in SCENARIOS
                   for estimator in ("smoothing", "luenberger")] + ["cubic_n8-baseline-smoothing"]


class TestTrajectoryColumns:
    @pytest.mark.parametrize("name", AGREEMENT_CASES)
    def test_simulate_matches_step_loop(self, name):
        config, _ = case(name)
        state, stepped, records = initial_state(config), Trajectory.for_run(config), []
        for i in range(config.rounds):
            state = step(config, state, stepped)
            records.append(stepped[i])
        trajectory = simulate(config)

        assert len(trajectory) == len(records)
        for field in TrajectoryRecord._fields:
            column = getattr(trajectory, field)
            want = np.array([getattr(r, field) for r in records])
            assert (column.dtype, column.shape, column.tobytes()) == (
                want.dtype, want.shape, want.tobytes()), field

        for i, record in enumerate(records):
            assert_same_record(trajectory[i], record)
            assert_same_record(trajectory[i - len(records)], record)
        for got, want in zip(trajectory, records, strict=True):
            assert_same_record(got, want)
        for rows in (slice(5, 17), slice(None, None, 7), slice(-4, None), slice(None, None, -3)):
            part = trajectory[rows]
            assert isinstance(part, Trajectory)
            for got, want in zip(part, records[rows], strict=True):
                assert_same_record(got, want)

    def test_columns_are_read_only(self, paper_config):
        trajectory = simulate(replace(paper_config, rounds=3))
        with pytest.raises(ValueError):
            trajectory.theta[0] = 0.0
        with pytest.raises(ValueError):
            trajectory[0].x[0] = 0.0


COLUMNS = tuple(f.name for f in fields(Trajectory))[1:]  # every stored column, after rounds


def step_loop(config: GameConfig) -> Trajectory:
    """``config`` run round by round through ``step``, into the columns of a run."""
    state, trajectory = initial_state(config), Trajectory.for_run(config)
    for _ in range(config.rounds):
        state = step(config, state, trajectory)
    return trajectory


def projecting_step_loop(config: GameConfig) -> Trajectory:
    """Reference run: every round after the first projects its warm start again."""
    solve = dynamics.best_response

    def projecting(game, xhat, start, start_fixed=False):
        return solve(game, xhat, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "best_response", projecting)
        return step_loop(config)


@st.composite
def skip_games(draw, scenarios=st.sampled_from(sorted(SCENARIOS)), full=st.just(False)):
    """Seeded affine or cubic game with n in [2, 64], a drawn scenario and either estimator.

    nu is 1 when ``full`` draws true, else drawn from (0.2, 0.8).
    """
    n, degree = draw(st.integers(2, 64)), draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = 2
    coeffs = [rng.uniform(0.0, 10.0, size=(s, n)), rng.uniform(1.0, 4.0, size=(s, n))]
    coeffs += [rng.uniform(0.0, 2.0, size=(s, n)) for _ in range(degree - 1)]
    nu = 1.0 if draw(full) else float(rng.uniform(0.2, 0.8))
    pi = rng.dirichlet(np.ones(n), size=s) * nu
    estimator = draw(st.sampled_from(["smoothing", "luenberger", "luenberger_0.01"]))
    gain = float(estimator.partition("_")[2] or 0.0)
    latency = LatencyModel(states=("s0", "s1"), coeffs=np.stack(coeffs))
    config = GameConfig(
        latency=latency, prior=Prior([0.4, 0.6]),
        signal=Signal(pi=pi * (nu / pi.sum(axis=1, keepdims=True)), nu=nu),
        disobedience=DisobedienceMatrix.default(n),
        scenario=SCENARIOS[draw(scenarios)],
        m_init=draw(st.floats(-0.5, 0.5)) * float(latency.coeffs.max(axis=1).sum()),
        theta_hat_init=draw(st.floats(0.0, 1.0)),
        rounds=draw(st.integers(40, 200)), seed=draw(st.integers(0, 2**16)))
    if estimator != "smoothing":
        config = replace(config, estimator=LuenbergerSpec.from_scalar(gain, n))
    return config


class TestWarmStartSkip:
    """A warm start that is its own projection is not projected again."""

    @staticmethod
    def count_projections(monkeypatch) -> list:
        calls = []
        project = equilibrium.project_simplex

        def counted(v, mass):
            calls.append(mass)
            return project(v, mass)

        monkeypatch.setattr(equilibrium, "project_simplex", counted)
        return calls

    @given(skip_games())
    @example(replace(cubic_config(), rounds=120))  # its warm solves iterate in most rounds
    @settings(max_examples=40, deadline=None)
    def test_skip_never_moves_a_bit(self, config):
        got, want = simulate(config), projecting_step_loop(config)
        for column in COLUMNS:
            a, b = getattr(got, column), getattr(want, column)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column

    def test_paper_affine_projects_at_most_twice(self, monkeypatch):
        config = replace(load_config(PAPER_CONFIG), rounds=300)
        calls = self.count_projections(monkeypatch)
        simulate(config)
        assert len(calls) <= 2  # 300 without the skip, one per round

    def test_cubic_n8_skips_some_warm_projections(self, monkeypatch, tmp_path):
        config, _ = case("cubic_n8-baseline-smoothing")
        calls, iterations = self.count_projections(monkeypatch), []
        solve = dynamics.best_response

        def counted(*args):
            out = solve(*args)
            iterations.append(out[2])
            return out

        monkeypatch.setattr(dynamics, "best_response", counted)
        trajectory = simulate(config)
        write_trajectory_csv(tmp_path / "run.csv", trajectory, config)
        digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
        assert digest == DIGESTS["cubic_n8-baseline-smoothing"]
        # every iteration projects once; the rest project warm starts, one per
        # round from round 2 on without the skip
        assert sum(iterations) > 0
        assert len(calls) - sum(iterations) < config.rounds - 1

    def test_signed_zero_start_is_not_fixed(self, paper_config):
        # [0.5, -0.0] projects to [0.5, 0.0]: equal as numbers, not as bytes
        trajectory = Trajectory.for_run(paper_config)
        state = replace(initial_state(paper_config), k=2, y_warm=np.array([0.5, -0.0]))
        state = step(paper_config, state, trajectory)
        assert state.y_warm.tobytes() == np.array([0.5, 0.0]).tobytes()
        assert trajectory.y[1].tobytes() == np.array([0.5, 0.0]).tobytes()
        assert not state.y_warm_fixed
        state = step(paper_config, state, trajectory)  # [0.5, 0.0] is its own projection
        second = state.y_warm
        assert state.y_warm_fixed
        state = step(paper_config, state, trajectory)
        assert state.y_warm_fixed and state.y_warm is second

    def test_flag_follows_the_solver(self):
        # set only when a round returns its start's bytes; a fixed start stays
        # fixed, as the same array, until the solver iterates
        config = cubic_config()
        state, trajectory, fixed_rounds = initial_state(config), Trajectory.for_run(config), 0
        for _ in range(config.rounds):
            start, was_fixed = state.y_warm, state.y_warm_fixed
            state = step(config, state, trajectory)
            if state.y_warm_fixed:
                assert state.y_warm.tobytes() == start.tobytes()
            if was_fixed:
                fixed_rounds += 1
                assert state.y_warm_fixed == (state.y_warm is start)
        assert 0 < fixed_rounds < config.rounds


def stacked_signal_at(game: CompiledGame, nu_current: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference ``signal_at``: the rescaled rows' shifts stacked from a list."""
    pi = _rescaled(game.pi, game.nu, nu_current)
    if pi is game.pi:
        return game.pi, game.shift
    return pi, np.stack([rerouting_shift(game.rerouting, row) for row in pi])


def stacked_rows_loop(config: GameConfig) -> Trajectory:
    """Reference run: every round takes its rows from :func:`stacked_signal_at`."""
    def row_at(game, w, nu_current):
        pi, shift = stacked_signal_at(game, nu_current)
        return pi[w], shift[w]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledGame, "signal_at", stacked_signal_at)
        patch.setattr(CompiledGame, "row_at", row_at)
        return step_loop(config)


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestRowPath:
    """Under dynamic nu a round with no best response rescales only the drawn state's row."""

    @given(skip_games(scenarios=st.just("dynamic_nu"), full=st.booleans()),
           st.lists(st.floats(0.0, 1.0), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_row_path_never_moves_a_bit(self, config, masses):
        got, want = simulate(config), stacked_rows_loop(config)
        for column in COLUMNS:
            assert same_bytes(getattr(got, column), getattr(want, column)), column
        game = CompiledGame.of(config)
        assert same_bytes(game.shift, np.stack([rerouting_shift(game.rerouting, row)
                                                for row in game.pi]))
        for v in (game.nu, 0.0, *masses):
            pi, shift = game.signal_at(v)
            pi_ref, shift_ref = stacked_signal_at(game, v)
            assert same_bytes(pi, pi_ref) and same_bytes(shift, shift_ref), v
            for w in range(pi.shape[0]):
                row, row_shift = game.row_at(w, v)
                assert same_bytes(row, pi[w]) and same_bytes(row_shift, shift[w]), (v, w)

    @pytest.mark.parametrize("name, calls", [
        ("paper_affine_nu1-dynamic_nu-luenberger", 51),  # 2 compiled, 1 per rescaled round
        ("paper_affine-baseline-smoothing", 2),
        ("cubic_n8-baseline-smoothing", 2),
        ("paper_affine-dynamic_nu-smoothing", 98),       # the best response reads both rows
    ])
    def test_rerouting_shift_calls(self, monkeypatch, name, calls):
        counted, shift = [], model.rerouting_shift

        def counting(matrix, pi_w):
            counted.append(pi_w)
            return shift(matrix, pi_w)

        monkeypatch.setattr(model, "rerouting_shift", counting)
        simulate(replace(case(name)[0], rounds=50))
        assert len(counted) == calls


class TestForecastRow:
    """``x_hat`` has the bits of the drawn state's forecast flows computed alone.

    A round with mass to respond reads it as a row of every state's forecast
    flows; a round at nu = 1 computes the row alone.
    """

    @pytest.mark.parametrize("estimator", ["smoothing", "luenberger"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("base", ["paper_affine", "paper_affine_nu1", "cubic_n8"])
    def test_x_hat_has_the_bits_of_its_row_alone(self, base, scenario, estimator):
        config = cubic_config() if base == "cubic_n8" else load_config(
            PAPER_CONFIG.with_name(f"{base}.yaml"))
        config = replace(config, scenario=SCENARIOS[scenario], rounds=60)
        if estimator == "luenberger":
            config = replace(config, estimator=LuenbergerSpec.from_scalar(0.01, config.latency.n))
        game, state = CompiledGame.of(config), initial_state(config)
        stepped = Trajectory.for_run(config)
        trajectory = simulate(config)
        for i in range(config.rounds):
            nu_current = state.nu_current
            state = step(config, state, stepped)
            record = stepped[i]
            pi_w, shift_w = game.row_at(record.omega, nu_current)
            want = flows(pi_w, shift_w, record.theta_hat)
            assert same_bytes(record.x_hat, want), record.k
            assert same_bytes(trajectory.x_hat[i], want), record.k


# numpy's Python modules behind ndarray.min/max/sum/any/all (``_methods.py``)
# and behind np.all, np.any, np.nonzero, np.full, np.searchsorted,
# np.fill_diagonal and np.diag.
CONSTRUCTION_WRAPPERS = ("_methods.py", "fromnumeric.py", "numeric.py", "_index_tricks_impl.py",
                         "_twodim_base_impl.py")


def numpy_method_wrapper_calls(run) -> list[str]:
    """Names of the Python functions in :data:`CONSTRUCTION_WRAPPERS` that ``run()`` enters.

    ``ndarray.min``, ``max``, ``sum``, ``any`` and ``all`` go through
    ``_methods.py``; their ufuncs' ``reduce`` does the same work without the
    Python frame.  The other modules hold the functions that wrap a ufunc
    method or an ndarray method the same way.
    """
    calls, previous = [], sys.getprofile()

    def profile(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "call" and "numpy" in path and Path(path).name in CONSTRUCTION_WRAPPERS:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


class TestHotPath:
    @pytest.mark.parametrize("name", ["paper_affine", "paper_affine_nu1", "cubic_n8"])
    def test_no_numpy_method_wrappers(self, name):
        # The run's state draws, every round and the cold start of check_obedience's solve.
        config = cubic_config() if name == "cubic_n8" else load_config(
            PAPER_CONFIG.with_name(f"{name}.yaml"))
        config = replace(config, rounds=200)
        assert numpy_method_wrapper_calls(lambda: simulate(config)) == []
        assert numpy_method_wrapper_calls(lambda: equilibrium.check_obedience(config)) == []

    @pytest.mark.parametrize("name", ["paper_affine", "paper_affine_nu1", "default_32",
                                      "cubic_n32"])
    def test_construction_enters_no_numpy_wrappers(self, name):
        # Validation runs once per config, but bulk instance generation pays it per config.
        if name == "default_32":
            def build():
                return DisobedienceMatrix.default(32)
        elif name == "cubic_n32":
            config = cubic_config(n=32)

            def build():  # the config and each of its domain types, validated afresh
                return replace(config, latency=replace(config.latency), prior=replace(config.prior),
                               signal=replace(config.signal),
                               disobedience=replace(config.disobedience))
        else:
            def build():
                return load_config(PAPER_CONFIG.with_name(f"{name}.yaml"))
        build()  # first-call imports are not the result's
        assert numpy_method_wrapper_calls(build) == []


class TestMemory:
    """Traced allocations, not timings: the bounds hold on any host."""

    def test_simulate_holds_at_most_200_bytes_per_round(self):
        config = load_config(PAPER_CONFIG)
        assert config.rounds == 5000
        simulate(replace(config, rounds=5))  # first-call allocations are not the result's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trajectory = simulate(config)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trajectory) == config.rounds
        assert held <= 200 * config.rounds, held / config.rounds

    @pytest.mark.parametrize("name", ["paper_affine_envelope", "cubic_n32"])
    def test_export_adds_under_192_kib_of_peak(self, name, tmp_path):
        if name == "cubic_n32":
            config, envelope = cubic_config(n=32), False
        else:
            config, envelope = load_config(PAPER_CONFIG), True
        trajectory = simulate(config)
        write_trajectory_csv(tmp_path / "warm.csv", trajectory[:2], config, with_envelope=envelope)
        tracemalloc.start()
        try:
            write_trajectory_csv(tmp_path / "run.csv", trajectory, config, with_envelope=envelope)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "run.csv").stat().st_size > 256 * 1024  # a buffered file would show
        assert peak < 192 * 1024, peak

    @pytest.mark.skipif(not hasattr(sys, "_clear_type_cache"), reason="CPython type cache")
    def test_solves_leave_no_name_strings_in_the_type_cache(self):
        # ndarray.cumsum and the flags.writeable setter look a method up by a
        # name string made for the call, which the type method cache may keep
        # alive in a slot picked by its address: the traced memory a run holds
        # then changed from one process to the next.
        config = replace(cubic_config(n=32), rounds=20)
        simulate(config)
        equilibrium.check_obedience(config)
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs")
        tracemalloc.start()
        try:
            for _ in range(10):
                simulate(config)
                equilibrium.check_obedience(config)
            held = tracemalloc.get_traced_memory()[0]
            sys._clear_type_cache()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # a name string is 56-59 bytes; a lookup per call held kilobytes
        assert freed < 256, freed
