from __future__ import annotations

import csv
import hashlib
import io
import logging
import tracemalloc
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
                       TrajectoryRecord, UnidentifiableError, calibration_score, initial_state,
                       instantaneous_regret, p_flows, recover_theta, regret_update, simulate,
                       step, theta_of_m, write_trajectory_csv)
from routegame.cli import load_config
from routegame.dynamics import trajectory_columns
from routegame.estimators import envelope_series
from routegame.model import CompiledGame, _rescaled, rerouting_shift

from conftest import (AFFINE_COEFFS, affine_latency, benchmark_config, random_affine_config,
                      revealing_signal)
from test_golden import DIGESTS, SCENARIOS, case, cubic_config

PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_affine.yaml"

SWAP = DisobedienceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def equal_constant_config(**overrides) -> GameConfig:
    """Both links identical and flow-independent: every payoff difference vanishes."""
    kwargs = dict(
        latency=LatencyModel(states=("only",), coeffs=[[[3.0, 3.0]]]),
        prior=Prior([1.0]),
        signal=Signal(pi=[[0.3, 0.2]], nu=0.5),
        disobedience=SWAP,
        m_max=6.0,
        m_init=0.5,
        theta_hat_init=0.5 / 6.0,
    )
    kwargs.update(overrides)
    return GameConfig(**kwargs)


class TestInstantaneousRegret:
    def test_two_link_expansion(self):
        sig = Signal(pi=[[0.3, 0.2]], nu=0.5)
        u = instantaneous_regret(sig, SWAP, np.array([7.0, 26.0]), 0)
        assert u == pytest.approx(-1.9, abs=1e-12)

    def test_equal_latencies_vanish(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            nu = 0.8
            pi = rng.dirichlet(np.ones(n), size=1) * nu
            sig = Signal(pi=pi * (nu / pi.sum()), nu=nu)
            u = instantaneous_regret(sig, DisobedienceMatrix.default(n),
                                     np.full(n, 3.7), 0)
            assert u == pytest.approx(0.0, abs=1e-12)

    def test_uniform_signal_uniform_rerouting_vanish(self):
        rng = np.random.default_rng(1)
        n = 4
        sig = Signal(pi=np.full((1, n), 0.6 / n), nu=0.6)
        P = DisobedienceMatrix.default(n)
        ell = rng.uniform(0, 30, size=n)
        u = instantaneous_regret(sig, P, ell, 0)
        # oracle: the full matrix product, written out
        oracle = float(sig.pi[0] @ ((np.eye(n) - P.matrix) @ ell))
        assert u == pytest.approx(oracle, abs=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ell, omega", [
        ([7.0, 26.0], -1), ([7.0, 26.0], 2), ([7.0, 26.0], 1.0),
        ([7.0, 26.0, 1.0], 0), ([7.0], 0), ([7.0, np.nan], 0), ([[7.0, 26.0]], 0)])
    def test_bad_state_or_latencies_rejected(self, ell, omega):
        # -1 used to read the last state's row
        with pytest.raises(ConfigurationError):
            instantaneous_regret(revealing_signal(0.5), SWAP, np.array(ell), omega)

    def test_link_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            instantaneous_regret(revealing_signal(0.5), DisobedienceMatrix.default(3),
                                 np.array([7.0, 26.0]), 0)


class TestRegretUpdate:
    def test_running_average_step(self):
        assert regret_update(0.5, -1.9, 1, Scenario.baseline()) == pytest.approx(-0.7, abs=1e-15)

    def test_constant_stream_unrolls_exactly(self):
        m, c = 0.8, -0.3
        for k in range(1, 200):
            m = regret_update(m, c, k, Scenario.baseline())
            assert m == pytest.approx((0.8 + k * c) / (k + 1), abs=1e-13)

    def test_discounted_step(self):
        sc = Scenario.discounted(0.9)
        assert regret_update(0.5, -1.9, 1, sc) == pytest.approx(0.26, abs=1e-15)

    def test_dynamic_nu_uses_running_average(self):
        assert regret_update(0.5, -1.9, 1, Scenario.dynamic_nu()) == pytest.approx(-0.7, abs=1e-15)

    def test_round_index_validated(self):
        with pytest.raises(ConfigurationError):
            regret_update(0.0, 0.0, 0, Scenario.baseline())

    @pytest.mark.parametrize("m, u", [(0.0, np.nan), (np.nan, 0.0), (np.inf, 0.0),
                                      (0.0, -np.inf)])
    def test_non_finite_inputs_rejected(self, m, u):
        for scenario in SCENARIOS.values():
            with pytest.raises(ConfigurationError, match="must be finite"):
                regret_update(m, u, 1, scenario)


class TestThetaOfM:
    def test_negative_regret_means_obedience(self):
        assert theta_of_m(-0.7, 51.0) == 0.0

    def test_cap(self):
        assert theta_of_m(51.0, 51.0) == 1.0

    def test_benchmark_half(self):
        assert theta_of_m(25.5, 51.0) == pytest.approx(0.5, abs=1e-15)

    def test_clamp_is_safety_net(self):
        assert theta_of_m(120.0, 51.0) == 1.0


class TestRecoverTheta:
    def test_round_trip(self):
        cfg = benchmark_config()
        cfg = replace(cfg, latency=LatencyModel(states=cfg.latency.states,
                                                coeffs=cfg.latency.coeffs,
                                                require_strict_increase=True))
        theta = 0.37
        y = np.array([0.4, 0.1])
        f = p_flows(cfg.signal, cfg.disobedience, theta, 0) + y
        assert recover_theta(cfg, f, 0, y) == pytest.approx(theta, abs=1e-10)

    def test_obedient_flows_recover_zero(self):
        cfg = benchmark_config()
        f = p_flows(cfg.signal, cfg.disobedience, 0.0, 1) + np.array([0.5, 0.0])
        assert recover_theta(cfg, f, 1, np.array([0.5, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_round_trips_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            cfg = random_affine_config(rng, int(rng.integers(2, 5)))
            theta = float(rng.uniform(0, 1))
            omega = int(rng.integers(0, cfg.latency.num_states))
            y = rng.uniform(0, 0.5, size=cfg.latency.n)
            f = p_flows(cfg.signal, cfg.disobedience, theta, omega) + y
            assert recover_theta(cfg, f, omega, y) == pytest.approx(theta, abs=1e-10)

    def test_recovers_theta_along_a_trajectory(self, paper_config):
        # observers who know the response and total flows can back out the
        # disobeying fraction every round
        cfg = replace(paper_config, rounds=200)
        for rec in simulate(cfg):
            got = recover_theta(cfg, rec.x + rec.y, rec.omega, rec.y)
            assert got == pytest.approx(rec.theta, abs=1e-10)

    def test_uniform_signal_uniform_rerouting_unidentifiable(self):
        cfg = GameConfig(
            latency=LatencyModel(states=("only",), coeffs=[[[1.0] * 3], [[1.0] * 3]]),
            prior=Prior([1.0]),
            signal=Signal(pi=[[0.2, 0.2, 0.2]], nu=0.6),
            disobedience=DisobedienceMatrix.default(3))
        with pytest.raises(UnidentifiableError):
            recover_theta(cfg, np.full(3, 1.0 / 3), 0, np.zeros(3))

    def test_requires_strict_increase(self):
        cfg = equal_constant_config()
        with pytest.raises(ConfigurationError):
            recover_theta(cfg, np.array([0.5, 0.5]), 0, np.zeros(2))

    @pytest.mark.parametrize("f, omega, y", [
        ([0.6, 0.4], -1, [0.5, 0.0]), ([0.6, 0.4], 2, [0.5, 0.0]), ([0.6, 0.4], 0.0, [0.5, 0.0]),
        ([0.6, 0.4, 0.0], 0, [0.5, 0.0]), ([0.6, 0.4], 0, [0.5]),
        ([0.6, np.inf], 0, [0.5, 0.0]), ([0.6, 0.4], 0, [np.nan, 0.0])])
    def test_bad_state_or_vectors_rejected(self, f, omega, y):
        # -1 used to read the last state's row and return 0.6
        cfg = benchmark_config(latency=affine_latency(require_strict_increase=True))
        with pytest.raises(ConfigurationError):
            recover_theta(cfg, np.array(f), omega, np.array(y))


class TestStep:
    def test_single_round_against_straight_line_script(self, paper_config):
        cfg = replace(paper_config, seed=2)
        state = initial_state(cfg)
        new_state, rec = step(cfg, state)

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
        state = initial_state(cfg)
        e1 = cfg.m_init - state.m_hat
        records = []
        for _ in range(cfg.rounds):
            state, rec = step(cfg, state)
            records.append(rec)
            # zero-gain observer: estimation error decays exactly harmonically
            assert (rec.m_next - state.m_hat) * state.k == pytest.approx(e1, abs=1e-9)
        assert records[-1].theta_hat == pytest.approx(records[-1].theta, abs=1e-2)


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
        trajectory = Trajectory(
            rounds=range(1, 40), omega=np.zeros(39, dtype=np.intp), theta=thetas,
            theta_hat=thetas - c, u=zeros, m_next=zeros, flow_gap=zeros,
            x=np.stack([p_flows(sig, SWAP, float(t), 0) for t in thetas]),
            x_hat=np.stack([p_flows(sig, SWAP, float(t) - c, 0) for t in thetas]),
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
        lower, upper = envelope_series(len(trajectory), trajectory[0].e_theta,
                                       config.beta_min, config.estimator.schedule)

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
        state, records = initial_state(config), []
        for _ in range(config.rounds):
            state, record = step(config, state)
            records.append(record)
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
    """``config`` run round by round through ``step``, its records stacked into columns."""
    state, records = initial_state(config), []
    for _ in range(config.rounds):
        state, record = step(config, state)
        records.append(record)
    columns = {name: np.array([getattr(r, name) for r in records]) for name in COLUMNS}
    return Trajectory(rounds=range(1, config.rounds + 1), **columns)


def projecting_step_loop(config: GameConfig) -> Trajectory:
    """Reference run: every round after the first projects its warm start again."""
    solve = dynamics.best_response

    def projecting(game, pi, shift, theta, start, start_fixed=False):
        return solve(game, pi, shift, theta, start)

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
            iterations.append(out[3])
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
        state = replace(initial_state(paper_config), k=2, y_warm=np.array([0.5, -0.0]))
        state, record = step(paper_config, state)
        assert record.y.tobytes() == np.array([0.5, 0.0]).tobytes()
        assert not state.y_warm_fixed
        state, second = step(paper_config, state)  # [0.5, 0.0] is its own projection
        assert state.y_warm_fixed
        state, third = step(paper_config, state)
        assert state.y_warm_fixed and third.y is second.y

    def test_flag_follows_the_solver(self):
        # set only when a round returns its start's bytes; a fixed start stays
        # fixed, as the same array, until the solver iterates
        config = cubic_config()
        state, fixed_rounds = initial_state(config), 0
        for _ in range(config.rounds):
            start, was_fixed = state.y_warm, state.y_warm_fixed
            state, record = step(config, state)
            if state.y_warm_fixed:
                assert record.y.tobytes() == start.tobytes()
            if was_fixed:
                fixed_rounds += 1
                assert state.y_warm_fixed == (record.y is start)
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
