"""The repeated game loop: state sampling, regret aggregation, flows, logging.

Each round samples a network state, realizes participating flows from the
current disobedience fraction, lets the non-participating mass best-respond to
its forecast, scores the recommendations against the realized latencies, and
folds that score into the aggregate regret that drives the next round.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .equilibrium import best_response
from .errors import ConfigurationError, SolverError, UnidentifiableError
from .estimators import (LuenbergerState, SmoothingSpec, SmoothingState, envelope_series, observe,
                         smooth)
from .model import (CompiledGame, GameConfig, Scenario, Signal, flows, poly_rows,
                    rerouting_shift)

logger = logging.getLogger(__name__)

_COEFF_TOL = 1e-12  # below this, flows carry no disobedience information


@dataclass
class SimulationState:
    """Mutable per-run state; round k + 1 is fully determined by round k.

    The generator object is advanced in place, so a state consumed by
    :func:`step` must not be reused.
    """

    k: int
    m: float
    theta_hat: float
    estimator_state: SmoothingState | LuenbergerState
    nu_current: float
    rng: np.random.Generator
    y_warm: np.ndarray | None = None
    game: CompiledGame | None = None  # the config's compiled game, from round 1 on


@dataclass(frozen=True)
class TrajectoryRecord:
    """Everything observable about one round."""

    k: int
    omega: int
    theta: float
    theta_hat: float
    x: np.ndarray
    x_hat: np.ndarray
    y: np.ndarray
    ell: np.ndarray
    u: float
    m_next: float
    e_theta: float
    flow_gap: float


def payoff_gap(pi_w: np.ndarray, matrix: np.ndarray, ell: np.ndarray) -> float:
    """Kernel of :func:`instantaneous_regret` for one recommendation row."""
    return float(pi_w @ ell - pi_w @ (matrix @ ell))


def instantaneous_regret(signal: Signal, disobedience, ell: np.ndarray, omega: int) -> float:
    """Aggregate payoff difference of the recommendations against fixed deviations."""
    ell = np.asarray(ell, dtype=float)
    if not np.all(np.isfinite(ell)):
        raise ConfigurationError("latencies must be finite")
    return payoff_gap(signal.pi[omega], disobedience.matrix, ell)


def fold_regret(m: float, u: float, k: int, discount: float | None) -> float:
    """Kernel of :func:`regret_update`; ``discount`` is None for the running average."""
    if discount is not None:
        return discount * m + (1.0 - discount) * u
    return (k * m + u) / (k + 1.0)


def regret_update(m: float, u: float, k: int, scenario: Scenario) -> float:
    """Fold round-k payoff difference into the aggregate regret."""
    if k < 1:
        raise ConfigurationError(f"round index must be >= 1, got {k}")
    return fold_regret(m, u, k, scenario.discount)


def theta_of_m(m: float, m_max: float) -> float:
    """Disobeying fraction implied by the aggregate regret; clamp is a safety net."""
    if m_max <= 0:
        raise ConfigurationError(f"m_max must be positive, got {m_max}")
    return min(max(m, 0.0) / m_max, 1.0)


def recover_theta(config: GameConfig, observed_total_flows: np.ndarray, omega: int,
                  y_known: np.ndarray) -> float:
    """Invert the flow map: infer the disobedience fraction from total link flows.

    Least squares on the links whose flows respond to theta; raises when no
    link does (e.g. a uniform signal with uniform rerouting).
    """
    if not config.latency.is_strictly_increasing:
        raise ConfigurationError("theta recovery requires strictly increasing latencies")
    f = np.asarray(observed_total_flows, dtype=float)
    x = f - np.asarray(y_known, dtype=float)
    pi_w = config.signal.pi[omega]
    coeff = rerouting_shift(config.disobedience.matrix, pi_w)
    scale = float(np.abs(coeff).max())
    if scale <= _COEFF_TOL:
        raise UnidentifiableError(
            f"state {omega}: rerouting leaves the recommendation flows unchanged")
    return float(coeff @ (x - pi_w) / (coeff @ coeff))


def initial_state(config: GameConfig) -> SimulationState:
    if isinstance(config.estimator, SmoothingSpec):
        est: SmoothingState | LuenbergerState = SmoothingState(
            theta_hat=config.theta_hat_init, schedule=config.estimator.schedule)
    else:
        # The observer tracks the regret itself; seed it at the value whose
        # implied fraction matches the configured initial forecast.
        est = LuenbergerState(m_hat=config.theta_hat_init * config.m_max,
                              gain=config.estimator.gain, k=1)
    return SimulationState(
        k=1,
        m=config.m_init,
        theta_hat=config.theta_hat_init,
        estimator_state=est,
        nu_current=config.signal.nu,
        rng=np.random.Generator(np.random.PCG64(config.seed)),
    )


def _sample_state(rng: np.random.Generator, cum_prior: tuple[float, ...]) -> int:
    """Inverse-CDF draw with the states' listed order as the cumulative order."""
    idx = bisect_right(cum_prior, rng.random())
    return min(idx, len(cum_prior) - 1)  # the cumulative sum can round a hair below 1


def step(config: GameConfig, state: SimulationState) -> tuple[SimulationState, TrajectoryRecord]:
    """Advance the game by one round.

    Runs the kernels on the config's compiled game and revalidates nothing:
    the config was validated when it was built, and every value here derives
    from it.  The first round compiles the game; the state carries it on.
    """
    game = CompiledGame.of(config) if state.game is None else state.game
    k = state.k
    omega = _sample_state(state.rng, game.cum_prior)
    theta = theta_of_m(state.m, game.m_max)

    # Under dynamic nu the participating mass follows the last round's theta.
    pi, shift = game.signal_at(state.nu_current)
    pi_w, shift_w = pi[omega], shift[omega]
    x = flows(pi_w, shift_w, theta)
    x_hat = flows(pi_w, shift_w, state.theta_hat)
    try:
        y = best_response(game, pi, shift, state.theta_hat, state.y_warm)[0]
    except SolverError as exc:
        raise SolverError(f"round {k}: {exc}", last_iterate=exc.last_iterate,
                          vi_margin=exc.vi_margin, iterations=exc.iterations) from exc
    latency = game.coeffs[:, omega, :]
    ell = poly_rows(latency, x + y)
    u = payoff_gap(pi_w, game.rerouting, ell)
    m_next = fold_regret(state.m, u, k, game.discount)
    if abs(m_next) > game.m_max:
        logger.warning("round %d: regret %s clamped to [-%s, %s]", k, m_next,
                       game.m_max, game.m_max)
        m_next = min(max(m_next, -game.m_max), game.m_max)

    est = state.estimator_state
    if isinstance(est, SmoothingState):
        est_next = smooth(est, theta, est.schedule.at(k + 1))
        theta_hat_next = est_next.theta_hat
    else:
        est_next = observe(est, u, game.gain, ell, poly_rows(latency, x_hat + y))
        theta_hat_next = theta_of_m(est_next.m_hat, game.m_max)

    nu_next = theta if game.dynamic_nu else state.nu_current

    record = TrajectoryRecord(
        k=k,
        omega=omega,
        theta=theta,
        theta_hat=state.theta_hat,
        x=x,
        x_hat=x_hat,
        y=y,
        ell=ell,
        u=u,
        m_next=m_next,
        e_theta=theta - state.theta_hat,
        flow_gap=float(np.abs(x - pi_w).max()),
    )
    next_state = SimulationState(
        k=k + 1,
        m=m_next,
        theta_hat=theta_hat_next,
        estimator_state=est_next,
        nu_current=nu_next,
        rng=state.rng,
        y_warm=y,
        game=game,
    )
    return next_state, record


def simulate(config: GameConfig) -> list[TrajectoryRecord]:
    """Run the configured number of rounds; bit-reproducible for a fixed seed."""
    state = initial_state(config)
    records: list[TrajectoryRecord] = []
    for _ in range(config.rounds):
        state, record = step(config, state)
        records.append(record)
    return records


def calibration_score(trajectory: list[TrajectoryRecord]) -> np.ndarray:
    """Time-averaged absolute gap between realized and forecast participating flows."""
    if not trajectory:
        raise ConfigurationError("calibration score needs a nonempty trajectory")
    return np.mean([np.abs(r.x - r.x_hat) for r in trajectory], axis=0)


def trajectory_columns(n: int, with_envelope: bool = False) -> list[str]:
    cols = ["k", "omega", "theta", "theta_hat", "e_theta", "u", "m"]
    for prefix in ("x", "xhat", "y", "ell"):
        cols += [f"{prefix}_{i + 1}" for i in range(n)]
    cols.append("flow_gap")
    if with_envelope:
        cols += ["e_lower", "e_upper"]
    return cols


def _csv_cell(text: str) -> str:
    """``text`` as csv.writer writes it among the fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_trajectory_csv(path, trajectory: list[TrajectoryRecord], config: GameConfig,
                         with_envelope: bool = False) -> None:
    """One row per round, floats at 17 significant digits.

    Envelope columns require the smoothing estimator; the bracket is rebuilt
    from the first round's forecast error and the configured weight schedule.
    """
    if not trajectory:
        raise ConfigurationError("cannot export an empty trajectory")
    n = config.latency.n
    bounds = itertools.repeat(())
    if with_envelope:
        if not isinstance(config.estimator, SmoothingSpec):
            raise ConfigurationError("envelope columns are defined for the smoothing estimator only")
        bounds = zip(*envelope_series(len(trajectory), trajectory[0].e_theta,
                                      config.beta_min, config.estimator.schedule))

    # Each row is filled into one %-template; "%.17g" prints a float as
    # format(v, ".17g") does.  The state labels are quoted once, by csv itself.
    columns = trajectory_columns(n, with_envelope)
    template = "%d,%s," + ",".join(["%.17g"] * (len(columns) - 2)) + "\r\n"
    omega_cells = [_csv_cell(label) for label in config.latency.states]

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        for r, bound in zip(trajectory, bounds):
            fh.write(template % (r.k, omega_cells[r.omega], r.theta, r.theta_hat, r.e_theta, r.u,
                                 r.m_next, *r.x.tolist(), *r.x_hat.tolist(), *r.y.tolist(),
                                 *r.ell.tolist(), r.flow_gap, *bound))
