"""The repeated game loop: state sampling, regret aggregation, flows, logging.

Each round samples a network state, realizes participating flows from the
current disobedience fraction, lets the non-participating mass best-respond to
its forecast, scores the recommendations against the realized latencies, and
folds that score into the aggregate regret that drives the next round.

:func:`step` is the one round; it returns a :class:`TrajectoryRecord`.
:func:`simulate` runs it with each round written into row ``k - 1`` of the
preallocated columns of a :class:`Trajectory`, one array per CSV column, so a
run holds 8 * (6 + 4n) bytes per round.  Indexing a ``Trajectory`` gives the
round's record again, as views of the column rows; the CSV export and the
calibration score read the columns.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .equilibrium import best_response
from .errors import ConfigurationError, SolverError, UnidentifiableError
from .estimators import SmoothingSpec, envelope_series, observe, smooth
from .model import (CompiledGame, GameConfig, Scenario, Signal, _check_state_index,
                    _link_vector, flows, poly_rows, rerouting_shift)

logger = logging.getLogger(__name__)

_COEFF_TOL = 1e-12  # below this, flows carry no disobedience information
_BLOCK_CELLS = 1024  # CSV cells converted to text per block of rows


@dataclass
class SimulationState:
    """Mutable per-run state; round k + 1 is fully determined by round k.

    The generator object is advanced in place, so a state consumed by
    :func:`step` must not be reused.  ``y_warm`` is the last round's response,
    the start of the next solve.  ``y_warm_fixed`` is set once that start is
    its own simplex projection, byte for byte; the solve then starts from it
    without projecting it again, and returns that same array while it
    certifies at once, so consecutive records may share one ``y`` array.  No
    array of a record is ever written in place.

    The estimators' state is ``theta_hat``, the forecast for round k, and under
    the observer ``m_hat``, the regret estimate it is implied by (else None).
    """

    k: int
    m: float
    theta_hat: float
    m_hat: float | None
    nu_current: float
    rng: np.random.Generator
    y_warm: np.ndarray | None = None
    y_warm_fixed: bool = False
    game: CompiledGame | None = None  # the config's compiled game, from round 1 on


class TrajectoryRecord(NamedTuple):
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run as columns: row i of each array holds round ``rounds[i]``.

    ``omega`` is an intp array, the other columns float64; ``x``, ``x_hat``,
    ``y`` and ``ell`` have one column per link.  ``k`` and ``e_theta`` are
    derived.  ``len``, iteration and integer indexing give each round as a
    :class:`TrajectoryRecord` of Python scalars and row views; a slice gives a
    ``Trajectory`` of the column slices.
    """

    rounds: range
    omega: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    u: np.ndarray
    m_next: np.ndarray
    flow_gap: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    y: np.ndarray
    ell: np.ndarray

    @property
    def k(self) -> np.ndarray:
        return np.arange(self.rounds.start, self.rounds.stop, self.rounds.step)

    @property
    def e_theta(self) -> np.ndarray:
        """The same IEEE subtraction as each record's ``theta - theta_hat``."""
        return self.theta - self.theta_hat

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):  # a range slices as numpy's basic slicing does
            return Trajectory(*(getattr(self, f.name)[i] for f in fields(self)))
        theta, theta_hat = float(self.theta[i]), float(self.theta_hat[i])
        return TrajectoryRecord(
            k=self.rounds[i], omega=int(self.omega[i]), theta=theta, theta_hat=theta_hat,
            x=self.x[i], x_hat=self.x_hat[i], y=self.y[i], ell=self.ell[i],
            u=float(self.u[i]), m_next=float(self.m_next[i]), e_theta=theta - theta_hat,
            flow_gap=float(self.flow_gap[i]))


def payoff_gap(pi_w: np.ndarray, matrix: np.ndarray, ell: np.ndarray) -> float:
    """Kernel of :func:`instantaneous_regret` for one recommendation row."""
    return float(pi_w @ ell - pi_w @ (matrix @ ell))


def instantaneous_regret(signal: Signal, disobedience, ell: np.ndarray, omega: int) -> float:
    """Aggregate payoff difference of the recommendations against fixed deviations."""
    states, n = signal.pi.shape
    if disobedience.n != n:
        raise ConfigurationError(f"signal has {n} links, disobedience matrix {disobedience.n}")
    _check_state_index(omega, states)
    return payoff_gap(signal.pi[omega], disobedience.matrix, _link_vector(ell, n, "latencies"))


def fold_regret(m: float, u: float, k: int, discount: float | None) -> float:
    """Kernel of :func:`regret_update`; ``discount`` is None for the running average."""
    if discount is not None:
        return discount * m + (1.0 - discount) * u
    return (k * m + u) / (k + 1.0)


def regret_update(m: float, u: float, k: int, scenario: Scenario) -> float:
    """Fold round-k payoff difference into the aggregate regret."""
    if k < 1:
        raise ConfigurationError(f"round index must be >= 1, got {k}")
    if not (math.isfinite(m) and math.isfinite(u)):
        raise ConfigurationError(f"regret and payoff difference must be finite, got {m} and {u}")
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
    n = config.latency.n
    _check_state_index(omega, config.latency.num_states)
    x = (_link_vector(observed_total_flows, n, "observed total flows")
         - _link_vector(y_known, n, "known response"))
    pi_w = config.signal.pi[omega]
    coeff = rerouting_shift(config.disobedience.matrix, pi_w)
    scale = float(np.abs(coeff).max())
    if scale <= _COEFF_TOL:
        raise UnidentifiableError(
            f"state {omega}: rerouting leaves the recommendation flows unchanged")
    return float(coeff @ (x - pi_w) / (coeff @ coeff))


def initial_state(config: GameConfig) -> SimulationState:
    # The observer tracks the regret itself; seed it at the value whose
    # implied fraction matches the configured initial forecast.
    observer = not isinstance(config.estimator, SmoothingSpec)
    return SimulationState(
        k=1,
        m=config.m_init,
        theta_hat=config.theta_hat_init,
        m_hat=config.theta_hat_init * config.m_max if observer else None,
        nu_current=config.signal.nu,
        rng=np.random.Generator(np.random.PCG64(config.seed)),
    )


def _sample_state(rng: np.random.Generator, cum_prior: tuple[float, ...]) -> int:
    """Inverse-CDF draw with the states' listed order as the cumulative order."""
    idx = bisect_right(cum_prior, rng.random())
    return min(idx, len(cum_prior) - 1)  # the cumulative sum can round a hair below 1


def step(config: GameConfig, state: SimulationState,
         into: Trajectory | None = None) -> tuple[SimulationState, TrajectoryRecord]:
    """Advance the game by one round.

    Runs the kernels on the config's compiled game and revalidates nothing:
    the config was validated when it was built, and every value here derives
    from it.  The first round compiles the game; the state carries it on.
    With ``into``, the round's record is also written into row ``k - 1`` of
    its columns, which is how :func:`simulate` fills a run.

    The best response starts from the last round's.  That start is fixed once
    a solve certifies at iteration 0 and returns the bytes it started from
    (compared as bytes, so that -0.0 does not pass for 0.0): the start is then
    its own projection, and later rounds skip projecting it until the solver
    iterates again.  While it stays fixed, each round's ``y`` is the same
    array as the last round's, never written in place.

    Under dynamic nu the recommendation rows are rescaled each round.  The
    best response reads every state's row, so a round with mass left to
    respond rescales them all once, with :meth:`CompiledGame.signal_at`; at
    nu = 1 there is none, and the round rescales only the drawn state's row,
    with :meth:`CompiledGame.row_at`.  Both give the same bits.
    """
    game = CompiledGame.of(config) if state.game is None else state.game
    k = state.k
    omega = _sample_state(state.rng, game.cum_prior)
    theta = theta_of_m(state.m, game.m_max)

    # Under dynamic nu the participating mass follows the last round's theta.
    # With no mass to best-respond, nothing reads the other states' rows.
    if game.mass == 0.0:
        pi = shift = None
        pi_w, shift_w = game.row_at(omega, state.nu_current)
    else:
        pi, shift = game.signal_at(state.nu_current)
        pi_w, shift_w = pi[omega], shift[omega]
    x = flows(pi_w, shift_w, theta)
    x_hat = flows(pi_w, shift_w, state.theta_hat)
    start = state.y_warm
    try:
        y, _, _, iterations = best_response(game, pi, shift, state.theta_hat, start,
                                            state.y_warm_fixed)
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

    if game.gain is None:
        m_hat_next = None
        theta_hat_next = smooth(state.theta_hat, theta, game.schedule.at(k + 1))
    else:
        m_hat_next = observe(state.m_hat, k, u, game.gain, ell, poly_rows(latency, x_hat + y))
        theta_hat_next = theta_of_m(m_hat_next, game.m_max)

    nu_next = theta if game.dynamic_nu else state.nu_current
    y_fixed = iterations == 0 and start is not None and (
        state.y_warm_fixed or y.tobytes() == start.tobytes())

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
    if into is not None:
        i = k - 1
        (_, into.omega[i], into.theta[i], into.theta_hat[i], into.x[i], into.x_hat[i], into.y[i],
         into.ell[i], into.u[i], into.m_next[i], _, into.flow_gap[i]) = record
    next_state = SimulationState(
        k=k + 1,
        m=m_next,
        theta_hat=theta_hat_next,
        m_hat=m_hat_next,
        nu_current=nu_next,
        rng=state.rng,
        y_warm=y,
        y_warm_fixed=y_fixed,
        game=game,
    )
    return next_state, record


def simulate(config: GameConfig) -> Trajectory:
    """Run the configured number of rounds; bit-reproducible for a fixed seed.

    Each round is written into its row of preallocated columns; the columns
    are read-only once the run ends.
    """
    rounds, n = config.rounds, config.latency.n
    trajectory = Trajectory(range(1, rounds + 1), np.empty(rounds, dtype=np.intp),
                            *(np.empty(rounds) for _ in range(5)),
                            *(np.empty((rounds, n)) for _ in range(4)))
    state = initial_state(config)
    for _ in range(rounds):
        state = step(config, state, trajectory)[0]
    for column in fields(trajectory)[1:]:
        getattr(trajectory, column.name).flags.writeable = False
    return trajectory


def calibration_score(trajectory: Trajectory) -> np.ndarray:
    """Time-averaged absolute gap between realized and forecast participating flows."""
    if not len(trajectory):
        raise ConfigurationError("calibration score needs a nonempty trajectory")
    return np.mean(np.abs(trajectory.x - trajectory.x_hat), axis=0)


def trajectory_columns(n: int, with_envelope: bool = False) -> list[str]:
    cols = ["k", "omega", "theta", "theta_hat", "e_theta", "u", "m"]
    for prefix in ("x", "xhat", "y", "ell"):
        cols += [f"{prefix}_{i + 1}" for i in range(n)]
    cols.append("flow_gap")
    if with_envelope:
        cols += ["e_lower", "e_upper"]
    return cols


def _csv_cell(text: str) -> str:
    """``text`` as one field of a CSV row, quoted as RFC 4180 quotes it.

    A field that holds a comma, a double quote, CR or LF is wrapped in double
    quotes, with each double quote doubled; any other text is written as it
    is, so the bytes do not depend on the Python version.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trajectory_csv(path, trajectory: Trajectory, config: GameConfig,
                         with_envelope: bool = False) -> None:
    """One row per round, floats at 17 significant digits, every row ending in CRLF.

    Each state label is written by :func:`_csv_cell`; no other cell needs
    quoting.  Envelope columns require the smoothing estimator and a trajectory
    that holds every round from round 1 on, such as a prefix of a run: the
    bracket is rebuilt from round 1's forecast error and the configured weight
    schedule.  A slice of any other rounds exports without them.
    """
    if not len(trajectory):
        raise ConfigurationError("cannot export an empty trajectory")
    n = config.latency.n
    bounds: tuple[np.ndarray, ...] = ()
    if with_envelope:
        if not isinstance(config.estimator, SmoothingSpec):
            raise ConfigurationError("envelope columns are defined for the smoothing estimator only")
        if trajectory.rounds.start != 1 or trajectory.rounds.step != 1:
            raise ConfigurationError("envelope columns need every round from round 1 on, "
                                     f"got {trajectory.rounds}")
        bounds = envelope_series(len(trajectory), trajectory[0].e_theta, config.beta_min,
                                 config.estimator.schedule)

    # Each block of rows is filled into its rows' %-templates at once; "%.17g"
    # prints a float as format(v, ".17g") does.  Each state label is quoted
    # once, up front.  A block holds about _BLOCK_CELLS cells however wide
    # the rows are, so the text in flight stays small.
    columns = trajectory_columns(n, with_envelope)
    template = "%d,%s," + ",".join(["%.17g"] * (len(columns) - 2)) + "\r\n"
    labels = np.array([_csv_cell(label) for label in config.latency.states], dtype=object)
    rows_per_block = max(1, _BLOCK_CELLS // len(columns))

    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")  # column names never need quoting
        for start in range(0, len(trajectory), rows_per_block):
            rows = slice(start, start + rows_per_block)
            b = trajectory[rows]
            cells = np.empty((len(b), len(columns)), dtype=object)
            cells[:, 0] = b.rounds
            cells[:, 1] = labels[b.omega]
            cells[:, 2:] = np.column_stack((b.theta, b.theta_hat, b.e_theta, b.u, b.m_next, b.x,
                                            b.x_hat, b.y, b.ell, b.flow_gap,
                                            *(bound[rows] for bound in bounds)))
            fh.write((template * len(b)) % tuple(cells.ravel().tolist()))
