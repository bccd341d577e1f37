"""The repeated game loop: state draws, regret aggregation, flows, logging.

Nature draws each round's network state i.i.d. from the prior, independently
of play, so a run's states are drawn before round 1, into the ``omega`` column
of the run's :class:`Trajectory` (:meth:`Trajectory.for_run`).  Each round
then realizes participating flows from the current disobedience fraction,
lets the non-participating mass best-respond to its forecast, scores the
recommendations against the realized latencies, and folds that score into the
aggregate regret that drives the next round.

:func:`step` is the one round: it reads its state from ``omega`` and writes
every other column of its row ``k - 1``.  :func:`simulate` builds the columns,
one array per CSV column, so a run holds 8 * (6 + 4n) bytes per round, and
steps through them.  Indexing a ``Trajectory`` gives a round as a
:class:`TrajectoryRecord` of views of the column rows; the CSV export and the
calibration score read the columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .equilibrium import best_response
from .errors import ConfigurationError, SolverError
from .estimators import SmoothingSpec, envelope_series, observe, smooth
from .model import CompiledGame, GameConfig, flows, poly_rows

logger = logging.getLogger(__name__)

_BLOCK_CELLS = 1024  # CSV cells converted to text per block of rows


@dataclass(slots=True)
class SimulationState:
    """Mutable per-run state; round k + 1 is fully determined by round k and its drawn state.

    The state holds no generator: the run's states are drawn up front into
    its trajectory's ``omega`` column.  :func:`step` advances the state in
    place and returns the same object, so a state given to it holds the next
    round afterwards and no earlier round can be replayed from it.
    ``y_warm`` is the last round's response, the start of the next solve.
    ``y_warm_fixed`` is set once that start is its own simplex projection,
    byte for byte; the solve then starts from it without projecting it
    again, and returns that same array while it certifies at once, so
    consecutive rounds may return one ``y`` array.  No such array is ever
    written in place.

    The estimators' state is ``theta_hat``, the forecast for round k, and under
    the observer ``m_hat``, the regret estimate it is implied by (else None).
    """

    k: int
    m: float
    theta_hat: float
    m_hat: float | None
    nu_current: float
    y_warm: np.ndarray | None = None
    y_warm_fixed: bool = False
    game: CompiledGame | None = None  # the config's compiled game, from round 1 on


class TrajectoryRecord(NamedTuple):
    """Everything observable about one round: the type of ``trajectory[i]``.

    Python scalars and views of row i of the columns; no round builds one.
    """

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
    ``Trajectory`` of the column slices.  :meth:`for_run` builds the columns
    of a run, with its states drawn.
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

    @classmethod
    def for_run(cls, config: GameConfig) -> "Trajectory":
        """Columns for every round of ``config``'s run, ``omega`` drawn, the rest unwritten.

        Round k's state is the first w whose cumulative prior exceeds the
        k-th double of ``Generator(PCG64(seed))``, the states' listed order
        being the cumulative order, or the last state if none does, since the
        cumulative sum can round a hair below 1.  One ``random(rounds)`` call
        gives the doubles of ``rounds`` calls of ``random()``, and
        ``searchsorted`` with ``side="right"`` finds the index that
        ``bisect_right`` finds, so the states are those of one inverse-CDF
        draw per round.  The doubles are freed before the other columns are
        allocated.  A ``rounds`` too large to allocate raises
        :class:`ConfigurationError`.
        """
        rounds, n = config.rounds, config.latency.n
        try:
            cum = np.add.accumulate(config.prior.mu0)
            omega = cum.searchsorted(
                np.random.Generator(np.random.PCG64(config.seed)).random(rounds), side="right")
            np.minimum(omega, cum.size - 1, out=omega)
            return cls(range(1, rounds + 1), omega, *(np.empty(rounds) for _ in range(5)),
                       *(np.empty((rounds, n)) for _ in range(4)))
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(
                f"rounds = {rounds} is too many to allocate: {exc}") from None

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
    """Payoff difference u = pi_w . ell - pi_w . (D ell) of a row against its deviations."""
    return float(pi_w.dot(ell) - pi_w.dot(matrix.dot(ell)))


def fold_regret(m: float, u: float, k: int, discount: float | None) -> float:
    """Regret after round k: (k m + u) / (k + 1), or discount * m + (1 - discount) * u."""
    if discount is not None:
        return discount * m + (1.0 - discount) * u
    return (k * m + u) / (k + 1.0)


def theta_of_m(m: float, m_max: float) -> float:
    """Disobeying fraction implied by the aggregate regret; the clamp to 1 is a safety net.

    Checks nothing: ``m_max`` is the validated config's, and :func:`step`
    raises on a regret or regret estimate that is not finite before any
    round reads it.
    """
    return min(max(m, 0.0) / m_max, 1.0)


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
    )


def step(config: GameConfig, state: SimulationState, trajectory: Trajectory) -> SimulationState:
    """Play round k = ``state.k`` into row k - 1 of ``trajectory``; returns ``state``, advanced.

    ``trajectory`` holds the run's columns, as :meth:`Trajectory.for_run`
    builds them: the round reads its state from ``omega[k - 1]`` and writes
    every other column of that row, which is how :func:`simulate` fills a
    run.  A caller who steps by hand reads the round from the columns.

    Runs the kernels on the config's compiled game and revalidates nothing:
    the config was validated when it was built, and every value here derives
    from it.  The first round compiles the game; the state carries it on.
    Both disobeying fractions, the drawn one and the observer's forecast,
    are :func:`theta_of_m`, and the smoothing weight is
    :meth:`SmoothingSpec._at`.  A regret that leaves [-m_max, m_max] is
    clamped to it with a warning, and one that is not finite raises
    :class:`ConfigurationError` naming the round; so does a non-finite regret
    estimate of the observer; the row of a round that raises is not written.

    The best response starts from the last round's.  That start is fixed once
    a solve certifies at iteration 0 and returns the bytes it started from
    (compared as bytes, so that -0.0 does not pass for 0.0): the start is then
    its own projection, and later rounds skip projecting it until the solver
    iterates again.  While it stays fixed, each round's ``y`` is the same
    array as the last round's, never written in place; a round with no mass
    to respond returns the compiled read-only zero vector.

    Under dynamic nu the recommendation rows are rescaled each round.  The
    best response reads every state's row, so a round with mass left to
    respond rescales them all once, with :meth:`CompiledGame.signal_at`; at
    nu = 1 there is none, and the round rescales only the drawn state's row,
    with :meth:`CompiledGame.row_at`.  Both give the same bits.  Likewise a
    round with mass to respond computes the forecast flows of every state
    once, for the best response, and reads the drawn state's ``x_hat`` as
    their row ``omega``: flows are elementwise, so that row has the bits of
    the row computed alone, which is what a round at nu = 1 computes.
    """
    game = state.game
    if game is None:
        game = state.game = CompiledGame.of(config)
    k, m, theta_hat, m_max = state.k, state.m, state.theta_hat, game.m_max
    i = k - 1
    omega = trajectory.omega[i]
    theta = theta_of_m(m, m_max)

    # Under dynamic nu the participating mass follows the last round's theta.
    # With no mass to best-respond, nothing reads the other states' rows.
    if game.mass == 0.0:
        pi_w, shift_w = game.row_at(omega, state.nu_current)
        forecast, x_hat = None, flows(pi_w, shift_w, theta_hat)
    else:
        pi, shift = game.signal_at(state.nu_current)
        pi_w, shift_w = pi[omega], shift[omega]
        forecast = flows(pi, shift, theta_hat)
        x_hat = forecast[omega]
    x = flows(pi_w, shift_w, theta)
    start = state.y_warm
    try:
        y, _, iterations = best_response(game, forecast, start, state.y_warm_fixed)
    except SolverError as exc:
        raise SolverError(f"round {k}: {exc}", last_iterate=exc.last_iterate,
                          vi_margin=exc.vi_margin, iterations=exc.iterations) from exc
    latency = game.latency_rows[omega]
    ell = poly_rows(latency, x + y)
    u = payoff_gap(pi_w, game.rerouting, ell)
    m_next = fold_regret(m, u, k, game.discount)
    if not abs(m_next) <= m_max:  # NaN fails too
        if not math.isfinite(m_next):
            raise ConfigurationError(f"round {k}: regret must be finite, got {m_next}")
        logger.warning("round %d: regret %s clamped to [-%s, %s]", k, m_next, m_max, m_max)
        m_next = min(max(m_next, -m_max), m_max)

    if game.gain is None:
        state.theta_hat = smooth(theta_hat, theta, game.smoothing._at(k + 1))
    else:
        m_hat = observe(state.m_hat, k, u, game.gain, ell, poly_rows(latency, x_hat + y))
        if not math.isfinite(m_hat):
            raise ConfigurationError(f"round {k}: regret estimate must be finite, got {m_hat}")
        state.m_hat = m_hat
        state.theta_hat = theta_of_m(m_hat, m_max)

    # abs leaves no -0.0, so the first largest entry is the value np.maximum.reduce returns.
    gap = x - pi_w
    np.abs(gap, gap)
    trajectory.theta[i] = theta
    trajectory.theta_hat[i] = theta_hat
    trajectory.u[i] = u
    trajectory.m_next[i] = m_next
    trajectory.flow_gap[i] = gap[gap.argmax()]
    trajectory.x[i] = x
    trajectory.x_hat[i] = x_hat
    trajectory.y[i] = y
    trajectory.ell[i] = ell
    state.y_warm_fixed = iterations == 0 and start is not None and (
        state.y_warm_fixed or y.tobytes() == start.tobytes())
    state.k, state.m, state.y_warm = k + 1, m_next, y
    if game.dynamic_nu:
        state.nu_current = theta
    return state


def simulate(config: GameConfig) -> Trajectory:
    """Run the configured number of rounds; bit-reproducible for a fixed seed.

    Builds the run's columns with its states drawn (:meth:`Trajectory.for_run`)
    and steps through them; the columns are read-only once the run ends.
    """
    trajectory = Trajectory.for_run(config)
    state = initial_state(config)
    for _ in trajectory.rounds:
        step(config, state, trajectory)
    for column in fields(trajectory)[1:]:  # setflags: see project_simplex on name strings
        getattr(trajectory, column.name).setflags(write=False)
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
    bracket is rebuilt from round 1's forecast error and the estimator's
    weights and ``beta_min``.  A slice of any other rounds exports without them.
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
        e1 = trajectory.theta[0] - trajectory.theta_hat[0]  # round 1's e_theta
        bounds = envelope_series(len(trajectory), e1, config.estimator)

    # Each block of rows is filled into its rows' %-templates at once; "%.17g"
    # prints a float as format(v, ".17g") does.  Each state label is quoted
    # once, up front.  A block holds about _BLOCK_CELLS cells however wide
    # the rows are, so the text in flight stays small.
    columns = trajectory_columns(n, with_envelope)
    template = "%d,%s," + ",".join(["%.17g"] * (len(columns) - 2)) + "\r\n"
    labels = np.array([_csv_cell(label) for label in config.latency.states], dtype=object)
    rows_per_block = max(1, _BLOCK_CELLS // len(columns))

    with open(path, "w", encoding="utf-8", newline="") as fh:
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
