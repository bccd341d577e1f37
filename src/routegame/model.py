"""Domain types, validation, latency evaluation, and the two exact flow maps.

Conventions: a model with n parallel links and s network states stores
polynomial latency coefficients in a dense ``(degree + 1, s, n)`` tensor.  A
recommendation signal stores one row per state; each row lives on the simplex
of mass ``nu`` (the participating fraction), so flows derived from it are used
directly, without an extra ``nu`` prefactor.  All types are immutable after
validation and all operations here are pure.

Inputs are validated once, where they enter: the domain types and
:class:`GameConfig` check themselves on construction, and the public functions
check their arguments.  The round loop runs on a :class:`CompiledGame`, the
config's constants derived once per run, through kernels that check nothing;
the run carries it in its state, so a config holds no cached copy.  Each
public function is a validating wrapper over the same kernel, so both give
the same bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SignalRowError
from .estimators import BetaSchedule, LuenbergerSpec, SmoothingSpec

logger = logging.getLogger(__name__)

INPUT_TOL = 1e-12   # simplex tolerance for validated inputs
OUTPUT_TOL = 1e-10  # simplex tolerance for computed flows


def _readonly(a, name: str) -> np.ndarray:
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged nesting or a non-numeric entry
        raise ConfigurationError(f"{name} must be a rectangular array of numbers: {exc}") from None
    arr.setflags(write=False)
    return arr


def _check_unit_interval(x: float, name: str) -> None:
    if not 0.0 <= x <= 1.0:
        raise ConfigurationError(f"{name} = {x} outside [0, 1]")


def _check_state_index(omega, num_states: int) -> None:
    """A state index must be an integer in [0, num_states): numpy would wrap a negative one."""
    if not isinstance(omega, (int, np.integer)) or not 0 <= omega < num_states:
        raise ConfigurationError(f"state index {omega} outside [0, {num_states})")


def _link_vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as a read-only float copy, checked to be finite with one entry per link."""
    v = _readonly(v, name)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ConfigurationError(f"{name} must be a finite vector of {n} entries")
    return v


@dataclass(frozen=True)
class LatencyModel:
    """Per-state polynomial link latencies.

    ``coeffs[d, w, i]`` multiplies ``flow**d`` on link i in state w.  The
    constant and linear coefficients must be nonnegative.  When
    ``require_strict_increase`` is set, every (state, link) pair must have a
    positive coefficient of degree >= 1; the best-response map is only unique
    under that condition, and flow-based recovery of the disobedience fraction
    relies on it too.
    """

    states: tuple[str, ...]
    coeffs: np.ndarray
    require_strict_increase: bool = False

    def __post_init__(self) -> None:
        coeffs = _readonly(self.coeffs, "latency coefficients")
        if coeffs.ndim != 3:
            raise ConfigurationError(
                f"latency coefficients must be a (degree+1, states, links) tensor, got shape {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        dplus1, s, n = coeffs.shape
        if n < 2:
            raise ConfigurationError(f"need at least 2 links, got {n}")
        if s < 1 or dplus1 < 1:
            raise ConfigurationError("need at least one state and degree >= 0")
        if len(self.states) != s:
            raise ConfigurationError(
                f"{len(self.states)} state labels for {s} coefficient rows")
        if len(set(self.states)) != s:
            raise ConfigurationError("state labels must be distinct")
        if not np.all(np.isfinite(coeffs)):
            raise ConfigurationError("latency coefficients must be finite")
        if np.any(coeffs[0] < 0):
            raise ConfigurationError("constant latency coefficients must be nonnegative")
        if dplus1 >= 2 and np.any(coeffs[1] < 0):
            raise ConfigurationError("linear latency coefficients must be nonnegative")
        if self.require_strict_increase and not self.is_strictly_increasing:
            raise ConfigurationError(
                "strict-increase requested but some (state, link) has no positive coefficient of degree >= 1")

    @property
    def n(self) -> int:
        return self.coeffs.shape[2]

    @property
    def num_states(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def is_strictly_increasing(self) -> bool:
        if self.degree == 0:
            return False
        return bool(np.all(np.any(self.coeffs[1:] > 0, axis=0)))


@dataclass(frozen=True)
class Prior:
    """Distribution over network states; must have full support."""

    mu0: np.ndarray

    def __post_init__(self) -> None:
        mu0 = _readonly(self.mu0, "prior")
        object.__setattr__(self, "mu0", mu0)
        if mu0.ndim != 1 or mu0.size < 1:
            raise ConfigurationError("prior must be a nonempty vector")
        if np.any(mu0 <= 0):
            raise ConfigurationError("prior must be strictly positive on every state")
        total = float(mu0.sum())
        if abs(total - 1.0) > INPUT_TOL:
            raise ConfigurationError(f"prior sums to {float(total)!r}, expected 1")


@dataclass(frozen=True)
class Signal:
    """State-conditional route recommendations.

    Row w is the recommended link allocation for state w and carries the whole
    participating mass: each row sums to ``nu``.  ``nu`` may be 0 (all rows
    zero) or 1.
    """

    pi: np.ndarray
    nu: float

    def __post_init__(self) -> None:
        pi = _readonly(self.pi, "signal")
        object.__setattr__(self, "pi", pi)
        _check_unit_interval(self.nu, "participation fraction nu")
        if pi.ndim != 2:
            raise ConfigurationError(f"signal must be a (states, links) matrix, got shape {pi.shape}")
        if not np.all(np.isfinite(pi)) or np.any(pi < 0):
            raise ConfigurationError("signal entries must be finite and nonnegative")
        sums = pi.sum(axis=1)
        bad = np.nonzero(np.abs(sums - self.nu) > INPUT_TOL)[0]
        if bad.size:
            w = int(bad[0])
            raise SignalRowError(w, float(sums[w]), self.nu)

    def with_mass(self, target: float) -> "Signal":
        """Proportionally rescale every row to the given mass."""
        _check_unit_interval(target, "target mass")
        pi = _rescaled(self.pi, self.nu, target)
        return self if pi is self.pi else Signal(pi=pi, nu=target)


def _rescaled(pi: np.ndarray, nu: float, target: float) -> np.ndarray:
    """Rows of mass nu proportionally rescaled to mass target; ``pi`` itself if unchanged."""
    if target == nu:
        return pi
    if nu == 0.0:
        raise ConfigurationError("cannot rescale a zero-mass signal to positive mass")
    return pi * (target / nu)


@dataclass(frozen=True)
class DisobedienceMatrix:
    """Row-stochastic routing of deviating agents; zero diagonal."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _readonly(self.matrix, "disobedience matrix")
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"disobedience matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ConfigurationError("disobedience matrix entries must be finite and nonnegative")
        if np.any(np.diag(m) != 0):
            raise ConfigurationError("disobedience matrix must have a zero diagonal")
        sums = m.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > INPUT_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise ConfigurationError(f"disobedience matrix row {i} sums to {float(sums[i])!r}, expected 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def default(cls, n: int) -> "DisobedienceMatrix":
        """Swap matrix for two links (the only valid instance), uniform off-diagonal otherwise."""
        if n < 2:
            raise ConfigurationError(f"need at least 2 links, got {n}")
        if n == 2:
            return cls(np.array([[0.0, 1.0], [1.0, 0.0]]))
        m = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(m, 0.0)
        return cls(m)


@dataclass(frozen=True)
class Scenario:
    """Which regret-aggregation / participation variant to run."""

    kind: str
    discount: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("baseline", "discounted", "dynamic_nu"):
            raise ConfigurationError(f"unknown scenario {self.kind!r}")
        if self.kind == "discounted":
            if self.discount is None or not 0.0 < self.discount < 1.0:
                raise ConfigurationError(
                    f"discounted scenario needs a discount factor in (0, 1), got {self.discount}")
        elif self.discount is not None:
            raise ConfigurationError(f"scenario {self.kind!r} takes no discount factor")

    @classmethod
    def baseline(cls) -> "Scenario":
        return cls(kind="baseline")

    @classmethod
    def discounted(cls, discount: float) -> "Scenario":
        return cls(kind="discounted", discount=discount)

    @classmethod
    def dynamic_nu(cls) -> "Scenario":
        return cls(kind="dynamic_nu")


@dataclass(frozen=True)
class GameConfig:
    """Validated bundle of everything a simulation run needs.

    ``m_max`` defaults to :func:`m_max_default` of the latency model, the
    smallest normalizer guaranteed to keep the disobedience fraction in
    [0, 1]; smaller values are rejected unless ``allow_small_m_max`` is set,
    in which case a warning is logged.
    """

    latency: LatencyModel
    prior: Prior
    signal: Signal
    disobedience: DisobedienceMatrix
    m_max: float | None = None
    m_init: float = 0.0
    theta_hat_init: float = 0.0
    beta_min: float = 0.3
    beta_max: float = 0.7
    scenario: Scenario = field(default_factory=Scenario.baseline)
    estimator: SmoothingSpec | LuenbergerSpec = field(default_factory=SmoothingSpec)
    solver_tol: float = 1e-8
    rounds: int = 5000
    seed: int = 0
    allow_small_m_max: bool = False

    def __post_init__(self) -> None:
        lat = self.latency
        if self.prior.mu0.size != lat.num_states:
            raise ConfigurationError(
                f"prior has {self.prior.mu0.size} entries for {lat.num_states} states")
        if self.signal.pi.shape != (lat.num_states, lat.n):
            raise ConfigurationError(
                f"signal shape {self.signal.pi.shape} does not match ({lat.num_states}, {lat.n})")
        if self.disobedience.n != lat.n:
            raise ConfigurationError(
                f"disobedience matrix is {self.disobedience.n}x{self.disobedience.n} for {lat.n} links")
        if self.scenario.kind == "dynamic_nu" and self.signal.nu == 0.0:
            raise ConfigurationError(
                "the dynamic_nu scenario needs nu > 0: it rescales the signal to each round's "
                "disobedience fraction, and a signal of nu = 0 has no mass to rescale")
        default_cap = m_max_default(lat)
        m_max = default_cap if self.m_max is None else float(self.m_max)
        if not 0.0 < m_max < math.inf:  # NaN fails too
            raise ConfigurationError(f"m_max must be finite and positive, got {m_max}")
        if m_max < default_cap - INPUT_TOL:
            if not self.allow_small_m_max:
                raise ConfigurationError(
                    f"m_max={m_max} below the safe default {default_cap}; "
                    "set allow_small_m_max to override")
            logger.warning("m_max=%s below the safe default %s; disobedience fraction may clip",
                           m_max, default_cap)
        object.__setattr__(self, "m_max", m_max)
        if not -m_max <= self.m_init <= m_max:
            raise ConfigurationError(f"m_init={self.m_init} outside [-{m_max}, {m_max}]")
        _check_unit_interval(self.theta_hat_init, "theta_hat_init")
        if not 0.0 < self.beta_min <= self.beta_max < 1.0:
            raise ConfigurationError(
                f"need 0 < beta_min <= beta_max < 1, got ({self.beta_min}, {self.beta_max})")
        if isinstance(self.estimator, SmoothingSpec):
            schedule = self.estimator.schedule
            schedule.check_bounds(self.beta_min, self.beta_max)
            if schedule.values is not None and len(schedule.values) < self.rounds:
                raise ConfigurationError(
                    f"beta schedule has {len(schedule.values)} entries; "
                    f"{self.rounds} rounds need at least {self.rounds}")
        elif isinstance(self.estimator, LuenbergerSpec):
            if len(self.estimator.gain) != lat.n:
                raise ConfigurationError(
                    f"observer gain has {len(self.estimator.gain)} entries for {lat.n} links")
            if any(g != 0.0 for g in self.estimator.gain):
                logger.warning("nonzero observer gain: stability unanalyzed")
        else:
            raise ConfigurationError(f"unknown estimator spec {type(self.estimator).__name__}")
        if not 0.0 < self.solver_tol < math.inf:  # NaN fails too
            raise ConfigurationError(f"solver_tol must be finite and positive, got {self.solver_tol}")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an integer, got {type(self.seed).__name__}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


def poly_rows(coeffs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Evaluate, per link i, the polynomial with coefficients ``coeffs[:, i]`` at ``f[i]``.

    Horner's rule from the top coefficient down; the kernel behind latencies
    and the best response's gradient.  Its first multiply makes the result a
    new array, so only a constant polynomial needs a copy.
    """
    out = coeffs[-1]
    for d in range(coeffs.shape[0] - 2, -1, -1):
        out = out * f + coeffs[d]
    return out if coeffs.shape[0] > 1 else np.array(out)


def eval_latency(model: LatencyModel, omega: int, f: np.ndarray) -> np.ndarray:
    """Per-link latencies in state ``omega`` at the given link flows."""
    _check_state_index(omega, model.num_states)
    f = np.asarray(f, dtype=float)
    if f.shape != (model.n,):
        raise ConfigurationError(f"flow vector shape {f.shape} does not match {model.n} links")
    if not np.all(np.isfinite(f)) or np.any(f < 0):
        raise ConfigurationError("flows must be finite and nonnegative")
    return poly_rows(model.coeffs[:, omega, :], f)


def m_max_default(model: LatencyModel) -> float:
    """Safe regret normalizer: per-link, per-degree worst-state coefficients, summed.

    Bounds the aggregate payoff difference for any flows of total mass <= 1.
    """
    return float(model.coeffs.max(axis=1).sum())


def rerouting_shift(matrix: np.ndarray, pi_w: np.ndarray) -> np.ndarray:
    """Change of the participating flows per unit of disobedience: D^T pi_w - pi_w."""
    return matrix.T @ pi_w - pi_w


def flows(pi: np.ndarray, shift: np.ndarray, theta: float) -> np.ndarray:
    """Participating flows when a fraction theta deviates; rows or single states alike."""
    return pi + theta * shift


def p_flows(signal: Signal, disobedience: DisobedienceMatrix, theta: float,
            omega: int) -> np.ndarray:
    """Link flows induced by participating agents when a fraction theta deviates.

    The obedient share follows the recommendation row; the deviating share is
    rerouted through the disobedience matrix.  The result stays on the simplex
    of mass ``signal.nu``.  At a forecast theta_hat the same map gives the
    forecast flows.
    """
    _check_unit_interval(theta, "theta")
    _check_state_index(omega, signal.pi.shape[0])
    pi_w = signal.pi[omega]
    if signal.pi.shape[1] != disobedience.n:
        raise ConfigurationError(
            f"signal has {signal.pi.shape[1]} links, disobedience matrix {disobedience.n}")
    return flows(pi_w, rerouting_shift(disobedience.matrix, pi_w), theta)


@dataclass(frozen=True, eq=False, slots=True)
class CompiledGame:
    """Constants of the round loop, derived once from a validated :class:`GameConfig`.

    Every array is computed with the expression the validated public functions
    use, so the kernels that read it reproduce them bit for bit.
    ``response_const`` holds the d = p terms of the best response's binomial
    expansion, the only ones that do not depend on the forecast flows.
    """

    nu: float
    mass: float                         # non-participating mass 1 - nu
    m_max: float
    solver_tol: float
    coeffs: np.ndarray                  # latency coefficients (degree + 1, states, links)
    mu0: np.ndarray
    cum_prior: tuple[float, ...]        # cumulative prior, for inverse-CDF state draws
    pi: np.ndarray                      # (states, links) recommendation rows
    shift: np.ndarray                   # row w: rerouting_shift(D, pi[w])
    rerouting: np.ndarray               # disobedience matrix D
    response_const: np.ndarray          # (degree + 1, links)
    discount: float | None              # set for the discounted scenario only
    dynamic_nu: bool
    schedule: BetaSchedule | None       # smoothing estimator only
    gain: np.ndarray | None             # observer estimator only

    @classmethod
    def of(cls, config: GameConfig) -> "CompiledGame":
        coeffs, mu0, pi = config.latency.coeffs, config.prior.mu0, config.signal.pi
        const = np.zeros((coeffs.shape[0], coeffs.shape[2]))
        for p in range(coeffs.shape[0]):
            const[p] += mu0 @ coeffs[p]
        est = config.estimator
        return cls(
            nu=config.signal.nu,
            mass=1.0 - config.signal.nu,
            m_max=config.m_max,
            solver_tol=config.solver_tol,
            coeffs=coeffs,
            mu0=mu0,
            cum_prior=tuple(np.cumsum(mu0).tolist()),
            pi=pi,
            shift=np.stack([rerouting_shift(config.disobedience.matrix, row) for row in pi]),
            rerouting=config.disobedience.matrix,
            response_const=const,
            discount=config.scenario.discount,
            dynamic_nu=config.scenario.kind == "dynamic_nu",
            schedule=est.schedule if isinstance(est, SmoothingSpec) else None,
            gain=np.asarray(est.gain, dtype=float) if isinstance(est, LuenbergerSpec) else None,
        )

    def signal_at(self, nu_current: float) -> tuple[np.ndarray, np.ndarray]:
        """Recommendation rows and their shifts, proportionally rescaled to mass ``nu_current``.

        At the compiled mass these are the compiled arrays.  Otherwise each
        shift row is :func:`rerouting_shift` of its rescaled row, written into
        one preallocated array.
        """
        pi = _rescaled(self.pi, self.nu, nu_current)
        if pi is self.pi:
            return self.pi, self.shift
        shift = np.empty_like(pi)
        for w, row in enumerate(pi):
            shift[w] = rerouting_shift(self.rerouting, row)
        return pi, shift

    def row_at(self, w: int, nu_current: float) -> tuple[np.ndarray, np.ndarray]:
        """Row ``w`` of :meth:`signal_at` and its shift, with the same bits, computed alone.

        Scaling one row by a scalar gives the bits of that row of the scaled
        matrix, and its shift is the same 1-D product, so a round that reads
        one state's row need not rescale the others.
        """
        if nu_current == self.nu:
            return self.pi[w], self.shift[w]
        row = _rescaled(self.pi[w], self.nu, nu_current)
        return row, rerouting_shift(self.rerouting, row)
