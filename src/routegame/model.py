"""Domain types, validation, latency evaluation, and the two exact flow maps.

Conventions: a model with n parallel links and s network states stores
polynomial latency coefficients in a dense ``(degree + 1, s, n)`` tensor.  A
recommendation signal stores one row per state; each row lives on the simplex
of mass ``nu`` (the participating fraction), so flows derived from it are used
directly, without an extra ``nu`` prefactor.  All types are immutable after
validation and all operations here are pure.

Inputs are validated once, where they enter: the domain types and
:class:`GameConfig` check themselves on construction, calling the ufuncs'
methods directly rather than numpy's Python wrappers, since generated
instances are built in bulk.  The round loop runs on
a :class:`CompiledGame`, the config's constants derived once per run, through
the kernels here (:func:`flows`, :func:`poly_rows`, :func:`rerouting_shift`),
which check nothing; the run carries it in its state, so a config holds no
cached copy.
"""

from __future__ import annotations

import logging
import math
import sys
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


def _finite_nonnegative_max(a: np.ndarray) -> float | None:
    """The largest entry of ``a`` (0.0 if empty) if every entry is finite and >= 0, else None.

    Two reductions and no temporaries.  ``np.minimum`` and ``np.maximum``
    propagate NaN, which fails both comparisons; ``initial=0.0`` lets an
    empty array pass, as ``np.all`` does.
    """
    top = np.maximum.reduce(a, axis=None, initial=0.0)
    if 0.0 <= np.minimum.reduce(a, axis=None, initial=0.0) and top < math.inf:
        return top
    return None


def _row_sums(a: np.ndarray, top: float) -> np.ndarray:
    """Sums along the last axis of ``a``, whose entries are >= 0 and at most ``top``.

    A row that sums to a mass of at most 1, within ``INPUT_TOL``, has no
    entry above 2, and entries of at most 2 cannot overflow a sum.  Any other
    ``a`` fails its sum check whatever its sums are; they are then taken with
    overflow to inf allowed, so that the check raises its own error, not
    numpy's overflow warning.
    """
    if top <= 2.0:
        return np.add.reduce(a, axis=-1)
    with np.errstate(over="ignore"):
        return np.add.reduce(a, axis=-1)


def _check_unit_interval(x: float, name: str) -> None:
    if not 0.0 <= x <= 1.0:
        raise ConfigurationError(f"{name} = {x} outside [0, 1]")


def _link_vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as a read-only float copy, checked to be finite with one entry per link."""
    v = _readonly(v, name)
    if v.shape != (n,) or not np.logical_and.reduce(np.isfinite(v)):
        raise ConfigurationError(f"{name} must be a finite vector of {n} entries")
    return v


@dataclass(frozen=True)
class LatencyModel:
    """Per-state polynomial link latencies.

    ``coeffs[d, w, i]`` multiplies ``flow**d`` on link i in state w.  The
    constant and linear coefficients must be nonnegative.  When
    ``require_strict_increase`` is set, every (state, link) pair must have a
    positive coefficient of degree >= 1; the best-response map is only unique
    under that condition.
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
        if not np.logical_and.reduce(np.isfinite(coeffs), axis=None):
            raise ConfigurationError("latency coefficients must be finite")
        if np.logical_or.reduce(coeffs[0] < 0, axis=None):
            raise ConfigurationError("constant latency coefficients must be nonnegative")
        if dplus1 >= 2 and np.logical_or.reduce(coeffs[1] < 0, axis=None):
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
        positive = np.logical_or.reduce(self.coeffs[1:] > 0, axis=0)
        return bool(np.logical_and.reduce(positive, axis=None))


@dataclass(frozen=True)
class Prior:
    """Distribution over network states; must have full support."""

    mu0: np.ndarray

    def __post_init__(self) -> None:
        mu0 = _readonly(self.mu0, "prior")
        object.__setattr__(self, "mu0", mu0)
        if mu0.ndim != 1 or mu0.size < 1:
            raise ConfigurationError("prior must be a nonempty vector")
        if not 0.0 < np.minimum.reduce(mu0):  # NaN fails too; an infinite entry fails the sum
            raise ConfigurationError("prior must be finite and strictly positive on every state")
        total = float(_row_sums(mu0, np.maximum.reduce(mu0)))
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
        top = _finite_nonnegative_max(pi)
        if top is None:
            raise ConfigurationError("signal entries must be finite and nonnegative")
        sums = _row_sums(pi, top)
        bad = (np.abs(sums - self.nu) > INPUT_TOL).nonzero()[0]
        if bad.size:
            w = int(bad[0])
            raise SignalRowError(w, float(sums[w]), self.nu)


def _rescaled(pi: np.ndarray, nu: float, target: float) -> np.ndarray:
    """Rows of mass nu proportionally rescaled to mass target; ``pi`` itself if unchanged.

    Only dynamic nu rescales, and :class:`GameConfig` rejects it at nu = 0.
    """
    return pi if target == nu else pi * (target / nu)


@dataclass(frozen=True)
class DisobedienceMatrix:
    """Row-stochastic routing of deviating agents; zero diagonal."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _readonly(self.matrix, "disobedience matrix")
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"disobedience matrix must be square, got shape {m.shape}")
        top = _finite_nonnegative_max(m)
        if top is None:
            raise ConfigurationError("disobedience matrix entries must be finite and nonnegative")
        if np.logical_or.reduce(m.diagonal() != 0):
            raise ConfigurationError("disobedience matrix must have a zero diagonal")
        sums = _row_sums(m, top)
        bad = (np.abs(sums - 1.0) > INPUT_TOL).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            raise ConfigurationError(f"disobedience matrix row {i} sums to {float(sums[i])!r}, expected 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def default(cls, n: int) -> "DisobedienceMatrix":
        """Uniform off-diagonal rows; for two links the swap matrix, the only valid instance."""
        if n < 2:
            raise ConfigurationError(f"need at least 2 links, got {n}")
        m = np.empty((n, n))
        m.fill(1.0 / (n - 1))
        m.flat[::n + 1] = 0.0  # the diagonal
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
        for name in ("rounds", "seed"):  # a bool is an int, but not a count or a seed
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        # Round k <= rounds folds the regret as (k m + u) / (k + 1).  After the
        # clamp |m| <= m_max, and on a static-nu network |u| <= m_max_default,
        # since every flow is at most 1.  So |k m + u| <= (rounds + 1) * bound
        # with bound = max(m_max, m_max_default), and no step overflows when
        # that product is finite; a NaN default fails the check.  Under
        # dynamic_nu the flows can exceed 1, so |u| can exceed m_max_default,
        # and a run that overflows there still raises its typed error.
        bound = m_max if default_cap <= m_max else default_cap
        if not self.rounds + 1 <= sys.float_info.max / bound:
            raise ConfigurationError(
                f"rounds={self.rounds} and m_max={m_max} can overflow the running-average "
                f"regret: (rounds + 1) * max(m_max, {default_cap}) must be finite")
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
            if not all(math.isfinite(g) for g in self.estimator.gain):
                raise ConfigurationError(f"observer gain must be finite, got {self.estimator.gain}")
            if any(g != 0.0 for g in self.estimator.gain):
                logger.warning("nonzero observer gain: stability unanalyzed")
        else:
            raise ConfigurationError(f"unknown estimator spec {type(self.estimator).__name__}")
        if not 0.0 < self.solver_tol < math.inf:  # NaN fails too
            raise ConfigurationError(f"solver_tol must be finite and positive, got {self.solver_tol}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


def poly_rows(coeffs, f: np.ndarray) -> np.ndarray:
    """Evaluate, per link i, the polynomial with coefficients ``coeffs[:, i]`` at ``f[i]``.

    Horner's rule from the top coefficient down; the kernel behind latencies
    and the best response's gradient.  The first multiply makes the result a
    new array and every later add and multiply writes into it, in the same
    order as ``out = out * f + coeffs[d]``, so the bits are those of the
    out-of-place rule with one allocation.  Only a constant polynomial needs
    a copy.  ``coeffs`` is an array or any sequence of its rows; the solver
    passes the list of rows that :func:`~routegame.equilibrium.response_coeffs`
    builds, so no iteration indexes an array.
    """
    if len(coeffs) == 1:
        return np.array(coeffs[0])
    out = coeffs[-1] * f
    for d in range(len(coeffs) - 2, 0, -1):
        out += coeffs[d]
        out *= f
    out += coeffs[0]
    return out


def m_max_default(model: LatencyModel) -> float:
    """Safe regret normalizer: per-link, per-degree worst-state coefficients, summed.

    Bounds the aggregate payoff difference for any flows of total mass <= 1.
    Coefficients too large for a finite sum give inf or nan, which
    :class:`GameConfig` rejects, without numpy's overflow warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.add.reduce(np.maximum.reduce(model.coeffs, axis=1), axis=None))


def rerouting_shift(matrix: np.ndarray, pi_w: np.ndarray) -> np.ndarray:
    """Change of the participating flows per unit of disobedience: D^T pi_w - pi_w."""
    return matrix.T @ pi_w - pi_w


def flows(pi: np.ndarray, shift: np.ndarray, theta: float) -> np.ndarray:
    """Participating flows when a fraction theta deviates; rows or single states alike."""
    return pi + theta * shift


def _shifts(matrix: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """:func:`rerouting_shift` of each recommendation row, written into one array."""
    out = np.empty_like(pi)
    for w, row in enumerate(pi):
        out[w] = rerouting_shift(matrix, row)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class CompiledGame:
    """Constants of the round loop, derived once from a validated :class:`GameConfig`.

    Each shift row is :func:`rerouting_shift` of its recommendation row, the
    expression :func:`expected_latency` evaluates per state, so the round's
    flows have its bits.
    ``response_const`` holds the d = p terms of the best response's binomial
    expansion, the only ones that do not depend on the forecast flows.
    ``step_rank`` and ``step_mass_powers`` are the columns p and
    ``mass ** (p - 1)``, p = 1 .. degree, of the solver's Lipschitz bound.
    """

    nu: float
    mass: float                         # non-participating mass 1 - nu
    m_max: float
    solver_tol: float
    coeffs: np.ndarray                  # latency coefficients (degree + 1, states, links)
    mu0: np.ndarray
    pi: np.ndarray                      # (states, links) recommendation rows
    shift: np.ndarray                   # row w: rerouting_shift(D, pi[w])
    rerouting: np.ndarray               # disobedience matrix D
    response_const: np.ndarray          # (degree + 1, links), read-only
    zero_response: np.ndarray           # (links,) read-only zeros, the response of zero mass
    step_rank: np.ndarray               # (degree, 1) column 1.0 .. degree
    step_mass_powers: np.ndarray        # (degree, 1) column mass ** (step_rank - 1)
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
        const.setflags(write=False)  # its top row is a response row, shared by every solve
        zero = np.zeros(coeffs.shape[2])
        zero.setflags(write=False)  # returned by every solve of zero mass
        mass = 1.0 - config.signal.nu
        rank = np.arange(1, coeffs.shape[0], dtype=float)[:, None]
        est = config.estimator
        return cls(
            nu=config.signal.nu,
            mass=mass,
            m_max=config.m_max,
            solver_tol=config.solver_tol,
            coeffs=coeffs,
            mu0=mu0,
            pi=pi,
            shift=_shifts(config.disobedience.matrix, pi),
            rerouting=config.disobedience.matrix,
            response_const=const,
            zero_response=zero,
            step_rank=rank,
            step_mass_powers=mass ** (rank - 1.0),
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
        return pi, _shifts(self.rerouting, pi)

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
