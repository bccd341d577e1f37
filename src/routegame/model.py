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

from .errors import _NUMBERS, ConfigurationError, SignalRowError, _integer, _real
from .estimators import LuenbergerSpec, SmoothingSpec

logger = logging.getLogger(__name__)

INPUT_TOL = 1e-12   # simplex tolerance for validated inputs
OUTPUT_TOL = 1e-10  # simplex tolerance for computed flows


_BOOLS = frozenset((bool, np.bool_))
_STRINGS = frozenset((str, bytes, np.str_, np.bytes_))
_NESTED = (list, tuple, np.ndarray)


def _non_number(value):
    """``bool`` or ``str`` if ``value`` or an entry of it at any depth is one, else None.

    Each list's element types are gathered in one pass in C and serve both
    tests, so the walk makes a Python call per nested sequence, not per
    entry; an array is read by its dtype.
    """
    if isinstance(value, np.ndarray):
        kind = value.dtype.kind
        if kind == "O":
            return _non_number(value.tolist())
        return bool if kind == "b" else str if kind in "SU" else None
    if not isinstance(value, (list, tuple)):
        return (bool if isinstance(value, (bool, np.bool_)) else
                str if isinstance(value, (str, bytes)) else None)
    kinds = set(map(type, value))
    if not kinds.isdisjoint(_BOOLS):
        return bool
    if not kinds.isdisjoint(_STRINGS):
        return str
    if kinds.isdisjoint(_NESTED):
        return None
    return next(filter(None, map(_non_number, value)), None)


def _readonly(a, name: str) -> np.ndarray:
    """``a`` as a read-only float array.

    A boolean entry is not a number here, though numpy would read it as 1.0
    or 0.0, nor is a string, though numpy would read one that spells a
    number as that number: a scalar argument is not read from a string
    either (``errors._real``).  A list that holds itself, as a YAML alias
    can make one, is not an array: its walk runs out of recursion depth.
    """
    try:
        stray = _non_number(a)
        arr = None if stray else np.array(a, dtype=float)
    except (TypeError, ValueError, RecursionError) as exc:  # ragged nesting or a non-number
        raise ConfigurationError(f"{name} must be a rectangular array of numbers: {exc}") from None
    if stray is bool:
        raise ConfigurationError(f"{name} must hold numbers, got a boolean")
    if stray is str:
        raise ConfigurationError(f"{name} must be a rectangular array of numbers, got a string")
    arr.setflags(write=False)
    return arr


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


def _check_rows(a: np.ndarray, mass: float, name: str, row_error) -> None:
    """Check that ``a``'s entries are finite and nonnegative and each row sums to ``mass``.

    A sum within ``INPUT_TOL`` of ``mass`` passes; the first row that fails
    raises ``row_error(row, total)``.  ``np.minimum`` and ``np.maximum``
    propagate NaN, which fails both entry comparisons; ``initial=0.0`` lets
    an empty array pass, as ``np.all`` does.
    """
    top = np.maximum.reduce(a, axis=None, initial=0.0)
    if not (0.0 <= np.minimum.reduce(a, axis=None, initial=0.0) and top < math.inf):
        raise ConfigurationError(f"{name} entries must be finite and nonnegative")
    sums = _row_sums(a, top)
    bad = (np.abs(sums - mass) > INPUT_TOL).nonzero()[0]
    if bad.size:
        raise row_error(int(bad[0]), float(sums[bad[0]]))


def _unit_interval(x, name: str) -> float:
    """``x`` as a float, checked to lie in [0, 1]."""
    x = _real(x, name)
    if not 0.0 <= x <= 1.0:  # NaN fails too
        raise ConfigurationError(f"{name} = {x} outside [0, 1]")
    return x


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
    constant and linear coefficients must be nonnegative, and every (state,
    link) pair must have a positive coefficient of degree >= 1, so the degree
    is at least 1: the best-response map is only unique when every latency
    strictly increases.
    """

    states: tuple[str, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _readonly(self.coeffs, "latency coefficients")
        if coeffs.ndim != 3:
            raise ConfigurationError(
                f"latency coefficients must be a (degree+1, states, links) tensor, got shape {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)
        if not isinstance(self.states, (list, tuple, np.ndarray)):
            raise ConfigurationError(f"states must be a list of labels, got {self.states!r}")
        for label in self.states:  # str() would make a label of a null or a list too
            if isinstance(label, bool) or not isinstance(label, (str, *_NUMBERS)):
                raise ConfigurationError(f"states entries must be strings or numbers, got {label!r}")
        object.__setattr__(self, "states", tuple(map(str, self.states)))
        dplus1, s, n = coeffs.shape
        if n < 2:
            raise ConfigurationError(f"need at least 2 links, got {n}")
        if s < 1 or dplus1 < 2:
            raise ConfigurationError(
                f"need at least one state and degree >= 1, got shape {coeffs.shape}")
        if len(self.states) != s:
            raise ConfigurationError(
                f"{len(self.states)} state labels for {s} coefficient rows")
        if len(set(self.states)) != s:
            raise ConfigurationError("state labels must be distinct")
        if not np.logical_and.reduce(np.isfinite(coeffs), axis=None):
            raise ConfigurationError("latency coefficients must be finite")
        if np.logical_or.reduce(coeffs[0] < 0, axis=None):
            raise ConfigurationError("constant latency coefficients must be nonnegative")
        lowest_linear = np.minimum.reduce(coeffs[1], axis=None)
        if lowest_linear < 0.0:
            raise ConfigurationError("linear latency coefficients must be nonnegative")
        # a positive linear row settles the rule without the maximum over degrees
        if not (lowest_linear > 0.0
                or np.minimum.reduce(np.maximum.reduce(coeffs[1:], axis=0), axis=None) > 0.0):
            raise ConfigurationError(
                "latencies must strictly increase: some (state, link) has no positive "
                "coefficient of degree >= 1")

    @property
    def n(self) -> int:
        return self.coeffs.shape[2]

    @property
    def num_states(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1


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
        object.__setattr__(self, "nu", _unit_interval(self.nu, "participation fraction nu"))
        if pi.ndim != 2:
            raise ConfigurationError(f"signal must be a (states, links) matrix, got shape {pi.shape}")
        _check_rows(pi, self.nu, "signal", lambda w, total: SignalRowError(w, total, self.nu))


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
        # checked by its largest entry; a NaN or infinite one is left to the entry check
        if 0.0 < np.maximum.reduce(m.diagonal(), initial=0.0) < math.inf:
            raise ConfigurationError("disobedience matrix must have a zero diagonal")
        _check_rows(m, 1.0, "disobedience matrix", lambda i, total: ConfigurationError(
            f"disobedience matrix row {i} sums to {total!r}, expected 1"))

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
            discount = _real(self.discount, "scenario discount")
            if not 0.0 < discount < 1.0:
                raise ConfigurationError(
                    f"discounted scenario needs a discount factor in (0, 1), got {discount}")
            object.__setattr__(self, "discount", discount)
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
    [0, 1]; a value more than ``INPUT_TOL`` below it is rejected.  The
    estimator spec checks its own values; the config adds only the rules
    that need another field: a ``beta`` list covers ``rounds``, and an
    observer gain has one entry per link.
    """

    latency: LatencyModel
    prior: Prior
    signal: Signal
    disobedience: DisobedienceMatrix
    m_max: float | None = None
    m_init: float = 0.0
    theta_hat_init: float = 0.0
    scenario: Scenario = field(default_factory=Scenario.baseline)
    estimator: SmoothingSpec | LuenbergerSpec = field(default_factory=SmoothingSpec)
    solver_tol: float = 1e-8
    rounds: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        # each scalar is stored as a Python float or int, whatever numeric type it came as
        for name in ("m_init", "theta_hat_init", "solver_tol"):
            if type(getattr(self, name)) is not float:
                object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("rounds", "seed"):
            if type(getattr(self, name)) is not int:
                object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        m_max = default_cap if self.m_max is None else _real(self.m_max, "m_max")
        if not 0.0 < m_max < math.inf:  # NaN fails too
            raise ConfigurationError(f"m_max must be finite and positive, got {m_max}")
        if m_max < default_cap - INPUT_TOL:
            raise ConfigurationError(
                f"m_max={m_max} below the safe default {default_cap}: it must bound the regret")
        object.__setattr__(self, "m_max", m_max)
        if not -m_max <= self.m_init <= m_max:  # NaN fails too
            raise ConfigurationError(f"m_init={self.m_init} outside [-{m_max}, {m_max}]")
        _unit_interval(self.theta_hat_init, "theta_hat_init")
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
        if isinstance(self.estimator, SmoothingSpec):  # the spec checked its own weights
            beta = self.estimator.beta
            if isinstance(beta, tuple) and len(beta) < self.rounds:
                raise ConfigurationError(
                    f"beta schedule has {len(beta)} entries; "
                    f"{self.rounds} rounds need at least {self.rounds}")
        elif isinstance(self.estimator, LuenbergerSpec):
            if len(self.estimator.gain) != lat.n:
                raise ConfigurationError(
                    f"observer gain has {len(self.estimator.gain)} entries for {lat.n} links")
            if any(g != 0.0 for g in self.estimator.gain):
                logger.warning("nonzero observer gain: stability unanalyzed")
        else:
            raise ConfigurationError(f"unknown estimator spec {type(self.estimator).__name__}")
        if not 0.0 < self.solver_tol < math.inf:
            raise ConfigurationError(f"solver_tol must be finite and positive, got {self.solver_tol}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


def poly_rows(coeffs, f: np.ndarray) -> np.ndarray:
    """Evaluate, per link i, the polynomial with coefficients ``coeffs[:, i]`` at ``f[i]``.

    Horner's rule from the top coefficient down; the kernel behind latencies
    and the best response's gradient.  The first multiply makes the result a
    new array and every later add and multiply writes into it, in the same
    order as ``out = out * f + coeffs[d]``, so the bits are those of the
    out-of-place rule with one allocation.  ``coeffs`` is an array or any
    sequence of its rows, at least two of them, as every validated
    :class:`LatencyModel` has degree >= 1; the solver passes the list of rows
    that :func:`~routegame.equilibrium.response_coeffs` builds, so no
    iteration indexes an array.
    """
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
    return matrix.T.dot(pi_w) - pi_w


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
    ``latency_rows`` holds each state's latency coefficients as a tuple of
    row views, the form :func:`poly_rows` indexes cheapest, so a round
    evaluates its state's latencies without slicing the tensor.
    ``step_rank`` and ``step_mass_powers`` are the columns p and
    ``mass ** (p - 1)``, p = 1 .. degree, of the solver's Lipschitz bound.
    """

    nu: float
    mass: float                         # non-participating mass 1 - nu
    m_max: float
    solver_tol: float
    coeffs: np.ndarray                  # latency coefficients (degree + 1, states, links)
    latency_rows: tuple[tuple[np.ndarray, ...], ...]  # state w: rows coeffs[d, w], d = 0 .. degree
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
    smoothing: SmoothingSpec | None     # smoothing estimator only
    gain: np.ndarray | None             # observer estimator only

    @classmethod
    def of(cls, config: GameConfig) -> "CompiledGame":
        coeffs, mu0, pi = config.latency.coeffs, config.prior.mu0, config.signal.pi
        const = np.zeros((coeffs.shape[0], coeffs.shape[2]))
        for p in range(coeffs.shape[0]):
            const[p] += mu0.dot(coeffs[p])
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
            latency_rows=tuple(tuple(coeffs[:, w]) for w in range(coeffs.shape[1])),
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
            smoothing=est if isinstance(est, SmoothingSpec) else None,
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
