"""Forecast models for the non-participating agents and their proof-derived error bounds.

Two estimators are supported: simple exponential smoothing of the disobedience
fraction, and an observer that mirrors the regret recursion and corrects it with
the gap between observed and predicted latencies.

Each is a recursion on one float, the forecast theta_hat or the regret estimate
m_hat, computed by :func:`smooth` and :func:`observe`; the weight schedule, gain
and round index come from the run.  Neither checks its arguments: the config
they derive from was validated when it was built.  Fed a run's own columns,
the two reproduce its ``theta_hat`` column bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .errors import ConfigurationError, _real


@dataclass(frozen=True)
class BetaSchedule:
    """Smoothing weights beta(t) for t >= 2, either constant or an explicit sequence.

    The weights are stored as floats; :meth:`_at` is the one place that knows
    that ``values[j]`` is beta(j + 2).
    """

    value: float | None = 0.5
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.value is not None and self.values is not None:
            raise ConfigurationError("beta schedule needs exactly one of a constant or a sequence")
        if self.value is not None:
            object.__setattr__(self, "value", _real(self.value, "beta"))
        elif isinstance(self.values, (list, tuple, np.ndarray)):
            object.__setattr__(self, "values",
                               tuple(_real(b, "beta entry") for b in self.values))
        else:  # None too: a schedule needs one of the two
            raise ConfigurationError(f"beta must be a list of numbers, got {self.values!r}")
        for b in (self.values if self.values is not None else (self.value,)):
            if not 0.0 < b < 1.0:
                raise ConfigurationError(f"smoothing weight {b} outside (0, 1)")

    @classmethod
    def constant(cls, beta: float) -> "BetaSchedule":
        return cls(value=_real(beta, "beta"), values=None)  # so None is not the sequence form

    @classmethod
    def from_sequence(cls, seq) -> "BetaSchedule":
        return cls(value=None, values=seq)

    def _at(self, t: int) -> float:
        """Weight used to form the forecast for round t >= 2.

        Unchecked, so internal: its callers, :func:`~routegame.dynamics.step`
        and :func:`envelope_series`, read only rounds 2 .. the length their
        config or entry check has ensured the sequence reaches.
        """
        return self.value if self.values is None else self.values[t - 2]

    def check_bounds(self, beta_min: float) -> None:
        """Each weight lies in (beta_min, 1), the range over which the envelope holds."""
        for b in (self.values if self.values is not None else (self.value,)):
            if b <= beta_min:  # b < 1 holds by construction
                raise ConfigurationError(
                    f"smoothing weight {b} not strictly inside ({beta_min}, 1)")


@dataclass(frozen=True)
class SmoothingSpec:
    """Estimator choice: exponential smoothing with the given weight schedule."""

    schedule: BetaSchedule = BetaSchedule.constant(0.5)


@dataclass(frozen=True)
class LuenbergerSpec:
    """Estimator choice: regret observer with a latency-feedback gain vector.

    Only the zero gain comes with a convergence guarantee; nonzero gains are
    accepted but their stability is unanalyzed.
    """

    gain: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not isinstance(self.gain, (list, tuple, np.ndarray)):
            raise ConfigurationError(f"observer gain must be a list of numbers, got {self.gain!r}")
        gain = tuple(_real(g, "observer gain") for g in self.gain)
        if not all(map(isfinite, gain)):
            raise ConfigurationError(f"observer gain must be finite, got {gain}")
        object.__setattr__(self, "gain", gain)

    @classmethod
    def from_scalar(cls, gain: float, n: int) -> "LuenbergerSpec":
        return cls(gain=(gain,) * n)


def smooth(theta_hat: float, theta_observed: float, beta: float) -> float:
    """Next forecast beta * theta_observed + (1 - beta) * theta_hat, beta round k + 1's weight."""
    return beta * theta_observed + (1.0 - beta) * theta_hat


def observe(m_hat: float, k: int, u: float, gain: np.ndarray, ell: np.ndarray,
            ell_hat: np.ndarray) -> float:
    """Regret estimate after round k: the running average plus gain . (ell - ell_hat).

    The running average ``k/(k+1) m_hat + u/(k+1)`` is the baseline regret
    recursion, and it is folded under every scenario: the observer ignores
    the discounted scenario's ``lambda m + (1 - lambda) u``.  So under
    ``discounted`` its forecast does not track theta even at gain 0.
    """
    return k / (k + 1.0) * m_hat + u / (k + 1.0) + float(gain.dot(ell - ell_hat))


def envelope_series(num_rounds: int, e1: float, beta_min: float,
                    beta_schedule: BetaSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Envelope for k = 1..num_rounds via the exact recursions.

    Row k - 1 holds (lower, upper) for round k; round 1 is seeded at (e1, e1).
    The inputs are checked here, once: an integral ``num_rounds`` >= 1, a
    finite ``e1``, a ``beta_min`` in (0, 1) and a schedule with a weight for
    every round 2..num_rounds.
    """
    if isinstance(num_rounds, bool) or not isinstance(num_rounds, (int, np.integer)):
        raise ConfigurationError(f"num_rounds must be an integer, got {type(num_rounds).__name__}")
    if num_rounds < 1:
        raise ConfigurationError("envelope series needs at least one round")
    if not -inf < _real(e1, "e1") < inf:  # NaN fails too
        raise ConfigurationError(f"e1 must be finite, got {e1}")
    if not 0.0 < _real(beta_min, "beta_min") < 1.0:
        raise ConfigurationError(f"beta_min = {beta_min} outside (0, 1)")
    if beta_schedule.values is not None and len(beta_schedule.values) < num_rounds - 1:
        raise ConfigurationError(f"beta schedule has {len(beta_schedule.values)} entries, "
                                 f"round {num_rounds} requested")
    lower = np.empty(num_rounds)
    upper = np.empty(num_rounds)
    lower[0] = upper[0] = e1
    prod = 1.0
    dt = 0.0
    for k in range(2, num_rounds + 1):
        prod *= 1.0 - beta_schedule._at(k)
        dt = (1.0 - beta_min) * dt + 1.0 / k
        lower[k - 1] = prod * e1 - 2.0 * dt
        upper[k - 1] = prod * e1 + 2.0 * dt
    return lower, upper
