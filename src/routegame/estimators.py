"""Forecast models for the non-participating agents and their proof-derived error bounds.

Two estimators are supported: simple exponential smoothing of the disobedience
fraction, and an observer that mirrors the regret recursion and corrects it with
the gap between observed and predicted latencies.

Each is a recursion on one float, the forecast theta_hat or the regret estimate
m_hat; the weight schedule, gain and round index come from the run.  ``step``
calls the unchecked kernels :func:`smooth` and :func:`observe`; the validating
wrappers :func:`smoothing_update` and :func:`luenberger_update` return the same
floats, so they replay a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class BetaSchedule:
    """Smoothing weights beta(t) for t >= 2, either constant or an explicit sequence.

    ``values[j]`` is beta(j + 2) when a custom sequence is given.
    """

    value: float | None = 0.5
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.values is None):
            raise ConfigurationError("beta schedule needs exactly one of a constant or a sequence")
        for b in (self.values if self.values is not None else (self.value,)):
            if not 0.0 < b < 1.0:
                raise ConfigurationError(f"smoothing weight {b} outside (0, 1)")

    @classmethod
    def constant(cls, beta: float) -> "BetaSchedule":
        return cls(value=beta, values=None)

    @classmethod
    def from_sequence(cls, seq) -> "BetaSchedule":
        return cls(value=None, values=tuple(float(b) for b in seq))

    def at(self, t: int) -> float:
        """Weight used to form the forecast for round t (t >= 2)."""
        if t < 2:
            raise ConfigurationError(f"beta schedule index {t} < 2")
        if self.value is not None:
            return self.value
        if t - 2 >= len(self.values):
            raise ConfigurationError(
                f"beta schedule has {len(self.values)} entries, round {t} requested")
        return self.values[t - 2]

    def check_bounds(self, beta_min: float, beta_max: float) -> None:
        for b in (self.values if self.values is not None else (self.value,)):
            if not beta_min < b < beta_max:
                raise ConfigurationError(
                    f"smoothing weight {b} not strictly inside ({beta_min}, {beta_max})")


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

    @classmethod
    def from_scalar(cls, gain: float, n: int) -> "LuenbergerSpec":
        return cls(gain=(float(gain),) * n)


def smooth(theta_hat: float, theta_observed: float, beta: float) -> float:
    """Kernel of :func:`smoothing_update`."""
    return beta * theta_observed + (1.0 - beta) * theta_hat


def smoothing_update(theta_hat: float, theta_observed: float, beta: float) -> float:
    """Round k + 1's forecast from round k's; ``beta`` is the schedule's ``at(k + 1)``."""
    for value, name in ((theta_hat, "forecast"), (theta_observed, "observed fraction")):
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{name} {value} outside [0, 1]")
    if not 0.0 < beta < 1.0:
        raise ConfigurationError(f"smoothing weight {beta} outside (0, 1)")
    return float(smooth(theta_hat, theta_observed, beta))


def observe(m_hat: float, k: int, u: float, gain: np.ndarray, ell: np.ndarray,
            ell_hat: np.ndarray) -> float:
    """Kernel of :func:`luenberger_update`."""
    return k / (k + 1.0) * m_hat + u / (k + 1.0) + float(gain @ (ell - ell_hat))


def luenberger_update(m_hat: float, k: int, u: float, gain, latencies_observed,
                      latencies_predicted) -> float:
    """One observer step: fold round k's payoff gap ``u`` and output error into ``m_hat``.

    Returns the regret estimate after round k.
    """
    if not (math.isfinite(m_hat) and math.isfinite(u)):
        raise ConfigurationError(
            f"regret estimate and payoff difference must be finite, got {m_hat} and {u}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigurationError(f"round index must be an integer >= 1, got {k!r}")
    message = "observer gain and latencies must be finite vectors of one length"
    try:
        vectors = [np.asarray(v, dtype=float)
                   for v in (gain, latencies_observed, latencies_predicted)]
    except (TypeError, ValueError):  # ragged nesting or a non-numeric entry
        raise ConfigurationError(message) from None
    if (vectors[0].ndim != 1 or any(v.shape != vectors[0].shape for v in vectors)
            or not np.isfinite(np.concatenate(vectors)).all()):
        raise ConfigurationError(message)
    return float(observe(m_hat, k, u, *vectors))


def envelope_series(num_rounds: int, e1: float, beta_min: float,
                    beta_schedule: BetaSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Envelope for k = 1..num_rounds via the exact recursions.

    Row k - 1 holds (lower, upper) for round k; round 1 is seeded at (e1, e1).
    """
    if num_rounds < 1:
        raise ConfigurationError("envelope series needs at least one round")
    lower = np.empty(num_rounds)
    upper = np.empty(num_rounds)
    lower[0] = upper[0] = e1
    prod = 1.0
    dt = 0.0
    for k in range(2, num_rounds + 1):
        prod *= 1.0 - beta_schedule.at(k)
        dt = (1.0 - beta_min) * dt + 1.0 / k
        lower[k - 1] = prod * e1 - 2.0 * dt
        upper[k - 1] = prod * e1 + 2.0 * dt
    return lower, upper
