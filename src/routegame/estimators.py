"""Forecast models for the non-participating agents and their proof-derived error bounds.

Two estimators are supported: simple exponential smoothing of the disobedience
fraction, and an observer that mirrors the regret recursion and corrects it with
the gap between observed and predicted latencies.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SmoothingState:
    theta_hat: float
    schedule: BetaSchedule


@dataclass(frozen=True)
class LuenbergerState:
    m_hat: float
    gain: tuple[float, ...]
    k: int


def smooth(state: SmoothingState, theta_observed: float, beta: float) -> SmoothingState:
    """Kernel of :func:`smoothing_update`, with the round's weight given."""
    theta_hat = beta * theta_observed + (1.0 - beta) * state.theta_hat
    return SmoothingState(theta_hat=theta_hat, schedule=state.schedule)


def smoothing_update(state: SmoothingState, theta_observed: float, k: int) -> SmoothingState:
    """One smoothing step: blend the round-k observation into the forecast.

    Returns the state holding the forecast for round k + 1.
    """
    if not 0.0 <= theta_observed <= 1.0:
        raise ConfigurationError(f"observed disobedience fraction {theta_observed} outside [0, 1]")
    return smooth(state, theta_observed, state.schedule.at(k + 1))


def observe(state: LuenbergerState, u: float, gain: np.ndarray, ell: np.ndarray,
            ell_hat: np.ndarray) -> LuenbergerState:
    """Kernel of :func:`luenberger_update`; ``gain`` is ``state.gain`` as an array."""
    k = state.k
    m_hat = k / (k + 1.0) * state.m_hat + u / (k + 1.0) + float(gain @ (ell - ell_hat))
    return LuenbergerState(m_hat=m_hat, gain=state.gain, k=k + 1)


def luenberger_update(state: LuenbergerState, u: float, latencies_observed: np.ndarray,
                      latencies_predicted: np.ndarray) -> LuenbergerState:
    """One observer step driven by the aggregate payoff gap and the output error."""
    ell = np.asarray(latencies_observed, dtype=float)
    ell_hat = np.asarray(latencies_predicted, dtype=float)
    gain = np.asarray(state.gain, dtype=float)
    if ell.shape != ell_hat.shape or ell.shape != gain.shape:
        raise ConfigurationError("observer gain and latency vectors must share one length")
    return observe(state, u, gain, ell, ell_hat)


def delta_tilde(k: int, beta_min: float) -> float:
    """Accumulated harmonic drift sum_{t=2..k} (1 - beta_min)^(k-t) / t."""
    if k < 2:
        return 0.0
    t = np.arange(2, k + 1, dtype=float)
    return float(np.sum((1.0 - beta_min) ** (k - t) / t))


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
