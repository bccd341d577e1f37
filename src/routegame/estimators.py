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
from math import inf

import numpy as np

from .errors import ConfigurationError, _between


@dataclass(frozen=True)
class BetaSchedule:
    """Smoothing weights beta(t) for t >= 2, either constant or an explicit sequence.

    The weights are stored as floats; :meth:`_at` is the one place that knows
    that ``values[j]`` is beta(j + 2).
    """

    value: float | None = 0.5
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.values is None):
            raise ConfigurationError("beta schedule needs exactly one of a constant or a sequence")
        try:
            if self.values is None:
                object.__setattr__(self, "value", float(self.value))
            else:
                object.__setattr__(self, "values", tuple(map(float, self.values)))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"smoothing weights must be numbers: {exc}") from None
        for b in (self.values if self.values is not None else (self.value,)):
            if not 0.0 < b < 1.0:
                raise ConfigurationError(f"smoothing weight {b} outside (0, 1)")

    @classmethod
    def constant(cls, beta: float) -> "BetaSchedule":
        return cls(value=beta, values=None)

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
    """Next forecast beta * theta_observed + (1 - beta) * theta_hat, beta round k + 1's weight."""
    return beta * theta_observed + (1.0 - beta) * theta_hat


def observe(m_hat: float, k: int, u: float, gain: np.ndarray, ell: np.ndarray,
            ell_hat: np.ndarray) -> float:
    """Regret estimate after round k: the regret recursion plus gain . (ell - ell_hat)."""
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
    if not _between(-inf, e1, inf, "e1", closed=False):  # NaN fails too
        raise ConfigurationError(f"e1 must be finite, got {e1}")
    if not _between(0.0, beta_min, 1.0, "beta_min", closed=False):
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
