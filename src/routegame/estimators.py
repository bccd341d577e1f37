"""Forecast models for the non-participating agents and their proof-derived error bounds.

Two estimators are supported: simple exponential smoothing of the disobedience
fraction, and an observer that mirrors the regret recursion and corrects it with
the gap between observed and predicted latencies.

Each is a recursion on one float, the forecast theta_hat or the regret estimate
m_hat, computed by :func:`smooth` and :func:`observe`; the weight, gain and
round index come from the run.  Neither checks its arguments: each estimator
spec checked its values when it was built, and the config that holds it
checked the rest.  Fed a run's own columns, the two reproduce its
``theta_hat`` column bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .errors import ConfigurationError, _integer, _real


@dataclass(frozen=True)
class SmoothingSpec:
    """Estimator choice: exponential smoothing with weights beta(t), t >= 2, above ``beta_min``.

    ``beta`` is one weight for every round or a sequence beta(2), beta(3), ...,
    stored as a float or a tuple of floats; :meth:`_at` is the one place that
    knows that ``beta[j]`` is beta(j + 2).  ``beta_min`` lies in (0, 1) and
    each weight in (``beta_min``, 1), the range over which
    :func:`envelope_series` holds.  Both are checked here, once.
    """

    beta: float | tuple[float, ...] = 0.5
    beta_min: float = 0.3

    def __post_init__(self) -> None:
        beta_min = _real(self.beta_min, "beta_min")
        if not 0.0 < beta_min < 1.0:  # NaN fails too
            raise ConfigurationError(f"beta_min = {beta_min} outside (0, 1)")
        if isinstance(self.beta, (list, tuple, np.ndarray)):
            beta = sequence = tuple(_real(b, "beta entry") for b in self.beta)
        else:
            beta, sequence = _real(self.beta, "beta"), None
        for b in (beta,) if sequence is None else sequence:
            if not beta_min < b < 1.0:  # NaN fails too
                raise ConfigurationError(
                    f"smoothing weight {b} not strictly inside ({beta_min}, 1)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_min", beta_min)
        # not a field: _at tests it against None, which costs less than a type test of beta
        object.__setattr__(self, "_sequence", sequence)

    def _at(self, t: int) -> float:
        """Weight used to form the forecast for round t >= 2.

        Unchecked, so internal: its callers, :func:`~routegame.dynamics.step`
        and :func:`envelope_series`, read only rounds 2 .. the length their
        config or entry check has ensured the sequence reaches.
        """
        return self.beta if self._sequence is None else self._sequence[t - 2]


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


def envelope_series(num_rounds: int, e1: float,
                    smoothing: SmoothingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Envelope for k = 1..num_rounds via the exact recursions.

    Row k - 1 holds (lower, upper) for round k; round 1 is seeded at (e1, e1).
    The inputs are checked here, once: an integral ``num_rounds`` >= 1, a
    finite ``e1`` and a spec with a weight for every round 2..num_rounds; the
    spec checked its weights and ``beta_min`` when it was built.
    """
    num_rounds = _integer(num_rounds, "num_rounds")
    if num_rounds < 1:
        raise ConfigurationError("envelope series needs at least one round")
    if not -inf < _real(e1, "e1") < inf:  # NaN fails too
        raise ConfigurationError(f"e1 must be finite, got {e1}")
    beta, beta_min = smoothing.beta, smoothing.beta_min
    if isinstance(beta, tuple) and len(beta) < num_rounds - 1:
        raise ConfigurationError(f"beta schedule has {len(beta)} entries, "
                                 f"round {num_rounds} requested")
    lower = np.empty(num_rounds)
    upper = np.empty(num_rounds)
    lower[0] = upper[0] = e1
    prod = 1.0
    dt = 0.0
    for k in range(2, num_rounds + 1):
        prod *= 1.0 - smoothing._at(k)
        dt = (1.0 - beta_min) * dt + 1.0 / k
        lower[k - 1] = prod * e1 - 2.0 * dt
        upper[k - 1] = prod * e1 + 2.0 * dt
    return lower, upper
