"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class ConfigurationError(ValueError):
    """An input, model object, or config violates one of its invariants."""


class SignalRowError(ConfigurationError):
    """A recommendation row does not sum to the participating fraction nu.

    ``row`` names the row: its index, or its state label where one is known.
    """

    def __init__(self, row, total: float, nu: float) -> None:
        super().__init__(f"signal row {row} sums to {total!r}, expected nu={nu!r}")
        self.row, self.total, self.nu = row, total, nu


class SolverError(RuntimeError):
    """Best-response solver failed to converge.

    Carries the last iterate and its variational-inequality margin so callers
    can inspect how far from a certificate the run ended.
    """

    def __init__(self, message: str, *, last_iterate: np.ndarray, vi_margin: float,
                 iterations: int) -> None:
        super().__init__(message)
        self.last_iterate = last_iterate
        self.vi_margin = vi_margin
        self.iterations = iterations


class UnidentifiableError(ValueError):
    """The observed flows carry no information about the disobedience fraction."""
