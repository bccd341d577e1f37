"""Exception types shared across the package, and the range test that raises one."""

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


def _between(low: float, x, high: float, name: str, closed: bool = True) -> bool:
    """Whether ``low <= x <= high``, or ``low < x < high`` unless ``closed``; NaN is not.

    The comparison of a range check, made on ``x`` as it is, so a valid number
    is not converted first.  An ``x`` that does not compare with floats, such
    as a string or None, is a :class:`ConfigurationError` naming ``name``, not
    the comparison's bare ``TypeError``.
    """
    try:
        return low <= x <= high if closed else low < x < high
    except TypeError:
        raise ConfigurationError(f"{name} must be a number, got {x!r}") from None


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
