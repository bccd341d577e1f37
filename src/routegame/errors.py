"""Exception types shared across the package, and the number checks that raise one."""

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


_NUMBERS = (float, int, np.floating, np.integer)  # the types that _real reads, bool aside


def _real(x, name: str) -> float:
    """``x`` as a Python float, or a :class:`ConfigurationError` naming ``name``.

    Only a real number is read: a boolean is not one here, though
    ``float(True)`` is 1.0, nor is a string that spells one, nor an integer
    beyond the float range.  A range check compares the float it returns.
    """
    if type(x) is float or isinstance(x, _NUMBERS) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ConfigurationError(f"{name} must be a number, got {x!r}")


def _integer(value, name: str) -> int:
    """``value`` as an ``int``, if it is an integer; a boolean is not one here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
