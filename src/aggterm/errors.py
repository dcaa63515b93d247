"""Shared exception types, and the integer check behind ConfigError."""

from operator import index
from typing import Optional


class AggtermError(Exception):
    """Base class for package errors."""


class ConfigError(AggtermError):
    """A supplied configuration (model, schedule, architecture, CLI input) is invalid."""


class EvaluationError(AggtermError):
    """Term evaluation hit a numeric problem (non-finite value, bad denominator)."""


class NeighborhoodTooLargeError(AggtermError):
    """A rooted neighborhood exceeded the canonicalization size cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"neighborhood too large: {size} nodes exceeds cap {cap}")
        self.size = size
        self.cap = cap


class UnsupportedTermError(AggtermError):
    """The requested limit construction does not cover this term."""


def as_int(x, what: str, low: Optional[int] = None) -> int:
    """x through operator.index, so NumPy integers pass and floats and
    bools do not.

    With low, a value below it is refused too. Both failures are ConfigError.
    """
    try:
        val = index(x)
    except TypeError:
        val = None
    if val is None or isinstance(x, bool):
        raise ConfigError(f"{what} must be an integer, got {x!r}")
    if low is not None and val < low:
        raise ConfigError(f"{what} must be >= {low}, got {val}")
    return val
