"""Exception types shared across the package."""

from __future__ import annotations


class SpenError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpenError):
    """A user-supplied callable returned a non-finite or mis-shaped value."""


class OracleKindError(SpenError):
    """An oracle was queried for a sample kind it does not provide."""


class ConfigError(SpenError):
    """Invalid configuration value, file, or argument combination."""


class SubsolverError(SpenError):
    """An inner convex subsolver failed to reach its gap tolerance.

    Carries the best duality-gap bound achieved so callers can decide
    whether to accept the result anyway.
    """

    def __init__(self, message: str, gap: float = float("nan")):
        super().__init__(message)
        self.gap = gap


class SteeringError(SpenError):
    """Penalty steering could not satisfy its acceptance condition."""


class BudgetExceeded(SpenError):
    """A solver run's budget asks for more than the machine can hold.

    Raised before a zeroth-order round allocates anything when its direction
    buffers, work arrays and value arrays would exceed physical memory;
    the message names the outer round, ``rho``, ``m``, ``n`` and the bytes.
    """
