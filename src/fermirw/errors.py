"""Exception taxonomy shared by the whole package.

Domain problems (bad inputs, points outside a chart, unsupported curvature)
are distinct from accuracy problems (an algorithm ran but could not reach the
requested tolerance).  The CLI maps DomainError to exit code 2 and
AccuracyError to exit code 3.
"""

from __future__ import annotations

import math


class FermiRWError(Exception):
    """Base class for all package errors."""


class DomainError(FermiRWError, ValueError):
    """Input outside the mathematical domain of an operation."""


class OutOfChartError(DomainError):
    """Event lies outside the Fermi chart (or the constant-time slice).

    Carries the bounding proper radius when known so callers can report
    how far the chart extends.
    """

    def __init__(self, message: str, rho_max: float | None = None):
        super().__init__(message)
        self.rho_max = rho_max


class UnsupportedCurvatureError(DomainError):
    """Spatial curvature index outside the supported set {0, -1}."""


class BracketError(DomainError):
    """Root-finding bracket does not enclose a sign change."""


class TableError(DomainError):
    """Tabulated scale-factor samples failed validation."""


def _finite(name: str, value: float, nonnegative: bool = False) -> float:
    """value as a float; DomainError unless finite and positive (or >= 0)."""
    if not (math.isfinite(value)
            and (value >= 0.0 if nonnegative else value > 0.0)):
        sign = "nonnegative" if nonnegative else "positive"
        raise DomainError(f"{name} must be {sign} and finite, got {value}")
    return float(value)


class AccuracyError(FermiRWError, RuntimeError):
    """Requested tolerance not reached.

    estimate: best value obtained before giving up.
    bound: estimated error of that value (NaN when unknown).
    """

    def __init__(self, message: str, estimate: float = float("nan"),
                 bound: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound
