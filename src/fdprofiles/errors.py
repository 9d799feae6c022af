"""Exception types shared across the package."""

import numpy as np


class ProfileError(Exception):
    """Base class for solver and analysis failures.

    ``location``, when given, is the radius (or log-radius) at which the
    failure was bracketed.
    """

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message if location is None else f"{message} (at {location:.6g})")
        self.location = location


class PositivityLoss(ProfileError):
    """The integrated quantity crossed the positivity floor."""


class StepUnderflow(ProfileError):
    """Adaptive step size shrank below the resolvable scale."""


class HypothesisViolation(ProfileError):
    """Parameters lie outside the range required by the requested operation."""


class EndpointExponentError(HypothesisViolation):
    """m sits at the top of the solvable range, where decay analysis degenerates."""


class RegimeMismatch(ProfileError):
    """Requested self-similar form is inconsistent with the parameters."""


class OutOfRange(ProfileError):
    """Evaluation requested outside the covered radial range."""

    @classmethod
    def outside(cls, what: str, lo: float, hi: float, query) -> "OutOfRange":
        """The error for a ``query`` not within [lo, hi], located at the query farthest out (NaN if any)."""
        lowest, highest = float(np.min(query)), float(np.max(query))
        worst = lowest if lo - lowest > highest - hi else highest
        return cls(f"{what} covers [{lo:.6g}, {hi:.6g}], requested a point outside", worst)
