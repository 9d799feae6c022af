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
    def clip(cls, what: str, query, lo: float, hi: float) -> np.ndarray:
        """``query`` as a float array clipped into [lo, hi]; hi may be infinite.

        A point within 1e-12*|bound| of a bound is served as that bound. Any
        other point outside, NaN included, raises, located at the query
        farthest out (NaN if any).
        """
        arr = np.asarray(query, dtype=float)
        # NaN if any; an empty query reads [hi, lo] and is served as it is
        lowest, highest = float(arr.min(initial=hi)), float(arr.max(initial=lo))
        if lo <= lowest and highest <= hi:
            return arr
        if not (lo - 1e-12 * abs(lo) <= lowest and highest <= hi + 1e-12 * abs(hi)):
            worst = lowest if lo - lowest > highest - hi else highest
            raise cls(f"{what} covers [{lo:.6g}, {hi:.6g}], requested a point outside", worst)
        return np.minimum(np.maximum(arr, lo), hi)
