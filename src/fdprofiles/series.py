"""Quadratic expansion of the profile at the coordinate singularity r = 0.

The radial equation degenerates at the origin ((n-1)/r term), so integration
starts from the local expansion v = eta + c2*r^2 + O(r^4) instead. Matching
the O(1) terms of the equation fixes

    c2 = -alpha * eta^(2-m) / (2*n*(n-1)).

Order 2 is enough: the handoff radius can be made small because the
integrator is adaptive and cheap near the origin, and the quality of the
truncation is monitored through the equation residual rather than through
the (algebraically heavy) next coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .model import Parameters

__all__ = ["SeriesExpansion", "seed_within", "expand_at_origin", "eval_series", "series_residual"]

# Never hand off above this radius; all interior bounds are cheapest well
# inside r = 1.
_R_SWITCH_CAP = 0.05
# Radius at which integration takes over from the exact constant solution.
_R_START_CONSTANT = 1e-4


@dataclass(frozen=True)
class SeriesExpansion:
    """v = eta + c2*r^2 on [0, r_switch], with an error estimate at the edge.

    r_switch is infinite when c2 = 0 (the expansion is then the exact
    constant solution). truncation_estimate approximates the error in v at
    r_switch, inferred from the equation residual of the truncated series.
    """

    eta: float
    c2: float
    r_switch: float
    truncation_estimate: float

    @property
    def r_start(self) -> float:
        """Radius where integration takes over from the expansion."""
        return self.r_switch if math.isfinite(self.r_switch) else _R_START_CONSTANT


def _residual(n, m, alpha, beta, eta, c2, r: float) -> float:
    # (n-1)/m * Delta(v^m) with the factor m cancelled, so that m = 0 gives the
    # log-diffusion operator (n-1) * Delta(log v)
    v = eta + c2 * r * r
    dv = 2.0 * c2 * r
    ddv = 2.0 * c2
    vm1 = v ** (m - 1.0)
    lap = vm1 * ddv + (m - 1.0) * v ** (m - 2.0) * dv * dv + (n - 1) / r * vm1 * dv
    return (n - 1) * lap + alpha * v + beta * r * dv


def _seed(n, m, alpha, beta, eta, r_switch: float | None) -> SeriesExpansion:
    """Order-2 origin expansion from plain scalars; m = 0 is the log-diffusion limit."""
    c2 = -alpha * eta ** (2.0 - m) / (2.0 * n * (n - 1))
    if r_switch is None:
        if c2 == 0.0:
            r_switch = math.inf
        else:
            r_switch = min(_R_SWITCH_CAP, 1e-4 * max(1.0, abs(c2) ** -0.5))
    r_switch = float(r_switch)
    est = 0.0
    if math.isfinite(r_switch):
        resid = abs(_residual(n, m, alpha, beta, eta, c2, r_switch))
        # Convert the equation residual into a local error scale for v by
        # inverting the dominant (Laplacian) part of the operator.
        est = resid * r_switch**2 * eta ** (1.0 - m) / (2.0 * n * (n - 1))
    return SeriesExpansion(eta=eta, c2=c2, r_switch=r_switch, truncation_estimate=est)


def seed_within(n, m, alpha, beta, eta, rtol: float) -> SeriesExpansion:
    """Origin seed whose radius is shrunk until its truncation clears rtol*eta."""
    se = _seed(n, m, alpha, beta, eta, None)
    while se.truncation_estimate > rtol * eta and se.r_switch > 1e-8:
        se = _seed(n, m, alpha, beta, eta, se.r_switch / 4.0)
    return se


def expand_at_origin(p: Parameters, r_switch: float | None = None) -> SeriesExpansion:
    """Build the order-2 origin expansion for the profile equation."""
    return _seed(p.n, p.m, p.alpha, p.beta, p.eta, r_switch)


def eval_series(se: SeriesExpansion, r):
    """Evaluate (v, v') of the expansion; valid only for 0 <= r <= r_switch."""
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= se.r_switch * (1.0 + 1e-12))):
        raise OutOfRange(f"series is valid on [0, {se.r_switch:.6g}], requested r={r}")
    v = se.eta + se.c2 * arr * arr
    dv = 2.0 * se.c2 * arr
    if arr.ndim == 0:
        return float(v), float(dv)
    return v, dv


def series_residual(p: Parameters, se: SeriesExpansion, r: float) -> float:
    """Residual of the radial equation on the truncated series at radius r.

    Vanishes to O(1) by construction of c2, so the result is O(r^2) as r -> 0.
    """
    return _residual(p.n, p.m, p.alpha, p.beta, se.eta, se.c2, r)
