"""Problem data for the radial profile equation and the checks derived from it.

The profile v solves

    (n-1)/m * ( (v^m)'' + (n-1)/r * (v^m)' ) + alpha*v + beta*r*v' = 0,
    v(0) = eta,  v'(0) = 0,  v > 0,

on (0, inf) with integer dimension n >= 3 and exponent 0 < m <= (n-2)/n.
Everything downstream (integration charts, invariant monitoring, decay
estimation) consumes the plain constants collected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "REGIME_TOL",
    "Regime",
    "Parameters",
    "DerivedConstants",
    "HypothesisReport",
    "classify_regime",
    "check_hypotheses",
    "derived",
    "exponent_relation",
]

# Relative tolerance for matching the special exponent relations. The regimes
# are advisory metadata and never gate the solver.
REGIME_TOL = 1e-12

# How close m may come to (n-2)/n before it counts as the range endpoint.
_ENDPOINT_RTOL = 1e-12


class Regime(Enum):
    """Which self-similar time dependence the exponents support."""

    FORWARD = "forward"    # prefactor t^-alpha,      alpha*(1-m) = 2*beta - 1
    BACKWARD = "backward"  # prefactor (T-t)^alpha,   alpha*(1-m) = 2*beta + 1
    ETERNAL = "eternal"    # prefactor e^(-alpha*t),  alpha*(1-m) = 2*beta
    GENERIC = "generic"


@dataclass(frozen=True)
class Parameters:
    """Problem data (n, m, alpha, beta, eta) for the radial profile equation."""

    n: int
    m: float
    alpha: float
    beta: float
    eta: float

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 3:
            raise ValueError(f"dimension n must be an integer >= 3, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        m_max = (self.n - 2) / self.n
        if not 0.0 < self.m <= m_max:
            raise ValueError(f"m must satisfy 0 < m <= (n-2)/n = {m_max:.16g}, got {self.m}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        for name in ("m", "alpha", "beta", "eta"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
            object.__setattr__(self, name, float(val))

    @property
    def m_upper(self) -> float:
        """Top of the solvable exponent range, (n-2)/n."""
        return (self.n - 2) / self.n

    @property
    def at_endpoint(self) -> bool:
        """True when m sits (up to rounding) at (n-2)/n."""
        return self.m_upper - self.m <= _ENDPOINT_RTOL * self.m_upper


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants used by the charts, bounds, and decay targets.

    k is beta/alpha and is absent (None) when alpha = 0; every k-dependent
    check downstream reports "not applicable" in that case. a0 is the
    log-corrected decay limit of r*w_r; it is NaN when beta = 0.
    """

    k: float | None
    rho1: float
    a0: float
    b0: float
    b1: float
    b2: float


def exponent_relation(m: float, alpha: float, beta: float) -> tuple[float, float]:
    """rho1 = alpha*(1-m) - 2*beta and the scale its relations are matched against.

    Takes plain scalars so that the m = 0 log chart shares it.
    """
    one_m = 1.0 - m
    return alpha * one_m - 2.0 * beta, max(1.0, abs(alpha) * one_m + 2.0 * abs(beta))


def derived(p: Parameters) -> DerivedConstants:
    """Evaluate all derived constants in closed form."""
    one_m = 1.0 - p.m
    gap = p.n - 2 - p.n * p.m  # zero exactly at the range endpoint
    k = p.beta / p.alpha if p.alpha != 0.0 else None
    rho1, _ = exponent_relation(p.m, p.alpha, p.beta)
    a0 = 2.0 * gap * (p.n - 1) / (one_m * p.beta) if p.beta != 0.0 else math.nan
    b0 = (p.n - 2 - (p.n + 2) * p.m) / one_m
    b1 = 2.0 * p.m * gap / (one_m * one_m)
    b2 = max(3.0 * p.m / one_m, math.sqrt(b1 + b0 * b0) + abs(b0))
    return DerivedConstants(k=k, rho1=rho1, a0=a0, b0=b0, b1=b1, b2=b2)


def classify_regime(p: Parameters, tol: float = REGIME_TOL) -> Regime:
    """Match alpha*(1-m) - 2*beta against the three special exponent relations.

    ``tol`` is relative to the size of the relation being tested. The closest
    matching relation wins; exact ties are reported as GENERIC.
    """
    rho1, scale = exponent_relation(p.m, p.alpha, p.beta)
    residuals = {
        Regime.ETERNAL: abs(rho1),
        Regime.FORWARD: abs(rho1 + 1.0),
        Regime.BACKWARD: abs(rho1 - 1.0),
    }
    hits = {reg: res for reg, res in residuals.items() if res <= tol * scale}
    if not hits:
        return Regime.GENERIC
    best = min(hits.values())
    winners = [reg for reg, res in hits.items() if res == best]
    return winners[0] if len(winners) == 1 else Regime.GENERIC


@dataclass(frozen=True)
class HypothesisReport:
    """Which operating-range conditions the parameters satisfy (pure functions of p)."""

    existence_ok: bool    # alpha <= beta*(n-2)/m and beta > 0
    strict_m: bool        # m strictly below (n-2)/n
    log_decay_ok: bool    # alpha = 2*beta/(1-m) > 0
    power_decay_ok: bool  # 2*beta/(1-m) > max(alpha, 0)
    limit_ok: bool        # beta > 0 or alpha = 0


def check_hypotheses(p: Parameters, tol: float = REGIME_TOL) -> HypothesisReport:
    rho1, scale = exponent_relation(p.m, p.alpha, p.beta)
    return HypothesisReport(
        existence_ok=bool(p.beta > 0.0 and p.alpha <= p.beta * (p.n - 2) / p.m),
        strict_m=not p.at_endpoint,
        log_decay_ok=bool(abs(rho1) <= tol * scale and p.alpha > 0.0),
        power_decay_ok=bool(2.0 * p.beta / (1.0 - p.m) > max(p.alpha, 0.0)),
        limit_ok=bool(p.beta > 0.0 or p.alpha == 0.0),
    )
