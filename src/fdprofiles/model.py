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

from .errors import EndpointExponentError, HypothesisViolation

__all__ = [
    "REGIME_TOL",
    "Regime",
    "Parameters",
    "DerivedConstants",
    "HypothesisReport",
    "EXACT_DECAY",
    "check_dimension",
    "classify_regime",
    "check_hypotheses",
    "require",
    "derived",
    "exponent_relation",
    "eternal_alpha",
    "chart_constants",
    "at_endpoint",
]

# Relative tolerance for matching the special exponent relations, the one
# every classification, hypothesis check and self-similar build uses. It is
# loose enough that a relation typed with ten significant digits matches.
REGIME_TOL = 1e-9

# How close m may come to (n-2)/n before it counts as the range endpoint.
_ENDPOINT_RTOL = 1e-12


class Regime(Enum):
    """Which self-similar time dependence the exponents support."""

    FORWARD = "forward"    # prefactor t^-alpha,      alpha*(1-m) = 2*beta - 1
    BACKWARD = "backward"  # prefactor (T-t)^alpha,   alpha*(1-m) = 2*beta + 1
    ETERNAL = "eternal"    # prefactor e^(-alpha*t),  alpha*(1-m) = 2*beta
    GENERIC = "generic"


def check_dimension(n) -> int:
    """n as an int; a ValueError unless it is a finite integer >= 3."""
    if not (math.isfinite(n) and n == int(n) and n >= 3):
        raise ValueError(f"dimension n must be an integer >= 3, got {n}")
    return int(n)


@dataclass(frozen=True)
class Parameters:
    """Problem data (n, m, alpha, beta, eta) for the radial profile equation."""

    n: int
    m: float
    alpha: float
    beta: float
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_dimension(self.n))
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
        return at_endpoint(self.n, self.m)


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


def eternal_alpha(m: float, beta: float) -> float:
    """The alpha of the eternal relation alpha*(1-m) = 2*beta; plain scalars, so m = 0 is accepted."""
    return 2.0 * beta / (1.0 - m)


def at_endpoint(n: int, m: float) -> bool:
    """True when m sits (up to rounding) at (n-2)/n; plain scalars, so m = 0 is accepted."""
    m_upper = (n - 2) / n
    return m_upper - m <= _ENDPOINT_RTOL * m_upper


def chart_constants(n: int, m: float, beta: float) -> tuple[float, float]:
    """(a0, b0): the log-corrected decay limit of w_s (NaN when beta = 0) and the
    log chart's w_s coefficient (module ``integrate``); plain scalars, so m = 0 is accepted."""
    one_m = 1.0 - m
    a0 = 2.0 * (n - 2 - n * m) * (n - 1) / (one_m * beta) if beta != 0.0 else math.nan
    return a0, (n - 2 - (n + 2) * m) / one_m


def derived(p: Parameters) -> DerivedConstants:
    """Evaluate all derived constants in closed form."""
    one_m = 1.0 - p.m
    gap = p.n - 2 - p.n * p.m  # zero exactly at the range endpoint
    k = p.beta / p.alpha if p.alpha != 0.0 else None
    rho1, _ = exponent_relation(p.m, p.alpha, p.beta)
    a0, b0 = chart_constants(p.n, p.m, p.beta)
    b1 = 2.0 * p.m * gap / (one_m * one_m)
    b2 = max(3.0 * p.m / one_m, math.sqrt(b1 + b0 * b0) + abs(b0))
    return DerivedConstants(k=k, rho1=rho1, a0=a0, b0=b0, b1=b1, b2=b2)


def classify_regime(p: Parameters) -> Regime:
    """Match alpha*(1-m) - 2*beta against the three special exponent relations.

    A relation matches within REGIME_TOL relative to the size of the terms
    being compared. The closest matching relation wins; exact ties are
    reported as GENERIC.
    """
    rho1, scale = exponent_relation(p.m, p.alpha, p.beta)
    residuals = {
        Regime.ETERNAL: abs(rho1),
        Regime.FORWARD: abs(rho1 + 1.0),
        Regime.BACKWARD: abs(rho1 - 1.0),
    }
    hits = {reg: res for reg, res in residuals.items() if res <= REGIME_TOL * scale}
    if not hits:
        return Regime.GENERIC
    best = min(hits.values())
    winners = [reg for reg, res in hits.items() if res == best]
    return winners[0] if len(winners) == 1 else Regime.GENERIC


# The exact-decay hypotheses of the slope bounds, the q identity and the log-corrected
# decay law: HypothesisReport fields that must all hold, in the order ``require`` tests them.
EXACT_DECAY = ("strict_m", "log_decay_ok")

# What each HypothesisReport field demands: the message of ``require``.
_CONDITIONS = {
    "existence_ok": "the existence range beta > 0 and alpha <= beta*(n-2)/m = {bound:.6g}",
    "strict_m": "m strictly below the endpoint (n-2)/n = {m_upper:.16g}",
    "log_decay_ok": "the eternal relation alpha = 2*beta/(1-m) = {eternal:.6g} > 0",
    "power_decay_ok": "2*beta/(1-m) = {eternal:.6g} > max(alpha, 0)",
    "limit_ok": "beta > 0 or alpha = 0",
}


@dataclass(frozen=True)
class HypothesisReport:
    """Which operating-range conditions the parameters satisfy (pure functions of p; see _CONDITIONS)."""

    existence_ok: bool
    strict_m: bool
    log_decay_ok: bool
    power_decay_ok: bool
    limit_ok: bool

    @property
    def exact_decay_ok(self) -> bool:
        """The exact-decay hypotheses: every field named in EXACT_DECAY holds."""
        return all(getattr(self, name) for name in EXACT_DECAY)


def _verdicts(p: Parameters) -> tuple[HypothesisReport, dict]:
    """The HypothesisReport of p and the bounds it was decided on, which ``require`` quotes."""
    rho1, scale = exponent_relation(p.m, p.alpha, p.beta)
    bounds = dict(bound=p.beta * (p.n - 2) / p.m, m_upper=p.m_upper, eternal=eternal_alpha(p.m, p.beta))
    return HypothesisReport(
        existence_ok=bool(p.beta > 0.0 and p.alpha <= bounds["bound"]),
        strict_m=not p.at_endpoint,
        log_decay_ok=bool(abs(rho1) <= REGIME_TOL * scale and p.alpha > 0.0),
        power_decay_ok=bool(bounds["eternal"] > max(p.alpha, 0.0)),
        limit_ok=bool(p.beta > 0.0 or p.alpha == 0.0),
    ), bounds


def check_hypotheses(p: Parameters) -> HypothesisReport:
    """The operating-range conditions; the eternal relation is matched to REGIME_TOL."""
    return _verdicts(p)[0]


def require(p: Parameters, what: str, *conditions: str) -> HypothesisReport:
    """The HypothesisReport of p, once every listed field of it holds.

    The first listed condition that fails raises: EndpointExponentError for
    ``strict_m``, HypothesisViolation for any other. The message names
    ``what`` needed it and the condition by its field name.
    """
    hyp, bounds = _verdicts(p)
    for name in conditions:
        if not getattr(hyp, name):
            error = EndpointExponentError if name == "strict_m" else HypothesisViolation
            raise error(f"{what} needs {_CONDITIONS[name].format(**bounds)} ({name}); "
                        f"got n = {p.n}, m = {p.m}, alpha = {p.alpha}, beta = {p.beta}")
    return hyp
