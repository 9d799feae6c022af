"""Taylor series of the profile at the coordinate singularity r = 0.

The radial equation degenerates at the origin ((n-1)/r term), so integration
starts from the solution's own power series in r^2 instead. The scaling
v(r) = eta*V(lam*r) with lam^2 = eta^(1-m) maps the problem onto V(0) = 1, so
the series is kept as

    v = eta * sum_k a_k*y^k,  y = eta^(1-m)*r^2,  a_0 = 1,

whose coefficients do not depend on eta. Written through
L = (V^m - 1)/m (log V at m = 0), the equation is
(n-1)*Delta L + alpha*V + beta*rho*V' = 0, and Delta y^(k+1) = 2(k+1)(2k+n)*y^k
in rho = lam*r gives

    L_(k+1) = -(alpha + 2k*beta)*a_k / ((n-1)*(2k+2)*(2k+n)).

J. C. P. Miller's rule for the power V^m (Knuth, TAOCP Vol. 2, Sec. 4.7), in
the form V*L' = V'*(1 + m*L), turns the L_j into

    a_k = (k*L_k + sum_(j=1..k-1) (k - j - m*j)*a_j*L_(k-j)) / k,

so a_1 = L_1, c2 = eta^(2-m)*a_1 = -alpha*eta^(2-m)/(2n(n-1)), and m = 0 is the
log-diffusion seed. The series is exact up to the terms left out; it hands
off to the r-chart where they fall below the chart's tolerance, or at
_R_CAP, whichever comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OutOfRange, ProfileError
from .model import Parameters

__all__ = [
    "SeriesExpansion",
    "seed_within",
    "expand_at_origin",
    "eval_series",
    "series_moments",
    "series_residual",
]

# Coefficients a_0..a_15 kept. At the default tolerance 1e-10 the series
# hands off at _R_CAP on all 20 invariant-grid rows and the 8 Barenblatt rows
# of the tests, and on 145 of 150 random admissible families at eta = 1 (the
# other five at r = 0.26..0.4, all with alpha above 15*beta).
_TERMS = 16
# The series never hands off above half the chart seam R_HANDOFF = 1, so the
# r-chart always steps the overlap the log chart is checked on.
_R_CAP = 0.5
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# The tolerance of ``expand_at_origin``: the series there is exact to rounding.
_ROUNDING = 2.0**-53


@dataclass(frozen=True)
class SeriesExpansion:
    """v = eta * sum of a_k*(scale*r^2)^k on [0, r_switch], with an error estimate at the edge.

    ``coeffs`` are a_0..a_15 and ``log_coeffs`` L_0..L_15 of
    (v^m/eta^m - 1)/m (of log(v/eta) at m = 0), both of the profile with
    v(0) = 1; ``scale`` is eta^(1-m). r_switch is infinite when every a_k
    past a_0 vanishes (alpha = 0: the exact constant solution).
    truncation_estimate is the first term left out at r_switch, in units of v.
    """

    eta: float
    scale: float
    coeffs: tuple[float, ...]
    log_coeffs: tuple[float, ...]
    r_switch: float
    truncation_estimate: float

    @property
    def c2(self) -> float:
        """The r^2 coefficient -alpha*eta^(2-m)/(2n(n-1))."""
        return self.eta * self.scale * self.coeffs[1]

    @property
    def r_start(self) -> float:
        """Radius where integration takes over from the series."""
        return self.r_switch if math.isfinite(self.r_switch) else _R_CAP

    @cached_property
    def _polys(self) -> tuple[list[float], ...]:
        """Coefficients in y of v/eta and of its first two y-derivatives."""
        a = self.coeffs
        return list(a), [k * ak for k, ak in enumerate(a)][1:], [k * (k - 1) * ak for k, ak in enumerate(a)][2:]


def _coefficients(n, m, alpha, beta, terms: int) -> tuple[list[float], list[float]]:
    """a_0..a_(terms-1) and L_0..L_(terms-1) of the profile with v(0) = 1 (module docstring)."""
    a, lc = [1.0], [0.0]
    for k in range(1, terms):
        lc.append(-(alpha + 2.0 * (k - 1) * beta) * a[k - 1] / ((n - 1) * 2.0 * k * (2.0 * k + n - 2.0)))
        # the sum starts at -0.0, which adds nothing even to a signed zero, so
        # a_1 = L_1 keeps the sign of an alpha whose L_1 underflows
        conv = sum(((k - j - m * j) * a[j] * lc[k - j] for j in range(1, k)), -0.0)
        a.append((k * lc[k] + conv) / k)
    return a, lc


def seed_within(n, m, alpha, beta, eta, rtol: float) -> SeriesExpansion:
    """Origin series on [0, r_switch], where its first terms left out fall below rtol*eta.

    Terms a_j*y^j and 2j*a_j*y^j (those of v and r*v') for j = _TERMS and
    _TERMS + 1 must be at most rtol; r_switch is capped at _R_CAP.
    """
    scale = eta ** (1.0 - m)
    if math.log(eta) + (_TERMS - 1) * math.log(scale) > _LOG_FLOAT_MAX:
        msg = f"the origin series' coefficients eta^(1+k(1-m))*a_k of r^(2k), k < {_TERMS}, overflow the float range"
        raise ProfileError(msg, 0.0)
    a, lc = _coefficients(n, m, alpha, beta, _TERMS + 2)
    left_out = [(j, abs(a[j])) for j in (_TERMS, _TERMS + 1) if a[j] != 0.0]
    r_switch, est = math.inf, 0.0
    if left_out:
        y_h = min((rtol / (2.0 * j * aj)) ** (1.0 / j) for j, aj in left_out)
        r_switch = min(_R_CAP, math.sqrt(y_h / scale))
        y = scale * r_switch * r_switch
        est = eta * max(aj * y**j for j, aj in left_out)
    return SeriesExpansion(eta, scale, tuple(a[:_TERMS]), tuple(lc[:_TERMS]), r_switch, est)


def expand_at_origin(p: Parameters) -> SeriesExpansion:
    """The origin series of p, on the radius where it is exact to rounding."""
    return seed_within(p.n, p.m, p.alpha, p.beta, p.eta, _ROUNDING)


def horner(c: list[float], y):
    """sum of c[k]*y^k by Horner's rule, on a float or element by element on an array.

    Both are the same IEEE operations in the same order, so the bits of a
    value do not depend on the shape it is asked for in.
    """
    p = c[-1]
    for ck in c[-2::-1]:
        p = p * y + ck
    return p


def eval_series(se: SeriesExpansion, r, order: int = 1) -> tuple:
    """(v, v', v'')[:order + 1] of the series at radii 0 <= r <= r_switch: floats for a scalar r, arrays otherwise."""
    arr = OutOfRange.clip("series", r, 0.0, se.r_switch)
    if arr.ndim == 0:
        arr = float(arr)
    if math.isinf(se.r_switch):
        # alpha = 0: v = eta exactly, also where scale*r*r would overflow
        const = [np.full(np.shape(arr), se.eta)] + [np.zeros(np.shape(arr))] * order
        return tuple(float(x) for x in const) if np.ndim(arr) == 0 else tuple(const)
    a, da, dda = se._polys
    y = se.scale * arr * arr
    out = [se.eta * horner(a, y)]
    if order >= 1:
        # d/dr = 2*scale*r * d/dy; the scale goes in before eta, so no product overflows
        dp = horner(da, y)
        out.append(2.0 * arr * se.scale * dp * se.eta)
    if order >= 2:
        out.append(2.0 * se.scale * (dp + 2.0 * y * horner(dda, y)) * se.eta)
    return tuple(out)


def series_moments(coeffs, scale: float, e: float, h):
    """Integrals over [0, h] of rho^(e-1) * sum of coeffs[k]*(scale*rho^2)^k (e > 0), term by term, each over h^(e-1).

    Scaled so that no power of h is taken: h^e alone leaves the float range at large e.
    """
    h = np.asarray(h, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    return h * horner((c / (e + 2.0 * np.arange(c.size))).tolist(), scale * h * h)


def series_residual(p: Parameters, se: SeriesExpansion, r: float) -> float:
    """Residual of the radial equation on the truncated series at radius 0 < r <= r_switch.

    (n-1)/m * Delta(v^m) with the factor m cancelled, so that m = 0 gives the
    log-diffusion operator (n-1) * Delta(log v). It is of the size of the
    terms left out: at rounding level up to the r_switch of
    ``expand_at_origin``.
    """
    v, dv, ddv = eval_series(se, r, 2)
    vm1 = v ** (p.m - 1.0)
    lap = vm1 * ddv + (p.m - 1.0) * v ** (p.m - 2.0) * dv * dv + (p.n - 1) / r * vm1 * dv
    return float((p.n - 1) * lap + p.alpha * v + p.beta * r * dv)
