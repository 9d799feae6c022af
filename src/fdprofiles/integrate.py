"""Two-chart integration of the radial profile equation.

The r-chart integrates the explicit second-order form

    v'' = (1-m)*v'^2/v - (n-1)*v'/r - v^(1-m)*(alpha*v + beta*r*v')/(n-1)

from the origin series out to moderate radii. Power-law asymptotics are then
followed in the log chart s = log r, w = r^2 * v^(1-m), where the equation
becomes

    w_ss = (1-2m)/(1-m) * w_s^2/w - b0*w_s - beta/(n-1)*w*w_s
           - rho1/(n-1)*w^2 + 2*(n-2-nm)/(1-m)*w,

with b0 = (n-2-(n+2)m)/(1-m) and rho1 = alpha*(1-m) - 2*beta.

Internally the log chart integrates (w, g) with g = w_s - sigma*w and
sigma = -rho1/beta. This substitution cancels the w^2 term exactly and turns
the decay residual (w_s/w - sigma, equivalently r*q'/q for the power-decay
variable q) into a plain state component, so it stays fully resolved in
floating point out to r = e^40 instead of drowning in the cancellation
w_s - sigma*w of two large numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolation, OutOfRange, ProfileError
from .model import Parameters, exponent_relation, require
from .rk import POSITIVITY_FLOOR, Hermite, integrate_2d
from .series import SeriesExpansion, eval_series, horner, seed_within, series_derivatives

__all__ = [
    "POSITIVITY_FLOOR",
    "R_HANDOFF",
    "SolveConfig",
    "Profile",
    "LogProfile",
    "Solution",
    "chart_tolerances",
    "integrate_r",
    "integrate_log",
    "handoff_to_log",
    "solve_profile",
]

_RANGE_SLACK = 1e-12

# The radius where the r-chart hands off to the log chart (s = 0). Every
# log-chart bound and trace downstream (decay traces, power-plateau decades,
# slope checks) is stated for r >= 1 and read from s = 0.
R_HANDOFF = 1.0


@dataclass(frozen=True)
class SolveConfig:
    """Numerical options for a full two-chart solve.

    ``tol`` is the r-chart's relative tolerance; ``chart_tolerances`` derives
    every chart's (rtol, atol) from it. The r-chart runs from the origin
    series' handoff to ``r_max``, by default to 2*R_HANDOFF: past the seam it
    only doubles the log chart, which takes over at r = R_HANDOFF and runs
    from s = 0 to ``s_end``. ``solve_profile`` never stops it short of
    2*R_HANDOFF, where the overlap of the charts is read.
    """

    r_max: float = 2.0 * R_HANDOFF
    s_end: float = 40.0
    tol: float = 1e-10

    def __post_init__(self):
        for name in ("r_max", "s_end", "tol"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"SolveConfig.{name} must be finite and positive, got {val}")

    def tightened(self, factor: float) -> "SolveConfig":
        """Same run with every chart's tolerances scaled by ``factor``."""
        return replace(self, tol=self.tol * factor)


# rtol of each chart as a multiple of the r-chart's ``tol``; "r_stiff" is the
# r-chart's Radau IIA stretch.
_RTOL_FACTOR = {"r": 1.0, "r_stiff": 0.1, "log": 10.0}


def chart_tolerances(chart: str, tol: float) -> tuple[float, float]:
    """(rtol, atol) of the "r", "r_stiff" or "log" chart for the r-chart relative tolerance ``tol``.

    The log chart runs 10x looser than the r-chart because its span is much
    longer (s_end = 40 reaches r ~ 2.4e17). The r-chart's Radau IIA stretch
    ("r_stiff") runs 10x tighter than its DOP853 steps: at the chart's own
    pair its nodes stayed within rtol but were up to 25x less accurate than
    the DOP853 steps they replace (on the alpha < 0 INVARIANT_GRID rows to
    r = 25, against a tight reference). Every chart's absolute
    tolerance is 1/100 of its relative one in the mixed error scale
    atol + rtol*|y| of the step control (Hairer, Norsett & Wanner, Solving
    ODEs I, Sec. II.4).
    """
    rtol = tol * _RTOL_FACTOR[chart]
    return rtol, rtol * 1e-2


def _by_stretch(x, last, explicit, past):
    """``explicit(x)`` on a chart's DOP853 stretch, up to its last node ``last``, and ``past(x)`` beyond it."""
    below = x <= last
    if np.all(below):
        return explicit(x)
    if not np.any(below):
        return past(x)
    out = np.empty_like(x)
    out[below] = explicit(x[below])
    out[~below] = past(x[~below])
    return out


@dataclass(frozen=True)
class Profile:
    """Samples (r, v, v') of an r-chart solution with dense evaluation.

    ``ddv`` holds v'' from the equation at each node. ``dddv`` holds its
    derivative along the solution (``_r_third_derivative``) at the nodes of
    the DOP853 stretch, the first ``dddv.size`` nodes, up to the switch to
    Radau IIA (``stiff_switch_r``; every node when there is none). The dense
    output is one ``Hermite`` of all four: septic over that stretch, of the
    order of the steps, for the finite-difference residual checks and the
    identity quadratures that read it between the nodes, and quintic past
    it. Radii below the first node are served by the origin series, and so
    are those past the last one when the series is the exact constant
    (alpha = 0, ``r_reach``). ``nfev`` counts right-hand-side calls.
    """

    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    ddv: np.ndarray
    dddv: np.ndarray
    series: SeriesExpansion
    rtol: float
    n_steps: int = 0
    n_rejected: int = 0
    nfev: int = 0
    # Radius where the chart went from DOP853 to Radau IIA (None when DOP853
    # stepped it to its end).
    stiff_switch_r: float | None = None

    @property
    def r_start(self) -> float:
        return float(self.r[0])

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @cached_property
    def _v_interp(self):
        # Quintic, not septic, past the switch: on the Radau IIA stretch of the
        # four alpha < 0 INVARIANT_GRID rows to r = 25 a septic v, with v'''
        # from the equation, was 1.0-1.4x less accurate between the nodes in v
        # and 1.4-3.3x in v' against solve_ivp(DOP853, rtol=1e-13), and on a
        # large-eta row (3, 0.129, -2.52, 2.02, eta = 2.5e4) 230x and 1400x.
        return Hermite(self.r, self.v, self.dv, self.ddv, self.dddv)

    @property
    def r_reach(self) -> float:
        """Largest radius served: the chart's end, or every radius where the origin series is the exact constant (alpha = 0)."""
        return math.inf if math.isinf(self.series.r_switch) else self.r_end

    def _covered(self, r):
        """Radii in [0, r_reach], the same clipped into the chart, and where the series serves them."""
        arr = np.atleast_1d(np.asarray(r, dtype=float)).copy()
        if not np.all((arr >= 0.0) & (arr <= self.r_reach * (1.0 + _RANGE_SLACK))):
            raise OutOfRange.outside("profile", 0.0, self.r_reach, arr)
        np.clip(arr, 0.0, self.r_reach, out=arr)
        if self.r_reach == self.r_end:
            return arr, arr, arr < self.r_start
        return arr, np.minimum(arr, self.r_end), (arr < self.r_start) | (arr > self.r_end)

    def value(self, r) -> np.ndarray:
        """Dense v alone at radii in [0, r_reach], as an array even for a scalar ``r``."""
        arr, on_chart, on_series = self._covered(r)
        v = self._v_interp.value(on_chart)
        if on_series.any():
            v[on_series] = series_derivatives(self.series, arr[on_series], 0)[0]
        return v

    def eval(self, r):
        """Dense (v, v') at radii in [0, r_reach]."""
        arr, on_chart, on_series = self._covered(r)
        v = self._v_interp.value(on_chart)
        dv = self._v_interp.derivative(on_chart)
        if on_series.any():
            v[on_series], dv[on_series] = series_derivatives(self.series, arr[on_series], 1)
        return (float(v[0]), float(dv[0])) if np.ndim(r) == 0 else (v, dv)


@dataclass(frozen=True)
class LogProfile:
    """Samples (s, w, w_s) of a log-chart solution with dense evaluation.

    g = w_s - sigma*w is the integrated decay residual (see module docstring);
    it is exact state, not a difference of large numbers. v is recoverable as
    v = (w * e^(-2s))^(1/(1-m)).

    ``wsss`` holds w_sss at the nodes of the DOP853 stretch, the first
    ``wsss.size`` nodes, up to the first switch (to Radau IIA or to the slow
    tail). w is one ``Hermite`` of all four: septic over that stretch, of
    the order of the steps, where w_s is its derivative, and quintic past
    it, where w_s is g + sigma*w. g is cubic on the whole chart.
    """

    s: np.ndarray
    w: np.ndarray
    ws: np.ndarray
    wss: np.ndarray
    wsss: np.ndarray
    g: np.ndarray
    gs: np.ndarray
    sigma: float
    m: float
    rtol: float
    n_steps: int = 0
    n_rejected: int = 0
    nfev: int = 0
    # Log-radius past which the fast mode was slaved to the slow manifold
    # (None when the whole span was integrated with the full system).
    qss_switch_s: float | None = None
    # |g - G(w)|/|G| at that switch node (|g| where G = 0): the jump the
    # handover puts into g.
    qss_gap: float | None = None
    # Log-radius where the full system went from DOP853 to Radau IIA (None
    # when DOP853 stepped it to its end).
    stiff_switch_s: float | None = None

    @property
    def s_start(self) -> float:
        return float(self.s[0])

    @property
    def s_end(self) -> float:
        return float(self.s[-1])

    @cached_property
    def _w_interp(self):
        # Quintic, not septic, past the switch: on the Radau IIA stretch a
        # septic w, with w_sss from the right-hand side, was 1.3-3.1x less
        # accurate between the nodes against a Radau reference at rtol 1e-13
        # on the eternal decay grid.
        return Hermite(self.s, self.w, self.ws, self.wss, self.wsss)

    @cached_property
    def _g_interp(self):
        # Cubic, not quintic: once the chart is stiff the Radau IIA steps run
        # at h*rho(J) up to ~500, and a g_ss taken from the right-hand side
        # multiplies the node error by (h*rho)^2. Against a Radau reference at
        # rtol 1e-13 on the eternal decay grid, a quintic g was 10-57x less
        # accurate between the stiff nodes and moved the n = 7, m = 5/9 decay
        # value by 2.9e-8.
        return Hermite(self.s, self.g, self.gs)

    def _check(self, s):
        arr = np.asarray(s, dtype=float)
        lo, hi = self.s_start, self.s_end
        slack = _RANGE_SLACK * max(1.0, abs(lo), abs(hi))
        if not np.all((arr >= lo - slack) & (arr <= hi + slack)):
            raise OutOfRange.outside("log chart", lo, hi, arr)
        return np.clip(arr, lo, hi)

    def eval_w(self, s):
        return self._w_interp.value(self._check(s))

    def eval_g(self, s):
        return self._g_interp.value(self._check(s))

    def eval_ws(self, s):
        return _by_stretch(
            self._check(s),
            self.s[self.wsss.size - 1],
            self._w_interp.derivative,
            lambda x: self._g_interp.value(x) + self.sigma * self._w_interp.value(x),
        )

    def eval_v(self, s):
        """Profile value v at log-radius s."""
        sq = self._check(s)
        return (self._w_interp.value(sq) * np.exp(-2.0 * sq)) ** (1.0 / (1.0 - self.m))


def _r_rhs(n: int, m: float, alpha: float, beta: float):
    n1 = float(n - 1)
    one_m = 1.0 - m

    def rhs(r, v, dv):
        if v <= 0.0 or not math.isfinite(v):
            return math.nan, math.nan
        return dv, one_m * dv * dv / v - n1 * dv / r - v**one_m * (alpha * v + beta * r * dv) / n1

    return rhs


def _r_jac(n: int, m: float, alpha: float, beta: float):
    """Jacobian (0, 1, F_v, F_v') of the r-chart's right-hand side (v', F), at floats or at arrays of nodes.

    p = v^(1-m)/(n-1) is the factor of the drift term.
    """
    n1 = float(n - 1)
    one_m = 1.0 - m

    def jac(r, v, dv):
        p = v**one_m / n1
        slope = dv / v
        f_v = -one_m * slope * slope - one_m * p * (alpha + beta * r * slope) - p * alpha
        return 0.0, 1.0, f_v, 2.0 * one_m * slope - n1 / r - p * beta * r

    return jac


def _r_third_derivative(n: int, m: float, alpha: float, beta: float, r, v, dv, ddv):
    """v''' at arrays of r-chart nodes: the derivative of the right-hand side along the solution.

    With v'' = F(r, v, v'), v''' = F_r + F_v*v' + F_v'*v'', F_v and F_v' from ``_r_jac``.
    """
    n1 = float(n - 1)
    _, _, f_v, f_dv = _r_jac(n, m, alpha, beta)(r, v, dv)
    f_r = n1 * dv / (r * r) - v ** (1.0 - m) / n1 * beta * dv
    return f_r + f_v * dv + f_dv * ddv


class _ChartCoeffs(NamedTuple):
    """The (w, g) chart: w_s = g + sigma*w, g_s = c_sq*g^2/w + c_g*g + c_wg*w*g + c_w*w."""

    sigma: float
    c_sq: float
    c_g: float
    c_wg: float
    c_w: float


def _chart_coeffs(n: int, m: float, alpha: float, beta: float) -> _ChartCoeffs:
    """Coefficients of the (w, g) chart (beta > 0), shared by the full system and the slow tail.

    The w^2 coefficient -(beta*sigma + rho1)/(n-1) vanishes identically by the
    choice sigma = -rho1/beta and is dropped rather than computed (a rounded
    near-zero coefficient would be amplified by w^2 over long spans).
    """
    one_m = 1.0 - m
    rho1, _ = exponent_relation(m, alpha, beta)
    c_sq = (1.0 - 2.0 * m) / one_m
    c_lin = 2.0 * (n - 2 - n * m) / one_m
    b0 = (n - 2 - (n + 2) * m) / one_m
    sigma = -rho1 / beta
    c_g = (2.0 * sigma) * c_sq - b0 - sigma
    c_w = -sigma * sigma * m / one_m - b0 * sigma + c_lin
    return _ChartCoeffs(sigma, c_sq, c_g, -beta / float(n - 1), c_w)


def _log_rhs(cc: _ChartCoeffs):
    """Right-hand side of the (w, g) system."""
    sigma, c_sq, c_g, c_wg, c_w = cc

    def rhs(s, w, g):
        if w <= 0.0 or not math.isfinite(w):
            return math.nan, math.nan
        return g + sigma * w, c_sq * g * g / w + c_g * g + c_wg * w * g + c_w * w

    return rhs


def _log_jac(cc: _ChartCoeffs):
    """Jacobian of the (w, g) right-hand side: (dw_s/dw, dw_s/dg, dg_s/dw, dg_s/dg)."""
    sigma, c_sq, c_g, c_wg, c_w = cc

    def jac(s, w, g):
        gw = g / w
        return sigma, 1.0, -c_sq * gw * gw + c_wg * g + c_w, 2.0 * c_sq * gw + c_g + c_wg * w

    return jac


def integrate_r(
    n: int, m: float, alpha: float, beta: float, eta: float, r_max: float, tol: float = SolveConfig.tol
) -> Profile:
    """Integrate the r-chart from the origin series (``seed_within`` at ``tol``) out to r_max.

    The series is exact to ``tol`` up to its handoff, at most r = 0.5 and
    never past r_max/2, so the chart always has a stretch to step. The
    chart passes its Jacobian (``_r_jac``), so ``rk`` hands it from DOP853
    to Radau IIA once it is stiff (``stiff_switch_r``), at the tighter pair
    ``chart_tolerances("r_stiff", tol)``. The fast rate, about
    beta*r*v^(1-m)/(n-1), grows like r^(1 - alpha*(1-m)/beta) where v
    behaves like r^(-alpha/beta), so it rises without bound for every
    alpha < 0 and for 0 < alpha < beta/(1-m). On the INVARIANT_GRID rows to
    r = 25 the chart switches exactly on the four with alpha < 0. Where it
    does not switch, the nodes are those of DOP853 alone. v''' for the
    septic dense output is evaluated over the DOP853 stretch once the solve
    is done. Takes plain scalars rather than Parameters so that m = 0 is
    accepted: the chart then solves the log-diffusion equation of the
    singular limit."""
    if not (0.0 <= m < 1.0 and eta > 0.0):
        raise ValueError(f"r-chart requires 0 <= m < 1 and eta > 0, got m = {m}, eta = {eta}")
    if not r_max > 0.0:
        raise ValueError(f"r-chart requires r_max > 0, got {r_max}")
    se = seed_within(n, m, alpha, beta, eta, tol)
    start = min(se.r_start, 0.5 * r_max)
    v0, dv0 = eval_series(se, start)
    rtol, atol = chart_tolerances("r", tol)
    path = integrate_2d(
        _r_rhs(n, m, alpha, beta), start, v0, dv0, r_max, rtol, atol, positive_y=True,
        jac=_r_jac(n, m, alpha, beta), stiff_tol=chart_tolerances("r_stiff", tol),
    )
    # the DOP853 stretch, where v is septic, ends at the switch node
    k = path.n_explicit
    return Profile(
        r=path.t,
        v=path.y,
        dv=path.z,
        ddv=path.fz,
        dddv=_r_third_derivative(n, m, alpha, beta, path.t[:k], path.y[:k], path.z[:k], path.fz[:k]),
        series=se,
        rtol=rtol,
        n_steps=path.n_steps,
        n_rejected=path.n_rejected,
        nfev=path.nfev,
        stiff_switch_r=path.t_stiff,
    )


def radius(s):
    """r = e^s, infinite where it passes the float range (s > 709.78) instead of overflowing."""
    with np.errstate(over="ignore"):
        return np.exp(s)


def _w_q(r, v, dv, m):
    """Chart change (v, v') -> (w, q) = (r^2 v^(1-m), r w_r); q is w_s in the log chart."""
    w = r * r * v ** (1.0 - m)
    return w, w * (2.0 + (1.0 - m) * r * dv / v)


def handoff_to_log(profile: Profile, r_h: float, m: float) -> tuple[float, float, float]:
    """Exact chart change at radius r_h: (s, w, w_s) from (v, v')."""
    v, dv = profile.eval(r_h)
    if v <= 0.0:
        raise ProfileError(f"cannot hand off at r = {r_h}: v = {v} is not positive")
    return (math.log(r_h), *_w_q(r_h, v, dv, m))


# Slave g to the slow manifold once the fast relaxation rate beta*w/(n-1)
# exceeds this multiple of max(1, sigma), or later where the series needs it
# (``_qss_switch``). Past that point the terms of the manifold series in 1/w
# shrink by a factor of order (k + |c_g|)/_QSS_RATE from term k to term k+1:
# up to ~0.3 per term at n = 10, m near 0. At 1000 the Radau IIA stretch up
# to the switch cost ~40% of the log chart's right-hand side calls.
_QSS_RATE = 100.0
_QSS_MIN_SIGMA = 0.02
# Terms d_0..d_24 of the manifold series. At the rate above, 24 terms bring
# the first one left out below 2^-53 of d_0 on n = 3..10 (worst at n = 10 with
# m near 0 and sigma near _QSS_MIN_SIGMA). From n = 12 on that takes more
# terms than this (beyond n = 23 not even 60 do), and ``_qss_switch`` moves
# the switch out to where d_25*w^-25 is that small.
_SERIES_TERMS = 25
# The tail's nodes are at most _QSS_DLY apart in log w, steps of about
# _QSS_DLY/sigma in s, where the quintic dense output of w is accurate. The
# switch can fall below r = 20, where the invariant checks read the chart:
# there the flux identity's mismatch stays within 1.8x of the Radau-stepped
# chart's at this spacing, and rose up to 36x at 0.15.
_QSS_DLY = 0.08
# The tail takes Phi, the integral of G/F in x = 1/w (``_slow_tail``), from
# one Chebyshev interpolant of G/F at this many Lobatto points of
# [0, 1/w_switch]. Near sigma = _QSS_MIN_SIGMA, F = sigma + x*G vanishes
# just left of that interval (at x = -0.13/w_switch for n = 10, m = 0.0008,
# sigma = 0.021), where 32 points left 1.3e-9 in the tail's s. At 64 the
# nodes' s stay within 3.3e-13 of an adaptive quadrature of 1/F for n up
# to 30, m from 0 to (n-2)/n and sigma from 0.021 to 2.99.
_PHI_POINTS = 64
_CHEB_T = np.polynomial.chebyshev.chebpts2(_PHI_POINTS)
# Values at _CHEB_T -> Chebyshev coefficients of the antiderivative that vanishes at t = -1
_CHEB_ANTIDERIVATIVE = np.polynomial.chebyshev.chebint(
    np.linalg.inv(np.polynomial.chebyshev.chebvander(_CHEB_T, _PHI_POINTS - 1)), lbnd=-1.0, axis=0
)
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _manifold_series(cc: _ChartCoeffs, terms: int = _SERIES_TERMS) -> list[float]:
    """Coefficients d_0..d_(terms-1) of the slow manifold g = G(w) = sum of d_k*w^(-k) (beta > 0).

    Substituting G into G'(w)*(G + sigma*w) = g_s and matching powers of w gives
    d_0 = -c_w/c_wg and d_(j+1) = ([G'G]_j - j*sigma*d_j - c_sq*[G^2]_(j-1) - c_g*d_j)/c_wg,
    with [.]_j the coefficient of w^(-j); [G'G]_j - c_sq*[G^2]_(j-1) is the sum of
    -(k + c_sq)*d_k*d_(j-1-k) over k < j.
    """
    d = [-cc.c_w / cc.c_wg]
    for j in range(terms - 1):
        conv = sum((k + cc.c_sq) * d[k] * d[j - 1 - k] for k in range(j))
        d.append(-(conv + (j * cc.sigma + cc.c_g) * d[j]) / cc.c_wg)
    return d


def _qss_switch(cc: _ChartCoeffs, n: int, beta: float) -> tuple[list[float], float]:
    """The tail's series d_0..d_(_SERIES_TERMS-1) and the w past which g is slaved to it.

    That w is the larger of the rate rule, beta*w/(n-1) = _QSS_RATE*max(1, sigma),
    and the smallest w at which the first term left out, |d_K|*w^(-K) with
    K = _SERIES_TERMS, is at most 2^-53*|d_0|. G there lies within 0.82..1.34
    of d_0 (n = 3..30, sigma up to 30), so that term is below 2^-52 of G.
    """
    *d, d_out = _manifold_series(cc, _SERIES_TERMS + 1)
    w_rate = _QSS_RATE * max(1.0, cc.sigma) * (n - 1) / beta
    # d_0 = 0 makes every d_k vanish (g = 0 is then invariant)
    w_series = (abs(d_out) / (2.0**-53 * abs(d[0]))) ** (1.0 / _SERIES_TERMS) if d_out else 0.0
    return d, max(w_rate, w_series)


def _clenshaw(c: list[float], t):
    """sum of c[k]*T_k(t) by Clenshaw's rule, on a float or element by element on an array."""
    b1 = b2 = 0.0
    t2 = 2.0 * t
    for ck in c[:0:-1]:
        b1, b2 = t2 * b1 - b2 + ck, b1
    return t * b1 - b2 + c[0]


def _slow_tail(sigma: float, d: list[float], s0: float, ly0: float, s_end: float) -> tuple[np.ndarray, ...]:
    """Nodes (s, w, g, g_s) of the slow-manifold tail after (s0, log w = ly0), the last at s_end.

    On the manifold g = G, the polynomial in x = 1/w with coefficients ``d``
    (``_manifold_series``), so d(log w)/ds = F = sigma + x*G and
    g_s = G'(w)*w_s = -x*G_x*F, where neither can overflow or cancel. As
    1/F = (1 - x*G/F)/sigma and d(log w) = -dx/x, the manifold keeps

        sigma*s = log w + Phi(1/w) - log C,  Phi(x) = integral of G/F from 0 to x,

    with C = lim w*e^(-sigma*s), so log C is read at the switch node. Phi
    comes from one Chebyshev interpolant of G/F on [0, 1/w_switch] at
    ``_PHI_POINTS`` Lobatto points, integrated by a constant matrix and
    summed by Clenshaw's rule. Newton's method on the relation, whose
    derivative in log w is sigma/F, finds log w at s_end; k equal pieces of
    at most _QSS_DLY in log w lead up to it, and each node's s is explicit.
    """
    x0 = math.exp(-ly0)
    # G/F at the points of [0, x0], the last x0 itself
    x = 0.5 * x0 * (_CHEB_T + 1.0)
    g = horner(d, x)
    f = sigma + x * g
    if not np.all(f > 0.0):
        raise ProfileError("log w stops growing on the slow manifold", s0)
    # Phi(x) = sum of c_k*T_k(2x/x0 - 1); the c_k fall geometrically, and
    # those below rounding of the largest are dropped
    c = 0.5 * x0 * (_CHEB_ANTIDERIVATIVE @ (g / f))
    c = c[: np.flatnonzero(np.abs(c) >= 2.0**-53 * np.abs(c).max())[-1] + 1].tolist()
    log_c = ly0 + _clenshaw(c, 1.0) - sigma * s0

    # Newton for log w at s_end. F moves monotonically from F(x0) to sigma, so
    # holding F at F(x0) and setting Phi = 0 both over- or both undershoot,
    # the relation is convex or concave to match, and Newton from the nearer
    # of the two moves to the root from that side, inside the fitted interval
    f0 = float(f[-1])
    near = min if f0 > sigma else max
    end = near(ly0 + f0 * (s_end - s0), sigma * s_end + log_c)
    for _ in range(8):
        x = math.exp(-end)
        res = end + _clenshaw(c, 2.0 * x / x0 - 1.0) - log_c - sigma * s_end
        end = max(end - res * (sigma + x * horner(d, x)) / sigma, ly0)
        if abs(res) <= 1e-15 * end:
            break
    # every stored value, up to w_ss ~ sigma^2*w, must stay finite
    ly_max = _LOG_FLOAT_MAX - 2.0 * math.log(max(1.0, sigma))
    if not end <= ly_max:
        raise ProfileError(
            "w = r^2 v^(1-m) overflows the float range on the slow manifold; lower s_end",
            s0 + (ly_max - ly0) / sigma,
        )
    # k equal pieces up to it, none longer than _QSS_DLY and none a sliver
    ly = np.linspace(ly0, end, max(1, math.ceil((end - ly0) / _QSS_DLY)) + 1)[1:]
    x = np.exp(-ly)
    s = (ly + _clenshaw(c, 2.0 * x / x0 - 1.0) - log_c) / sigma
    s[-1] = s_end
    # G and G_x at the nodes by one Horner loop; g_s = G'(w)*w_s = -x*G_x*F
    g, gx = d[-1], 0.0
    for dk in d[-2::-1]:
        gx = gx * x + g
        g = g * x + dk
    return s, np.exp(ly), g, -x * gx * (sigma + x * g)


def integrate_log(
    n: int,
    m: float,
    alpha: float,
    beta: float,
    start: tuple[float, float, float],
    s_max: float,
    tol: float = SolveConfig.tol,
) -> LogProfile:
    """Integrate the log chart from (s, w, w_s) to s_max; beta must be positive.

    ``tol`` is the r-chart relative tolerance; the log chart's own pair comes
    from ``chart_tolerances``.

    Takes plain scalars so that m = 0 is accepted: the chart then continues
    the log-diffusion solution that ``integrate_r`` gives at m = 0.

    The fast mode g relaxes at a rate that grows like beta*w/(n-1), so the
    chart turns stiff as w grows. Its analytic Jacobian goes to integrate_2d,
    which takes DOP853 steps and hands the (w, g) system to Radau IIA once the
    explicit steps are bound by stability (``stiff_switch_s``). Up to the
    first switch w is septic Hermite, with w_sss = g_ss + sigma*w_ss and
    g_ss = J.(w_s, g_s) from the Jacobian, so the dense output keeps the
    8th-order accuracy of the nodes where the flux identity reads the chart
    at r = 20.

    When w grows exponentially (sigma > 0, i.e. alpha < 2*beta/(1-m)) the fast
    mode makes the system stiffer without bound, so once its relaxation rate
    passes a threshold the integration continues on the slow manifold: g is
    the chart's own manifold series in 1/w, built once from the chart
    coefficients, and the scalar equation left for log w is autonomous, so
    nothing is stepped: on the manifold log w - sigma*s + Phi(1/w) is the
    constant log C, with Phi the integral of G/F in x = 1/w, and
    ``_slow_tail`` places its nodes from that relation, with Phi from one
    Chebyshev interpolant of G/F built at the switch.
    ``qss_gap`` records the jump this puts into g: |g - G(w)|/|G| at the
    switch node reads 1.5e-14..1.9e-12 on the invariant grid (n <= 6) and up
    to 3.3e-10 at n = 20, inside the chart's rtol of 1e-9. It is the stepped
    g's error off the manifold that the true solution has long relaxed onto.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"log chart requires 0 <= m < 1, got {m}")
    if not beta > 0.0:
        raise HypothesisViolation(f"log chart requires beta > 0, got {beta}")
    s0, w0, ws0 = start
    cc = _chart_coeffs(n, m, alpha, beta)
    sigma = cc.sigma
    g0 = ws0 - sigma * w0
    rtol, atol = chart_tolerances("log", tol)

    w_stop = None
    if sigma > _QSS_MIN_SIGMA:
        d, w_stop = _qss_switch(cc, n, beta)
        if w0 >= w_stop:
            # already stiff at the start; step explicitly through one
            # relaxation scale before slaving
            w_stop = 2.0 * w0
    jac = _log_jac(cc)
    path = integrate_2d(
        _log_rhs(cc), s0, w0, g0, s_max, rtol, atol, positive_y=True, stop_when_y_above=w_stop, jac=jac
    )
    s_arr, w_arr, g_arr, gs_arr = path.t, path.y, path.z, path.fz
    switch_s = gap = None
    if w_stop is not None and s_arr[-1] < s_max * (1.0 - 1e-12) - 1e-12:
        switch_s = float(s_arr[-1])
        # where G is exactly 0 (alpha = 0 can round c_w to 0) the gap is read absolute
        g_manifold = horner(d, 1.0 / w_arr[-1])
        gap = float(abs(g_arr[-1] - g_manifold) / (abs(g_manifold) or 1.0))
        tail = _slow_tail(sigma, d, switch_s, math.log(w_arr[-1]), s_max)
        s_arr, w_arr, g_arr, gs_arr = (np.concatenate(pair) for pair in zip((s_arr, w_arr, g_arr, gs_arr), tail))

    ws = g_arr + sigma * w_arr
    wss = gs_arr + sigma * ws
    # the DOP853 stretch ends at the first switch, to Radau IIA or to the tail
    k = path.n_explicit
    _, _, dgs_dw, dgs_dg = jac(None, w_arr[:k], g_arr[:k])
    return LogProfile(
        s=s_arr,
        w=w_arr,
        ws=ws,
        wss=wss,
        wsss=dgs_dw * ws[:k] + dgs_dg * gs_arr[:k] + sigma * wss[:k],
        g=g_arr,
        gs=gs_arr,
        sigma=sigma,
        m=m,
        rtol=rtol,
        n_steps=path.n_steps + s_arr.size - path.t.size,  # a tail node counts as a step
        n_rejected=path.n_rejected,
        nfev=path.nfev,
        qss_switch_s=switch_s,
        qss_gap=gap,
        stiff_switch_s=path.t_stiff,
    )


class ChartNodes(NamedTuple):
    """The nodes of both charts, the first ``seam`` of them the r-chart's: r, w and g = r*w_r - sigma*w.

    The r-chart's side starts with samples of the origin series at
    r_start*2^-k, k = 12..1, so that the radii it alone covers are read too.
    There w and g come from (v, v'); on the log chart they are its state,
    where g is exact.
    """

    r: np.ndarray
    w: np.ndarray
    g: np.ndarray
    seam: int

    def increments(self, x):
        """Increments of ``x`` between neighbouring nodes of one chart, with the radius each ends at."""
        within = np.arange(1, self.r.size) != self.seam
        return np.diff(x)[within], self.r[1:][within]


# Samples of the series segment [0, r_start] in the node view, as fractions of r_start.
_SERIES_SAMPLES = 2.0 ** -np.arange(12.0, 0.0, -1.0)


@dataclass(frozen=True)
class Solution:
    """Combined two-chart solution with dense evaluation across both charts.

    Immutable after construction and safe to share read-only. Dense queries
    prefer the (tighter-tolerance) r-chart wherever it reaches (``r_reach``)
    and switch to the log chart beyond, so a finite-difference stencil
    evaluated inside one chart never straddles the seam. ``nodes``, the
    node view the pointwise checks read, is built once on first use.
    """

    params: Parameters
    profile: Profile
    logprofile: LogProfile
    diagnostics: dict

    @cached_property
    def nodes(self) -> ChartNodes:
        prof, lp = self.profile, self.logprofile
        inner = _SERIES_SAMPLES * prof.r_start
        v, dv = (np.concatenate(pair) for pair in zip(eval_series(prof.series, inner), (prof.v, prof.dv)))
        r = np.concatenate([inner, prof.r])
        w, q = _w_q(r, v, dv, self.params.m)
        return ChartNodes(
            r=np.concatenate([r, radius(lp.s)]),
            w=np.concatenate([w, lp.w]),
            g=np.concatenate([q - lp.sigma * w, lp.g]),
            seam=r.size,
        )

    @property
    def r_cover(self) -> float:
        """Largest radius served by dense evaluation."""
        return max(self.profile.r_end, float(radius(self.logprofile.s_end)))

    def _by_chart(self, r, on_r, on_log, rows):
        """``rows`` outputs: ``on_r(radii)`` where the r-chart reaches, ``on_log(log r, radii)`` beyond."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all((arr >= 0.0) & (arr <= self.r_cover * (1.0 + _RANGE_SLACK))):
            raise OutOfRange.outside("solution", 0.0, self.r_cover, arr)
        in_r = arr <= self.profile.r_reach
        rest = ~in_r
        out = np.empty((rows, *arr.shape))
        if in_r.any():
            out[:, in_r] = on_r(arr[in_r])
        if rest.any():
            out[:, rest] = on_log(np.log(arr[rest]), arr[rest])
        out = out[:, 0].tolist() if np.ndim(r) == 0 else list(out)
        return out[0] if rows == 1 else tuple(out)

    def v(self, r):
        """Profile value v(r) across both charts."""
        return self._by_chart(r, self.profile.value, lambda s, _: self.logprofile.eval_v(s), 1)

    def dv(self, r):
        """Radial derivative v'(r) across both charts."""
        lp = self.logprofile

        def on_log(s, rr):
            return lp.eval_v(s) * (lp.eval_ws(s) / lp.eval_w(s) - 2.0) / ((1.0 - self.params.m) * rr)

        return self._by_chart(r, lambda rr: self.profile.eval(rr)[1], on_log, 1)

    def w_q(self, r):
        """(w, q) = (r^2 v^(1-m), r w_r) at radius r, from whichever chart covers it."""
        lp = self.logprofile
        return self._by_chart(
            r, lambda rr: _w_q(rr, *self.profile.eval(rr), self.params.m), lambda s, _: (lp.eval_w(s), lp.eval_ws(s)), 2
        )


def _overlap_error(profile: Profile, logprofile: LogProfile, m: float, r_h: float) -> float:
    """Max relative disagreement of w between the charts on [r_h, 2*r_h], as far as both reach."""
    hi = min(2.0 * r_h, profile.r_end)
    if logprofile.s_end < math.log(hi):
        hi = math.exp(logprofile.s_end)
    rs = np.geomspace(r_h, hi, 33)
    w_r, _ = _w_q(rs, *profile.eval(rs), m)
    w_s = logprofile.eval_w(np.log(rs))
    return float(np.max(np.abs(w_r - w_s) / np.abs(w_s)))


def solve_profile(p: Parameters, config: SolveConfig = SolveConfig()) -> Solution:
    """Series seed, r-chart, handoff, log chart, and the overlap diagnostic.

    Raises HypothesisViolation outside the existence range; ``integrate_r``
    has no gate and probes behaviour there (for example where the solver
    loses positivity).
    """
    require(p, "solve_profile", "existence_ok")
    profile = integrate_r(p.n, p.m, p.alpha, p.beta, p.eta, max(config.r_max, 2.0 * R_HANDOFF), config.tol)
    start = handoff_to_log(profile, R_HANDOFF, p.m)
    logprofile = integrate_log(p.n, p.m, p.alpha, p.beta, start, config.s_end, config.tol)
    overlap = _overlap_error(profile, logprofile, p.m, R_HANDOFF)
    diagnostics = {
        "qss_switch_s": logprofile.qss_switch_s,
        "qss_gap": logprofile.qss_gap,
        "stiff_switch_s": logprofile.stiff_switch_s,
        "r_stiff_switch": profile.stiff_switch_r,
        "r_steps": profile.n_steps,
        "r_rejected": profile.n_rejected,
        "s_steps": logprofile.n_steps,
        "s_rejected": logprofile.n_rejected,
        "r_nfev": profile.nfev,
        "s_nfev": logprofile.nfev,
        "overlap_error": overlap,
        "series_r_switch": profile.r_start,
        "series_truncation": profile.series.truncation_estimate,
    }
    return Solution(
        params=p,
        profile=profile,
        logprofile=logprofile,
        diagnostics=diagnostics,
    )
