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
from .series import SeriesExpansion, eval_series, seed_within

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
    every chart's (rtol, atol) from it. The log chart runs from s = 0
    (r = R_HANDOFF) to ``s_end``.
    """

    r_max: float = 10.0
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


def chart_tolerances(chart: str, tol: float) -> tuple[float, float]:
    """(rtol, atol) of the "r" or "log" chart for the r-chart relative tolerance ``tol``.

    The log chart runs 10x looser than the r-chart because its span is much
    longer (s_end = 40 reaches r ~ 2.4e17). Every chart's absolute tolerance
    is 1/100 of its relative one in the mixed error scale atol + rtol*|y| of
    the step control (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4).
    """
    rtol = tol * 10.0 if chart == "log" else tol
    return rtol, rtol * 1e-2


# Gauss-Legendre rule on [-1, 1]; 8 points are exact to degree 15.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def quad(f, a: float, b, breaks):
    """Integrals of the vectorized ``f`` from ``a`` to every upper limit in ``b`` (a float for scalar ``b``).

    One Gauss-Legendre rule per piece of [a, max(b)] cut at every upper limit and at every entry
    of ``breaks`` inside it, summed cumulatively. A repeated cut only adds an empty piece
    (np.unique would import numpy.ma, ~15 ms on a first call).
    """
    ends = np.asarray(b, dtype=float)
    breaks = np.asarray(breaks, dtype=float)
    x = np.sort(np.concatenate(([a], breaks[(breaks > a) & (breaks < ends.max())], ends.ravel())))
    half = 0.5 * np.diff(x)
    nodes = (x[:-1] + half)[:, None] + half[:, None] * _GL_X
    cum = np.concatenate(([0.0], np.cumsum(half * (f(nodes.ravel()).reshape(nodes.shape) @ _GL_W))))
    out = cum[np.searchsorted(x, ends)]
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Profile:
    """Samples (r, v, v') of an r-chart solution with dense evaluation.

    ``ddv`` holds v'' from the equation at each node and ``dddv`` its
    derivative along the solution (``_r_third_derivative``), so the dense
    output is septic Hermite, of the order of the chart's DOP853 steps: it is
    as accurate between the nodes as at them, where the finite-difference
    residual checks and the identity quadratures read it. Radii below the
    first node are served by the origin series. ``nfev`` counts right-hand-side
    calls.
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

    @property
    def r_start(self) -> float:
        return float(self.r[0])

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @cached_property
    def _value_interp(self):
        return Hermite(self.r, self.v, self.dv, self.ddv, self.dddv)

    def _covered(self, r):
        arr = np.atleast_1d(np.asarray(r, dtype=float)).copy()
        if not np.all((arr >= 0.0) & (arr <= self.r_end * (1.0 + _RANGE_SLACK))):
            raise OutOfRange(f"profile covers [0, {self.r_end:.6g}], requested {r}")
        np.clip(arr, 0.0, self.r_end, out=arr)
        return arr, arr < self.r_start

    def value(self, r) -> np.ndarray:
        """Dense v alone at radii in [0, r_end], as an array even for a scalar ``r``."""
        arr, inner = self._covered(r)
        v = self._value_interp.value(arr)
        if inner.any():
            v[inner] = eval_series(self.series, arr[inner])[0]
        return v

    def eval(self, r):
        """Dense (v, v') at radii in [0, r_end]."""
        arr, inner = self._covered(r)
        v = self._value_interp.value(arr)
        dv = self._value_interp.derivative(arr)
        if inner.any():
            v[inner], dv[inner] = eval_series(self.series, arr[inner])
        return (float(v[0]), float(dv[0])) if np.ndim(r) == 0 else (v, dv)


@dataclass(frozen=True)
class LogProfile:
    """Samples (s, w, w_s) of a log-chart solution with dense evaluation.

    g = w_s - sigma*w is the integrated decay residual (see module docstring);
    it is exact state, not a difference of large numbers. v is recoverable as
    v = (w * e^(-2s))^(1/(1-m)).
    """

    s: np.ndarray
    w: np.ndarray
    ws: np.ndarray
    wss: np.ndarray
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
    # Log-radius where the full system went from DP5 to Radau IIA (None when
    # DP5 stepped it to its end).
    stiff_switch_s: float | None = None

    @property
    def s_start(self) -> float:
        return float(self.s[0])

    @property
    def s_end(self) -> float:
        return float(self.s[-1])

    @cached_property
    def _w_interp(self):
        return Hermite(self.s, self.w, self.ws, self.wss)

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
            raise OutOfRange(f"log chart covers [{lo:.6g}, {hi:.6g}], requested {s}")
        return np.clip(arr, lo, hi)

    def eval_w(self, s):
        return self._w_interp.value(self._check(s))

    def eval_g(self, s):
        return self._g_interp.value(self._check(s))

    def eval_ws(self, s):
        sq = self._check(s)
        return self._g_interp.value(sq) + self.sigma * self._w_interp.value(sq)

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


def _r_third_derivative(n: int, m: float, alpha: float, beta: float, r, v, dv, ddv):
    """v''' at arrays of r-chart nodes: the derivative of the right-hand side along the solution.

    With v'' = F(r, v, v'), v''' = F_r + F_v*v' + F_v'*v''; p = v^(1-m)/(n-1) is
    the factor of the drift term.
    """
    n1 = float(n - 1)
    one_m = 1.0 - m
    p = v**one_m / n1
    slope = dv / v
    f_r = n1 * dv / (r * r) - p * beta * dv
    f_v = -one_m * slope * slope - one_m * p * (alpha + beta * r * slope) - p * alpha
    f_dv = 2.0 * one_m * slope - n1 / r - p * beta * r
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
    """Integrate the r-chart from the origin seed (``seed_within`` at ``tol``) out to r_max.

    The chart passes no Jacobian, so it takes DOP853 steps (see ``rk``): at
    its rtol of 1e-10 the 8th-order method takes about a third of DP5's steps
    for fewer right-hand side calls. v''' for the septic dense output is
    evaluated over all nodes once the solve is done. Takes plain
    scalars rather than Parameters so that m = 0 is accepted: the chart then
    solves the log-diffusion equation of the singular limit."""
    if not (0.0 <= m < 1.0 and eta > 0.0):
        raise ValueError(f"r-chart requires 0 <= m < 1 and eta > 0, got m = {m}, eta = {eta}")
    se = seed_within(n, m, alpha, beta, eta, tol)
    start = se.r_start
    if r_max <= start:
        raise ValueError(f"r_max = {r_max} must exceed the series handoff {start}")
    v0, dv0 = eval_series(se, start)
    rtol, atol = chart_tolerances("r", tol)
    path = integrate_2d(_r_rhs(n, m, alpha, beta), start, v0, dv0, r_max, rtol, atol, positive_y=True)
    return Profile(
        r=path.t,
        v=path.y,
        dv=path.z,
        ddv=path.fz,
        dddv=_r_third_derivative(n, m, alpha, beta, path.t, path.y, path.z, path.fz),
        series=se,
        rtol=rtol,
        n_steps=path.n_steps,
        n_rejected=path.n_rejected,
        nfev=path.nfev,
    )


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
# exceeds this multiple of max(1, sigma). Past that point the terms of the
# manifold series in 1/w shrink by a factor of order (k + |c_g|)/_QSS_RATE
# from term k to term k+1: up to ~2e-2 per term at n = 10, m near 0.
_QSS_RATE = 1000.0
_QSS_MIN_SIGMA = 0.02
# Terms d_0..d_7 of the manifold series. By that fall-off the first term left
# out is at most 1.7e-15 of G at the switch on n = 3..10 (worst at n = 10 with
# sigma near _QSS_MIN_SIGMA; 6 terms would leave 4.5e-12 there).
_SERIES_TERMS = 8
# The tail's nodes are at most _QSS_DLY apart in log w, steps of about
# _QSS_DLY/sigma in s, where the quintic dense output of w is accurate.
_QSS_DLY = 0.15
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _manifold_series(cc: _ChartCoeffs) -> list[float]:
    """Coefficients d_k of the slow manifold g = G(w) = sum of d_k*w^(-k), k < _SERIES_TERMS (beta > 0).

    Substituting G into G'(w)*(G + sigma*w) = g_s and matching powers of w gives
    d_0 = -c_w/c_wg and d_(j+1) = ([G'G]_j - j*sigma*d_j - c_sq*[G^2]_(j-1) - c_g*d_j)/c_wg,
    with [.]_j the coefficient of w^(-j); [G'G]_j - c_sq*[G^2]_(j-1) is the sum of
    -(k + c_sq)*d_k*d_(j-1-k) over k < j.
    """
    d = [-cc.c_w / cc.c_wg]
    for j in range(_SERIES_TERMS - 1):
        conv = sum((k + cc.c_sq) * d[k] * d[j - 1 - k] for k in range(j))
        d.append(-(conv + (j * cc.sigma + cc.c_g) * d[j]) / cc.c_wg)
    return d


def _slow_tail(cc: _ChartCoeffs, s0: float, ly0: float, s_end: float) -> tuple[np.ndarray, ...]:
    """Nodes (s, w, g, g_s) of the slow-manifold tail after (s0, log w = ly0), the last at s_end.

    On the manifold g = G, a polynomial in x = 1/w (``_manifold_series``), so
    d(log w)/ds = F = sigma + x*G and g_s = G'(w)*w_s = -x*G_x*F, where neither
    can overflow or cancel. Then s = s0 + integral of 1/F from ly0. A cumulative
    Gauss-Legendre sweep over nodes _QSS_DLY apart in log w brackets s_end,
    Newton's method on that piece finds log w there, and a second sweep gives
    the s of k equal pieces up to it.
    """
    sigma = cc.sigma
    d = _manifold_series(cc)[::-1]

    def inv_rate(ly):
        # 1/F with F = sigma + x*G at x = e^(-ly), G by Horner's rule
        x = np.exp(-ly)
        g = d[0]
        for dk in d[1:]:
            g = g * x + dk
        f = sigma + x * g
        if not np.all(f > 0.0):
            raise ProfileError("log w stops growing on the slow manifold", s0)
        return 1.0 / f

    # F relaxes monotonically to sigma, so ly_top lies past s_end; every
    # stored value, up to w_ss ~ sigma^2*w, must stay finite
    ly_max = _LOG_FLOAT_MAX - 2.0 * math.log(max(1.0, sigma))
    ly_top = ly0 + (s_end - s0) * max(1.0 / inv_rate(ly0), sigma) + 2.0 * _QSS_DLY
    if ly_top > ly_max:
        raise ProfileError(
            "w = r^2 v^(1-m) overflows the float range on the slow manifold; lower s_end",
            s0 + (ly_max - ly0) / sigma,
        )
    ly = ly0 + _QSS_DLY * np.arange(math.ceil((ly_top - ly0) / _QSS_DLY) + 1)
    s = s0 + quad(inv_rate, ly0, ly, ())
    k = min(int(np.searchsorted(s, s_end)), ly.size - 1)
    # Newton for log w at s_end from the piece's end; F' = O(1/w) makes
    # three steps reach rounding
    end = ly[k]
    for _ in range(3):
        end -= (s[k - 1] + quad(inv_rate, ly[k - 1], end, ()) - s_end) / inv_rate(end)
    # k equal pieces up to it, none longer than _QSS_DLY and none a sliver
    ly = np.linspace(ly0, end, k + 1)
    s = s0 + quad(inv_rate, ly0, ly, ())
    s[-1] = s_end
    # G and G_x at the nodes by one Horner loop; g_s = G'(w)*w_s = -x*G_x*F
    x = np.exp(-ly[1:])
    g, gx = d[0], 0.0
    for dk in d[1:]:
        gx = gx * x + g
        g = g * x + dk
    return s[1:], np.exp(ly[1:]), g, -x * gx * (sigma + x * g)


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
    which therefore takes DP5 steps and hands the (w, g) system to Radau IIA
    once the explicit steps are bound by stability (``stiff_switch_s``). DP5,
    not DOP853, leads in: the cubic g and quintic w dense output are sized to
    DP5's step lengths, and longer steps would make the interpolants, not the
    nodes, the accuracy floor of the flux identity the charts are checked by
    at r = 20.

    When w grows exponentially (sigma > 0, i.e. alpha < 2*beta/(1-m)) the fast
    mode makes the system stiffer without bound, so once its relaxation rate
    passes a threshold the integration continues on the slow manifold: g is
    the chart's own manifold series in 1/w, built once from the chart
    coefficients, and the scalar equation left for log w is autonomous, so
    ``_slow_tail`` places its nodes by quadrature instead of stepping it. At
    the switch the series and the integrated g agree to 2e-14..4e-13.
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
        w_stop = _QSS_RATE * max(1.0, sigma) * (n - 1) / beta
        if w0 >= w_stop:
            # already stiff at the start; step explicitly through one
            # relaxation scale before slaving
            w_stop = 2.0 * w0
    path = integrate_2d(
        _log_rhs(cc), s0, w0, g0, s_max, rtol, atol, positive_y=True, stop_when_y_above=w_stop, jac=_log_jac(cc)
    )
    s_arr, w_arr, g_arr, gs_arr = path.t, path.y, path.z, path.fz
    switch_s = None
    if w_stop is not None and s_arr[-1] < s_max * (1.0 - 1e-12) - 1e-12:
        switch_s = float(s_arr[-1])
        tail = _slow_tail(cc, switch_s, math.log(w_arr[-1]), s_max)
        s_arr, w_arr, g_arr, gs_arr = (np.concatenate(pair) for pair in zip((s_arr, w_arr, g_arr, gs_arr), tail))

    ws = g_arr + sigma * w_arr
    return LogProfile(
        s=s_arr,
        w=w_arr,
        ws=ws,
        wss=gs_arr + sigma * ws,
        g=g_arr,
        gs=gs_arr,
        sigma=sigma,
        m=m,
        rtol=rtol,
        n_steps=path.n_steps + s_arr.size - path.t.size,  # a tail node counts as a step
        n_rejected=path.n_rejected,
        nfev=path.nfev,
        qss_switch_s=switch_s,
        stiff_switch_s=path.t_stiff,
    )


@dataclass(frozen=True)
class Solution:
    """Combined two-chart solution with dense evaluation across both charts.

    Immutable after construction and safe to share read-only. Dense queries
    prefer the (tighter-tolerance) r-chart wherever it reaches and switch to
    the log chart beyond, so a finite-difference stencil evaluated inside one
    chart never straddles the seam.
    """

    params: Parameters
    profile: Profile
    logprofile: LogProfile
    diagnostics: dict

    @property
    def r_cover(self) -> float:
        """Largest radius served by dense evaluation."""
        return max(self.profile.r_end, math.exp(self.logprofile.s_end))

    def _by_chart(self, r, on_r, on_log, rows):
        """``rows`` outputs: ``on_r(radii)`` where the r-chart reaches, ``on_log(log r, radii)`` beyond."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all((arr >= 0.0) & (arr <= self.r_cover * (1.0 + _RANGE_SLACK))):
            raise OutOfRange(f"solution covers [0, {self.r_cover:.6g}], requested {r}")
        in_r = arr <= self.profile.r_end
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
    """Max relative disagreement of w between the charts on [r_h, 2*r_h]."""
    hi = min(2.0 * r_h, profile.r_end)
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
        "stiff_switch_s": logprofile.stiff_switch_s,
        "r_steps": profile.n_steps,
        "r_rejected": profile.n_rejected,
        "s_steps": logprofile.n_steps,
        "s_rejected": logprofile.n_rejected,
        "r_nfev": profile.nfev,
        "s_nfev": logprofile.nfev,
        "overlap_error": overlap,
        "series_r_switch": profile.series.r_start,
        "series_truncation": profile.series.truncation_estimate,
    }
    return Solution(
        params=p,
        profile=profile,
        logprofile=logprofile,
        diagnostics=diagnostics,
    )
