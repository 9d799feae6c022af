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
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolation, OutOfRange, ProfileError
from .model import Parameters, check_hypotheses, exponent_relation
from .rk import CubicHermite, QuinticHermite, integrate_2d
from .series import SeriesExpansion, eval_series, seed_within

__all__ = [
    "POSITIVITY_FLOOR",
    "SolveConfig",
    "Profile",
    "LogProfile",
    "Solution",
    "integrate_r",
    "integrate_log",
    "handoff_to_log",
    "solve_profile",
]

# No clamping below this value; clamping would corrupt decay estimation.
POSITIVITY_FLOOR = 1e-300

_RANGE_SLACK = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    """Numerical options for a full two-chart solve.

    The s-chart runs looser than the r-chart because its span is much longer
    (s_end = 40 reaches r ~ 2.4e17). All log-chart bounds used downstream are
    stated for r >= 1, hence the default handoff at r_handoff = 1 (s = 0).
    """

    r_max: float = 10.0
    s_end: float = 40.0
    r_handoff: float = 1.0
    rtol_r: float = 1e-10
    atol_r: float = 1e-12
    rtol_s: float = 1e-9
    atol_s: float = 1e-11
    override_hypotheses: bool = False

    def __post_init__(self):
        for name in ("r_max", "r_handoff", "rtol_r", "atol_r", "rtol_s", "atol_s"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"SolveConfig.{name} must be finite and positive, got {val}")
        if not (math.isfinite(self.s_end) and self.s_end > math.log(self.r_handoff)):
            raise ValueError(
                f"SolveConfig.s_end must be finite and exceed log(r_handoff) = "
                f"{math.log(self.r_handoff):.6g}, got {self.s_end}"
            )

    def tightened(self, factor: float) -> "SolveConfig":
        """Same run with all four tolerances scaled by ``factor``."""
        return replace(
            self,
            rtol_r=self.rtol_r * factor,
            atol_r=self.atol_r * factor,
            rtol_s=self.rtol_s * factor,
            atol_s=self.atol_s * factor,
        )


@dataclass(frozen=True)
class Profile:
    """Samples (r, v, v') of an r-chart solution with dense evaluation.

    ``ddv`` holds v'' from the equation at each node; when present the dense
    output is quintic Hermite (needed by the finite-difference residual
    checks), otherwise cubic. Radii below the first node are served by the
    origin series.
    """

    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    ddv: np.ndarray | None
    series: SeriesExpansion | None
    rtol: float
    atol: float
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def r_start(self) -> float:
        return float(self.r[0])

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @cached_property
    def _value_interp(self):
        if self.ddv is not None:
            return QuinticHermite(self.r, self.v, self.dv, self.ddv)
        return CubicHermite(self.r, self.v, self.dv)

    def eval(self, r):
        """Dense (v, v') at radii in [0, r_end]."""
        arr = np.asarray(r, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr).copy()
        if not np.all((arr >= 0.0) & (arr <= self.r_end * (1.0 + _RANGE_SLACK))):
            raise OutOfRange(f"profile covers [0, {self.r_end:.6g}], requested {r}")
        np.clip(arr, 0.0, self.r_end, out=arr)
        v = np.empty_like(arr)
        dv = np.empty_like(arr)
        inner = arr < self.r_start
        if inner.any():
            if self.series is None:
                raise OutOfRange(f"no series segment below r = {self.r_start:.6g}")
            v[inner], dv[inner] = eval_series(self.series, arr[inner])
        outer = ~inner
        if outer.any():
            v[outer] = self._value_interp.value(arr[outer])
            dv[outer] = self._value_interp.derivative(arr[outer])
        if scalar:
            return float(v[0]), float(dv[0])
        return v, dv


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
    rho1: float
    rtol: float
    atol: float
    n_steps: int = 0
    n_rejected: int = 0
    # Log-radius past which the fast mode was slaved to the slow manifold
    # (None when the whole span was integrated with the full system).
    qss_switch_s: float | None = None

    @property
    def s_start(self) -> float:
        return float(self.s[0])

    @property
    def s_end(self) -> float:
        return float(self.s[-1])

    @cached_property
    def _w_interp(self):
        return QuinticHermite(self.s, self.w, self.ws, self.wss)

    @cached_property
    def _g_interp(self):
        return CubicHermite(self.s, self.g, self.gs)

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


def _r_rhs(p: Parameters):
    n1 = float(p.n - 1)
    one_m = 1.0 - p.m
    alpha, beta = p.alpha, p.beta

    def rhs(r, v, dv):
        if v <= 0.0 or not math.isfinite(v):
            return math.nan, math.nan
        return dv, one_m * dv * dv / v - n1 * dv / r - v**one_m * (alpha * v + beta * r * dv) / n1

    return rhs


class _ChartCoeffs(NamedTuple):
    """The (w, g) chart: w_s = g + sigma*w, g_s = c_sq*g^2/w + c_g*g + c_wg*w*g + c_w*w + c_w2*w^2."""

    sigma: float
    rho1: float
    c_sq: float
    c_g: float
    c_wg: float
    c_w: float
    c_w2: float


def _chart_coeffs(n: int, m: float, alpha: float, beta: float) -> _ChartCoeffs:
    """Coefficients of the (w, g) chart, shared by the full system and the QSS tail.

    For beta != 0 the w^2 coefficient -(beta*sigma + rho1)/(n-1) vanishes
    identically by the choice sigma = -rho1/beta and is dropped rather than
    computed (a rounded near-zero coefficient would be amplified by w^2 over
    long spans). beta = 0 keeps the general term with the neutral anchor
    sigma = 2.
    """
    n1 = float(n - 1)
    one_m = 1.0 - m
    rho1, _ = exponent_relation(m, alpha, beta)
    c_sq = (1.0 - 2.0 * m) / one_m
    c_lin = 2.0 * (n - 2 - n * m) / one_m
    b0 = (n - 2 - (n + 2) * m) / one_m
    if beta != 0.0:
        sigma = -rho1 / beta
        c_w2 = 0.0
    else:
        sigma = 2.0
        c_w2 = -rho1 / n1
    c_g = (2.0 * sigma) * c_sq - b0 - sigma
    c_w = -sigma * sigma * m / one_m - b0 * sigma + c_lin
    return _ChartCoeffs(sigma, rho1, c_sq, c_g, -beta / n1, c_w, c_w2)


def _log_rhs(n: int, m: float, alpha: float, beta: float):
    """Right-hand side of the (w, g) system, plus sigma and rho1."""
    sigma, rho1, c_sq, c_g, c_wg, c_w, c_w2 = _chart_coeffs(n, m, alpha, beta)

    def rhs(s, w, g):
        if w <= 0.0 or not math.isfinite(w):
            return math.nan, math.nan
        return (
            g + sigma * w,
            c_sq * g * g / w + c_g * g + c_wg * w * g + c_w * w + c_w2 * w * w,
        )

    return rhs, sigma, rho1


def integrate_r(
    p: Parameters,
    se: SeriesExpansion,
    r_max: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Profile:
    """Integrate the r-chart from the series handoff out to r_max."""
    start = se.r_start
    if r_max <= start:
        raise ValueError(f"r_max = {r_max} must exceed the series handoff {start}")
    v0, dv0 = eval_series(se, start)
    rhs = _r_rhs(p)
    path = integrate_2d(
        rhs,
        start,
        v0,
        dv0,
        r_max,
        rtol,
        atol,
        positive_y=True,
        floor_y=POSITIVITY_FLOOR,
        y_scale_hint=p.eta,
    )
    return Profile(
        r=path.t,
        v=path.y,
        dv=path.z,
        ddv=path.fz,
        series=se,
        rtol=rtol,
        atol=atol,
        n_steps=path.n_steps,
        n_rejected=path.n_rejected,
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


def _g_manifold(w, c_sq, c_g, c_wg, c_w):
    """Root of the g balance c_sq*g^2/w + (c_g + c_wg*w)*g + c_w*w = 0 near -c_w/c_wg.

    Uses the cancellation-free quadratic formula; only called where the fast
    relaxation dominates (|c_wg|*w large), so the discriminant is safely
    positive.
    """
    b_q = c_g + c_wg * w
    if c_sq == 0.0:
        return -c_w * w / b_q
    a_q = c_sq / w
    disc = b_q * b_q - 4.0 * a_q * (c_w * w)
    qq = -0.5 * (b_q + math.copysign(math.sqrt(disc), b_q))
    return c_w * w / qq


def _g_manifold_slope(w, g, c_sq, c_g, c_wg, c_w):
    # dg/dw along the manifold, by implicit differentiation of the balance
    f_w = -c_sq * g * g / (w * w) + c_wg * g + c_w
    f_g = 2.0 * c_sq * g / w + c_g + c_wg * w
    return -f_w / f_g


# Slave g to the manifold once the fast relaxation rate beta*w/(n-1) exceeds
# this multiple of max(1, sigma); the relative slaving error is then below
# ~1e-6 and falls off as 1/w^2.
_QSS_RATE = 1000.0
_QSS_MIN_SIGMA = 0.02
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def integrate_log(
    n: int,
    m: float,
    alpha: float,
    beta: float,
    start: tuple[float, float, float],
    s_max: float,
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> LogProfile:
    """Integrate the log chart from (s, w, w_s) to s_max.

    Takes plain scalars rather than Parameters so that m = 0 is accepted: the
    same chart serves the log-diffusion equation in the singular limit.

    When w grows exponentially (sigma > 0, i.e. alpha < 2*beta/(1-m)) the fast
    mode makes the system stiffer without bound, so once its relaxation rate
    passes a threshold the integration continues on the slow manifold: g is
    slaved algebraically to w and only the scalar equation for log w is
    stepped. The slaving error enters far below the integration tolerances
    and decays like 1/w^2.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"log chart requires 0 <= m < 1, got {m}")
    s0, w0, ws0 = start
    rhs, sigma, rho1 = _log_rhs(n, m, alpha, beta)
    g0 = ws0 - sigma * w0

    w_stop = None
    if beta > 0.0 and sigma > _QSS_MIN_SIGMA:
        w_stop = _QSS_RATE * max(1.0, sigma) * (n - 1) / beta
        if w0 >= w_stop:
            # already stiff at the start; step explicitly through one
            # relaxation scale before slaving
            w_stop = 2.0 * w0
    path = integrate_2d(
        rhs,
        s0,
        w0,
        g0,
        s_max,
        rtol,
        atol,
        positive_y=True,
        floor_y=POSITIVITY_FLOOR,
        y_scale_hint=w0,
        stop_when_y_above=w_stop,
    )
    s_arr = path.t
    w_arr = path.y
    g_arr = path.z
    gs_arr = path.fz
    n_steps = path.n_steps
    n_rejected = path.n_rejected

    switch_s = None
    if w_stop is not None and s_arr[-1] < s_max * (1.0 - 1e-12) - 1e-12:
        switch_s = float(s_arr[-1])
        cc = _chart_coeffs(n, m, alpha, beta)
        c_sq, c_g, c_wg, c_w = cc.c_sq, cc.c_g, cc.c_wg, cc.c_w

        def slow(s, ly, _unused):
            w_loc = math.exp(ly)
            return sigma + _g_manifold(w_loc, c_sq, c_g, c_wg, c_w) / w_loc, 0.0

        ly0 = math.log(w_arr[-1])
        try:
            tail = integrate_2d(
                slow, switch_s, ly0, 0.0, s_max, rtol, atol, max_step=0.15 / sigma, y_scale_hint=1.0
            )
        except OverflowError:
            # log w grows at rate sigma on the manifold, so it leaves the
            # float range near the extrapolated s below
            raise ProfileError(
                "w = r^2 v^(1-m) overflows the float range on the slow manifold; lower s_end",
                switch_s + (_LOG_FLOAT_MAX - ly0) / sigma,
            ) from None
        s2 = tail.t[1:]
        w2 = np.exp(tail.y[1:])
        g2 = np.array([_g_manifold(wv, c_sq, c_g, c_wg, c_w) for wv in w2])
        ws2 = g2 + sigma * w2
        slope2 = np.array(
            [_g_manifold_slope(wv, gv, c_sq, c_g, c_wg, c_w) for wv, gv in zip(w2, g2)]
        )
        gs2 = slope2 * ws2
        s_arr = np.concatenate([s_arr, s2])
        w_arr = np.concatenate([w_arr, w2])
        g_arr = np.concatenate([g_arr, g2])
        gs_arr = np.concatenate([gs_arr, gs2])
        n_steps += tail.n_steps
        n_rejected += tail.n_rejected

    ws = g_arr + sigma * w_arr
    wss = gs_arr + sigma * ws
    return LogProfile(
        s=s_arr,
        w=w_arr,
        ws=ws,
        wss=wss,
        g=g_arr,
        gs=gs_arr,
        sigma=sigma,
        m=m,
        rho1=rho1,
        rtol=rtol,
        atol=atol,
        n_steps=n_steps,
        n_rejected=n_rejected,
        qss_switch_s=switch_s,
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
    r_handoff: float
    config: SolveConfig
    diagnostics: dict

    @property
    def r_cover(self) -> float:
        """Largest radius served by dense evaluation."""
        return max(self.profile.r_end, math.exp(self.logprofile.s_end))

    def _split(self, r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all((arr >= 0.0) & (arr <= self.r_cover * (1.0 + _RANGE_SLACK))):
            raise OutOfRange(f"solution covers [0, {self.r_cover:.6g}], requested {r}")
        in_r = arr <= self.profile.r_end
        return arr, in_r

    def v(self, r):
        """Profile value v(r) across both charts."""
        arr, in_r = self._split(r)
        out = np.empty_like(arr)
        if in_r.any():
            out[in_r] = self.profile.eval(arr[in_r])[0]
        rest = ~in_r
        if rest.any():
            out[rest] = self.logprofile.eval_v(np.log(arr[rest]))
        return float(out[0]) if np.asarray(r).ndim == 0 else out

    def dv(self, r):
        """Radial derivative v'(r) across both charts."""
        arr, in_r = self._split(r)
        out = np.empty_like(arr)
        if in_r.any():
            out[in_r] = self.profile.eval(arr[in_r])[1]
        rest = ~in_r
        if rest.any():
            s = np.log(arr[rest])
            one_m = 1.0 - self.params.m
            pw = self.logprofile.eval_ws(s) / self.logprofile.eval_w(s)
            out[rest] = self.logprofile.eval_v(s) * (pw - 2.0) / (one_m * arr[rest])
        return float(out[0]) if np.asarray(r).ndim == 0 else out

    def w_q(self, r):
        """(w, q) = (r^2 v^(1-m), r w_r) at radius r, from whichever chart covers it."""
        arr, in_r = self._split(r)
        w = np.empty_like(arr)
        q = np.empty_like(arr)
        if in_r.any():
            rr = arr[in_r]
            w[in_r], q[in_r] = _w_q(rr, *self.profile.eval(rr), self.params.m)
        rest = ~in_r
        if rest.any():
            s = np.log(arr[rest])
            w[rest] = self.logprofile.eval_w(s)
            q[rest] = self.logprofile.eval_ws(s)
        if np.asarray(r).ndim == 0:
            return float(w[0]), float(q[0])
        return w, q


def _overlap_error(profile: Profile, logprofile: LogProfile, m: float, r_h: float) -> float:
    """Max relative disagreement of w between the charts on [r_h, 2*r_h]."""
    hi = min(2.0 * r_h, profile.r_end)
    rs = np.geomspace(r_h, hi, 33)
    w_r, _ = _w_q(rs, *profile.eval(rs), m)
    w_s = logprofile.eval_w(np.log(rs))
    return float(np.max(np.abs(w_r - w_s) / np.abs(w_s)))


def solve_profile(p: Parameters, config: SolveConfig = SolveConfig()) -> Solution:
    """Series seed, r-chart, handoff, log chart, and the overlap diagnostic.

    Raises HypothesisViolation when the existence range fails, unless
    ``config.override_hypotheses`` is set (useful for probing where the
    solver loses positivity).
    """
    hyp = check_hypotheses(p)
    if not (hyp.existence_ok or config.override_hypotheses):
        bound = p.beta * (p.n - 2) / p.m
        raise HypothesisViolation(
            f"existence range requires beta > 0 and alpha <= beta*(n-2)/m = {bound:.6g}; "
            f"got alpha = {p.alpha}, beta = {p.beta}"
        )

    # the seed truncation must clear the local error budget of the r-chart
    se = seed_within(p.n, p.m, p.alpha, p.beta, p.eta, config.rtol_r)
    r_top = max(config.r_max, 2.0 * config.r_handoff)
    profile = integrate_r(p, se, r_top, config.rtol_r, config.atol_r)
    start = handoff_to_log(profile, config.r_handoff, p.m)
    logprofile = integrate_log(
        p.n, p.m, p.alpha, p.beta, start, config.s_end, config.rtol_s, config.atol_s
    )
    overlap = _overlap_error(profile, logprofile, p.m, config.r_handoff)
    diagnostics = {
        "qss_switch_s": logprofile.qss_switch_s,
        "r_steps": profile.n_steps,
        "r_rejected": profile.n_rejected,
        "s_steps": logprofile.n_steps,
        "s_rejected": logprofile.n_rejected,
        "overlap_error": overlap,
        "series_r_switch": se.r_start,
        "series_truncation": se.truncation_estimate,
    }
    return Solution(
        params=p,
        profile=profile,
        logprofile=logprofile,
        r_handoff=config.r_handoff,
        config=config,
        diagnostics=diagnostics,
    )
