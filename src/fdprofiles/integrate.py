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
from functools import cache, cached_property
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolation, OutOfRange, ProfileError
from .model import Parameters, at_endpoint, chart_constants, exponent_relation, require
from .rk import POSITIVITY_FLOOR, Hermite, RawPath, hermite_at, integrate_2d
from .series import SeriesExpansion, eval_series, horner, libm_exp, libm_log, seed_within

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
        # the pointwise checks' slack, 100 times the log chart's rtol of 10*tol, would reach 1 and pass anything
        if not self.tol < 1e-3:
            raise ValueError(f"SolveConfig.tol must be below 0.001, got {self.tol}")

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


def _split(x, mask, on, off) -> tuple:
    """The tuple of arrays that ``on`` gives where ``mask`` holds and ``off`` gives elsewhere.

    Each function sees only its own points, and when one side is empty the
    other's tuple is returned as it is.
    """
    if mask.all():
        return on(x)
    if not mask.any():
        return off(x)
    rest = ~mask
    parts = on(x[mask]), off(x[rest])
    out = tuple(np.empty(x.shape) for _ in parts[0])
    for y, y_on, y_off in zip(out, *parts):
        y[mask], y[rest] = y_on, y_off
    return out


@dataclass(frozen=True)
class Profile:
    """Samples (r, v, v') of an r-chart solution with dense evaluation.

    ``head`` is the ``RawPath`` that ``integrate_r`` stepped: the whole chart,
    or with ``pause_past`` the chart up to its first node past that radius,
    with the step loop's state. ``path``, the whole chart, resumes the loop
    (``RawPath.resumed``) on the first read that needs it: the node arrays,
    the counters, ``stiff_switch``, ``r_end`` and ``eval``. That read raises
    a ``ProfileError`` met past the pause.

    ``ddv`` holds v'' from the equation at each node, ``dddv`` v''' as the
    step loop records it (``RawPath.fzz``) at the nodes of the DOP853 stretch,
    the first ``dddv.size`` nodes, up to the switch to Radau IIA
    (``stiff_switch``; every node when there is none). The dense output is one
    ``Hermite`` of all four: septic over that stretch, of the order of the
    steps, for the finite-difference residual checks and the identity
    quadratures that read it between the nodes, and quintic past it. Radii
    below the first node are served by the origin series, and so are those
    past the last one when the series is the exact constant (alpha = 0,
    ``r_reach``). ``eval`` reads the dense output, whose table of pieces is
    built on the first read of more than a few points (``rk.Hermite``);
    ``eval_point`` builds only the piece it reads, from the head where the
    head reaches. The step counters are ``RawPath.counters``.
    """

    head: RawPath
    series: SeriesExpansion
    rtol: float

    @cached_property
    def path(self) -> RawPath:
        return self.head.resumed()

    # the whole chart's nodes, counters and switch node
    r = property(lambda self: self.path.t)
    v = property(lambda self: self.path.y)
    dv = property(lambda self: self.path.z)
    ddv = property(lambda self: self.path.fz)
    dddv = property(lambda self: self.path.fzz)
    n_steps = property(lambda self: self.path.n_steps)
    n_rejected = property(lambda self: self.path.n_rejected)
    nfev = property(lambda self: self.path.nfev)
    n_newton = property(lambda self: self.path.n_newton)
    stiff_switch = property(lambda self: self.path.t_stiff)

    @property
    def r_start(self) -> float:
        return float(self.head.t[0])

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

    def eval_point(self, r: float) -> tuple[float, float]:
        """(v, v') at one radius with the bits of ``eval(r)``. Short of the head's last node it reads the one piece
        that brackets r, built alone on Python floats by the rule of ``_v_interp`` (``rk.hermite_at``): septic
        while both its nodes are on the DOP853 stretch, with the v''' the step loop recorded there."""
        head = self.head
        if not head.t[0] <= r < head.t[-1]:
            return self.eval(r)
        return hermite_at(head.t, (head.y, head.z, head.fz, head.fzz), float(r))

    @property
    def r_reach(self) -> float:
        """Largest radius served: the chart's end, or every radius where the origin series is the exact constant (alpha = 0)."""
        return math.inf if math.isinf(self.series.r_switch) else self.r_end

    def eval(self, r, order: int = 1) -> tuple:
        """Dense (v, v')[:order + 1] at radii in [0, r_reach]: floats for a scalar ``r``, arrays otherwise.

        The chart serves [r_start, r_end], v' the derivative of its v, and the origin series every other radius.
        """
        arr = np.atleast_1d(OutOfRange.clip("profile", r, 0.0, self.r_reach))
        h = self._v_interp
        out = _split(arr, (arr >= self.r_start) & (arr <= self.r_end),
                     lambda x: (h.value(x), h.derivative(x)) if order else (h.value(x),),
                     lambda x: eval_series(self.series, x, order))
        return tuple(float(x[0]) for x in out) if np.ndim(r) == 0 else out


@dataclass(frozen=True)
class LogProfile:
    """Samples (s, w, w_s) of a log-chart solution with dense evaluation.

    g = w_s - sigma*w is the integrated decay residual (see module docstring);
    it is exact state, not a difference of large numbers. v is recoverable as
    v = (w * e^(-2s))^(1/(1-m)).

    ``head`` is the ``RawPath`` that ``integrate_log`` stepped: (s, w, g, g_s)
    at its nodes, up to the switch node ``qss_switch_s`` where there is a slow
    tail (``tail``, plain numbers: ``_Tail``), over the whole chart where
    there is none. The node arrays ``s``, ``w``, ``ws``, ``wss``, ``g`` and
    ``gs`` hold the stepped nodes and then the tail's, which are placed on
    the first read of any of them (``_Tail.nodes``). ``wsss`` holds w_sss =
    g_ss + sigma*w_ss, g_ss as the step loop records it (``RawPath.fzz``), at
    the nodes of the DOP853 stretch, the first ``wsss.size`` nodes, up to the
    first switch (to Radau IIA or to the slow tail).

    Dense reads (``eval``) up to ``qss_switch_s`` come from the stepped nodes:
    w is one ``Hermite`` of w, w_s, w_ss and w_sss there, septic over the
    DOP853 stretch, of the order of the steps, and quintic past it, w_s is
    its derivative, and g is cubic. Past ``qss_switch_s`` they come from the
    tail's relation, inverted at each point (``_Tail.w``), with g = G(w) on
    the manifold (``_Tail.g``), where g is exact state, and w_s = g + sigma*w
    (on an eternal chart, whose sigma is zero to rounding, g itself up to
    that rounding). A read of several parts inverts each point once. The
    counters and ``stiff_switch`` are as on ``Profile``, except that each
    piece of the slow tail between its nodes counts as a step, whether the
    nodes are placed or not.
    """

    head: RawPath
    tail: _Tail | None
    sigma: float
    m: float
    rtol: float
    n_steps: int = 0
    n_rejected: int = 0
    nfev: int = 0
    n_newton: int = 0
    # Log-radius past which the fast mode was slaved to the slow manifold
    # (None when the whole span was integrated with the full system).
    qss_switch_s: float | None = None
    # |g - G(w)|/|G| at that switch node (|g| where G = 0): the jump the
    # handover puts into g.
    qss_gap: float | None = None
    stiff_switch: float | None = None

    @cached_property
    def _stepped(self) -> tuple[np.ndarray, ...]:
        """w_s, w_ss and w_sss at the stepped nodes, w_sss on the DOP853 stretch."""
        head, sigma = self.head, self.sigma
        ws = head.z + sigma * head.y
        wss = head.fz + sigma * ws
        return ws, wss, head.fzz + sigma * wss[: head.fzz.size]

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, ...]:
        """(s, w, g, g_s, w_s, w_ss) at every node: the stepped ones, then the tail's, placed here."""
        head = self.head
        nodes = (head.t, head.y, head.z, head.fz, *self._stepped[:2])
        if self.tail is None:
            return nodes
        s, w, g, gs = self.tail.nodes()
        ws = g + self.sigma * w
        return tuple(np.concatenate(pair) for pair in zip(nodes, (s, w, g, gs, ws, gs + self.sigma * ws)))

    s = property(lambda self: self._nodes[0])
    w = property(lambda self: self._nodes[1])
    g = property(lambda self: self._nodes[2])
    gs = property(lambda self: self._nodes[3])
    ws = property(lambda self: self._nodes[4])
    wss = property(lambda self: self._nodes[5])
    wsss = property(lambda self: self._stepped[2])

    @property
    def s_start(self) -> float:
        return float(self.head.t[0])

    @property
    def s_end(self) -> float:
        return float(self.head.t[-1]) if self.tail is None else self.tail.s_end

    @cached_property
    def _w_interp(self):
        # Quintic, not septic, past the switch: on the Radau IIA stretch a
        # septic w, with w_sss from the right-hand side, was 1.3-3.1x less
        # accurate between the nodes against a Radau reference at rtol 1e-13
        # on the eternal decay grid.
        return Hermite(self.head.t, self.head.y, *self._stepped)

    @cached_property
    def _g_interp(self):
        # Cubic, not quintic: once the chart is stiff the Radau IIA steps run
        # at h*rho(J) up to ~500, and a g_ss taken from the right-hand side
        # multiplies the node error by (h*rho)^2. Against a Radau reference at
        # rtol 1e-13 on the eternal decay grid, a quintic g was 10-57x less
        # accurate between the stiff nodes and moved the n = 7, m = 5/9 decay
        # value by 2.9e-8.
        return Hermite(self.head.t, self.head.z, self.head.fz)

    def _clip(self, s):
        return OutOfRange.clip("log chart", s, self.s_start, self.s_end)

    def _read_stepped(self, part: str, s):
        if part == "g":
            return self._g_interp.value(s)
        return self._w_interp.value(s) if part == "w" else self._w_interp.derivative(s)

    def _read_tail(self, s, parts) -> tuple:
        tail = self.tail
        if s.ndim == 0:
            w = tail.w(float(s))
        elif s.size <= _TAIL_SHORT_READ:
            w = np.array([tail.w(x) for x in s.ravel().tolist()]).reshape(s.shape)
        else:
            w = tail.w(s.ravel()).reshape(s.shape)
        got = {"w": w}
        if "g" in parts or "ws" in parts:
            g = got["g"] = tail.g(w)
            got["ws"] = g + self.sigma * w
        return tuple(got[p] for p in parts)

    def eval(self, s, *parts: str) -> tuple:
        """The ``parts`` named, of "w", "g", "ws" (w_s) and "v", at log-radii s: floats for a scalar s, arrays else.

        Up to ``qss_switch_s`` they are read off the stepped nodes, past it from
        the tail's relation, with one inversion per point for all of them. A
        tail read of at most _TAIL_SHORT_READ points is made point by point on
        floats, a longer one element by element on arrays, with the same bits.
        """
        sq = self._clip(s)
        reads = [p for p in ("w", "g", "ws") if p in parts or (p == "w" and "v" in parts)]

        def stepped(x):
            return tuple(self._read_stepped(p, x) for p in reads)

        if self.tail is None:
            got = dict(zip(reads, stepped(sq)))
        else:
            got = dict(zip(reads, _split(sq, sq <= self.qss_switch_s, stepped, lambda x: self._read_tail(x, reads))))
        if "v" in parts:
            got["v"] = (got["w"] * np.exp(-2.0 * sq)) ** (1.0 / (1.0 - self.m))
        return tuple(got[p] for p in parts)

    def eval_w(self, s):
        return self.eval(s, "w")[0]

    def eval_g(self, s):
        return self.eval(s, "g")[0]

    def eval_ws(self, s):
        """w_s: the derivative of w wherever the chart was stepped, g + sigma*w on the slow tail."""
        return self.eval(s, "ws")[0]

    def eval_v(self, s):
        """Profile value v at log-radius s."""
        return self.eval(s, "v")[0]


def _r_rhs(n: int, m: float, alpha: float, beta: float):
    n1 = float(n - 1)
    one_m = 1.0 - m
    inf = math.inf

    def rhs(r, v, dv):
        if not 0.0 < v < inf:
            return math.nan, math.nan
        return dv, one_m * dv * dv / v - n1 * dv / r - v**one_m * (alpha * v + beta * r * dv) / n1

    return rhs


def _r_jac(n: int, m: float, alpha: float, beta: float):
    """Jacobian (0, 1, F_v, F_v') of the r-chart's right-hand side (v', F), then F_r.

    p = v^(1-m)/(n-1) is the factor of the drift term.
    """
    n1 = float(n - 1)
    one_m = 1.0 - m

    def jac(r, v, dv):
        p = v**one_m / n1
        slope = dv / v
        f_v = -one_m * slope * slope - one_m * p * (alpha + beta * r * slope) - p * alpha
        return 0.0, 1.0, f_v, 2.0 * one_m * slope - n1 / r - p * beta * r, n1 * dv / (r * r) - p * beta * dv

    return jac


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
    For the same reason c_w = -sigma^2*m/(1-m) - b0*sigma + 2*(n-2-nm)/(1-m)
    is computed in its factored form (2 - sigma)*(m*sigma + n-2-nm)/(1-m):
    it is then exactly 0 at alpha = 0, where sigma = 2 and g = 0 is invariant,
    instead of a rounding residue that G and the switch would read as signal.
    """
    one_m = 1.0 - m
    rho1, _ = exponent_relation(m, alpha, beta)
    c_sq = (1.0 - 2.0 * m) / one_m
    _, b0 = chart_constants(n, m, beta)
    sigma = -rho1 / beta
    c_g = (2.0 * sigma) * c_sq - b0 - sigma
    c_w = (2.0 - sigma) * (m * sigma + n - 2 - n * m) / one_m
    return _ChartCoeffs(sigma, c_sq, c_g, -beta / float(n - 1), c_w)


def _log_rhs(cc: _ChartCoeffs):
    """Right-hand side of the (w, g) system."""
    sigma, c_sq, c_g, c_wg, c_w = cc
    inf = math.inf

    def rhs(s, w, g):
        if not 0.0 < w < inf:
            return math.nan, math.nan
        return g + sigma * w, c_sq * g * g / w + c_g * g + c_wg * w * g + c_w * w

    return rhs


def _log_jac(cc: _ChartCoeffs):
    """Jacobian of the (w, g) right-hand side, (dw_s/dw, dw_s/dg, dg_s/dw, dg_s/dg), then dg_s/ds = 0."""
    sigma, c_sq, c_g, c_wg, c_w = cc

    def jac(s, w, g):
        gw = g / w
        return sigma, 1.0, -c_sq * gw * gw + c_wg * g + c_w, 2.0 * c_sq * gw + c_g + c_wg * w, 0.0

    return jac


def integrate_r(
    n: int, m: float, alpha: float, beta: float, eta: float, r_max: float, tol: float = SolveConfig.tol, *,
    pause_past: float = math.inf,
) -> Profile:
    """Integrate the r-chart from the origin series (``seed_within`` at ``tol``) out to r_max.

    The series is exact to ``tol`` up to its handoff, at most r = 0.5 and
    never past r_max/2, so the chart always has a stretch to step. The
    chart passes its Jacobian (``_r_jac``), so ``rk`` hands it from DOP853
    to Radau IIA once it is stiff (``stiff_switch``), at the tighter pair
    ``chart_tolerances("r_stiff", tol)``. The fast rate, about
    beta*r*v^(1-m)/(n-1), grows like r^(1 - alpha*(1-m)/beta) where v
    behaves like r^(-alpha/beta), so it rises without bound for every
    alpha < 0 and for 0 < alpha < beta/(1-m). On the INVARIANT_GRID rows to
    r = 25 the chart switches exactly on the four with alpha < 0. Where it
    does not switch, the nodes are those of DOP853 alone. The step loop
    records v''' for the septic dense output over the DOP853 stretch. With
    ``pause_past`` the chart is stepped only to its first node past that
    radius here, and the rest on the first read that needs it
    (``Profile``). Takes plain scalars rather than Parameters so that m = 0
    is accepted: the chart then solves the log-diffusion equation of the
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
        jac=_r_jac(n, m, alpha, beta), stiff_tol=chart_tolerances("r_stiff", tol), pause_past=pause_past,
    )
    return Profile(head=path, series=se, rtol=rtol)


def radius(s):
    """r = e^s, infinite where it passes the float range (s > 709.78) instead of overflowing."""
    with np.errstate(over="ignore"):
        return np.exp(s)


def _w_q(r, v, dv, m):
    """Chart change (v, v') -> (w, q) = (r^2 v^(1-m), r w_r); q is w_s in the log chart."""
    w = r * r * v ** (1.0 - m)
    return w, w * (2.0 + (1.0 - m) * r * dv / v)


def handoff_to_log(profile: Profile, m: float) -> tuple[float, float, float]:
    """Exact chart change at the seam R_HANDOFF: (s, w, w_s) from (v, v').

    (v, v') come from the one r-chart piece that brackets the seam (``Profile.eval_point``),
    read from the nodes stepped so far, so a solve neither steps the r-chart past
    the first node beyond it nor builds its full dense output unless a caller reads them.
    """
    v, dv = profile.eval_point(R_HANDOFF)
    if v <= 0.0:
        raise ProfileError(f"cannot hand off at r = {R_HANDOFF}: v = {v} is not positive")
    return (math.log(R_HANDOFF), *_w_q(R_HANDOFF, v, dv, m))


# Slave g to the slow manifold once the fast mode has relaxed below rounding,
# or later where the series needs it (``_qss_switch``). g relaxes at the rate
# -dg_s/dg, about beta*w/(n-1), while w grows like e^(sigma*s), so by the w
# where beta*w/(n-1) = _QSS_RELAX*max(1, sigma) an offset off the manifold has
# decayed through about _QSS_RELAX*max(1, sigma)/sigma >= _QSS_RELAX e-folds,
# and 53*ln(2) = 36.7 of them bring it below 2^-53. Integrated over the
# stepped nodes the rate reads at least 37.4 on n = 3..30, m across its range
# and sigma from 0.021 to 2.99 (36.69 at 37). At the 100 used before it read
# at least 91.7, and 28-47 of the 56-152 stepped nodes of each sigma > 0.02
# chart of the INVARIANT_GRID and power rows went to that margin; the tail
# places them now. At sigma = 0, where w grows like d_0*s, the switch
# (``_qss_switch``) reads at least 106 integrated e-folds on n = 3..30, m
# across its range and beta from 0.25 to 4.
_QSS_RELAX = 40.0
_QSS_MIN_SIGMA = 0.02
# A chart is eternal, and its tail takes the sigma = 0 relation, where
# |sigma| <= _SIGMA_ZERO = 2^-50 = 8.9e-16. sigma = -rho1/beta, and rho1 is
# the rounded difference alpha*(1-m) - 2*beta of two terms near 2*beta, so
# an eternal alpha leaves sigma at a few units of rounding: at most 3.6e-16
# for eternal_alpha(m, beta) over n = 3..30, m across its range and beta
# from 0.1 to 10. Dropping it moves log w on the tail by |sigma|*(s_end -
# s_switch), at most 3.6e-14 at s_end = 40, against the chart's rtol of
# 1e-9. The alpha = 2.500000000125 row (sigma = 1e-10) keeps its Radau IIA
# steps, and so does the endpoint m = (n-2)/n, where d_0 = a0 = 0.
_SIGMA_ZERO = 2.0**-50
# Terms d_0..d_24 of the manifold series. ``_qss_switch`` waits until the
# first two left out are below 2^-53 of d_0, which moves the switch past the
# relaxation bound on 4 of the 11 INVARIANT_GRID rows with sigma > 0.02, on
# 3-8 of 16 charts with m and sigma across their ranges for each n = 3..10,
# and on 12-14 of 16 from n = 11 on. Reading the second term as well moved
# the switch of 2 of 468 sigma > 0.02 charts (n = 25 and 26 at the endpoint
# m, sigma = 1), by 0.7% and 4.8% in w; no tested row.
_SERIES_TERMS = 25
# The node readers' sample spacing on a power tail. The tail's nodes, placed
# only for the node readers (the checks, the breaks of their quadratures and
# ``solve --log-out``; dense reads invert the tail's relation), are at most
# _QSS_DLY apart in log w, steps of about _QSS_DLY/sigma in s. The spacing was
# set when a quintic Hermite of the nodes served the dense reads: on the four
# alpha < 0 INVARIANT_GRID rows, whose switch falls at r = 8.3-15.7, below r =
# 20 where the flux identity reads the chart, its mismatch at r_max = 2 read
# 1.2e-12..2.0e-12, 2.1e-11..1.2e-10 at 0.15. Read from the tail's relation
# between the same breaks it reads 3.7e-15..4.6e-14.
_QSS_DLY = 0.08
# The node readers' sample spacing at sigma = 0: the tail's nodes are at most
# _ETERNAL_DLY apart in log w, steps of about _ETERNAL_DLY*s in s. The spacing
# was set when w_s between them was the cubic Hermite of the nodes' g: midway
# between the nodes, against the full system stepped from the switch node at
# rtol 1e-13, w_s read up to 1.6e-7 at 0.08, 1.1e-8 at 0.04, 7.0e-10 at 0.02
# and 6.1e-11 at 0.01 (the eternal decay grid and n = 3 at m = 0.1 and 0.02).
# Read from the tail's relation it reads at most 1.1e-12 there; the node
# readers keep 0.02.
_ETERNAL_DLY = 0.02
# The tail takes Phi, the integral of G/F in x = 1/w (``_power_relation``), from
# one Chebyshev interpolant of G/F at this many Lobatto points of
# [0, 1/w_switch]. Near sigma = _QSS_MIN_SIGMA, F = sigma + x*G vanishes
# just left of that interval (at x = -0.13/w_switch for n = 10, m = 0.0008,
# sigma = 0.021), where 32 points left 1.3e-9 in the tail's s. At 64 the
# nodes' s stay within 3.3e-13 of an adaptive quadrature of 1/F for n up
# to 30, m from 0 to (n-2)/n and sigma from 0.021 to 2.99.
_PHI_POINTS = 64
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
# Tail reads of at most this many points are made one point at a time on
# floats, longer ones element by element on arrays, with the same bits. On
# the tails of (3, 0.2, alpha = 2.5, 1.25, -1) and (6, 0.25, 8/3) a point
# took 12-30 us on floats, and an array read 300-650 us up to 32 points,
# almost all of it the fixed cost of its numpy calls in each Newton step:
# the two broke even at 20-26 points (2-core sandbox, 10th percentile of 150).
_TAIL_SHORT_READ = 24
# Newton steps ``_Tail._invert`` takes at most; every start measured converged in 6.
_NEWTON_STEPS = 16
# A tail read stops after a point's first Newton step of at most this much in
# log w. The error that step leaves is about K*step^2 <= 9e-18*K in log w,
# below the rounding of s(log w) itself, with K = |s''/(2s')| in the
# variable the method runs in: at most 0.59 on power tails (in log w) and
# 0.17 on eternal ones (in w), read as the ratio of a step to the square of
# the one before on n = 3..30, m across its range, beta from 0.25 to 4 and
# sigma from 0.021 to 2.99 and 0, to s = 40 and 1e8.
# A step below 1e-15 of log w to confirm the stop, as the last node's log w
# takes (``_tail``), would cost every point one more step: a C-library exp
# or log and one more evaluation of the relation.
_NEWTON_STOP = 3e-9
# The longest piece between the log chart's stepped nodes: a quintic Hermite
# piece of them forms h^2/2. Only a chart longer than _H_MAX can have a longer
# one, and ``integrate_log`` then scans them for it. Tail reads use no Hermite,
# so an eternal tail's pieces may pass _H_MAX (near s = 6.7e155).
_H_MAX = math.sqrt(np.finfo(float).max)


@cache
def _chebyshev_rule() -> tuple[np.ndarray, np.ndarray]:
    """The Lobatto points t of [-1, 1] and the matrix that takes values at t to the
    Chebyshev coefficients of the antiderivative vanishing at t = -1.

    Built on the first slow tail, so numpy.polynomial loads only where one runs.
    """
    t = np.polynomial.chebyshev.chebpts2(_PHI_POINTS)
    vander = np.polynomial.chebyshev.chebvander(t, _PHI_POINTS - 1)
    return t, np.polynomial.chebyshev.chebint(np.linalg.inv(vander), lbnd=-1.0, axis=0)


def _manifold_series(cc: _ChartCoeffs, terms: int = _SERIES_TERMS) -> list[float]:
    """Coefficients d_0..d_(terms-1) of the slow manifold g = G(w) = sum of d_k*w^(-k) (beta > 0).

    Substituting G into G'(w)*(G + sigma*w) = g_s and matching powers of w gives
    d_0 = -c_w/c_wg and d_(j+1) = ([G'G]_j - j*sigma*d_j - c_sq*[G^2]_(j-1) - c_g*d_j)/c_wg,
    with [.]_j the coefficient of w^(-j); [G'G]_j - c_sq*[G^2]_(j-1) is the sum of
    -(k + c_sq)*d_k*d_(j-1-k) over k < j.
    """
    d = [-cc.c_w / cc.c_wg]
    weighted = []  # (k + c_sq)*d_k
    for j in range(terms - 1):
        conv = sum(map(mul, weighted, reversed(d[:j])))
        weighted.append((j + cc.c_sq) * d[j])
        d.append(-(conv + (j * cc.sigma + cc.c_g) * d[j]) / cc.c_wg)
    return d


def _reciprocal_series(d: list[float]) -> list[float]:
    """Coefficients e_0..e_(len(d)-1) of 1/G = sum of e_k*x^k, for G = sum of d_k*x^k with d_0 != 0.

    e_0 = 1/d_0 and e_k = -(d_1*e_(k-1) + ... + d_k*e_0)/d_0.
    """
    e = [1.0 / d[0]]
    for k in range(1, len(d)):
        e.append(-sum(map(mul, d[1 : k + 1], reversed(e))) / d[0])
    return e


def _qss_switch(cc: _ChartCoeffs, n: int, beta: float) -> tuple[list[float], list[float] | None, float]:
    """The tail's series d_0..d_(_SERIES_TERMS-1), at sigma = 0 that of 1/G, and the w past which g is slaved to it.

    That w is the larger of the relaxation bound, past which the fast mode
    has decayed below rounding, and the smallest w at which each of the
    first two terms left out, |d_K|*w^(-K) and |d_(K+1)|*w^(-K-1) with
    K = _SERIES_TERMS, is at most 2^-53*|d_0|. G there lies within
    0.82..1.34 of d_0 (n = 3..30, sigma up to 30), so those terms are below
    2^-52 of G. Two terms, not one: on the Yamabe rows, m = (n-2)/(n+2) at
    sigma = 0, every odd d_k vanishes, and d_K alone would read 0.

    The relaxation bound is beta*w/(n-1) = _QSS_RELAX*max(1, sigma) for
    sigma > 0 (``_QSS_RELAX``). At sigma = 0 (an eternal chart, ``cc``
    taken with sigma exactly 0) w grows like d_0*s instead, so the rate
    beta*w/(n-1) integrates to about beta*w^2/(2*(n-1)*d_0), and the bound
    is w = sqrt(4*_QSS_RELAX*d_0*(n-1)/beta), where that integral reaches
    2*_QSS_RELAX. The tail's relation then reads 1/G = sum of e_k*x^k
    (``_reciprocal_series``), whose first two terms left out must be below
    2^-53*|e_0| at the switch as well; e_0..e_(_SERIES_TERMS-1), which depend
    on d_0..d_(_SERIES_TERMS-1) alone, are returned (None at sigma > 0).
    """
    *d, d_k, d_k1 = _manifold_series(cc, _SERIES_TERMS + 2)
    if cc.sigma:
        w_relax = _QSS_RELAX * max(1.0, cc.sigma) * (n - 1) / beta
    else:
        w_relax = math.sqrt(4.0 * _QSS_RELAX * d[0] * (n - 1) / beta)
    if not d[0]:
        # d_0 = 0 makes every d_k vanish (g = 0 is then invariant)
        return d, None, w_relax
    omitted = [(d[0], d_k, d_k1)]
    e = None
    if not cc.sigma:
        *e, e_k, e_k1 = _reciprocal_series([*d, d_k, d_k1])
        omitted.append((e[0], e_k, e_k1))
    w_series = max(
        (abs(c) / (2.0**-53 * abs(c0))) ** (1.0 / k)
        for c0, *cs in omitted
        for k, c in enumerate(cs, _SERIES_TERMS)
    )
    return d, e, max(w_relax, w_series)


def _clenshaw(c: list[float], t):
    """sum of c[k]*T_k(t) by Clenshaw's rule, on a float or element by element on an array."""
    b1 = b2 = 0.0
    t2 = 2.0 * t
    for ck in c[:0:-1]:
        b1, b2 = t2 * b1 - b2 + ck, b1
    return t * b1 - b2 + c[0]


class _PowerRelation(NamedTuple):
    """The tail's relation at sigma > 0, s as a function of log w (``_power_relation``), as plain numbers.

    ``c`` holds the Chebyshev coefficients of Phi on [0, x0], x0 = 1/w at the
    switch node (s0, ly0), and f0 the rate F there.
    """

    sigma: float
    c: tuple[float, ...]
    x0: float
    log_c: float
    s0: float
    ly0: float
    f0: float

    def place(self, ly, x):
        return (ly + _clenshaw(self.c, 2.0 * x / self.x0 - 1.0) - self.log_c) / self.sigma

    def start(self, s):
        """A start for log w at s, a float or an array: F moves monotonically from F(x0) to sigma, so holding
        F at F(x0) and setting Phi = 0 both over- or both undershoot, and the nearer of the two is taken."""
        held, free = self.ly0 + self.f0 * (s - self.s0), self.sigma * s + self.log_c
        if np.ndim(s):
            return np.minimum(held, free) if self.f0 > self.sigma else np.maximum(held, free)
        return min(held, free) if self.f0 > self.sigma else max(held, free)

    # A read's Newton's method (``_Tail._invert``) runs in v = log w, in which s is near linear: ``at`` gives
    # (log w, x = 1/w, dv/d(log w)) at v, ``w`` gives w, and ``v`` takes log w to v; on floats or arrays.
    def at(self, ly):
        return ly, libm_exp(-ly), 1.0

    w = staticmethod(libm_exp)

    @staticmethod
    def v(ly):
        return ly


class _EternalRelation(NamedTuple):
    """The tail's relation at sigma = 0, s as a function of log w (``_eternal_relation``), as plain numbers.

    s = base + e0/x + e1*log w - P(x), with x = 1/w and ``p`` the coefficients
    of P(x)/x; x0 and g0 are x and G at the switch node (s0, log w0).
    """

    e0: float
    e1: float
    p: tuple[float, ...]
    base: float
    s0: float
    x0: float
    g0: float

    def place(self, ly, x):
        return self.base + self.e0 / x + self.e1 * ly - x * horner(self.p, x)

    def start(self, s):
        """A start for w at s, a float or an array: w0 + G(x0)*(s - s0). On n = 3..30, m across its range, beta
        from 0.25 to 4 and s up to 1e8, Newton's method took at most 6 steps from its log to log w at s_end
        (``_tail``), and at most 4 in w to a read's stop."""
        return 1.0 / self.x0 + self.g0 * (s - self.s0)

    # A read's Newton's method (``_Tail._invert``) runs in v = w, in which s is near linear (s ~ e0*w), so
    # that it takes neither a start's log nor a last exp: ``at`` gives (log w, x = 1/w, dv/d(log w)) at v,
    # ``w`` gives w, and ``v`` takes log w to v; on floats or arrays.
    def at(self, w):
        return libm_log(w), 1.0 / w, w

    @staticmethod
    def w(w):
        return w

    v = staticmethod(math.exp)


def _power_relation(sigma: float, d: tuple[float, ...], s0: float, ly0: float) -> _PowerRelation:
    """The tail's relation at sigma > 0: s as a function of log w.

    As 1/F = (1 - x*G/F)/sigma and d(log w) = -dx/x, the manifold keeps

        sigma*s = log w + Phi(1/w) - log C,  Phi(x) = integral of G/F from 0 to x,

    with C = lim w*e^(-sigma*s), so log C is read at the switch node. Phi
    comes from one Chebyshev interpolant of G/F on [0, 1/w_switch] at
    ``_PHI_POINTS`` Lobatto points, integrated by a constant matrix and
    summed by Clenshaw's rule. From ``start``, s is concave or convex in
    log w to match the side the start errs on, and Newton's method
    (``_Tail._invert``) moves to the root from that side, inside the fitted
    interval.
    """
    x0 = math.exp(-ly0)
    cheb_t, cheb_antiderivative = _chebyshev_rule()
    # G/F at the points of [0, x0], the last x0 itself
    x = 0.5 * x0 * (cheb_t + 1.0)
    g = horner(d, x)
    f = sigma + x * g
    if not np.all(f > 0.0):
        raise ProfileError("log w stops growing on the slow manifold", s0)
    # Phi(x) = sum of c_k*T_k(2x/x0 - 1); the c_k fall geometrically, and
    # those below rounding of the largest are dropped
    c = 0.5 * x0 * (cheb_antiderivative @ (g / f))
    c = tuple(c[: np.flatnonzero(np.abs(c) >= 2.0**-53 * np.abs(c).max())[-1] + 1].tolist())
    log_c = ly0 + _clenshaw(c, 1.0) - sigma * s0
    return _PowerRelation(sigma, c, x0, log_c, s0, ly0, float(f[-1]))


def _eternal_relation(d: tuple[float, ...], e: list[float], s0: float, ly0: float) -> _EternalRelation:
    """The tail's relation at sigma = 0: s as a function of log w.

    Here d(log w)/ds = x*G with x = 1/w, so ds = -dx/(x^2*G). With
    1/G = sum of e_k*x^k (``_reciprocal_series`` of ``d``, as ``_qss_switch``
    returns it) that integrates in closed form from the switch node (s0, x0):

        s = s0 + e_0*(1/x - 1/x0) + e_1*log(x0/x) + P(x0) - P(x),
        P(x) = sum over k >= 2 of e_k*x^(k-1)/(k-1),

    so no interpolant is built. s is convex in log w wherever
    G + x*G_x > 0, so Newton's method in log w (``_tail``) moves down to the
    root from above it, and from below it steps past the root once. A read's
    runs in w itself (``_EternalRelation.at``), in which s is near linear.
    """
    x0 = math.exp(-ly0)
    g0 = horner(d, x0)
    if not g0 > 0.0:
        raise ProfileError("log w stops growing on the slow manifold", s0)
    # P(x) = x*sum of p_j*x^j with p_j = e_(j+2)/(j+1)
    p = tuple(ek / k for k, ek in enumerate(e[2:], 1))
    base = s0 - e[0] / x0 - e[1] * ly0 + x0 * horner(p, x0)
    return _EternalRelation(e[0], e[1], p, base, s0, x0, g0)


class _Tail(NamedTuple):
    """The slow-manifold tail after the switch node, as plain numbers: s as a function of log w, and back.

    On the manifold g = G, the polynomial in x = 1/w with coefficients ``d``
    (``_manifold_series``), so d(log w)/ds = F = sigma + x*G and
    g_s = G'(w)*w_s = -x*G_x*F, where neither can overflow or cancel.
    ``relation`` gives s explicitly in log w; ``w`` inverts it at any s of
    the tail, and ``nodes`` places the tail's nodes for the node readers:
    ``pieces`` equal pieces of at most _QSS_DLY in log w (_ETERNAL_DLY at
    sigma = 0) from the switch node (ly0) up to log w at s_end (``ly_end``).
    """

    sigma: float
    d: tuple[float, ...]
    relation: _PowerRelation | _EternalRelation
    ly0: float
    ly_max: float
    s_end: float
    ly_end: float
    pieces: int

    def _step(self, ly, x, s):
        """Newton's step for log w at s from ly, x = e^(-ly): ds/d(log w) = 1/F, so it is (s(ly) - s)*F."""
        return (self.relation.place(ly, x) - s) * (self.sigma + x * horner(self.d, x))

    def _invert(self, s):
        """w at s, by Newton's method in the relation's variable v from its start, each step kept within log w
        in [ly0, ly_max]: a float for a float s, element by element on a 1-d array, with the same operations.
        Each point stops on its own, after its first step of at most _NEWTON_STOP in log w."""
        rel = self.relation
        lo, hi = rel.v(self.ly0), rel.v(self.ly_max)
        if np.ndim(s) == 0:
            v = min(max(rel.start(s), lo), hi)
            for _ in range(_NEWTON_STEPS):
                ly, x, scale = rel.at(v)
                step = self._step(ly, x, s)
                v = min(max(v - step * scale, lo), hi)
                if abs(step) <= _NEWTON_STOP:
                    break
            return rel.w(v)
        out = np.minimum(np.maximum(rel.start(s), lo), hi)
        going, v = np.arange(s.size), out
        for _ in range(_NEWTON_STEPS):
            ly, x, scale = rel.at(v)
            step = self._step(ly, x, s)
            v = np.minimum(np.maximum(v - step * scale, lo), hi)
            out[going] = v
            on = ~(np.abs(step) <= _NEWTON_STOP)
            if not on.any():
                break
            going, v, s = going[on], v[on], s[on]
        return rel.w(out)

    def w(self, s):
        """w at s from one inversion: a float for a float s, element by element on a 1-d array, with the same
        bits. At s_end it is e^ly_end, the last node's."""
        if np.ndim(s) == 0:
            s = float(s)
            return math.exp(self.ly_end) if s == self.s_end else self._invert(s)
        w = self._invert(s)
        w[s == self.s_end] = math.exp(self.ly_end)
        return w

    def g(self, w):
        """g = G(w) on the manifold, on a float or element by element on an array."""
        return horner(self.d, 1.0 / w)

    def nodes(self) -> tuple[np.ndarray, ...]:
        """Nodes (s, w, g, g_s) of the tail after the switch node, the last at s_end."""
        ly = np.linspace(self.ly0, self.ly_end, self.pieces + 1)[1:]
        x = np.exp(-ly)
        s = self.relation.place(ly, x)
        s[-1] = self.s_end
        # G and G_x at the nodes by one Horner loop, the recurrence of
        # ``series.horner`` with G_x's beside it; g_s = G'(w)*w_s = -x*G_x*F
        g, gx = self.d[-1], 0.0
        for dk in self.d[-2::-1]:
            gx = gx * x + g
            g = g * x + dk
        return s, np.exp(ly), g, -x * gx * (self.sigma + x * g)


def _tail(sigma: float, d: list[float], e: list[float] | None, s0: float, ly0: float, s_end: float) -> _Tail:
    """The slow tail after (s0, log w = ly0) up to s_end: its relation (``_power_relation`` for sigma > 0,
    ``_eternal_relation`` for sigma = 0), log w at s_end and the number of node pieces.

    A located ProfileError is raised first if the manifold passes ly_max, where w or the w_ss of the nodes
    would leave the float range, before s_end.
    """
    d, s_end = tuple(d), float(s_end)
    relation = _power_relation(sigma, d, s0, ly0) if sigma else _eternal_relation(d, e, s0, ly0)
    # every stored value, up to w_ss ~ sigma^2*w, must stay finite
    ly_max = _LOG_FLOAT_MAX - 2.0 * math.log(max(1.0, sigma))
    s_max = relation.place(ly_max, math.exp(-ly_max))
    if not s_end <= s_max:
        raise ProfileError("w = r^2 v^(1-m) overflows the float range on the slow manifold; lower s_end", s_max)
    # log w at s_end by the steps of _Tail._invert, which reads neither ly_end nor pieces, taken on
    # until one is below 1e-15 of log w: the nodes are spaced from it, so their bits follow its own
    tail = _Tail(sigma, d, relation, ly0, ly_max, s_end, ly_end=ly0, pieces=0)
    end = min(relation.at(relation.start(s_end))[0], ly_max)  # log w at the relation's start
    for _ in range(_NEWTON_STEPS):
        step = tail._step(end, math.exp(-end), s_end)
        end = min(max(end - step, ly0), ly_max)
        if abs(step) <= 1e-15 * max(1.0, abs(end)):
            break
    # k equal pieces up to it, none longer than the spacing and none a sliver
    dly = _QSS_DLY if sigma else _ETERNAL_DLY
    return tail._replace(ly_end=end, pieces=max(1, math.ceil((end - ly0) / dly)))


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
    explicit steps are bound by stability (``stiff_switch``). Up to the
    first switch w is septic Hermite, with w_sss = g_ss + sigma*w_ss and
    g_ss = J.(w_s, g_s) as the step loop records it (``RawPath.fzz``), so
    the dense output keeps the 8th-order accuracy of the nodes where the
    flux identity reads the chart at r = 20.

    When w grows without bound, exponentially for sigma > _QSS_MIN_SIGMA
    (alpha < 2*beta/(1-m)) and like a0*s on the eternal relation (sigma zero
    to rounding, ``_SIGMA_ZERO``, short of the endpoint m = (n-2)/n), the fast
    mode makes the system stiffer without bound, so once it has relaxed below
    rounding (``_QSS_RELAX``, ``_qss_switch``), where the step loop pauses
    (``pause_above``), the integration continues on the slow manifold: g is
    the chart's own manifold series in 1/w, built once from the chart
    coefficients, and the scalar equation left for log w is autonomous, so
    nothing is stepped. The tail (``_tail``) is a closed-form relation
    between s and log w: for sigma > 0, log w - sigma*s + Phi(1/w) is the
    constant log C, with Phi the integral of G/F in x = 1/w from one
    Chebyshev interpolant of G/F built at the switch; at sigma = 0, s is the
    integral of 1/(x^2*G), term by term in the series of 1/G. Here it is set
    up, log w at s_max found and the tail's node pieces counted; dense reads
    past the switch invert the relation at their own points, and its nodes
    are placed (``_Tail.nodes``) only when a node reader asks for them
    (``LogProfile``). ``qss_gap`` records the jump this puts into g:
    |g - G(w)|/|G| at the switch node reads 5.1e-14..2.7e-12 on the sigma > 0
    invariant grid rows (n <= 6; exactly 0 at alpha = 0, where g = G = 0) and
    up to 3.2e-10 for n up to 30, and 3.8e-11..2.3e-10 on eternal charts
    (n = 3..200), inside the chart's rtol of 1e-9. It is the stepped g's
    error off the manifold that the true solution has long relaxed onto.
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

    w_stop = math.inf
    # sigma = 0 to rounding: the eternal relation, whose tail drops sigma
    eternal = abs(sigma) <= _SIGMA_ZERO and not at_endpoint(n, m)
    tail_sigma = 0.0 if eternal else sigma
    if eternal or sigma > _QSS_MIN_SIGMA:
        d, e, w_stop = _qss_switch(cc._replace(sigma=tail_sigma), n, beta)
        if w0 >= w_stop:  # already stiff at the start: step through one relaxation scale before slaving
            w_stop = 2.0 * w0
    path = integrate_2d(_log_rhs(cc), s0, w0, g0, s_max, rtol, atol, positive_y=True, jac=_log_jac(cc),
                        pause_above=w_stop)
    switch_s = gap = tail = None
    counters = path.counters
    if path.paused is not None:
        switch_s = float(path.t[-1])
        # where G is exactly 0 (alpha = 0, where c_w = 0) the gap is read absolute
        g_manifold = horner(d, 1.0 / path.y[-1])
        gap = float(abs(path.z[-1] - g_manifold) / (abs(g_manifold) or 1.0))
        tail = _tail(tail_sigma, d, e, switch_s, math.log(path.y[-1]), s_max)
        counters["n_steps"] += tail.pieces  # a tail node counts as a step
    # the step loop's state at the switch is not kept: past it the tail serves the chart
    lp = LogProfile(head=replace(path, paused=None), tail=tail, sigma=sigma, m=m, rtol=rtol, qss_switch_s=switch_s,
                    qss_gap=gap, **counters)
    # only the stepped nodes carry a Hermite, and only a chart longer than _H_MAX can have a piece that long
    if s_max - s0 > _H_MAX:
        long_pieces = np.flatnonzero(np.diff(path.t) > _H_MAX)
        if long_pieces.size:
            raise ProfileError("log-chart nodes too far apart for the dense output of w; lower s_end",
                               float(path.t[long_pieces[0]]))
    return lp


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
    evaluated inside one chart never straddles the seam. Each chart's v' is
    the derivative of its dense v or w, except on the log chart's slow tail
    (``LogProfile``). ``nodes``, the node view the pointwise checks read,
    and ``diagnostics`` are built from the two chart records on first use,
    so a solve whose caller reads neither pays for neither. Either one, and
    any dense read the r-chart serves, first steps the r-chart past the
    handoff (``Profile``), and raises a ``ProfileError`` met there.
    """

    params: Parameters
    profile: Profile
    logprofile: LogProfile

    @cached_property
    def diagnostics(self) -> dict:
        """Both charts' counters and switches, the series handoff, and ``_overlap_error`` (reads both dense outputs)."""
        prof, lp = self.profile, self.logprofile
        return {
            "qss_switch_s": lp.qss_switch_s,
            "qss_gap": lp.qss_gap,
            "stiff_switch_s": lp.stiff_switch,
            "r_stiff_switch": prof.stiff_switch,
            "r_steps": prof.n_steps,
            "r_rejected": prof.n_rejected,
            "s_steps": lp.n_steps,
            "s_rejected": lp.n_rejected,
            "r_nfev": prof.nfev,
            "s_nfev": lp.nfev,
            "r_newton": prof.n_newton,
            "s_newton": lp.n_newton,
            "overlap_error": _overlap_error(prof, lp, self.params.m),
            "series_r_switch": prof.r_start,
            "series_truncation": prof.series.truncation_estimate,
        }

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
        """Largest radius served by dense evaluation: every radius at alpha = 0 (``Profile.r_reach``)."""
        return max(self.profile.r_reach, float(radius(self.logprofile.s_end)))

    def _by_chart(self, r, on_r, on_log) -> tuple:
        """The tuples ``on_r(radii)`` where the r-chart reaches and ``on_log(log r, radii)`` beyond, joined."""
        arr = np.atleast_1d(OutOfRange.clip("solution", r, 0.0, self.r_cover))
        out = _split(arr, arr <= self.profile.r_reach, on_r, lambda rr: on_log(np.log(rr), rr))
        return tuple(float(x[0]) for x in out) if np.ndim(r) == 0 else out

    def v(self, r):
        """Profile value v(r) across both charts."""
        return self._by_chart(r, lambda rr: self.profile.eval(rr, 0), lambda s, _: (self.logprofile.eval_v(s),))[0]

    def dv(self, r):
        """Radial derivative v'(r) across both charts."""
        lp = self.logprofile

        def on_log(s, rr):
            v, w, ws = lp.eval(s, "v", "w", "ws")
            return (v * (ws / w - 2.0) / ((1.0 - self.params.m) * rr),)

        return self._by_chart(r, lambda rr: self.profile.eval(rr)[1:], on_log)[0]

    def w_q(self, r):
        """(w, q) = (r^2 v^(1-m), r w_r) at radius r, from whichever chart covers it."""
        lp = self.logprofile
        return self._by_chart(r, lambda rr: _w_q(rr, *self.profile.eval(rr), self.params.m),
                              lambda s, _: lp.eval(s, "w", "ws"))


def _overlap_error(profile: Profile, logprofile: LogProfile, m: float) -> float:
    """Max relative disagreement of w between the charts on [1, 2]*R_HANDOFF, as far as both reach.

    inf where either chart's v or w there is not positive and finite, whose w is not defined.
    """
    hi = min(2.0 * R_HANDOFF, profile.r_end)
    if logprofile.s_end < math.log(hi):
        hi = math.exp(logprofile.s_end)
    rs = np.geomspace(R_HANDOFF, hi, 33)
    v, dv = profile.eval(rs)
    w_s = logprofile.eval_w(np.log(rs))
    if not np.all((0.0 < v) & (v < math.inf) & (0.0 < w_s) & (w_s < math.inf)):
        return math.inf
    w_r, _ = _w_q(rs, v, dv, m)
    return float(np.max(np.abs(w_r - w_s) / np.abs(w_s)))


def _chart_chain(n: int, m: float, alpha: float, beta: float, eta: float,
                 config: SolveConfig) -> tuple[Profile, LogProfile]:
    """Origin series and r-chart to max(r_max, 2*R_HANDOFF), handoff at R_HANDOFF, log chart to s_end.

    The r-chart is stepped to its first node past R_HANDOFF, where the handoff
    reads it, and the rest on the first read that needs it (``Profile``).
    Plain scalars, so that the m = 0 log-diffusion limit shares it; the callers validate."""
    profile = integrate_r(n, m, alpha, beta, eta, max(config.r_max, 2.0 * R_HANDOFF), config.tol,
                          pause_past=R_HANDOFF)
    start = handoff_to_log(profile, m)
    return profile, integrate_log(n, m, alpha, beta, start, config.s_end, config.tol)


def solve_profile(p: Parameters, config: SolveConfig = SolveConfig()) -> Solution:
    """Series seed, r-chart, handoff and log chart (``_chart_chain``).

    The r-chart past its first node beyond R_HANDOFF waits for the first read
    that needs it (``Profile``), and so does a ``ProfileError`` there; the
    overlap diagnostic waits for the first read of ``Solution.diagnostics``.
    Raises HypothesisViolation outside the existence range; ``integrate_r``
    has no gate and probes behaviour there (for example where the solver
    loses positivity).
    """
    require(p, "solve_profile", "existence_ok")
    profile, logprofile = _chart_chain(p.n, p.m, p.alpha, p.beta, p.eta, config)
    return Solution(params=p, profile=profile, logprofile=logprofile)
