"""The m -> 0 singular limit: log-diffusion profiles and uniform convergence.

As m -> 0 the profile equation turns into

    (n-1) * Delta log u + alpha*u + beta*x.grad(u) = 0,  u(0) = eta,

valid for beta > 0 or alpha = 0. The radial solution is produced here by a
route independent of the main charts: the once-integrated form

    u' = u/(n-1) * ( -beta*r*u + (n*beta - alpha) * I / r^(n-1) ),
    I' = r^(n-1) * u,

seeded near the origin by u = eta + d2*r^2 with d2 = -alpha*eta^2/(2n(n-1)).
The same solution can be followed at large radii by the log chart with m = 0;
both routes must agree, which the tests exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import estimate_log_decay, log_tail_fit
from .errors import HypothesisViolation
from .integrate import (
    LogProfile, Profile, SolveConfig, handoff_to_log, integrate_log, integrate_r, solve_profile,
)
from .model import Parameters, check_hypotheses
from .rk import integrate_2d
from .series import expand_at_origin, seed_within

__all__ = [
    "ConvergenceReport",
    "DoubleLimitReport",
    "solve_log_equation",
    "log_chart_of_log_equation",
    "limit_convergence",
    "double_limit_check",
]

# Samples of the sup-norm grid on [0, r_max] in limit_convergence.
_GRID_POINTS = 1001


def solve_log_equation(
    n: int,
    alpha: float,
    beta: float,
    eta: float,
    r_max: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Profile:
    """Radial solution of the log-diffusion equation on [0, r_max].

    Integrates the (u, I) system above; near the origin the I/r^(n-1) factor
    is started from the seed expansion to avoid the 0/0."""
    if not (beta > 0.0 or alpha == 0.0):
        raise HypothesisViolation(f"log-diffusion limit needs beta > 0 or alpha = 0; got alpha={alpha}, beta={beta}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if n != int(n) or n < 3:
        raise ValueError(f"dimension n must be an integer >= 3, got {n}")
    se = seed_within(n, 0.0, alpha, beta, eta, rtol)
    start = se.r_start
    u0 = eta + se.c2 * start * start
    i0 = eta * start**n / n + se.c2 * start ** (n + 2) / (n + 2)
    n1 = n - 1.0

    def rhs(r, u, acc):
        if u <= 0.0 or not math.isfinite(u):
            return math.nan, math.nan
        return u / n1 * (-beta * r * u + (n * beta - alpha) * acc / r**n1), r**n1 * u

    path = integrate_2d(
        rhs,
        start,
        u0,
        i0,
        r_max,
        rtol,
        atol,
        positive_y=True,
        y_scale_hint=eta,
    )
    return Profile(
        r=path.t,
        v=path.y,
        dv=path.fy,
        ddv=None,
        series=se,
        rtol=rtol,
        atol=atol,
        n_steps=path.n_steps,
        n_rejected=path.n_rejected,
    )


def log_chart_of_log_equation(
    n: int,
    alpha: float,
    beta: float,
    eta: float,
    s_end: float = 40.0,
    r_handoff: float = 1.0,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    base: Profile | None = None,
) -> LogProfile:
    """Continue the log-diffusion solution in the m = 0 log chart (w = r^2 u)."""
    prof = base if base is not None else solve_log_equation(n, alpha, beta, eta, 2.0 * r_handoff)
    start = handoff_to_log(prof, r_handoff, 0.0)
    return integrate_log(n, 0.0, alpha, beta, start, s_end, rtol, atol)


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between v^(m) and the log-diffusion solution u.

    ``monotone`` allows 5% slack between consecutive m values because no
    rate is proven; only the decreasing trend and the final size carry
    testable content.
    """

    m_values: tuple[float, ...]
    sup_errors: tuple[float, ...]
    r_max: float
    monotone: bool
    final_error: float


def limit_convergence(
    n: int,
    alpha: float,
    beta: float,
    eta: float,
    m_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01),
    r_max: float = 10.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ConvergenceReport:
    """Solve v^(m) for each m and measure sup |v^(m) - u| on [0, r_max]."""
    if not (beta > 0.0 or alpha == 0.0):
        raise HypothesisViolation(f"log-diffusion limit needs beta > 0 or alpha = 0; got alpha={alpha}, beta={beta}")
    ms = tuple(sorted(m_list, reverse=True))
    for m in ms:
        p = Parameters(n, m, alpha, beta, eta)
        if not check_hypotheses(p).existence_ok:
            raise HypothesisViolation(
                f"m = {m} leaves the existence range for alpha = {alpha}, beta = {beta}"
            )

    u_prof = solve_log_equation(n, alpha, beta, eta, r_max, rtol, atol)
    grid = np.linspace(0.0, r_max, _GRID_POINTS)
    u_vals, _ = u_prof.eval(grid)

    sups = []
    for m in ms:
        p = Parameters(n, m, alpha, beta, eta)
        prof = integrate_r(p, expand_at_origin(p), r_max, rtol, atol)
        v_vals, _ = prof.eval(grid)
        sups.append(float(np.max(np.abs(v_vals - u_vals))))

    monotone = all(sups[i + 1] <= 1.05 * sups[i] for i in range(len(sups) - 1))
    return ConvergenceReport(
        m_values=ms,
        sup_errors=tuple(sups),
        r_max=r_max,
        monotone=monotone,
        final_error=sups[-1],
    )


@dataclass(frozen=True)
class DoubleLimitReport:
    """Order-exchange check: both iterated limits against 2*(n-1)*(n-2)/beta.

    a0_measured are the per-m extrapolated w_s limits along the eternal
    family alpha = 2*beta/(1-m); a0_extrapolated sends m -> 0 linearly
    through the last two entries. log_side is the measured w_s limit of the
    m = 0 chart of the log-diffusion equation with alpha = 2*beta.
    """

    target: float
    m_values: tuple[float, ...]
    a0_measured: tuple[float, ...]
    a0_extrapolated: float
    log_side: float
    rel_err_m_side: float
    rel_err_log_side: float


def double_limit_check(
    n: int,
    beta: float,
    eta: float = 1.0,
    m_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02),
    s_end: float = 40.0,
) -> DoubleLimitReport:
    target = 2.0 * (n - 1) * (n - 2) / beta
    ms = tuple(sorted(m_list, reverse=True))
    if len(ms) < 2:
        raise ValueError("need at least two m values to extrapolate the trend to m = 0")
    measured = []
    for m in ms:
        alpha = 2.0 * beta / (1.0 - m)
        p = Parameters(n, m, alpha, beta, eta)
        sol = solve_profile(p, SolveConfig(s_end=s_end))
        measured.append(estimate_log_decay(sol).extrapolated)
    m_prev, m_last = ms[-2], ms[-1]
    a_prev, a_last = measured[-2], measured[-1]
    slope = (a_prev - a_last) / (m_prev - m_last)
    a0_extrap = a_last - m_last * slope

    lp = log_chart_of_log_equation(n, 2.0 * beta, beta, eta, s_end=s_end)
    _, _, log_side, _ = log_tail_fit(lp)

    return DoubleLimitReport(
        target=target,
        m_values=ms,
        a0_measured=tuple(measured),
        a0_extrapolated=a0_extrap,
        log_side=log_side,
        rel_err_m_side=abs(a0_extrap - target) / target,
        rel_err_log_side=abs(log_side - target) / target,
    )
