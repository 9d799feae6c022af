"""The m -> 0 singular limit: log-diffusion profiles and uniform convergence.

As m -> 0 the profile equation turns into

    (n-1) * Delta log u + alpha*u + beta*x.grad(u) = 0,  u(0) = eta,

valid for beta > 0 or alpha = 0. Its radial form is the r-chart's equation
at m = 0, so u comes from the same ``integrate_r`` (origin seed included)
that produces every v^(m), and the chain of both charts that
``solve_profile`` runs, taken at m = 0, continues it in the log chart to
large radii. An independent route, the once-integrated (u, I) system with
I' = r^(n-1)*u under scipy, is kept in the tests as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import estimate_log_decay, log_tail_fit
from .errors import HypothesisViolation
from .integrate import LogProfile, Profile, SolveConfig, _chart_chain, integrate_r, solve_profile
from .model import Parameters, chart_constants, check_dimension, eternal_alpha, require

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
# The eternal family m -> 0 that double_limit_check follows.
_DOUBLE_LIMIT_MS = (0.2, 0.1, 0.05, 0.02)


def _log_equation_dimension(n, alpha: float, beta: float, eta: float) -> int:
    """n as an int, once the log-diffusion equation is posed: beta > 0 or alpha = 0, eta > 0, integer n >= 3."""
    if not (beta > 0.0 or alpha == 0.0):
        raise HypothesisViolation(f"log-diffusion limit needs beta > 0 or alpha = 0; got alpha={alpha}, beta={beta}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return check_dimension(n)


def solve_log_equation(n: int, alpha: float, beta: float, eta: float, r_max: float) -> Profile:
    """Radial solution of the log-diffusion equation on [0, r_max]: the r-chart at m = 0, default tolerance."""
    return integrate_r(_log_equation_dimension(n, alpha, beta, eta), 0.0, alpha, beta, eta, r_max)


def log_chart_of_log_equation(n: int, alpha: float, beta: float, eta: float) -> LogProfile:
    """Continue the log-diffusion solution in the m = 0 log chart (w = r^2 u).

    The chain of both charts at m = 0 and the default SolveConfig: the r-chart
    to 2*R_HANDOFF, the handoff at R_HANDOFF and the log chart to s_end."""
    return _chart_chain(_log_equation_dimension(n, alpha, beta, eta), 0.0, alpha, beta, eta, SolveConfig())[1]


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
) -> ConvergenceReport:
    """Solve v^(m) for each m and measure sup |v^(m) - u| on [0, r_max].

    u and every v^(m) come from the same ``integrate_r`` at its default
    tolerance, u at m = 0; v^(m) is the r-chart ``solve_profile`` computes.
    An empty ``m_list`` or an ``r_max`` that is not finite and positive is a
    ValueError, and an inadmissible member a HypothesisViolation, before
    anything is solved."""
    if not m_list:
        raise ValueError("m_list is empty: the study needs at least one m")
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"r_max must be finite and positive, got {r_max}")
    # every member is checked before anything is solved, the limit equation's own condition first
    ms = tuple(sorted(m_list, reverse=True))
    for m in ms:
        require(Parameters(n, m, alpha, beta, eta), f"the m -> 0 study at m = {m}", "limit_ok", "existence_ok")
    grid = np.linspace(0.0, r_max, _GRID_POINTS)
    u_vals = solve_log_equation(n, alpha, beta, eta, r_max).eval(grid, 0)[0]

    sups = []
    for m in ms:
        v_vals = integrate_r(n, m, alpha, beta, eta, r_max).eval(grid, 0)[0]
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


def double_limit_check(n: int, beta: float, eta: float = 1.0) -> DoubleLimitReport:
    target, _ = chart_constants(n, 0.0, beta)
    ms = _DOUBLE_LIMIT_MS
    measured = []
    for m in ms:
        p = Parameters(n, m, eternal_alpha(m, beta), beta, eta)
        measured.append(estimate_log_decay(solve_profile(p)).extrapolated)
    m_prev, m_last = ms[-2], ms[-1]
    a_prev, a_last = measured[-2], measured[-1]
    slope = (a_prev - a_last) / (m_prev - m_last)
    a0_extrap = a_last - m_last * slope

    lp = log_chart_of_log_equation(n, eternal_alpha(0.0, beta), beta, eta)
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
