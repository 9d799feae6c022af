"""Self-similar solutions assembled from a profile, and their PDE residual.

A radial profile v generates a space-time solution of u_t = (n-1)/m * Delta u^m
in one of three forms, each valid only under its exponent relation:

    forward    u(x,t) = t^(-alpha)   * v(|x| t^(-beta)),     t > 0
    backward   u(x,t) = (T-t)^alpha  * v(|x| (T-t)^beta),    t < T
    eternal    u(x,t) = e^(-alpha t) * v(|x| e^(-beta t)),   all t

The verifier differences u and u^m on an (r, t) grid with second-order
central stencils and reports the worst relative residual of the diffusion
equation, the empirical order under step halving, and the gap between the
finite-difference time derivative and the closed-form one from (v, v').
Perturbing alpha off its relation must blow the residual up; that test is
what ties the profile to the PDE rather than to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, RegimeMismatch
from .integrate import Solution
from .model import Regime, classify_regime
from .series import libm_exp, libm_pow

__all__ = ["PDE_RADII", "SelfSimilarSolution", "ResidualStats", "build_selfsimilar", "residual_grid", "pde_residual"]

# Powers and exponentials here are taken element by element with the C
# library (``series.libm_pow`` and ``libm_exp``), as scalar arithmetic takes
# them. numpy's vectorized pow and exp round some elements differently in the
# last bit, depending on the CPU's SIMD level and the array's length, and the
# residual's h/2 stencil amplifies one such bit of u^m by about
# 4*(n-1)/(m*h^2), to ~1% of the reported residual. So a point gets the same
# bits alone or in an array, on any CPU.


@dataclass(frozen=True)
class SelfSimilarSolution:
    """Evaluable self-similar solution (|x|, t) -> u built on a Solution.

    The exponents are stored separately from the underlying solution so a
    deliberately inconsistent prefactor can be constructed for sensitivity
    tests; ``build_selfsimilar`` is the validated entry point.
    """

    regime: Regime
    solution: Solution
    n: int
    m: float
    alpha: float
    beta: float
    T: float | None = None

    def _scales(self, t):
        """(prefactor, argument scale, divisor of the chain rule's du/dt: t, T - t or 1) at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.regime is Regime.FORWARD:
            if np.any(t <= 0.0):
                raise OutOfRange(f"forward self-similar solutions live on t > 0, got t = {np.min(t)}")
            return libm_pow(t, -self.alpha), libm_pow(t, -self.beta), t
        if self.regime is Regime.BACKWARD:
            if np.any(t >= self.T):
                raise OutOfRange(
                    f"backward self-similar solutions live on t < T = {self.T}, got t = {np.max(t)}"
                )
            tt = self.T - t
            return libm_pow(tt, self.alpha), libm_pow(tt, self.beta), tt
        return libm_exp(-self.alpha * t), libm_exp(-self.beta * t), np.ones_like(t)

    def value(self, x_abs, t):
        """u(|x|, t); array arguments broadcast against each other."""
        pref, scale, _ = self._scales(t)
        return pref * self.solution.v(x_abs * scale)

    def time_derivative_chain(self, x_abs, t):
        """du/dt in closed form from (v, v') via the chain rule."""
        pref, scale, div = self._scales(t)
        arg = x_abs * scale
        return self._chain(pref, div, arg, self.solution.v(arg), self.solution.dv(arg))

    def _chain(self, pref, div, arg, v, dv):
        """du/dt from the prefactor and the divisor of ``_scales`` and (v, v') at the scaled argument."""
        return -pref / div * (self.alpha * v + self.beta * arg * dv)


def _horizon(regime: Regime, T: float | None) -> float | None:
    """The finite horizon T > 0 of a backward solution; None for the other regimes."""
    if regime is Regime.BACKWARD and not (T is not None and math.isfinite(T) and T > 0.0):
        raise RegimeMismatch(f"backward self-similar solutions need a finite horizon T > 0, got {T}")
    return T if regime is Regime.BACKWARD else None


def build_selfsimilar(sol: Solution, regime: Regime, T: float | None = None) -> SelfSimilarSolution:
    """Validated constructor: the regime must match the parameters' relation."""
    actual = classify_regime(sol.params)
    if regime is Regime.GENERIC or actual is not regime:
        raise RegimeMismatch(
            f"parameters classify as {actual.value}; cannot build a {regime.value} self-similar solution"
        )
    p = sol.params
    return SelfSimilarSolution(
        regime=regime, solution=sol, n=p.n, m=p.m, alpha=p.alpha, beta=p.beta, T=_horizon(regime, T)
    )


# Radii of the default residual stencil.
PDE_RADII = (0.5, 1.0, 2.0, 5.0)


def residual_grid(regime: Regime, T: float | None = None, radii=PDE_RADII, times=None, h: float = 1e-3,
                  dt: float | None = None) -> tuple:
    """(radii, times, h, dt) of the stencil ``pde_residual`` uses for a ``regime`` solution, checked without a solve.

    ``times`` defaults to three times inside the regime's time range and
    ``dt`` to h. A generic regime, or a backward one without a finite horizon
    T > 0, is a RegimeMismatch. A ValueError is a step h or dt that is not
    finite and positive; an empty ``radii`` or ``times``, or one with a value
    that is not finite; a radius whose stencil reaches r <= 0; and a forward
    or backward time whose t -/+ dt leaves the regime's time range. Whether
    the solution covers the stencil's largest radius needs the solve, and is
    ``pde_residual``'s to check.
    """
    if regime is Regime.GENERIC:
        raise RegimeMismatch("parameters do not satisfy any of the three self-similar exponent relations")
    T = _horizon(regime, T)
    dt = h if dt is None else dt
    for name, step in (("h", h), ("dt", dt)):
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {step}")
    if times is None and regime is Regime.FORWARD:
        times = (0.8, 1.0, 1.25)
    elif times is None and regime is Regime.BACKWARD:
        times = (0.25 * T, 0.5 * T, 0.7 * T)
    elif times is None:
        times = (-0.2, 0.0, 0.2)
    for name, values in (("radii", radii), ("times", times)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: the stencil needs at least one point")
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"{name} must be finite, got {tuple(values)}")
    if not min(radii) > h:
        raise ValueError(f"stencil reaches r = {min(radii) - h:.4g}; every radius must exceed h = {h:.4g}")
    if regime is Regime.FORWARD and not min(times) - dt > 0.0:
        raise ValueError(f"stencil reaches t = {min(times) - dt:.4g}; forward solutions live on t > 0")
    if regime is Regime.BACKWARD and not max(times) + dt < T:
        raise ValueError(f"stencil reaches t = {max(times) + dt:.4g}; backward solutions live on t < T = {T:.4g}")
    return radii, times, h, dt


@dataclass(frozen=True)
class ResidualStats:
    """Finite-difference residual summary over the (r, t) grid."""

    max_rel_residual: float
    max_rel_residual_half: float
    order_estimate: float
    chain_rule_max_rel_diff: float
    h: float
    dt: float
    n_points: int


def _max_residual(ss: SelfSimilarSolution, radii, times, h, dt, eps_scale):
    """Worst relative PDE residual and chain-rule gap over the (times x radii) stencil.

    v is read in one call on the five stencil points of every (r, t) stacked,
    and v' in one more at the centre points; each element has the bits of the
    ``value`` and ``time_derivative_chain`` calls it stands for.
    """
    r = np.asarray(radii, dtype=float)[None, :]
    t = np.asarray(times, dtype=float)[:, None]
    pref, scale, div = ss._scales(np.stack([t + dt, t - dt, t]))
    centre = r * scale[2]
    v = ss.solution.v(np.stack([r * scale[0], r * scale[1], centre, (r + h) * scale[2], (r - h) * scale[2]]))
    u_later, u_earlier, u0, u_right, u_left = pref[[0, 1, 2, 2, 2]] * v
    u_t = (u_later - u_earlier) / (2.0 * dt)
    f0 = libm_pow(u0, ss.m)
    fp = libm_pow(u_right, ss.m)
    fm = libm_pow(u_left, ss.m)
    lap = (fp - 2.0 * f0 + fm) / (h * h) + (ss.n - 1) / r * (fp - fm) / (2.0 * h)
    rhs = (ss.n - 1) / ss.m * lap
    resid = np.abs(u_t - rhs) / (np.abs(u_t) + np.abs(rhs) + eps_scale)
    chain = ss._chain(pref[2], div[2], centre, v[2], ss.solution.dv(centre))
    chain_gap = np.abs(u_t - chain) / (np.abs(u_t) + np.abs(chain) + eps_scale)
    return float(np.max(resid)), float(np.max(chain_gap))


def pde_residual(
    ss: SelfSimilarSolution,
    radii=PDE_RADII,
    times=None,
    h: float = 1e-3,
    dt: float | None = None,
) -> ResidualStats:
    """Residual of the diffusion equation on the (radii x times) grid.

    Residuals are computed at (h, dt) and (h/2, dt/2); the empirical order
    is log2 of their ratio and sits near 2 for smooth regions. The relative
    normalization carries a small absolute floor so the check stays finite
    where both sides vanish. The grid's defaults and checks are those of
    ``residual_grid``. A stencil that leaves the solution's covered range
    is an OutOfRange; one whose h/2 leaves a radius, or whose dt/2 leaves a
    time, on its centre in floating point is a ValueError, as both sides of
    the PDE would read 0 there (or NaN, once h*h underflows).
    """
    radii, times, h, dt = residual_grid(ss.regime, ss.T, radii, times, h, dt)

    # fail fast if any stencil point leaves the covered range
    _, scale, _ = ss._scales(times)
    r_need = (max(radii) + 2.0 * h) * float(np.max(scale))
    if r_need > ss.solution.r_cover:
        raise OutOfRange(
            f"stencil reaches r = {r_need:.4g} which exceeds the covered range {ss.solution.r_cover:.4g}"
        )
    # the half-step stencil must move off every centre, or both sides of the PDE read 0
    for name, step, centres in (("h", h, radii), ("dt", dt, times)):
        for c in centres:
            if c - 0.5 * step == c or c + 0.5 * step == c:
                raise ValueError(f"{name}/2 = {0.5 * step:.4g} leaves {c:.4g} on its centre; use a larger {name}")

    eps_scale = 1e-12 * ss.solution.params.eta
    full, chain = _max_residual(ss, radii, times, h, dt, eps_scale)
    half, _ = _max_residual(ss, radii, times, 0.5 * h, 0.5 * dt, eps_scale)
    order = math.log2(full / half) if half > 0.0 else math.inf
    return ResidualStats(
        max_rel_residual=full,
        max_rel_residual_half=half,
        order_estimate=order,
        chain_rule_max_rel_diff=chain,
        h=h,
        dt=dt,
        n_points=len(radii) * len(times),
    )
