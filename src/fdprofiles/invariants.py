"""Checks of the proven pointwise invariants and integral identities.

Each check walks a computed Solution and reports a signed worst margin per
invariant instead of raising: strict inequalities are accepted down to
-eps (100x the looser integrator tolerance) because discretization
noise can graze zero where an inequality degenerates, e.g. the slope ratio
r*w_r/w -> 2 at the origin meets its bound exactly when m = (n-2)/(n+2).

Margins are dimensionless (each quantity is normalized by its own local
scale). For identity checks the margin is threshold minus worst relative
mismatch, so pass/fail is margin >= -eps (pointwise) or margin >= 0
(identities) uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import Solution, radius
from .model import check_hypotheses, derived
from .series import series_moments

__all__ = [
    "InvariantEntry",
    "InvariantReport",
    "check_pointwise",
    "check_slope_bounds",
    "check_flux_identity",
    "check_q_identity",
    "run_all_checks",
]


@dataclass(frozen=True)
class InvariantEntry:
    name: str
    applicable: bool
    passed: bool
    worst_margin: float | None = None
    location: float | None = None
    note: str = ""


@dataclass(frozen=True)
class InvariantReport:
    entries: tuple[InvariantEntry, ...]
    overall: bool

    @staticmethod
    def collect(entries) -> "InvariantReport":
        entries = tuple(entries)
        return InvariantReport(
            entries=entries,
            overall=all(e.passed for e in entries if e.applicable),
        )

    def entry(self, name: str) -> InvariantEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _na(name: str, note: str) -> InvariantEntry:
    return InvariantEntry(name=name, applicable=False, passed=True, note=note)


def _from_margins(name, margins, locations, eps, note="") -> InvariantEntry:
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return InvariantEntry(
        name=name,
        applicable=True,
        passed=bool(worst >= -eps),
        worst_margin=worst,
        location=float(np.asarray(locations)[i]),
        note=note,
    )


def _eps(sol: Solution) -> float:
    return 100.0 * max(sol.profile.rtol, sol.logprofile.rtol)


_EXACT_DECAY_NOTE = "needs alpha = 2*beta/(1-m) > 0 and m < (n-2)/n"


def _exact_decay(p) -> bool:
    """The exact-decay hypotheses: the eternal relation alpha = 2*beta/(1-m) > 0, m strictly interior."""
    hyp = check_hypotheses(p)
    return hyp.log_decay_ok and hyp.strict_m


def check_pointwise(sol: Solution) -> InvariantReport:
    """Sign and positivity facts at the stored nodes of both charts.

    Every entry but one reads the nodes of both charts (``Solution.nodes``), where
    r*v'/v = (g/w + sigma - 2)/(1-m): v' has the sign opposite to alpha;
    0 < v <= eta for alpha > 0; h1 = v + k*r*v' > 0, as h1/v = k*g/((1-m)*w);
    and for 2*beta/(1-m) >= alpha > 0, h = v + (1-m)/2*r*v' > 0, as
    h/v = (g/w + sigma)/2, and w increasing between the nodes of each chart.
    ``w1_increasing``, the monotonicity of w1 = r^2*v^(2k) that h1 > 0
    implies, reads the r-chart's side alone (its nodes and the series
    samples): on the log chart
    d(log w1)/ds = 2*h1/v, which ``h1_positive`` reads from the exact g.
    """
    p = sol.params
    eps = _eps(sol)
    sigma = sol.logprofile.sigma
    one_m = 1.0 - p.m
    nodes = sol.nodes
    r, w = nodes.r, nodes.w
    gw = nodes.g / w
    rdv_v = (gw + sigma - 2.0) / one_m

    entries = []
    if p.alpha == 0.0:
        note = "alpha = 0: derivative must vanish identically"
        entries.append(_from_margins("dv_sign", eps - np.abs(rdv_v), r, eps, note=note))
    else:
        entries.append(_from_margins("dv_sign", -math.copysign(1.0, p.alpha) * rdv_v, r, eps))

    if p.alpha > 0.0:
        v = (w / r / r) ** (1.0 / one_m)
        entries.append(_from_margins("v_between_0_eta", np.minimum((p.eta - v) / p.eta, v / p.eta), r, eps))
    else:
        entries.append(_na("v_between_0_eta", "needs alpha > 0"))

    if p.alpha != 0.0 and p.beta != 0.0 and p.m * p.alpha / p.beta <= p.n - 2:
        k = derived(p).k
        lnr = np.log(r[: nodes.seam])
        lnw1 = 2.0 * lnr + 2.0 * k * (np.log(w[: nodes.seam]) - 2.0 * lnr) / one_m
        note = "discrete monotonicity of log(r^2 v^2k) between r-chart and series samples"
        entries.append(_from_margins("h1_positive", k * gw / one_m, r, eps))
        entries.append(_from_margins("w1_increasing", np.diff(lnw1), r[1 : nodes.seam], eps, note=note))
    else:
        note = "needs alpha != 0, beta != 0 and m*alpha/beta <= n-2"
        entries += [_na("h1_positive", note), _na("w1_increasing", note)]

    if p.alpha > 0.0 and 2.0 * p.beta / one_m >= p.alpha:
        note = "discrete monotonicity of log(r^2 v^(1-m)) within each chart"
        entries.append(_from_margins("h_positive", 0.5 * (gw + sigma), r, eps))
        entries.append(_from_margins("w_increasing", *nodes.increments(np.log(w)), eps, note=note))
    else:
        note = "needs 2*beta/(1-m) >= alpha > 0"
        entries += [_na("h_positive", note), _na("w_increasing", note)]

    return InvariantReport.collect(entries)


def check_slope_bounds(sol: Solution) -> InvariantReport:
    """Slope bounds of the log chart under the exact-decay hypotheses.

    Applicable only for alpha = 2*beta/(1-m) > 0 with m strictly interior.
    For b0 >= 0 the bound is r*w_r/w <= (1-m)*sqrt(b1)/m (sharp at the
    origin exactly when m = (n-2)/(n+2)); for b0 < 0 it is
    p = m/(1-m) * r*w_r/w <= b2. The slope bound reads the nodes of both
    charts, where r*w_r/w = g/w + sigma (``Solution.nodes``). Positivity and
    empirical boundedness of w_s on s >= 0 are reported, as is unbounded
    growth of w (w_s bounded below by a0/2 on the last half of the log
    chart); these read the log chart alone.
    """
    p = sol.params
    eps = _eps(sol)
    if not _exact_decay(p):
        names = ("slope_ratio_bound", "ws_positive_bounded", "w_unbounded")
        return InvariantReport.collect(_na(nm, _EXACT_DECAY_NOTE) for nm in names)

    dc = derived(p)
    lp = sol.logprofile
    one_m = 1.0 - p.m
    nodes = sol.nodes
    ratio = nodes.g / nodes.w + lp.sigma

    if dc.b0 >= 0.0:
        bound = one_m * math.sqrt(dc.b1) / p.m
        margins = (bound - ratio) / bound
        note = f"r*w_r/w <= (1-m)*sqrt(b1)/m = {bound:.6g} (b0 >= 0 branch)"
    else:
        margins = (dc.b2 - (p.m / one_m) * ratio) / dc.b2
        note = f"p = m/(1-m)*r*w_r/w <= b2 = {dc.b2:.6g} (b0 < 0 branch)"
    entries = [_from_margins("slope_ratio_bound", margins, nodes.r, eps, note=note)]

    ws_max = float(np.max(lp.ws))
    entries.append(
        _from_margins(
            "ws_positive_bounded",
            lp.ws / max(ws_max, 1e-300),
            radius(lp.s),
            eps,
            note=f"w_s > 0 on s >= 0; attained max {ws_max:.6g}",
        )
    )

    if lp.s_end >= 40.0 - 1e-9:
        # w_s >= a0/2 > 0 over the last half of the chart makes w grow at
        # least like a0*s/2, whatever the scale of a0
        late = lp.s >= 0.5 * (lp.s_start + lp.s_end)
        entries.append(
            _from_margins(
                "w_unbounded",
                lp.ws[late] / dc.a0 - 0.5,
                radius(lp.s[late]),
                eps,
                note=f"w_s >= a0/2 = {0.5 * dc.a0:.6g} on the last half of the log chart (s_end >= 40)",
            )
        )
    else:
        entries.append(_na("w_unbounded", "log chart too short to assess unbounded growth"))
    return InvariantReport.collect(entries)


# Radii at which both integral identities are checked (those within reach).
# ``quad``'s 8-point rule is exact to degree 15, so on each r-chart piece
# (septic Hermite in r) the flux integrand rho^(n-1)*v, of degree n + 6, is
# integrated exactly for n <= 9. Beyond that the rule is not exact but the
# pieces are smooth: on the n = 10 row of tests/test_exact.py the 8- and
# 16-point rules agree to 2.2e-16 at every radius.
_IDENTITY_RADII = np.array([0.5, 1.0, 5.0, 20.0])


def _identity_radii(sol: Solution) -> np.ndarray:
    return _IDENTITY_RADII[_IDENTITY_RADII <= sol.r_cover]


def _identity_entry(name, residual, scale, radii, quad_tol, rtol) -> InvariantEntry:
    """An identity's entry: relative mismatch |residual|/scale against 100*max(quad_tol, rtol)."""
    tol_eff = 100.0 * max(quad_tol, rtol)
    mismatches = np.abs(residual) / (scale + 1e-300)
    return _from_margins(name, tol_eff - mismatches, radii, 0.0, note=f"relative mismatch vs threshold {tol_eff:.3g}")


# Gauss-Legendre rule on [-1, 1]; 8 points are exact to degree 15.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def quad(f, a: float, b, breaks):
    """Integrals of the vectorized ``f`` from ``a`` to every upper limit in ``b`` (a float for scalar ``b``).

    The rule of both integral identities, which read every radius off one
    sweep: one Gauss-Legendre rule per piece of [a, max(b)] cut at every
    upper limit and at every entry of ``breaks`` inside it (the pieces of the
    dense output), summed cumulatively. A repeated cut only adds an empty
    piece (np.unique would import numpy.ma, ~15 ms on a first call).
    """
    ends = np.asarray(b, dtype=float)
    breaks = np.asarray(breaks, dtype=float)
    x = np.sort(np.concatenate(([a], breaks[(breaks > a) & (breaks < ends.max())], ends.ravel())))
    half = 0.5 * np.diff(x)
    nodes = (x[:-1] + half)[:, None] + half[:, None] * _GL_X
    cum = np.concatenate(([0.0], np.cumsum(half * (f(nodes.ravel()).reshape(nodes.shape) @ _GL_W))))
    out = cum[np.searchsorted(x, ends)]
    return float(out) if out.ndim == 0 else out


def _breaks(sol: Solution) -> np.ndarray:
    """Piece ends of the dense output past the origin series: r-chart nodes, log-chart nodes beyond."""
    rlog = radius(sol.logprofile.s)
    return np.concatenate((sol.profile.r, rlog[rlog > sol.profile.r_end]))


def _from_origin(sol: Solution, r, on_series, beyond):
    """``on_series(min(r, r_start))`` plus ``beyond(r_start, radii past it)``, for every radius in ``r`` at once.

    On [0, r_start] the dense output is the origin series, a polynomial in
    y = scale*rho^2 that the identities integrate term by term; past it they
    take ``quad`` on the pieces of the dense output.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    r_start = sol.profile.r_start
    out = on_series(np.minimum(radii, r_start))
    past = radii > r_start
    if past.any():
        out[past] += beyond(r_start, radii[past])
    return float(out[0]) if np.ndim(r) == 0 else out


def _flux_integral(sol: Solution, r):
    """Integral of rho^(n-1) * v(rho) over [0, r], for every radius in ``r`` at once."""
    n = sol.params.n
    se = sol.profile.series
    return _from_origin(
        sol,
        r,
        lambda h: series_moments(se.eta * np.asarray(se.coeffs), se.scale, n, h),
        lambda lo, ends: quad(lambda rho: rho ** (n - 1) * sol.v(rho), lo, ends, _breaks(sol)),
    )


def _q_integral(sol: Solution, r):
    """Integral of rho^(b0-1) * w^(m/(1-m)) * (a0 - q) over [0, r], for every radius in ``r`` at once.

    The integrand is rho^edge times the smooth factor v^m * (a0 - q), with
    edge = b0 - 1 + 2m/(1-m) = p1 - 1 and p1 = (n-2-nm)/(1-m) > 0. On the
    series segment the smooth factor is a0*v^m - 2*rho^2*v - (1-m)*rho^3*v',
    a series in y = scale*rho^2 read off the origin series' a_k and the L_k
    of v^m, and is integrated term by term. Beyond it the substitution
    u = rho^p1 removes the rho^edge factor.
    """
    p = sol.params
    dc = derived(p)
    mexp = p.m / (1.0 - p.m)
    p1 = (p.n - 2 - p.n * p.m) / (1.0 - p.m)
    se = sol.profile.series

    def smooth_part(rho):
        w, q = sol.w_q(rho)
        return (w / (rho * rho)) ** mexp * (dc.a0 - q)

    # v^m = eta^m*(1 + m*L(y)) and rho^2*v, rho^3*v' are eta^m times the a_k and 2k*a_k shifted by one power of y
    a = np.asarray(se.coeffs)
    coeffs = dc.a0 * p.m * np.asarray(se.log_coeffs)
    coeffs[0] = dc.a0
    coeffs[1:] -= 2.0 * (1.0 + (1.0 - p.m) * np.arange(a.size - 1)) * a[:-1]
    return _from_origin(
        sol,
        r,
        lambda h: series_moments(p.eta**p.m * coeffs, se.scale, p1, h),
        lambda lo, ends: quad(lambda u: smooth_part(u ** (1.0 / p1)), lo**p1, ends**p1, _breaks(sol) ** p1) / p1,
    )


def check_flux_identity(sol: Solution, quad_tol: float = 1e-10) -> InvariantReport:
    """Radial flux balance at sampled radii.

    Compares (n-1)*v^(m-1)*v' against
    -beta*r*v + (n*beta - alpha)/r^(n-1) * integral of rho^(n-1)*v(rho),
    with the integral taken term by term on the origin series and by
    Gauss-Legendre on the pieces of the dense output beyond. ``quad_tol`` is
    the floor of the mismatch threshold 100*max(quad_tol, rtol).
    """
    p = sol.params
    radii = _identity_radii(sol)
    n = p.n
    v = sol.v(radii)
    lhs = (n - 1) * v ** (p.m - 1.0) * sol.dv(radii)
    term1 = -p.beta * radii * v
    term2 = (n * p.beta - p.alpha) / radii ** (n - 1) * _flux_integral(sol, radii)
    scale = np.abs(lhs) + np.abs(term1) + np.abs(term2)
    entry = _identity_entry("flux_identity", lhs - term1 - term2, scale, radii, quad_tol, sol.profile.rtol)
    return InvariantReport.collect([entry])


def check_q_identity(sol: Solution, quad_tol: float = 1e-10) -> InvariantReport:
    """Integral identity for q = r*w_r under the exact-decay hypotheses.

    r^b0 * q * w^((2m-1)/(1-m)) must equal beta/(n-1) times the integral of
    rho^(b0-1) * w^(m/(1-m)) * (a0 - q) from the origin, taken as in
    ``_q_integral`` (term by term on the origin series, Gauss-Legendre on
    the dense output's pieces beyond); the boundary factor itself must
    decay to zero as r -> 0. ``quad_tol`` is the floor of the mismatch
    threshold 100*max(quad_tol, rtol).
    """
    p = sol.params
    if not _exact_decay(p):
        return InvariantReport.collect(_na(nm, _EXACT_DECAY_NOTE) for nm in ("q_identity", "q_boundary_decay"))
    dc = derived(p)
    radii = _identity_radii(sol)
    wexp = (2.0 * p.m - 1.0) / (1.0 - p.m)

    def lhs_at(r):
        w, q = sol.w_q(r)
        return r**dc.b0 * q * w**wexp

    lhs = lhs_at(radii)
    rhs = p.beta / (p.n - 1) * _q_integral(sol, radii)
    entries = [_identity_entry("q_identity", lhs - rhs, np.abs(lhs) + np.abs(rhs), radii, quad_tol,
                               sol.logprofile.rtol)]

    lhs_outer = abs(lhs_at(1e-3))
    lhs_inner = abs(lhs_at(1e-4))
    entries.append(
        InvariantEntry(
            name="q_boundary_decay",
            applicable=True,
            passed=bool(lhs_inner < lhs_outer),
            worst_margin=math.log(lhs_outer / max(lhs_inner, 1e-300)),
            location=1e-4,
            note="|r^b0 q w^((2m-1)/(1-m))| decreasing toward 0 as r -> 0",
        )
    )
    return InvariantReport.collect(entries)


def run_all_checks(sol: Solution, quad_tol: float = 1e-10) -> InvariantReport:
    """All pointwise, slope, and integral checks merged into one report."""
    reports = (check_pointwise(sol), check_slope_bounds(sol), check_flux_identity(sol, quad_tol),
               check_q_identity(sol, quad_tol))
    return InvariantReport.collect(e for rep in reports for e in rep.entries)
