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
from scipy.integrate import quad

from .errors import ProfileError
from .integrate import Solution
from .model import check_hypotheses, derived

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

    def merged(self, other: "InvariantReport") -> "InvariantReport":
        return InvariantReport.collect(self.entries + other.entries)

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


def check_pointwise(sol: Solution) -> InvariantReport:
    """Sign and positivity facts at every stored sample of both charts.

    Checked (when their hypotheses apply): h1 = v + k*r*v' > 0 and the
    matching monotonicity of w1 = r^2*v^(2k); v' has the sign opposite to
    alpha; 0 < v <= eta for alpha > 0; h = v + (1-m)/2*r*v' > 0 and w
    increasing for 2*beta/(1-m) >= alpha > 0.
    """
    p = sol.params
    eps = _eps(sol)
    dc = derived(p)
    prof, lp = sol.profile, sol.logprofile
    one_m = 1.0 - p.m

    r = prof.r
    v = prof.v
    dv = prof.dv
    interior = r > 0
    r, v, dv = r[interior], v[interior], dv[interior]
    rlog = np.exp(lp.s)

    entries = []

    # sign of v'
    if p.alpha == 0.0:
        slope = np.abs(r * dv) / v
        entries.append(
            _from_margins(
                "dv_sign",
                eps - slope,
                r,
                eps,
                note="alpha = 0: derivative must vanish identically",
            )
        )
    else:
        sign = -math.copysign(1.0, p.alpha)
        entries.append(_from_margins("dv_sign", sign * r * dv / v, r, eps))

    # v bounded by its center value when alpha > 0
    if p.alpha > 0.0:
        margins = np.minimum((p.eta - v) / p.eta, v / p.eta)
        entries.append(_from_margins("v_between_0_eta", margins, r, eps))
    else:
        entries.append(_na("v_between_0_eta", "needs alpha > 0"))

    # h1 > 0 and w1 monotone need alpha != 0, beta != 0, m*alpha/beta <= n-2
    h1_ok = p.alpha != 0.0 and p.beta != 0.0 and p.m * p.alpha / p.beta <= p.n - 2
    if h1_ok:
        k = dc.k
        h1_r = 1.0 + k * r * dv / v
        # same quantity on the log chart, where it is held as exact state:
        # h1/v = k*g / ((1-m)*w)
        h1_s = k * lp.g / (one_m * lp.w)
        entries.append(
            _from_margins(
                "h1_positive",
                np.concatenate([h1_r, h1_s]),
                np.concatenate([r, rlog]),
                eps,
            )
        )
        lnw1 = 2.0 * np.log(r) + 2.0 * k * np.log(v)
        entries.append(
            _from_margins(
                "w1_increasing",
                np.diff(lnw1),
                r[1:],
                eps,
                note="discrete monotonicity of log(r^2 v^2k) between r-chart samples",
            )
        )
    else:
        note = "needs alpha != 0, beta != 0 and m*alpha/beta <= n-2"
        entries.append(_na("h1_positive", note))
        entries.append(_na("w1_increasing", note))

    # h > 0 and w increasing need 2*beta/(1-m) >= alpha > 0
    if p.alpha > 0.0 and 2.0 * p.beta / one_m >= p.alpha:
        h_r = 1.0 + 0.5 * one_m * r * dv / v
        h_s = 0.5 * lp.ws / lp.w
        entries.append(
            _from_margins(
                "h_positive",
                np.concatenate([h_r, h_s]),
                np.concatenate([r, rlog]),
                eps,
            )
        )
        lnw_r = 2.0 * np.log(r) + one_m * np.log(v)
        entries.append(
            _from_margins(
                "w_increasing",
                np.concatenate([np.diff(lnw_r), np.diff(np.log(lp.w))]),
                np.concatenate([r[1:], rlog[1:]]),
                eps,
                note="discrete monotonicity of log(r^2 v^(1-m)) within each chart",
            )
        )
    else:
        note = "needs 2*beta/(1-m) >= alpha > 0"
        entries.append(_na("h_positive", note))
        entries.append(_na("w_increasing", note))

    return InvariantReport.collect(entries)


def check_slope_bounds(sol: Solution) -> InvariantReport:
    """Slope bounds of the log chart under the exact-decay hypotheses.

    Applicable only for alpha = 2*beta/(1-m) > 0 with m strictly interior.
    For b0 >= 0 the bound is r*w_r/w <= (1-m)*sqrt(b1)/m (sharp at the
    origin exactly when m = (n-2)/(n+2)); for b0 < 0 it is
    p = m/(1-m) * r*w_r/w <= b2. Positivity and empirical boundedness of
    w_s on s >= 0 are reported, as is unbounded growth of w.
    """
    p = sol.params
    eps = _eps(sol)
    hyp = check_hypotheses(p)
    names = ("slope_ratio_bound", "ws_positive_bounded", "w_unbounded")
    if not (hyp.log_decay_ok and hyp.strict_m):
        return InvariantReport.collect(
            _na(nm, "needs alpha = 2*beta/(1-m) > 0 and m < (n-2)/n") for nm in names
        )

    dc = derived(p)
    prof, lp = sol.profile, sol.logprofile
    one_m = 1.0 - p.m

    r = prof.r[prof.r > 0]
    v, dv = prof.eval(r)
    ratio_r = 2.0 + one_m * r * dv / v
    ratio_s = lp.ws / lp.w
    ratio = np.concatenate([ratio_r, ratio_s])
    locs = np.concatenate([r, np.exp(lp.s)])

    entries = []
    if dc.b0 >= 0.0:
        bound = one_m * math.sqrt(dc.b1) / p.m
        entries.append(
            _from_margins(
                "slope_ratio_bound",
                (bound - ratio) / bound,
                locs,
                eps,
                note=f"r*w_r/w <= (1-m)*sqrt(b1)/m = {bound:.6g} (b0 >= 0 branch)",
            )
        )
    else:
        pvals = (p.m / one_m) * ratio
        entries.append(
            _from_margins(
                "slope_ratio_bound",
                (dc.b2 - pvals) / dc.b2,
                locs,
                eps,
                note=f"p = m/(1-m)*r*w_r/w <= b2 = {dc.b2:.6g} (b0 < 0 branch)",
            )
        )

    ws_max = float(np.max(lp.ws))
    entries.append(
        _from_margins(
            "ws_positive_bounded",
            lp.ws / max(ws_max, 1e-300),
            np.exp(lp.s),
            eps,
            note=f"w_s > 0 on s >= 0; attained max {ws_max:.6g}",
        )
    )

    if lp.s_end >= 40.0 - 1e-9:
        growth = math.log(lp.w[-1] / (10.0 * lp.w[0]))
        entries.append(
            InvariantEntry(
                name="w_unbounded",
                applicable=True,
                passed=bool(growth >= 0.0),
                worst_margin=growth,
                location=float(np.exp(lp.s_end)),
                note="w(s_end) > 10*w(0) at s_end >= 40",
            )
        )
    else:
        entries.append(_na("w_unbounded", "log chart too short to assess unbounded growth"))
    return InvariantReport.collect(entries)


def check_flux_identity(
    sol: Solution,
    quad_tol: float = 1e-10,
    radii: tuple[float, ...] | None = None,
) -> InvariantReport:
    """Radial flux balance at sampled radii.

    Compares (n-1)*v^(m-1)*v' against
    -beta*r*v + (n*beta - alpha)/r^(n-1) * integral of rho^(n-1)*v(rho),
    with the integral taken by adaptive quadrature over the dense profile.
    """
    p = sol.params
    tol_eff = 100.0 * max(quad_tol, sol.profile.rtol)
    if radii is None:
        radii = (0.5, 1.0, 5.0, 20.0)
    radii = tuple(r for r in radii if r <= sol.r_cover)
    n = p.n

    def integrand(rho):
        if rho <= 0.0:
            return 0.0
        return rho ** (n - 1) * sol.v(rho)

    mismatches = []
    for r in radii:
        v = sol.v(r)
        dv = sol.dv(r)
        lhs = (n - 1) * v ** (p.m - 1.0) * dv
        integral, quad_err = quad(
            integrand, 0.0, r, epsabs=quad_tol * p.eta * r**n, epsrel=quad_tol, limit=200
        )
        term1 = -p.beta * r * v
        term2 = (n * p.beta - p.alpha) / r ** (n - 1) * integral
        scale = abs(lhs) + abs(term1) + abs(term2) + 1e-300
        if quad_err > 10.0 * quad_tol * max(abs(integral), p.eta * r**n / n):
            raise ProfileError(f"flux quadrature failed to converge at r = {r}")
        mismatches.append(abs(lhs - term1 - term2) / scale)

    entry = _from_margins(
        "flux_identity",
        [tol_eff - mm for mm in mismatches],
        radii,
        0.0,
        note=f"relative mismatch vs threshold {tol_eff:.3g}",
    )
    return InvariantReport.collect([entry])


def check_q_identity(
    sol: Solution,
    quad_tol: float = 1e-10,
    radii: tuple[float, ...] | None = None,
) -> InvariantReport:
    """Integral identity for q = r*w_r under the exact-decay hypotheses.

    r^b0 * q * w^((2m-1)/(1-m)) must equal beta/(n-1) times the integral of
    rho^(b0-1) * w^(m/(1-m)) * (a0 - q) from the origin; the boundary factor
    itself must decay to zero as r -> 0.
    """
    p = sol.params
    hyp = check_hypotheses(p)
    names = ("q_identity", "q_boundary_decay")
    if not (hyp.log_decay_ok and hyp.strict_m):
        return InvariantReport.collect(
            _na(nm, "needs alpha = 2*beta/(1-m) > 0 and m < (n-2)/n") for nm in names
        )
    dc = derived(p)
    tol_eff = 100.0 * max(quad_tol, sol.logprofile.rtol)
    if radii is None:
        radii = (0.5, 1.0, 5.0, 20.0)
    radii = tuple(r for r in radii if r <= sol.r_cover)
    mexp = p.m / (1.0 - p.m)
    wexp = (2.0 * p.m - 1.0) / (1.0 - p.m)
    # the integrand is rho^edge * (smooth factor) with edge in (-1, inf);
    # hand the algebraic endpoint to the quadrature as a weight and keep
    # only the smooth factor v^m * (a0 - q)
    edge = dc.b0 - 1.0 + 2.0 * mexp

    def lhs_at(r):
        w, q = sol.w_q(r)
        return r**dc.b0 * q * w**wexp

    def smooth_part(rho):
        if rho <= 0.0:
            return p.eta**p.m * dc.a0
        w, q = sol.w_q(rho)
        return (w / (rho * rho)) ** mexp * (dc.a0 - q)

    mismatches = []
    for r in radii:
        lhs = lhs_at(r)
        integral, quad_err = quad(
            smooth_part, 0.0, r, weight="alg", wvar=(edge, 0.0),
            epsabs=quad_tol, epsrel=quad_tol, limit=200,
        )
        rhs = p.beta / (p.n - 1) * integral
        scale = abs(lhs) + abs(rhs) + 1e-300
        mismatches.append(abs(lhs - rhs) / scale)

    entries = [
        _from_margins(
            "q_identity",
            [tol_eff - mm for mm in mismatches],
            radii,
            0.0,
            note=f"relative mismatch vs threshold {tol_eff:.3g}",
        )
    ]

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
    report = check_pointwise(sol)
    report = report.merged(check_slope_bounds(sol))
    report = report.merged(check_flux_identity(sol, quad_tol))
    report = report.merged(check_q_identity(sol, quad_tol))
    return report
