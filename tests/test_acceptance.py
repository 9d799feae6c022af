"""Acceptance suite: every quantitative conclusion checked at desk scale.

Each criterion prints one PASS/FAIL line (visible under pytest -s and in
failure reports) and asserts. Tolerances are fixed here, not calibrated.
"""

import dataclasses
import math
import time

from scipy.integrate import solve_ivp

from fdprofiles import (
    Parameters,
    Regime,
    SolveConfig,
    build_selfsimilar,
    double_limit_check,
    estimate_log_decay,
    estimate_power_decay,
    expand_at_origin,
    expected_log_constant,
    limit_convergence,
    pde_residual,
    run_all_checks,
    solve_log_equation,
    solve_profile,
)


def _criterion(idx: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


ETERNAL_GRID = [
    (3, 0.2, 1.0, 2.5, 2.0),
    (4, 1 / 3, 1.0, 3.0, 6.0),
    (5, 3 / 7, 2.0, 7.0, 6.0),
    (5, 0.5, 1.0, 4.0, 8.0),
]

# 20 admissible points spanning alpha signs and all three special relations
INVARIANT_GRID = [
    (3, 0.2, 2.5, 1.0, 1.0),
    (3, 0.2, 1.25, 1.0, 1.0),
    (3, 0.2, 3.75, 1.0, 1.0),
    (3, 0.2, -1.0, 1.0, 1.0),
    (3, 0.2, 0.0, 1.0, 1.0),
    (4, 1 / 3, 3.0, 1.0, 1.0),
    (4, 1 / 3, 1.5, 1.0, 0.5),
    (4, 1 / 3, 4.5, 1.0, 1.0),
    (4, 1 / 3, -2.0, 1.0, 1.0),
    (5, 0.5, 4.0, 1.0, 1.0),
    (5, 0.5, 3.0, 1.0, 2.0),
    (5, 0.5, 5.0, 1.0, 1.0),
    (5, 3 / 7, 7.0, 2.0, 1.0),
    (5, 3 / 7, -0.5, 2.0, 1.0),
    (5, 3 / 7, 0.0, 2.0, 1.0),
    (3, 0.3, 2.0 / 0.7, 1.0, 1.0),
    (3, 0.3, 1.0 / 0.7, 1.0, 1.5),
    (6, 0.4, 2.0 / 0.6, 1.0, 1.0),
    (6, 0.4, 1.0 / 0.6, 1.0, 1.0),
    (6, 0.4, -1.0, 1.0, 1.0),
]


def test_criterion_1_exact_log_decay_constant():
    details = []
    ok = True
    for n, m, beta, alpha, a0 in ETERNAL_GRID:
        p = Parameters(n, m, alpha, beta, 1.0)
        t0 = time.perf_counter()
        sol = solve_profile(p, SolveConfig(s_end=40.0))
        est = estimate_log_decay(sol)
        elapsed = time.perf_counter() - t0
        rel_fit = abs(est.extrapolated - a0) / a0
        rel_raw = abs(est.raw_last - a0) / a0
        ok &= rel_fit < 0.01 and rel_raw < 0.03 and elapsed < 2.0
        details.append(f"n={n},m={m:.3g}: fit {rel_fit:.2e}, raw {rel_raw:.2e}, {elapsed:.2f}s")
    _criterion(1, "log-corrected decay limit matches 2(n-1)(n-2-nm)/((1-m)beta) on the grid",
               ok, "; ".join(details))


def test_criterion_2_conformal_specialization():
    ok = True
    details = []
    for n in (3, 4, 5):
        m = (n - 2) / (n + 2)
        p = Parameters(n, m, 2.0 / (1.0 - m), 1.0, 1.0)
        target = (n - 1) * (n - 2)
        algebraic = abs(expected_log_constant(p) - target) / target
        est = estimate_log_decay(solve_profile(p, SolveConfig(s_end=40.0)))
        measured = abs(est.extrapolated - target) / target
        ok &= algebraic < 1e-12 and measured < 0.01
        details.append(f"n={n}: algebraic {algebraic:.1e}, measured {measured:.2e}")
    _criterion(2, "m=(n-2)/(n+2) reduces the limit to (n-1)(n-2)/beta", ok, "; ".join(details))


def test_criterion_3_power_decay():
    ok = True
    details = []
    for alpha in (1.25, 0.5, -1.0):
        p = Parameters(3, 0.2, alpha, 1.0, 1.0)
        t0 = time.perf_counter()
        est = estimate_power_decay(solve_profile(p, SolveConfig(s_end=40.0)))
        elapsed = time.perf_counter() - t0
        est_tight = estimate_power_decay(solve_profile(p, SolveConfig(s_end=40.0).tightened(0.1)))
        agree = abs(est.extrapolated - est_tight.extrapolated) / abs(est.extrapolated)
        ok &= (
            est.drift < 1e-3
            and est.extrapolated > 0.0
            and agree < 1e-6
            and est.proxy_decreasing
            and elapsed < 2.0
        )
        details.append(f"a={alpha}: A={est.extrapolated:.6f}, drift {est.drift:.1e}, "
                       f"tol-agreement {agree:.1e}, {elapsed:.2f}s")
    est0 = estimate_power_decay(solve_profile(Parameters(3, 0.2, 0.0, 1.0, 1.0)))
    ok &= est0.extrapolated == 1.0
    details.append("a=0: A = eta exactly")
    _criterion(3, "q = r^(alpha/beta) v plateaus at A > 0 with vanishing tail proxy",
               ok, "; ".join(details))


def test_criterion_4_invariant_suite():
    ok = True
    worst = (0.0, "")
    for n, m, alpha, beta, eta in INVARIANT_GRID:
        p = Parameters(n, m, alpha, beta, eta)
        sol = solve_profile(p, SolveConfig(r_max=25.0))
        rep = run_all_checks(sol, quad_tol=1e-10)
        if not rep.overall:
            failed = [e.name for e in rep.entries if e.applicable and not e.passed]
            worst = (math.nan, f"{p}: {failed}")
            ok = False
    _criterion(4, "pointwise invariants, slope bounds, and both integral identities "
                  "hold on the 20-point grid", ok, worst[1])


def test_criterion_5_singular_limit():
    t0 = time.perf_counter()
    rep = limit_convergence(3, 1.0, 1.0, 1.0, m_list=(0.2, 0.1, 0.05, 0.02, 0.01), r_max=10.0)
    elapsed = time.perf_counter() - t0
    errs = rep.sup_errors
    strictly_decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    ok = strictly_decreasing and rep.final_error < 1e-2 and elapsed < 10.0
    _criterion(5, "v^(m) -> u uniformly on [0,10] as m -> 0", ok,
               f"sup errors {['%.1e' % e for e in errs]}, {elapsed:.1f}s")


def test_criterion_6_double_limit():
    rep = double_limit_check(3, 1.0)
    ok = rep.rel_err_m_side < 0.02 and rep.rel_err_log_side < 0.02
    _criterion(6, "both iterated limits reach 2(n-1)(n-2)/beta = 4", ok,
               f"m-side {rep.a0_extrapolated:.4f} ({rep.rel_err_m_side:.2%}), "
               f"log-side {rep.log_side:.4f} ({rep.rel_err_log_side:.2%})")


def test_criterion_7_pde_residual():
    cases = [
        (Regime.ETERNAL, Parameters(3, 0.2, 2.5, 1.0, 1.0), None),
        (Regime.FORWARD, Parameters(3, 0.2, 1.25, 1.0, 1.0), None),
        (Regime.BACKWARD, Parameters(3, 0.2, 3.75, 1.0, 1.0), 2.0),
    ]
    ok = True
    details = []
    for regime, p, T in cases:
        sol = solve_profile(p, SolveConfig(r_max=22.0))
        ss = build_selfsimilar(sol, regime, T=T)
        stats = pde_residual(ss)
        perturbed = dataclasses.replace(ss, alpha=1.01 * ss.alpha)
        ratio = pde_residual(perturbed).max_rel_residual / stats.max_rel_residual
        ok &= stats.max_rel_residual < 1e-5 and 1.8 <= stats.order_estimate <= 2.2 and ratio >= 100.0
        details.append(f"{regime.value}: res {stats.max_rel_residual:.1e}, "
                       f"order {stats.order_estimate:.2f}, sensitivity {ratio:.0f}x")
    _criterion(7, "self-similar solutions satisfy the diffusion equation to stencil accuracy",
               ok, "; ".join(details))


def _fd_curvature(rhs, eta, r_eval=5e-3):
    sol = solve_ivp(rhs, (1e-8, r_eval), [eta, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-16, dense_output=True)
    assert sol.success
    est = lambda r: (sol.sol(r)[0] - eta) / r**2
    c_h, c_h2 = est(r_eval), est(r_eval / 2.0)
    return c_h2 + (c_h2 - c_h) / 3.0


def test_criterion_8_series_oracle():
    ok = True
    details = []
    for n, m, alpha, beta, eta in [(3, 0.2, 2.5, 1.0, 1.0), (4, 0.3, -1.5, 1.0, 2.0)]:
        p = Parameters(n, m, alpha, beta, eta)
        se = expand_at_origin(p)

        def rhs(r, y, n=n, m=m, alpha=alpha, beta=beta):
            v, dv = y
            return [dv, (1 - m) * dv * dv / v - (n - 1) * dv / r
                    - v ** (1 - m) * (alpha * v + beta * r * dv) / (n - 1)]

        rel = abs(_fd_curvature(rhs, eta) - se.c2) / abs(se.c2)
        ok &= rel < 1e-6
        details.append(f"c2(n={n},a={alpha}): {rel:.1e}")
    for n, alpha, beta, eta in [(3, 2.0, 1.0, 1.0), (4, 1.0, 1.0, 1.0)]:
        prof = solve_log_equation(n, alpha, beta, eta, 1.0)

        def rhs(r, y, n=n, alpha=alpha, beta=beta):
            u, du = y
            return [du, du * du / u - (n - 1) * du / r
                    - u * (alpha * u + beta * r * du) / (n - 1)]

        rel = abs(_fd_curvature(rhs, eta) - prof.series.c2) / abs(prof.series.c2)
        ok &= rel < 1e-6
        details.append(f"d2(n={n},a={alpha}): {rel:.1e}")
    _criterion(8, "origin expansion coefficients match finite-difference oracles to 1e-6",
               ok, "; ".join(details))


def test_criterion_9_dual_chart_consistency():
    ok = True
    worst = 0.0
    for n, m, alpha, beta, eta in INVARIANT_GRID:
        p = Parameters(n, m, alpha, beta, eta)
        sol = solve_profile(p, SolveConfig())
        tol = max(sol.profile.rtol, sol.logprofile.rtol)
        err = sol.diagnostics["overlap_error"]
        worst = max(worst, err / (10.0 * tol))
        ok &= err < 10.0 * tol
    p = Parameters(3, 0.2, 2.5, 1.0, 1.0)
    base = solve_profile(p, SolveConfig()).diagnostics["overlap_error"]
    tight = solve_profile(p, SolveConfig().tightened(0.5)).diagnostics["overlap_error"]
    ok &= tight < base
    _criterion(9, "r-chart and log-chart agree on the overlap window", ok,
               f"worst overlap at {worst:.2f} of budget; halving tol: {base:.1e} -> {tight:.1e}")
