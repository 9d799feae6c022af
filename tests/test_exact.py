"""The Barenblatt profile at alpha = n*beta: a closed-form oracle for both charts.

At alpha = n*beta the profile equation is a divergence,
div((n-1)/m * grad v^m + beta*x*v) = 0, and integrating it once gives

    v(r) = (eta^(m-1) + kappa*r^2)^(-1/(1-m)),  kappa = beta*(1-m)/(2*(n-1)),

admissible for every n >= 3, 0 < m <= (n-2)/n, beta > 0 and eta > 0 (Vazquez,
Smoothing and Decay Estimates for Nonlinear Diffusion Equations, 2006, Sec. 2
and 3). With D = eta^(m-1) + kappa*r^2 the chart variables are w = r^2/D, which
tends to 1/kappa, and q = r*w_r = 2*eta^(m-1)*w/D. Here sigma = 2 - n*(1-m) <= 0,
so no row reaches the slow-manifold tail.

Every bound sits near 10x the worst error measured over the rows under the
default SolveConfig. A failure is a solver defect, not a badly set bound.
"""

import math

import numpy as np
import pytest

from fdprofiles import eval_series, run_all_checks

# (n, m, beta, eta); m = (n-2)/n is the endpoint, where alpha = n*beta is the
# eternal relation
ROWS = [
    (3, 0.01, 1.0, 1.0),
    (3, 1 / 3, 0.5, 2.0),
    (4, 0.2, 2.0, 0.5),
    (4, 0.5, 1.0, 3.0),
    (5, 0.3, 1.5, 1.0),
    (6, 0.5, 0.7, 0.7),
    (7, 5 / 7, 1.0, 1.0),
    (10, 0.79, 2.0, 3.0),
]
R_CHART = np.linspace(0.0, 10.0, 401)[1:]  # dv and w vanish at r = 0
LOG_CHART = np.exp(np.linspace(math.log(10.5), 39.0, 401))  # up to s = 39 < s_end = 40


def barenblatt(n, m, beta, eta, r):
    """Exact (v, v', w, q) at radii r, and kappa."""
    kappa = beta * (1.0 - m) / (2.0 * (n - 1))
    d = eta ** (m - 1.0) + kappa * r * r
    v = d ** (-1.0 / (1.0 - m))
    w = r * r / d
    return v, -2.0 * kappa * r * v / ((1.0 - m) * d), w, 2.0 * eta ** (m - 1.0) * w / d, kappa


def rel(got, ref):
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


@pytest.mark.parametrize("n,m,beta,eta", ROWS)
def test_origin_series(solved, n, m, beta, eta):
    # the series the default solve hands off from; measured at most 4.8e-16 in
    # v and 8.9e-16 in v' over [0, r_switch]
    se = solved(n, m, n * beta, beta, eta).profile.series
    radii = np.linspace(0.0, se.r_switch, 401)
    v, dv = eval_series(se, radii)
    v_ref, dv_ref, *_ = barenblatt(n, m, beta, eta, radii)
    assert se.r_switch == 0.5
    assert rel(v, v_ref) <= 5e-15
    assert rel(dv[1:], dv_ref[1:]) <= 1e-14


@pytest.mark.parametrize("n,m,beta,eta", ROWS)
def test_r_chart(solved, n, m, beta, eta):
    sol = solved(n, m, n * beta, beta, eta, r_max=10.0)
    v, dv, w, q, _ = barenblatt(n, m, beta, eta, R_CHART)
    w_got, q_got = sol.w_q(R_CHART)
    assert sol.profile.r_end == 10.0
    assert rel(sol.v(R_CHART), v) <= 1.5e-9
    assert rel(sol.dv(R_CHART), dv) <= 2e-9
    assert rel(w_got, w) <= 3e-10
    assert rel(q_got, q) <= 1e-8


@pytest.mark.parametrize("n,m,beta,eta", ROWS)
def test_log_chart(solved, n, m, beta, eta):
    sol = solved(n, m, n * beta, beta, eta)
    v, dv, w, q, _ = barenblatt(n, m, beta, eta, LOG_CHART)
    w_got, q_got = sol.w_q(LOG_CHART)
    assert sol.logprofile.qss_switch_s is None
    assert rel(sol.v(LOG_CHART), v) <= 3e-8
    assert rel(sol.dv(LOG_CHART), dv) <= 4e-7
    assert rel(w_got, w) <= 2e-8
    # q tends to 0 like 1/r^2 while w tends to 1/kappa, so q's error is scaled by w
    assert np.max(np.abs(q_got - q) / w) <= 7.5e-7


@pytest.mark.parametrize("n,m,beta,eta", ROWS)
def test_w_tends_to_one_over_kappa(solved, n, m, beta, eta):
    lp = solved(n, m, n * beta, beta, eta).logprofile
    kappa = barenblatt(n, m, beta, eta, 1.0)[-1]
    assert lp.s_end == 40.0
    assert abs(kappa * lp.w[-1] - 1.0) <= 7e-10


@pytest.mark.parametrize("n,m,beta,eta", ROWS)
def test_dv_on_the_explicit_stretch(solved, n, m, beta, eta):
    # the flux identity reads Solution.dv at r = 20, on the log chart's DOP853
    # stretch, where w is septic Hermite and w_s its derivative
    sol = solved(n, m, n * beta, beta, eta)
    lp = sol.logprofile
    s_edge = lp.s[lp.wsss.size - 1]
    assert sol.profile.r_end < 20.0 < math.exp(s_edge)
    assert rel(sol.dv(20.0), barenblatt(n, m, beta, eta, 20.0)[1]) <= 3e-11
    radii = np.exp(np.linspace(math.log(10.5), s_edge, 401))
    assert rel(sol.dv(radii), barenblatt(n, m, beta, eta, radii)[1]) <= 3e-8


@pytest.mark.parametrize("n,m,beta,eta", ROWS)
def test_invariant_checks_pass(solved, n, m, beta, eta):
    assert run_all_checks(solved(n, m, n * beta, beta, eta)).overall
