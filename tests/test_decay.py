import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fdprofiles import (
    DecayKind,
    EndpointExponentError,
    HypothesisViolation,
    Parameters,
    SolveConfig,
    derived,
    estimate_log_decay,
    estimate_power_decay,
    expected_log_constant,
    require_decay_inputs,
    solve_profile,
)
from fdprofiles.decay import log_tail_fit, tail_limit_fit
from fdprofiles.integrate import (
    R_HANDOFF,
    _chart_coeffs,
    _log_jac,
    _log_rhs,
    _manifold_series,
    chart_tolerances,
    handoff_to_log,
    integrate_r,
)
from fdprofiles.model import eternal_alpha
from fdprofiles.rk import integrate_2d

# (n, m, beta, alpha = 2*beta/(1-m), limit of w_s)
ETERNAL_GRID = [
    (3, 0.2, 1.0, 2.5, 2.0),
    (4, 1 / 3, 1.0, 3.0, 6.0),
    (5, 3 / 7, 2.0, 7.0, 6.0),
    (5, 0.5, 1.0, 4.0, 8.0),
]

# plateau values of q = r^(alpha/beta) * v for n=3, m=0.2, beta=eta=1,
# frozen after cross-validation against an independent integration
# (tol and tol/10 agree to ~3e-10; scipy DOP853 agrees to ~1e-9)
FROZEN_A = {1.25: 3.0663182351, 0.5: 1.4708822673, -1.0: 0.5394185343}

# estimate_log_decay(...).extrapolated under the default SolveConfig on the
# decay grid of scripts/run_decay_grid.py (alpha = 2*beta/(1-m)), and
# estimate_power_decay(...).extrapolated for n=3, m=0.2, beta=eta=1 at the
# default and tenfold tightened tolerances, as first computed by a log chart
# stepped with Dormand-Prince 5(4) alone; the DOP853 chart with its Radau IIA
# continuation must reproduce them.
PINNED_LOG = {
    (3, 0.2, 1.0): 1.998365057624805,
    (4, 1 / 3, 1.0): 5.998003089052348,
    (5, 3 / 7, 2.0): 5.999308606606872,
    (5, 0.5, 1.0): 8.001756817339102,
    (6, 0.25, 1.0): 33.36704257887156,
    (7, 5 / 9, 1.0): 30.00242436937295,
}
PINNED_POWER = {
    (1.25, 1.0): 3.0663182351033655,
    (1.25, 0.1): 3.0663182353790575,
    (0.5, 1.0): 1.4708822672699693,
    (0.5, 0.1): 1.4708822666539711,
    (-1.0, 1.0): 0.5394185342680519,
    (-1.0, 0.1): 0.5394185338642371,
}


@pytest.mark.parametrize("n,m,beta", list(PINNED_LOG))
def test_log_decay_pinned(solved, n, m, beta):
    sol = solved(n, m, 2.0 * beta / (1.0 - m), beta)
    assert estimate_log_decay(sol).extrapolated == pytest.approx(PINNED_LOG[n, m, beta], rel=1e-8)


@pytest.mark.parametrize("alpha,factor", list(PINNED_POWER))
def test_power_decay_pinned(alpha, factor):
    sol = solve_profile(Parameters(3, 0.2, alpha, 1.0, 1.0), SolveConfig().tightened(factor))
    assert estimate_power_decay(sol).extrapolated == pytest.approx(PINNED_POWER[alpha, factor], rel=1e-8)


class TestExpectedConstant:
    @pytest.mark.parametrize("n,m,beta,alpha,a0", ETERNAL_GRID)
    def test_grid_values(self, n, m, beta, alpha, a0):
        p = Parameters(n, m, alpha, beta, 1.0)
        assert expected_log_constant(p) == pytest.approx(a0, rel=1e-12)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_conformal_exponent_closed_form(self, n):
        for beta in (1.0, 2.0, 0.5):
            p = Parameters(n, (n - 2) / (n + 2), 1.0, beta, 1.0)
            assert expected_log_constant(p) == pytest.approx((n - 1) * (n - 2) / beta, rel=1e-13)

    def test_endpoint_refused(self):
        with pytest.raises(EndpointExponentError):
            expected_log_constant(Parameters(3, 1 / 3, 1.0, 1.0, 1.0))

    def test_nonpositive_beta_refused(self):
        with pytest.raises(HypothesisViolation):
            expected_log_constant(Parameters(3, 0.2, 0.0, -1.0, 1.0))


class TestLogDecay:
    @pytest.mark.parametrize("n,m,beta,alpha,a0", ETERNAL_GRID)
    def test_grid_converges_to_closed_form(self, solved, n, m, beta, alpha, a0):
        est = estimate_log_decay(solved(n, m, alpha, beta))
        assert est.kind is DecayKind.LOG_CORRECTED
        assert est.converged
        assert est.rel_error_vs_expected < 0.01
        assert abs(est.raw_last - a0) / a0 < 0.03

    def test_trace_shape(self, eternal_n3):
        est = estimate_log_decay(eternal_n3)
        assert est.scales[0] == 10.0 and est.scales[-1] == pytest.approx(40.0)
        assert np.all(np.diff(est.scales) > 0)

    def test_trace_ends_at_a_chart_end_just_short_of_a_step(self, solved):
        # s_end = 40 - 5e-10: the trace's last step point rounds past the chart end
        sol = solved(3, 0.2, 2.5, 1.0, s_end=39.9999999995)
        est = estimate_log_decay(sol)
        assert est.scales[-1] == sol.logprofile.s_end
        assert np.all(np.diff(est.scales) > 0)

    def test_trace_ends_at_a_chart_end_between_steps(self, solved):
        # s_end = 42: the step points stop at 40 and the chart end is appended
        est = estimate_log_decay(solved(3, 0.2, 2.5, 1.0, s_end=42.0))
        assert est.scales[-2:].tolist() == [40.0, 42.0]

    def test_slower_alternative_estimator(self, eternal_n3):
        # w(s)/s approaches the same limit but lags behind w_s(s)
        est = estimate_log_decay(eternal_n3)
        assert abs(est.w_over_s_last - est.extrapolated) > abs(est.raw_last - est.extrapolated)

    def test_dual_tolerance_stability(self):
        p = Parameters(3, 0.2, 2.5, 1.0, 1.0)
        vals = [
            estimate_log_decay(solve_profile(p, SolveConfig().tightened(f))).extrapolated
            for f in (1.0, 0.1)
        ]
        assert abs(vals[0] - vals[1]) / abs(vals[0]) < 1e-6

    def test_requires_eternal_relation(self, solved):
        with pytest.raises(HypothesisViolation):
            estimate_log_decay(solved(3, 0.2, 1.25, 1.0))

    def test_refuses_endpoint(self):
        p = Parameters(3, 1 / 3, 3.0, 1.0, 1.0)  # alpha = 2*beta/(1-m) at the endpoint
        sol = solve_profile(p, SolveConfig(s_end=25.0))
        with pytest.raises(EndpointExponentError):
            estimate_log_decay(sol)


class TestConformalExponent:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_measured_limit_matches(self, solved, n):
        m = (n - 2) / (n + 2)
        alpha = 2.0 / (1.0 - m)
        est = estimate_log_decay(solved(n, m, alpha, 1.0))
        assert est.rel_error_vs_expected < 0.01
        assert est.expected == pytest.approx((n - 1) * (n - 2), rel=1e-12)


class TestPowerDecay:
    def test_alpha_zero_exact(self, solved):
        est = estimate_power_decay(solved(3, 0.2, 0.0, 1.0, eta=1.7))
        assert est.extrapolated == 1.7
        assert est.converged and est.rel_error_vs_expected == 0.0

    @pytest.mark.parametrize("alpha", [1.25, 0.5, -1.0])
    def test_plateau_detected(self, solved, alpha):
        est = estimate_power_decay(solved(3, 0.2, alpha, 1.0))
        assert est.kind is DecayKind.POWER
        assert est.converged
        assert est.drift < 1e-3
        assert est.extrapolated > 0.0
        assert est.proxy_decreasing
        assert est.extrapolated == pytest.approx(FROZEN_A[alpha], rel=1e-5)

    @pytest.mark.parametrize("alpha", [1.25, 0.5])
    def test_monotone_nondecreasing_for_positive_alpha(self, solved, alpha):
        est = estimate_power_decay(solved(3, 0.2, alpha, 1.0))
        assert est.direction == "nondecreasing"

    def test_direction_reported_for_negative_alpha(self, solved):
        est = estimate_power_decay(solved(3, 0.2, -1.0, 1.0))
        assert est.direction == "nonincreasing"

    def test_direction_mixed_when_q_turns(self, solved):
        # w scaled by e^((1-m)*0.01*sin s) scales q by e^(0.01*sin s): at the decades
        # s = 0, 2.3, 4.6, 6.9 q then rises, falls and rises again
        sol = solved(3, 0.2, 1.25, 1.0)
        lp = sol.logprofile
        def bumped_eval(s, *parts):
            return tuple(x * np.exp((1.0 - 0.2) * 0.01 * np.sin(s)) if p == "w" else x
                         for p, x in zip(parts, lp.eval(s, *parts)))

        bumped = SimpleNamespace(s_end=lp.s_end, rtol=lp.rtol, eval=bumped_eval)
        est = estimate_power_decay(SimpleNamespace(params=sol.params, logprofile=bumped))
        assert est.direction == "mixed"

    @pytest.mark.parametrize("alpha", [1.25, -1.0])
    def test_dual_tolerance_agreement(self, alpha):
        p = Parameters(3, 0.2, alpha, 1.0, 1.0)
        vals = [
            estimate_power_decay(solve_profile(p, SolveConfig().tightened(f))).extrapolated
            for f in (1.0, 0.1)
        ]
        assert abs(vals[0] - vals[1]) / abs(vals[0]) < 1e-6

    def test_matches_independent_integrator(self, solved):
        # reference value from an unrelated formulation and solver
        alpha, r_cmp = 1.25, 1000.0
        p = Parameters(3, 0.2, alpha, 1.0, 1.0)
        c2 = -alpha / 12.0
        r0 = 1e-5

        def rhs(r, y):
            v, dv = y
            return [
                dv,
                0.8 * dv * dv / v - 2.0 * dv / r - v**0.8 * (alpha * v + r * dv) / 2.0,
            ]

        ref = solve_ivp(
            rhs,
            (r0, r_cmp),
            [1.0 + c2 * r0**2, 2 * c2 * r0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        q_ref = r_cmp**alpha * ref.y[0][-1]
        sol = solved(3, 0.2, alpha, 1.0)
        s = math.log(r_cmp)
        w = sol.logprofile.eval_w(s)
        q_ours = math.exp(alpha * s + (math.log(w) - 2.0 * s) / 0.8)
        assert q_ours == pytest.approx(q_ref, rel=1e-8)

    def test_last_decade_at_a_chart_end_just_short_of_it(self, solved):
        # s_end = 23.0258509299 lies 4e-11 short of 10*ln(10), the tenth decade
        sol = solved(3, 0.2, 1.25, 1.0, s_end=23.0258509299)
        est = estimate_power_decay(sol)
        assert len(est.scales) == 11
        assert est.scales[-1] == pytest.approx(1e10, rel=1e-9)
        assert math.log(est.scales[-1]) <= sol.logprofile.s_end

    def test_refuses_wrong_range(self, eternal_n3):
        with pytest.raises(HypothesisViolation):
            estimate_power_decay(eternal_n3)  # eternal relation fails the strict inequality

    def test_proxy_exponent_inside_window(self, solved):
        # p0 = 2 - (alpha/2beta)*(1-m) must sit in (1, 3 - (alpha/beta)(1-m))
        for alpha in (1.25, 0.5, -1.0):
            p0 = 2.0 - 0.5 * alpha * 0.8
            assert 1.0 < p0 < 3.0 - alpha * 0.8


def _stepped_reference(n, m, beta, stops, factor=1e-3):
    """Nodes (s, w, w_s) of the eternal chart stepped through to the last stop, with no slow tail.

    Both charts run at ``factor`` times the default tolerances, and the log
    chart is stepped by ``rk.integrate_2d`` directly, with no stop on w, in
    stretches that each end exactly at the next of ``stops``.
    """
    alpha = eternal_alpha(m, beta)
    tol = SolveConfig().tightened(factor).tol
    s0, w0, ws0 = handoff_to_log(integrate_r(n, m, alpha, beta, 1.0, 2.0 * R_HANDOFF, tol), m)
    cc = _chart_coeffs(n, m, alpha, beta)
    rtol, atol = chart_tolerances("log", tol)
    s, w, g = [np.array([s0])], [np.array([w0])], [np.array([ws0 - cc.sigma * w0])]
    for stop in stops:
        path = integrate_2d(_log_rhs(cc), s[-1][-1], w[-1][-1], g[-1][-1], stop, rtol, atol, positive_y=True,
                            jac=_log_jac(cc))
        s.append(path.t[1:])
        w.append(path.y[1:])
        g.append(path.z[1:])
    s, w, g = (np.concatenate(x) for x in (s, w, g))
    return s, w, g + cc.sigma * w


class TestEternalTail:
    """The sigma = 0 slow tail against witnesses that do not read the manifold series.

    On the tail w_s = G(w), whose leading coefficient d_0 is a0 by algebra,
    so the decay check there could read its answer off the formula. The
    witnesses step the full (w, g) system through to s_end instead.
    """

    @pytest.mark.parametrize("n,m,beta", [*PINNED_LOG, (3, 0.1, 1.0), (3, 0.02, 1.0)])
    def test_tail_matches_a_chart_stepped_to_the_end(self, solved, n, m, beta):
        # against a reference at 1e-3 times the tolerances, stepped to each
        # trace point of the log-decay fit and on to s_end = 40: w and w_s at
        # the reference's nodes on [0.5, 39.5], and the fitted a0. The stepped
        # Radau IIA stretch of (3, 0.1) reads 6.2e-11 in w and 2.1e-9 in w_s,
        # as it did before the tail, so the bounds over the whole chart are
        # 1e-10 and 3e-9; past the switch w_s is within 1e-9. The a0 of a chart
        # stepped to s_end at the default tolerances read up to 6.4e-10 off.
        # The tail's w and w_s between its nodes come from its relation, so the
        # midpoints of the tail's pieces are stops of the reference as well.
        lp = solved(n, m, eternal_alpha(m, beta), beta).logprofile
        sgrid, _, a_fit, _ = log_tail_fit(lp)
        tail_nodes = lp.s[lp.s >= lp.qss_switch_s]
        mid = 0.5 * (tail_nodes[1:] + tail_nodes[:-1])
        s, w, ws = _stepped_reference(n, m, beta, np.union1d(sgrid, mid))
        assert lp.qss_switch_s is not None and s[-1] == lp.s_end == 40.0
        assert mid.size > 20 and np.all(np.isin(mid[mid <= 39.5], s))
        inside = (s >= 0.5) & (s <= 39.5)
        tail = inside & (s >= lp.qss_switch_s)
        err_w = np.abs(lp.eval_w(s) - w) / w
        err_ws = np.abs(lp.eval_ws(s) - ws) / ws
        assert np.max(err_w[inside]) <= 1e-10
        assert np.max(err_ws[inside]) <= 3e-9
        assert np.max(err_ws[tail]) <= 1e-9
        at = np.searchsorted(s, sgrid)
        assert np.array_equal(s[at], sgrid)
        window = sgrid >= 0.5 * lp.s_end - 1e-9
        a_ref, _ = tail_limit_fit(sgrid[window], ws[at][window])
        assert abs(a_fit - a_ref) <= 2e-10 * a_ref

    @pytest.mark.parametrize("n", range(3, 31))
    def test_series_leading_term_is_the_log_constant(self, n):
        for mfrac in (1e-3, 0.5, 0.999):
            m = mfrac * (n - 2) / n
            for beta in (0.5, 1.0, 2.0):
                alpha = eternal_alpha(m, beta)
                d0 = _manifold_series(_chart_coeffs(n, m, alpha, beta)._replace(sigma=0.0))[0]
                assert d0 == pytest.approx(expected_log_constant(Parameters(n, m, alpha, beta, 1.0)), rel=1e-13)

    @pytest.mark.parametrize("n,m,alpha", [(7, 5 / 7, 7.0), (3, 0.2, 2.500000000125)])
    def test_no_tail_at_the_endpoint_or_off_the_relation(self, solved, n, m, alpha):
        # the endpoint m = (n-2)/n has a0 = 0; alpha = 2.500000000125 puts
        # sigma at -1e-10, zero to REGIME_TOL but not to rounding: both step
        # through to s_end with Radau IIA
        lp = solved(n, m, alpha, 1.0).logprofile
        assert lp.qss_switch_s is None and lp.qss_gap is None
        assert lp.stiff_switch is not None and lp.s_end == 40.0

    def test_sigma_at_rounding_gives_the_same_limit(self, solved):
        # the alphas next to 2.5 put sigma at 2.2e-16 and -4.4e-16; each chart
        # steps with its own sigma and takes the sigma = 0 tail
        sigmas, limits = [], []
        for alpha in (np.nextafter(2.5, 2.0), 2.5, np.nextafter(2.5, 3.0)):
            sol = solved(3, 0.2, float(alpha), 1.0)
            assert sol.logprofile.qss_switch_s is not None
            sigmas.append(sol.logprofile.sigma)
            limits.append(estimate_log_decay(sol).extrapolated)
        assert sigmas == [2.0**-52, 0.0, -(2.0**-51)]
        assert max(limits) - min(limits) <= 1e-13 * limits[1]


class TestA0Consistency:
    def test_derived_constant_equals_estimator_target(self, eternal_n3):
        est = estimate_log_decay(eternal_n3)
        assert est.expected == derived(eternal_n3.params).a0


class TestRequiredChartLength:
    """require_decay_inputs states what each estimator needs of the SolveConfig."""

    @pytest.mark.parametrize("kind, alpha, short, enough", [
        (DecayKind.LOG_CORRECTED, 2.5, 19.99, 20.0),
        (DecayKind.POWER, 1.25, 3.0 * math.log(10.0) * (1.0 - 1e-6), 3.0 * math.log(10.0)),
    ])
    def test_bound(self, kind, alpha, short, enough):
        p = Parameters(3, 0.2, alpha, 1.0, 1.0)
        with pytest.raises(HypothesisViolation, match="log chart reaches only"):
            require_decay_inputs(p, kind, short)
        require_decay_inputs(p, kind, enough)

    def test_power_at_alpha_zero_reads_no_decades(self):
        require_decay_inputs(Parameters(3, 0.2, 0.0, 1.0, 1.0), DecayKind.POWER, 1.0)

    @pytest.mark.parametrize("kind, estimate, alpha, s_end", [
        (DecayKind.LOG_CORRECTED, estimate_log_decay, 2.5, 15.0),
        (DecayKind.POWER, estimate_power_decay, 1.25, 6.0),
    ])
    def test_estimators_apply_the_same_bound(self, solved, kind, estimate, alpha, s_end):
        sol = solved(3, 0.2, alpha, 1.0, s_end=s_end)
        with pytest.raises(HypothesisViolation) as from_estimator:
            estimate(sol)
        with pytest.raises(HypothesisViolation) as from_config:
            require_decay_inputs(sol.params, kind, s_end)
        assert str(from_estimator.value) == str(from_config.value)

    def test_parameters_checked_first(self):
        with pytest.raises(EndpointExponentError):
            require_decay_inputs(Parameters(3, 1 / 3, 3.0, 1.0, 1.0), DecayKind.LOG_CORRECTED, 5.0)
