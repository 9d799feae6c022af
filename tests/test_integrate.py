import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprofiles import (
    HypothesisViolation,
    OutOfRange,
    Parameters,
    PositivityLoss,
    ProfileError,
    SolveConfig,
    estimate_log_decay,
    estimate_power_decay,
    eval_series,
    handoff_to_log,
    integrate_log,
    integrate_r,
    run_all_checks,
    solve_profile,
)
from fdprofiles.integrate import R_HANDOFF, _overlap_error, _r_rhs, _w_q, chart_tolerances
from fdprofiles.model import eternal_alpha
from fdprofiles.rk import Hermite, integrate_2d
from test_acceptance import INVARIANT_GRID
from test_exact import ROWS as BARENBLATT


def P(alpha, n=3, m=0.2, beta=1.0, eta=1.0):
    return Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=eta)


class TestConstantSolution:
    """alpha = 0 makes v = eta exact; everything must reproduce it."""

    def test_r_chart_constant_to_machine_precision(self):
        p = P(0.0)
        prof = integrate_r(p.n, p.m, p.alpha, p.beta, p.eta, 100.0)
        assert np.all(prof.v == p.eta)
        assert np.all(prof.dv == 0.0)

    def test_log_chart_reproduces_exponential(self):
        p = P(0.0)
        sol = solve_profile(p, SolveConfig(s_end=20.0))
        lp = sol.logprofile
        s = np.linspace(0.0, 20.0, 101)
        exact = p.eta ** (1.0 - p.m) * np.exp(2.0 * s)
        assert np.max(np.abs(lp.eval_w(s) - exact) / exact) < 1e-7
        # the growth-excess component stays pinned at zero up to roundoff
        # accumulation (its source term cancels only in exact arithmetic)
        assert np.max(np.abs(lp.g)) < 1e-8

    def test_solution_dense_eval(self):
        sol = solve_profile(P(0.0))
        rr = np.linspace(0.0, 9.0, 50)
        assert np.max(np.abs(sol.v(rr) - 1.0)) < 1e-13

    def test_series_serves_every_radius(self):
        # past r ~ 1.3e154, scale*r^2 overflows: the constant series must not evaluate a polynomial there
        prof = integrate_r(3, 0.2, 0.0, 1.0, 1.0, 2.0)
        assert prof.r_reach == math.inf
        assert prof.eval(1e170) == (1.0, 0.0)
        assert np.all(prof.eval(np.array([0.1, 1e170, 1e300]), 0)[0] == 1.0)
        sol = solve_profile(P(0.0), SolveConfig(s_end=354.0))
        assert sol.v(math.exp(354.0)) == 1.0 and sol.dv(math.exp(354.0)) == 0.0


class TestMonotonicity:
    def test_decreasing_positive_for_positive_alpha(self, eternal_n3):
        prof = eternal_n3.profile
        assert np.all(prof.v > 0.0)
        assert np.all(prof.v <= 1.0)
        assert np.all(prof.dv[prof.r > 0] < 0.0)

    def test_increasing_for_negative_alpha(self, solved):
        sol = solved(3, 0.2, -1.0, 1.0)
        prof = sol.profile
        assert np.all(prof.dv[prof.r > 0] > 0.0)

    def test_growth_bound_for_negative_alpha(self, solved):
        # v(r) <= v(r0) * (r/r0)^(1/|k|) for r >= r0, here |k| = 1
        sol = solved(3, 0.2, -1.0, 1.0)
        v1 = sol.v(1.0)
        rr = np.geomspace(1.0, 9.0, 40)
        assert np.all(sol.v(rr) <= v1 * rr * (1.0 + 1e-9))
        assert np.all(sol.v(rr) >= v1 * (1.0 - 1e-9))


class TestHandoff:
    def test_constant_profile_values(self):
        p = P(0.0)
        prof = integrate_r(p.n, p.m, p.alpha, p.beta, p.eta, 3.0)
        s, w, ws = handoff_to_log(prof, p.m)
        assert s == 0.0
        assert w == pytest.approx(1.0, rel=1e-13)  # eta^(1-m) with eta = 1
        assert ws == pytest.approx(2.0, rel=1e-13)

    def test_log_radius_zero_at_unit_handoff(self, eternal_n3):
        s, _, _ = handoff_to_log(eternal_n3.profile, 0.2)
        assert s == 0.0

    def test_positive_slope_at_large_handoff(self, eternal_n3):
        w, ws = eternal_n3.w_q(10.0)
        assert w > 0 and ws > 0


# Fuzz draw 46 of default_rng(3): the r-chart switches to Radau IIA at r = 0.05,
# so the piece that brackets R_HANDOFF is quintic
STIFF_BEFORE_HANDOFF = Parameters(3, 0.1293485945439273, -2.515003384336588, 2.023106548992026, 24961.53343951476)
DIAGNOSTIC_KEYS = [
    "qss_switch_s", "qss_gap", "stiff_switch_s", "r_stiff_switch", "r_steps", "r_rejected", "s_steps",
    "s_rejected", "r_nfev", "s_nfev", "r_newton", "s_newton", "overlap_error", "series_r_switch",
    "series_truncation",
]


class TestDeferredReads:
    def test_solve_builds_neither_the_diagnostics_nor_the_r_dense_output(self):
        sol = solve_profile(P(2.5))
        assert "diagnostics" not in sol.__dict__
        assert "_v_interp" not in sol.profile.__dict__
        assert list(sol.diagnostics) == DIAGNOSTIC_KEYS
        # the overlap diagnostic reads the r-chart's dense output
        assert "_v_interp" in sol.profile.__dict__

    @pytest.mark.parametrize("row", INVARIANT_GRID)
    def test_diagnostics_do_not_depend_on_when_they_are_read(self, row):
        first = solve_profile(Parameters(*row))
        later = solve_profile(Parameters(*row))
        later.w_q(np.geomspace(1e-3, 1e3, 61))  # both dense outputs built before the first read
        assert list(first.diagnostics.items()) == list(later.diagnostics.items())
        prof, lp = first.profile, first.logprofile
        assert first.diagnostics["overlap_error"] == _overlap_error(prof, lp, row[1])
        assert first.diagnostics["r_steps"] == prof.n_steps and first.diagnostics["s_nfev"] == lp.nfev

    @pytest.mark.parametrize("r_max", [2.0, 25.0])
    def test_handoff_has_the_bits_of_the_dense_output(self, r_max):
        for n, m, alpha, beta, eta in INVARIANT_GRID:
            prof = integrate_r(n, m, alpha, beta, eta, r_max)
            v, dv = prof.eval(R_HANDOFF)
            assert prof.eval_point(R_HANDOFF) == (v, dv)
            assert handoff_to_log(prof, m) == (0.0, *_w_q(R_HANDOFF, v, dv, m))

    def test_handoff_on_a_chart_stiff_before_it(self):
        prof = solve_profile(STIFF_BEFORE_HANDOFF).profile
        assert prof.stiff_switch < R_HANDOFF
        assert prof.eval_point(R_HANDOFF) == prof.eval(R_HANDOFF)
        # every piece, septic, quintic and the one from the switch node, and the
        # series' radii below the chart
        r = np.concatenate([[0.0, 0.5 * prof.r_start], prof.r, 0.5 * (prof.r[1:] + prof.r[:-1])])
        v, dv = prof.eval(r)
        assert [prof.eval_point(x) for x in r] == list(zip(v, dv))

    @pytest.mark.parametrize(
        "row,r_max",
        [(row, r_max) for r_max in (2.0, 25.0) for row in INVARIANT_GRID]
        + [(dataclasses.astuple(STIFF_BEFORE_HANDOFF), 2.0)],
    )
    def test_resumed_chart_is_the_uninterrupted_one(self, row, r_max):
        # STIFF_BEFORE_HANDOFF turns stiff at r = 0.05, before the pause, and the
        # grid row (4, 1/3, -2) at r = 7.7, after it (at r_max 25)
        eager = integrate_r(*row, r_max)
        lazy = integrate_r(*row, r_max, pause_past=R_HANDOFF)
        head = lazy.head
        assert head.t[-1] > R_HANDOFF and head.t[-2] <= R_HANDOFF
        assert np.array_equal(head.t, eager.r[: head.t.size])
        r = np.sort(np.concatenate([eager.r, 0.5 * (eager.r[1:] + eager.r[:-1])]))
        # the head's pieces, each read alone before the chart is resumed
        on_head = r[r < head.t[-1]]
        assert [lazy.eval_point(x) for x in on_head] == list(zip(*eager.eval(on_head)))
        assert "path" not in lazy.__dict__
        for got, ref in zip((lazy.r, lazy.v, lazy.dv, lazy.ddv, lazy.dddv),
                            (eager.r, eager.v, eager.dv, eager.ddv, eager.dddv)):
            assert np.array_equal(got, ref)
        assert lazy.path.counters == eager.path.counters
        assert lazy.stiff_switch == eager.stiff_switch
        for got, ref in zip(lazy.eval(r), eager.eval(r)):
            assert np.array_equal(got, ref)

    def test_switch_after_the_pause_is_kept(self):
        prof = integrate_r(4, 1 / 3, -2.0, 1.0, 1.0, 25.0, pause_past=R_HANDOFF)
        assert prof.head.t_stiff is None and 7.0 < prof.stiff_switch < 8.0

    @pytest.mark.parametrize("alpha", [2.5, 1.25])
    def test_solve_and_decay_step_the_r_chart_no_further_than_the_handoff(self, alpha):
        sol = solve_profile(P(alpha))
        (estimate_log_decay if alpha == 2.5 else estimate_power_decay)(sol)
        head = sol.profile.head
        assert head.paused is not None and head.t[-2] <= R_HANDOFF < head.t[-1]
        assert "path" not in sol.profile.__dict__
        assert sol.profile.r_end == SolveConfig.r_max  # the first read that needs the rest steps it
        assert "path" in sol.profile.__dict__

    def test_error_past_the_pause_is_raised_on_the_first_read(self):
        # outside the existence range, which only solve_profile gates
        row = (5, 0.5, 12.0, 1.0, 1.0)
        with pytest.raises(PositivityLoss) as eager:
            integrate_r(*row, 25.0)
        assert eager.value.location == pytest.approx(15.47, abs=0.01)
        prof = integrate_r(*row, 25.0, pause_past=R_HANDOFF)
        assert prof.head.t[-1] > R_HANDOFF
        for _ in range(2):  # each read raises it anew
            with pytest.raises(PositivityLoss) as lazy:
                prof.eval(2.0)
            assert str(lazy.value) == str(eager.value) and lazy.value.location == eager.value.location

    def test_replaced_profile_reports_its_own_counters(self):
        sol = solve_profile(P(2.5))
        assert sol.diagnostics["r_steps"] == sol.profile.n_steps
        prof = integrate_r(3, 0.2, 2.5, 1.0, 1.0, 25.0)
        assert prof.n_steps != sol.profile.n_steps
        new = dataclasses.replace(sol, profile=prof)
        assert new.diagnostics["r_steps"] == prof.n_steps and new.diagnostics["r_nfev"] == prof.nfev

    @pytest.mark.parametrize("alpha", [2.5, 1.25, -1.0])
    def test_decay_readouts_place_no_tail_node_and_build_no_log_chart_table(self, alpha):
        # the estimators read a few points, off the stepped nodes' pieces and the tail's relation
        from fdprofiles.decay import log_tail_fit

        sol = solve_profile(P(alpha))
        lp = sol.logprofile
        if alpha == 2.5:
            estimate_log_decay(sol)
            log_tail_fit(lp)
        else:
            estimate_power_decay(sol)
        assert lp.tail is not None and not {"s", "w", "g", "gs", "_nodes"} & set(vars(lp))
        interps = [vars(lp)[name] for name in ("_w_interp", "_g_interp") if name in vars(lp)]
        assert interps and not any("_coef" in vars(h) for h in interps)

    # per alpha: the number of the tail's nodes, and (s, w, g, g_s) at the middle one, pinned to rounding
    # (scripts/output_digest.py's charts group holds the bits of every node)
    PLACED = {
        2.5: (55, 27, (22.716754027883866, 48.32087270351508, 2.002585266660301, -0.00021558925030235463)),
        1.25: (455, 227, (21.84388205879294, 7515730903.064919, 1.5000000001995817, -1.9958138759109585e-10)),
        -1.0: (1327, 663, (21.071035395154574, 2.56116177635044e25, -1.9199999999999995, 5.877332755391059e-25)),
        0.0: (935, 467, (21.339072774700487, 3.4267554326981304e18, 0.0, 0.0)),
    }

    @pytest.mark.parametrize("alpha", [2.5, 1.25, -1.0, 0.0])
    def test_tail_nodes_placed_on_demand_are_those_of_the_slow_tail(self, alpha):
        # the decay readouts first, then the node readers: the stepped nodes and then, bit for bit, the
        # nodes _Tail.nodes places from the switch node, one for each step the counters count
        from fdprofiles.integrate import _chart_coeffs, _qss_switch, _tail

        sol = solve_profile(P(alpha))
        lp = sol.logprofile
        if alpha == 2.5:
            estimate_log_decay(sol)
        else:
            estimate_power_decay(sol)
        head, sigma = lp.head, lp.tail.sigma
        d, e, _ = _qss_switch(_chart_coeffs(3, 0.2, alpha, 1.0)._replace(sigma=sigma), 3, 1.0)
        tail = _tail(sigma, d, e, lp.qss_switch_s, math.log(head.y[-1]), 40.0).nodes()
        for got, stepped, placed in zip((lp.s, lp.w, lp.g, lp.gs), (head.t, head.y, head.z, head.fz), tail):
            assert np.array_equal(got, np.concatenate([stepped, placed]))
        count, middle, values = self.PLACED[alpha]
        assert tail[0].size == count
        assert [a[middle] for a in tail] == pytest.approx(values, rel=1e-15, abs=0.0)
        assert lp.s.size == lp.n_steps + 1 == sol.diagnostics["s_steps"] + 1
        assert np.array_equal(lp.ws, lp.g + lp.sigma * lp.w) and np.array_equal(lp.wss, lp.gs + lp.sigma * lp.ws)


class TestOverlap:
    GRID = [
        (3, 0.2, 2.5, 1.0),
        (3, 0.2, 1.25, 1.0),
        (3, 0.2, -1.0, 1.0),
        (4, 1 / 3, 3.0, 1.0),
        (5, 0.5, 4.0, 1.0),
        (5, 3 / 7, 7.0, 2.0),
        (6, 0.4, 0.0, 1.0),
    ]

    @pytest.mark.parametrize("n,m,alpha,beta", GRID)
    def test_charts_agree_on_overlap(self, solved, n, m, alpha, beta):
        sol = solved(n, m, alpha, beta)
        tol = max(sol.profile.rtol, sol.logprofile.rtol)
        assert sol.diagnostics["overlap_error"] < 10.0 * tol

    def test_overlap_past_positive_v_is_inf_in_process(self):
        # at eta = 1.63e11 the r-chart's v turns negative on [1, 2]; w is then
        # not defined there and the overlap reads inf, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_profile(Parameters(4, 0.06292, -1.6982, 1.0, 1.63e11))
            assert sol.diagnostics["overlap_error"] == math.inf

    def test_halving_tolerance_reduces_overlap_error(self):
        p = P(2.5)
        base = solve_profile(p, SolveConfig())
        tight = solve_profile(p, SolveConfig().tightened(0.5))
        assert tight.diagnostics["overlap_error"] < base.diagnostics["overlap_error"]


class TestTolerancePolicy:
    def test_both_charts_follow_one_tol(self):
        for cfg in (SolveConfig(tol=1e-8), SolveConfig().tightened(0.5)):
            sol = solve_profile(P(2.5), cfg)
            assert sol.profile.rtol == cfg.tol
            assert sol.logprofile.rtol == pytest.approx(10.0 * cfg.tol, rel=1e-15)

    @pytest.mark.parametrize("tol", [1e-3, 0.1, 0.9, 10.0])
    def test_tol_at_which_the_checks_cannot_fail_is_rejected(self, tol):
        # the pointwise slack, 100 times the log chart's rtol of 10*tol, reaches 1 at tol = 1e-3
        with pytest.raises(ValueError, match="SolveConfig.tol must be below 0.001"):
            SolveConfig(tol=tol)
        with pytest.raises(ValueError, match="SolveConfig.tol must be below 0.001"):
            SolveConfig(tol=1e-4).tightened(tol / 1e-4)
        assert SolveConfig(tol=9.9e-4).tol == 9.9e-4

    def test_absolute_is_a_hundredth_of_relative(self):
        for chart in ("r", "log"):
            rtol, atol = chart_tolerances(chart, 1e-10)
            assert atol == pytest.approx(rtol / 100.0, rel=1e-15)
        # at the default tol: r-chart 1e-10 / 1e-12, log chart rtol 1e-9
        assert chart_tolerances("r", 1e-10) == (1e-10, 1e-12)
        assert chart_tolerances("log", 1e-10)[0] == 1e-9

    def test_r_chart_radau_stretch_is_ten_times_tighter(self):
        rtol, atol = chart_tolerances("r", 1e-10)
        assert chart_tolerances("r_stiff", 1e-10) == pytest.approx((rtol / 10.0, atol / 10.0), rel=1e-15)


# Every dense reader of a solution, with the upper bound of what it serves
_READERS = {
    "eval_series": lambda sol: (lambda r: eval_series(sol.profile.series, r), sol.profile.series.r_switch),
    "Profile.eval": lambda sol: (sol.profile.eval, sol.profile.r_reach),
    "LogProfile.eval_w": lambda sol: (sol.logprofile.eval_w, sol.logprofile.s_end),
    "LogProfile.eval_g": lambda sol: (sol.logprofile.eval_g, sol.logprofile.s_end),
    "LogProfile.eval_ws": lambda sol: (sol.logprofile.eval_ws, sol.logprofile.s_end),
    "Solution.v": lambda sol: (sol.v, sol.r_cover),
    "Solution.dv": lambda sol: (sol.dv, sol.r_cover),
    "Solution.w_q": lambda sol: (sol.w_q, sol.r_cover),
}


class TestGuards:
    def test_existence_range_enforced(self):
        with pytest.raises(HypothesisViolation):
            solve_profile(P(6.0))  # bound is beta*(n-2)/m = 5

    def test_positivity_loss_on_gross_violation(self):
        # beta < 0 leaves the existence range entirely; the profile dives
        # below the representable floor at a finite radius
        with pytest.raises(PositivityLoss) as exc:
            integrate_r(3, 0.2, 3.0, -1.0, 1.0, 120.0)
        assert 0.0 < exc.value.location < 120.0

    def test_steep_decay_beyond_existence_bound_stays_positive(self):
        # alpha far above beta*(n-2)/m: the profile plunges but settles on
        # the universal r^(-2/(1-m)) tail instead of vanishing
        prof = integrate_r(3, 0.2, 50.0, 1.0, 1.0, 50.0)
        assert np.all(prof.v > 0.0)
        assert prof.v[-1] < 1e-6

    def test_r_chart_reaches_1e17(self):
        # a step-collapse floor scaled by r_max would exceed the first step here
        sol = solve_profile(P(2.5), SolveConfig(r_max=1e17))
        assert sol.profile.r_end == 1e17
        assert sol.diagnostics["overlap_error"] < 1e-9

    def test_dense_eval_out_of_range(self, eternal_n3):
        with pytest.raises(OutOfRange):
            eternal_n3.v(10.0 * eternal_n3.r_cover)
        with pytest.raises(OutOfRange):
            eternal_n3.profile.eval(-1.0)

    def test_solution_serves_every_radius_at_alpha_zero(self, solved):
        # past the log chart's end the r-chart's series still serves the exact constant
        sol = solved(3, 0.2, 0.0, 1.0)
        assert 1e18 > math.exp(sol.logprofile.s_end)
        assert sol.v(1e18) == 1.0 and sol.dv(1e18) == 0.0

    def test_out_of_range_names_the_farthest_query(self, eternal_n3):
        sol = eternal_n3
        s_end = sol.logprofile.s_end
        for evaluate, query, worst in (
            (sol.v, np.linspace(0.0, 2.0 * sol.r_cover, 33), 2.0 * sol.r_cover),
            (sol.profile.eval, np.linspace(-2.0, 1.0, 33), -2.0),
            (sol.logprofile.eval_w, np.linspace(0.0, s_end + 1.0, 33), s_end + 1.0),
        ):
            with pytest.raises(OutOfRange) as exc:
                evaluate(query)
            assert exc.value.location == worst
            assert str(exc.value).count("(at ") == 1 and "[0. " not in str(exc.value)

    def test_dense_eval_rejects_nan(self, eternal_n3):
        sol = eternal_n3
        for evaluate in (sol.v, sol.dv, sol.w_q, sol.profile.eval, sol.logprofile.eval_w):
            with pytest.raises(OutOfRange):
                evaluate(math.nan)
            with pytest.raises(OutOfRange):
                evaluate(np.array([0.5, math.nan]))
        with pytest.raises(OutOfRange):
            eval_series(sol.profile.series, math.nan)

    def test_empty_query_reads_empty(self, eternal_n3):
        sol, none = eternal_n3, np.array([])
        for out in (sol.v(none), sol.w_q(none)[1], sol.profile.eval(none)[1], sol.logprofile.eval_ws(none)):
            assert out.shape == (0,)

    @pytest.mark.parametrize("reader", list(_READERS))
    def test_one_slack_policy(self, solved, eternal_n3, reader):
        # 1e-12 of the upper bound is served as the bound; past it, below the
        # lower bound (by 1e-13) and at NaN the query raises, located there
        read, hi = _READERS[reader](eternal_n3)
        assert read(hi * (1.0 + 1e-13)) == read(hi)
        for query in (hi * (1.0 + 1e-9), -1e-13, math.nan):
            with pytest.raises(OutOfRange) as exc:
                read(query)
            assert exc.value.location == query or math.isnan(query) and math.isnan(exc.value.location)
        # at alpha = 0 the series is the exact constant, and it serves every
        # radius, also through Solution (w_q's r^2 overflows at 1e170)
        read, hi = _READERS[reader](solved(3, 0.2, 0.0, 1.0))
        assert math.isinf(hi) == (not reader.startswith("LogProfile"))
        constant = {"eval_series": (1.0, 0.0), "Profile.eval": (1.0, 0.0), "Solution.v": 1.0, "Solution.dv": 0.0}
        if reader in constant:
            assert read(1e170) == read(0.0) == constant[reader]

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("r_max", {"r_max": math.inf}),
            ("r_max", {"r_max": -1.0}),
            ("tol", {"tol": math.nan}),
            ("tol", {"tol": math.inf}),
            ("s_end", {"s_end": 0.0}),
            ("s_end", {"s_end": math.nan}),
        ],
    )
    def test_solve_config_validated(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            SolveConfig(**kwargs)

    def test_r_chart_shorter_than_the_series_handoff(self):
        # the series would hand off at r = 0.5; below that r_max moves the handoff to r_max/2
        prof = integrate_r(3, 0.2, 2.5, 1.0, 1.0, 0.3)
        assert prof.r_start == 0.15 and prof.r_end == 0.3
        assert prof.v[-1] == pytest.approx(eval_series(prof.series, 0.3)[0], rel=1e-13)
        # the series is exact to r = 0.5, but the profile serves only up to the chart's end
        assert prof.r_reach == 0.3
        with pytest.raises(OutOfRange):
            prof.eval(0.4)
        with pytest.raises(ValueError, match="r_max > 0"):
            integrate_r(3, 0.2, 2.5, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("m,eta", [(1.0, 1.0), (-0.1, 1.0), (0.2, -1.0), (0.2, 0.0)])
    def test_r_chart_rejects_m_and_eta_out_of_range(self, m, eta):
        # eta < 0 would otherwise reach a complex eta**(2-m) in the seed
        with pytest.raises(ValueError, match="r-chart requires"):
            integrate_r(3, m, 1.0, 1.0, eta, 10.0)


class TestRChartOracle:
    """The r-chart and its dense output against solve_ivp(DOP853, rtol=1e-13) to r = 25.

    The last four rows (alpha < 0) switch to Radau IIA between r = 6 and 12.
    """

    # (INVARIANT_GRID row, bound on the relative error of v, bound on the error
    # of v' relative to max|v'|), at the nodes and at the midpoints between them.
    # The bounds sit near 10x the errors measured under the default tol.
    ROWS = [
        ((3, 0.2, 2.5, 1.0, 1.0), 3e-11, 1e-11),
        ((4, 1 / 3, 3.0, 1.0, 1.0), 8e-11, 2e-11),
        ((5, 0.5, 4.0, 1.0, 1.0), 6e-11, 9e-11),
        ((5, 3 / 7, 7.0, 2.0, 1.0), 2e-11, 6e-11),
        ((5, 3 / 7, -0.5, 2.0, 1.0), 3e-14, 8e-10),
        ((6, 0.4, -1.0, 1.0, 1.0), 7e-14, 2e-11),
        ((3, 0.2, -1.0, 1.0, 1.0), 3.5e-13, 4e-11),
        ((4, 1 / 3, -2.0, 1.0, 1.0), 1e-12, 1.3e-11),
    ]

    @pytest.mark.parametrize("row, v_bound, dv_bound", ROWS)
    def test_nodes_and_midpoints(self, row, v_bound, dv_bound):
        from scipy.integrate import solve_ivp

        from fdprofiles.integrate import _r_rhs
        from fdprofiles.series import seed_within

        n, m, alpha, beta, eta = row
        prof = integrate_r(n, m, alpha, beta, eta, 25.0)
        rhs = _r_rhs(n, m, alpha, beta)
        start = seed_within(n, m, alpha, beta, eta, SolveConfig.tol).r_start
        ref = solve_ivp(
            lambda r, y: rhs(r, *y), (start, 25.0), eval_series(prof.series, start),
            method="DOP853", rtol=1e-13, atol=1e-300, dense_output=True,
        )
        assert prof.r_start == start and prof.r_end == 25.0
        mid = 0.5 * (prof.r[:-1] + prof.r[1:])
        for radii, (v, dv) in ((prof.r, (prof.v, prof.dv)), (mid, prof.eval(mid))):
            v_ref, dv_ref = ref.sol(radii)
            assert np.max(np.abs(v - v_ref) / v_ref) < v_bound
            assert np.max(np.abs(dv - dv_ref)) < dv_bound * np.max(np.abs(dv_ref))

    def test_third_derivative_is_the_derivative_of_the_equation(self):
        # v''' at the nodes against a central difference of v'' = F(r, v, v')
        # along the dense output
        from fdprofiles.integrate import _r_rhs

        n, m, alpha, beta = 4, 1 / 3, 3.0, 1.0
        prof = integrate_r(n, m, alpha, beta, 1.0, 10.0)
        rhs = _r_rhs(n, m, alpha, beta)
        h = 1e-4
        for i in range(5, prof.r.size - 1, 7):
            r = prof.r[i]
            (vp, dvp), (vm, dvm) = prof.eval(r + h), prof.eval(r - h)
            fd = (rhs(r + h, vp, dvp)[1] - rhs(r - h, vm, dvm)[1]) / (2.0 * h)
            assert prof.dddv[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_cost_is_reported(self):
        sol = solve_profile(P(2.5))
        assert sol.diagnostics["r_nfev"] == sol.profile.nfev > 11 * sol.profile.n_steps
        assert sol.diagnostics["s_nfev"] == sol.logprofile.nfev > 0
        # the eternal log chart turns stiff, and its r-chart does not
        assert sol.diagnostics["r_newton"] == sol.profile.n_newton == 0
        assert sol.diagnostics["s_newton"] == sol.logprofile.n_newton > 0


class TestRChartStiffSwitch:
    """The r-chart passes its Jacobian and goes over to Radau IIA where it turns stiff (alpha < 0)."""

    @staticmethod
    def explicit_path(prof, n, m, alpha, beta):
        # the same chart from the same start without a Jacobian: DOP853 throughout
        return integrate_2d(
            _r_rhs(n, m, alpha, beta), prof.r_start, prof.v[0], prof.dv[0], prof.r_end,
            *chart_tolerances("r", SolveConfig.tol), positive_y=True,
        )

    @pytest.mark.parametrize(
        "row", [g for g in INVARIANT_GRID if g[2] >= 0.0] + [(n, m, n * beta, beta, eta) for n, m, beta, eta in BARENBLATT]
    )
    @pytest.mark.parametrize("r_max", [SolveConfig.r_max, 25.0])
    def test_no_switch_keeps_the_explicit_nodes(self, solved, row, r_max):
        sol = solved(*row, r_max=r_max)
        prof = sol.profile
        assert prof.stiff_switch is None and sol.diagnostics["r_stiff_switch"] is None
        assert prof.dddv.size == prof.r.size
        path = self.explicit_path(prof, *row[:4])
        for got, ref in ((prof.r, path.t), (prof.v, path.y), (prof.dv, path.z), (prof.ddv, path.fz)):
            assert np.array_equal(got, ref)
        assert (prof.n_steps, prof.n_rejected) == (path.n_steps, path.n_rejected)

    @pytest.mark.parametrize("row", [g for g in INVARIANT_GRID if g[2] < 0.0])
    def test_negative_alpha_switches(self, solved, row):
        sol = solved(*row, r_max=25.0)
        prof = sol.profile
        switch = prof.stiff_switch
        assert switch is not None and sol.diagnostics["r_stiff_switch"] == switch
        assert 5.0 < switch < 15.0 and switch in prof.r
        # DOP853 runs as without a Jacobian up to the switch node, where the septic v ends
        k = int(np.searchsorted(prof.r, switch)) + 1
        assert prof.dddv.size == k
        path = self.explicit_path(prof, *row[:4])
        assert np.array_equal(prof.r[:k], path.t[:k]) and np.array_equal(prof.v[:k], path.y[:k])
        assert prof.r[k] != path.t[k]

    @staticmethod
    def stretches(x, y, dy, ddy, dddy, q):
        """(queries, standalone interpolant) on each side of the last DOP853 node: septic, then quintic."""
        k = dddy.size
        out = [(q[q < x[k - 1]], Hermite(x[:k], y[:k], dy[:k], ddy[:k], dddy))]
        if k < x.size:
            out.append((q[q > x[k - 1]], Hermite(x[k - 1 :], y[k - 1 :], dy[k - 1 :], ddy[k - 1 :])))
        return out

    @pytest.mark.parametrize("row", [g for g in INVARIANT_GRID if g[2] < 0.0] + [(3, 0.2, 2.5, 1.0, 1.0)])
    def test_dense_output_has_the_bits_of_each_stretch(self, solved, row):
        # one interpolant per chart: the septic and the quintic built on their own stretch, bit for bit
        sol = solved(*row, r_max=25.0)
        prof, lp = sol.profile, sol.logprofile
        r_sides = self.stretches(prof.r, prof.v, prof.dv, prof.ddv, prof.dddv, np.linspace(prof.r_start, prof.r_end, 2001))
        assert len(r_sides) == 1 + (row[2] < 0.0)
        for rq, interp in r_sides:
            v, dv = prof.eval(rq)
            assert rq.size and np.array_equal(v, interp.value(rq)) and np.array_equal(dv, interp.derivative(rq))
        # the log chart's nodes are interpolated up to the slow tail's switch, which the tail's relation serves past
        k = lp.head.t.size
        sq = np.linspace(lp.s_start, lp.s_end, 3001)
        s_sides = self.stretches(lp.s[:k], lp.w[:k], lp.ws[:k], lp.wss[:k], lp.wsss, sq[sq <= lp.qss_switch_s])
        assert len(s_sides) == 2
        for q, interp in s_sides:
            assert q.size and np.array_equal(lp.eval_w(q), interp.value(q))
        past = sq[sq > lp.qss_switch_s]
        assert past.size and np.array_equal(lp.eval_w(past), lp.tail.w(past))

    def test_large_eta_runaway_is_cheap(self):
        # fuzz draw 46 of default_rng(3): DOP853 alone takes 278,336 steps to r = 2,
        # held down by stability past r = 0.05
        p = Parameters(3, 0.1293485945439273, -2.515003384336588, 2.023106548992026, 24961.53343951476)
        sol = solve_profile(p)
        assert sol.diagnostics["r_stiff_switch"] is not None
        assert sol.profile.n_steps < 2000
        assert run_all_checks(sol).overall


class TestLogChartDirect:
    @settings(max_examples=60)
    @given(
        n=st.integers(3, 8),
        mfrac=st.floats(0.05, 0.99),
        beta=st.floats(0.1, 5.0),
        c=st.floats(0.2, 3.0),
        s=st.floats(-2.0, 2.0),
    )
    def test_exponential_is_exact_orbit_when_alpha_zero(self, n, mfrac, beta, c, s):
        # for alpha = 0 the closed form w = c*e^(2s) satisfies the chart
        # equation identically: the quadratic terms cancel and the linear
        # coefficients sum to 4
        from fdprofiles.integrate import _chart_coeffs, _log_rhs

        m = mfrac * (n - 2) / n
        cc = _chart_coeffs(n, m, 0.0, beta)
        rhs, sigma = _log_rhs(cc), cc.sigma
        w = c * math.exp(2.0 * s)
        ws = 2.0 * w
        dw, dg = rhs(s, w, ws - sigma * w)
        wss = dg + sigma * dw
        assert dw == pytest.approx(ws, rel=1e-12)
        assert wss == pytest.approx(4.0 * w, rel=1e-12, abs=1e-12 * w)

    @pytest.mark.parametrize("n,mfrac,beta", [(3, 0.5, 1.0), (4, 1e-3, 0.3), (5, 0.999, 2.0), (7, 0.3, 1.7), (30, 1.0, 5.0)])
    def test_c_w_vanishes_exactly_at_alpha_zero(self, n, mfrac, beta):
        # c_w = (2 - sigma)*(m*sigma + n-2-nm)/(1-m), and sigma = 2 exactly at
        # alpha = 0: the manifold g = 0 is then exact, not rounding noise
        from fdprofiles.integrate import _chart_coeffs, _manifold_series

        cc = _chart_coeffs(n, mfrac * (n - 2) / n, 0.0, beta)
        assert cc.sigma == 2.0
        assert cc.c_w == 0.0
        assert not any(_manifold_series(cc))

    def test_supports_m_zero(self):
        lp = integrate_log(3, 0.0, 2.0, 1.0, (0.0, 1.0, 2.5), 5.0)
        assert lp.s_end == 5.0
        assert np.all(lp.w > 0)

    def test_rejects_m_one(self):
        with pytest.raises(ValueError):
            integrate_log(3, 1.0, 2.0, 1.0, (0.0, 1.0, 2.0), 5.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_nonpositive_beta(self, beta):
        # sigma = -rho1/beta anchors the chart
        with pytest.raises(HypothesisViolation, match="beta > 0"):
            integrate_log(3, 0.2, 0.0, beta, (0.0, 1.0, 2.0), 5.0)

    def test_w_recovers_v(self, eternal_n3):
        lp = eternal_n3.logprofile
        s = 3.0
        v_from_log = lp.eval_v(s)
        assert v_from_log == pytest.approx(eternal_n3.v(math.exp(s)), rel=1e-8)


class TestStiffTail:
    """Exponentially growing w switches to the slow-manifold continuation."""

    @pytest.mark.parametrize("alpha", [1.25, 0.5, -1.0])
    def test_full_span_reached(self, solved, alpha):
        sol = solved(3, 0.2, alpha, 1.0)
        lp = sol.logprofile
        assert lp.s_end == pytest.approx(40.0)
        assert lp.qss_switch_s is not None
        assert np.all(np.diff(lp.s) > 0)
        assert np.all(lp.w > 0)

    def test_seam_is_smooth(self, solved):
        sol = solved(3, 0.2, 1.25, 1.0)
        lp = sol.logprofile
        s_star = lp.qss_switch_s
        s = np.linspace(s_star - 0.5, s_star + 0.5, 201)
        lnw = np.log(lp.eval_w(s))
        # second difference of log w stays tiny across the switch
        d2 = np.diff(lnw, 2)
        assert np.max(np.abs(d2)) < 1e-4

    def test_eternal_chart_switches_after_radau(self, eternal_n3):
        # w grows like a0*s at sigma = 0: the chart turns stiff, goes to Radau
        # IIA, and then to the sigma = 0 tail once the fast mode has relaxed
        lp = eternal_n3.logprofile
        assert lp.stiff_switch < lp.qss_switch_s < lp.s_end
        assert eternal_n3.diagnostics["qss_switch_s"] == lp.qss_switch_s
        assert eternal_n3.diagnostics["qss_gap"] < 1e-9

    def test_overflow_is_a_located_profile_error(self):
        # w grows like e^(1.2 s) and leaves the float range near s = 591;
        # the tail sees that before it evaluates anything out of range
        with warnings.catch_warnings(), pytest.raises(ProfileError) as exc:
            warnings.simplefilter("error")
            solve_profile(P(1.0), SolveConfig(s_end=2000.0))
        assert 500.0 < exc.value.location < 700.0

    def test_very_long_eternal_chart_verifies_without_a_warning(self):
        # the tail's pieces grow like 0.02*s: at s_end = 1e150 they reach 3e148,
        # where h^3/6 (formed only on the DOP853 stretch) would leave the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_profile(P(2.5), SolveConfig(s_end=1e150))
            assert run_all_checks(sol).overall
            assert sol.diagnostics["overlap_error"] < 1e-9

    def test_eternal_tail_past_the_dense_output_range_verifies(self):
        # past s = 6.7e155 a tail piece is longer than sqrt(float max), where a
        # Hermite's h^2/2 would overflow; tail reads use no Hermite, so the
        # solve places no tail node and the checks pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_profile(P(2.5), SolveConfig(s_end=1e300))
            assert "_nodes" not in sol.logprofile.__dict__
            assert run_all_checks(sol).overall

    def test_stepped_pieces_past_the_dense_output_range_are_a_located_profile_error(self):
        # sigma = -1: no tail, and the stepped nodes pass sqrt(float max) apart near s = 9.7e153
        with warnings.catch_warnings(), pytest.raises(ProfileError, match="lower s_end") as exc:
            warnings.simplefilter("error")
            solve_profile(P(3.75), SolveConfig(s_end=1e300))
        assert 9.7e153 < exc.value.location < 9.8e153

    @pytest.mark.parametrize("alpha", [1.25, -1.0, 2.5])
    def test_node_s_is_the_quadrature_of_the_manifold_rate(self, solved, alpha):
        # on the manifold g = G(w) and d(log w)/ds = F(log w) = sigma + G(w)/w, so
        # every tail node sits at s = s* + integral of 1/F from the switch, with
        # g_s = G'(w)*w_s; G is summed term by term here, not by Horner's rule.
        # alpha = 2.5 is eternal, sigma = 0, with nodes _ETERNAL_DLY apart
        from scipy.integrate import quad as adaptive_quad

        from fdprofiles.integrate import _ETERNAL_DLY, _QSS_DLY, _chart_coeffs, _manifold_series

        lp = solved(3, 0.2, alpha, 1.0).logprofile
        cc = _chart_coeffs(3, 0.2, alpha, 1.0)
        d = _manifold_series(cc)
        spacing = _QSS_DLY if cc.sigma else _ETERNAL_DLY

        def manifold(ly):  # (G, x*G_x, F) at x = 1/w
            x = math.exp(-ly)
            g = sum(dk * x**k for k, dk in enumerate(d))
            return g, sum(k * dk * x**k for k, dk in enumerate(d)), cc.sigma + x * g

        i0 = int(np.searchsorted(lp.s, lp.qss_switch_s))
        ly = np.log(lp.w[i0:])
        pieces = [adaptive_quad(lambda y: 1.0 / manifold(y)[2], a, b, epsabs=1e-14, epsrel=1e-14)[0]
                  for a, b in zip(ly[:-1], ly[1:])]
        ref = lp.qss_switch_s + np.cumsum(pieces)
        assert np.max(np.abs(lp.s[i0 + 1 :] - ref)) <= 1e-12
        assert np.max(np.diff(ly)) <= spacing + 1e-12
        g, xgx, f = np.array([manifold(y) for y in ly[1:]]).T
        np.testing.assert_allclose(lp.g[i0 + 1 :], g, rtol=1e-14)
        np.testing.assert_allclose(lp.gs[i0 + 1 :], -xgx * f, rtol=1e-13)

    # the 1e-14 reference reaches roundoff on some intervals, which quadpack reports
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n", [3, 6, 10, 20, 30])
    def test_node_s_on_the_edges_of_the_tail(self, n):
        # the tail alone, from _qss_switch's switch w over s in [0, 40], with m
        # near 0, midway and near the endpoint (n-2)/n and sigma near
        # _QSS_MIN_SIGMA, near 3, between and 0 (the eternal relation, its
        # sigma set to exactly 0 as integrate_log does): every node sits at
        # the adaptive quadrature of 1/F from the switch. At sigma = 0.021 F vanishes just
        # left of x = 0, and a 32-point interpolant of G/F misses by 1e-9 at
        # n = 10 and 1e-7 at n = 30.
        from scipy.integrate import quad as adaptive_quad

        from fdprofiles.integrate import _chart_coeffs, _qss_switch, _tail

        for mfrac in (1e-3, 0.5, 0.999):
            m = mfrac * (n - 2) / n
            for sigma in (0.021, 0.05, 1.0, 2.99, 0.0):
                cc = _chart_coeffs(n, m, (2.0 - sigma) / (1.0 - m), 1.0)._replace(sigma=sigma)
                d, e, w_switch = _qss_switch(cc, n, 1.0)
                s, w, _, _ = _tail(cc.sigma, d, e, 0.0, math.log(w_switch), 40.0).nodes()

                def inv_rate(ly):
                    x = math.exp(-ly)
                    return 1.0 / (cc.sigma + x * sum(dk * x**k for k, dk in enumerate(d)))

                checked = sorted(set(np.linspace(0, s.size - 1, 40).astype(int)))
                ref = [adaptive_quad(inv_rate, math.log(w_switch), math.log(w[i]), epsabs=1e-14, epsrel=1e-14,
                                     limit=200)[0] for i in checked]
                assert s[-1] == 40.0
                assert np.max(np.abs(s[checked] - ref)) <= 1e-11, (m, sigma)

    def test_overflow_boundary_is_where_the_last_node_leaves_the_float_range(self):
        # w grows like e^(3.33 s) on (4, 1/3, alpha = -2): at s_end = 212.5 the
        # last node and its w_ss are finite, and at s_end = 213 the last log w
        # would pass the float range less the room w_ss needs
        p = P(-2.0, n=4, m=1.0 / 3.0)
        lp = solve_profile(p, SolveConfig(s_end=212.5)).logprofile
        assert lp.s[-1] == 212.5
        assert np.all(np.isfinite(lp.wss))
        with warnings.catch_warnings(), pytest.raises(ProfileError, match="overflows") as exc:
            warnings.simplefilter("error")
            solve_profile(p, SolveConfig(s_end=213.0))
        assert 212.5 < exc.value.location < 213.0

    def test_nodes_increase_and_end_exactly_at_s_end(self, solved):
        for alpha in (1.25, 0.5, -1.0):
            lp = solved(3, 0.2, alpha, 1.0).logprofile
            assert np.all(np.diff(lp.s) > 0.0)
            assert lp.s[-1] == 40.0
        # a tail shorter than one node spacing still ends exactly at s_end
        full = solved(3, 0.2, 1.25, 1.0).logprofile
        i0 = int(np.searchsorted(full.s, full.qss_switch_s))
        s_end = full.qss_switch_s + 0.5 * (full.s[i0 + 1] - full.s[i0])
        lp = solve_profile(P(1.25), SolveConfig(s_end=s_end)).logprofile
        assert lp.qss_switch_s == full.qss_switch_s and lp.s[-2] == lp.qss_switch_s
        assert lp.s[-1] == s_end

    def test_stalled_manifold_is_a_profile_error(self):
        # a manifold rate F = sigma + G/w <= 0 would never reach s_end: here
        # G = -1e4 at w = 5e3 gives F = 1 - 2 = -1
        from fdprofiles.integrate import _reciprocal_series, _tail

        with pytest.raises(ProfileError, match="stops growing") as exc:
            _tail(1.0, [-1e4], None, 5.0, math.log(5000.0), 40.0)
        assert exc.value.location == 5.0
        # at sigma = 0, F = G/w: G = 1 - 2e4/w is -3 at w = 5e3
        with pytest.raises(ProfileError, match="stops growing") as exc:
            _tail(0.0, [1.0, -2e4], _reciprocal_series([1.0, -2e4]), 5.0, math.log(5000.0), 40.0)
        assert exc.value.location == 5.0

    @pytest.mark.parametrize("n", range(3, 31))
    def test_first_omitted_series_term_is_below_rounding_at_the_switch(self, n):
        # sigma near _QSS_MIN_SIGMA and near 3, m near 0 and at the endpoint
        # (n-2)/n, and sigma = 0 with m near 0, at the Yamabe exponent
        # (n-2)/(n+2) and near the endpoint: at the switch each of the first
        # two terms the tail leaves out of G (and at sigma = 0 of 1/G, whose
        # series places the nodes) is below 2^-52 of the sum. The switch is
        # the relaxation bound, beta*w/(n-1) = _QSS_RELAX*max(1, sigma) or at
        # sigma = 0 w = sqrt(4*_QSS_RELAX*d_0*(n-1)/beta), or past it the w
        # where the largest of those terms falls to 2^-53 of the first. On the
        # Yamabe rows b0 = 0 and at sigma = 0 every odd d_k vanishes, d_K
        # among them, so the first omitted term alone would read 0
        from fdprofiles.integrate import (
            _QSS_RELAX,
            _SERIES_TERMS,
            _chart_coeffs,
            _manifold_series,
            _qss_switch,
            _reciprocal_series,
        )

        K = _SERIES_TERMS
        rows = [(mfrac * (n - 2) / n, sigma) for mfrac in (1e-3, 1.0) for sigma in (0.021, 2.99)]
        rows += [(m, 0.0) for m in (1e-3 * (n - 2) / n, (n - 2) / (n + 2), 0.999 * (n - 2) / n)]
        for m, sigma in rows:
            if sigma:
                cc = _chart_coeffs(n, m, (2.0 - sigma) / (1.0 - m), 1.0)
            else:
                cc = _chart_coeffs(n, m, eternal_alpha(m, 1.0), 1.0)._replace(sigma=0.0)
            d, e, w = _qss_switch(cc, n, 1.0)
            full = _manifold_series(cc, K + 2)
            assert full[:K] == d
            # the 1/G series the eternal tail reads is that of d, bit for bit
            assert e == (_reciprocal_series(d) if not sigma else None)
            series = [full] + ([_reciprocal_series(full)] if not sigma else [])
            for c in series:
                value = sum(ck * w**-k for k, ck in enumerate(c[:K]))
                assert max(abs(c[K]) * w**-K, abs(c[K + 1]) * w ** -(K + 1)) <= 2.0**-52 * abs(value), (m, sigma)
            if sigma:
                w_relax = _QSS_RELAX * max(1.0, cc.sigma) * (n - 1)
            else:
                w_relax = math.sqrt(4.0 * _QSS_RELAX * d[0] * (n - 1))
            assert w >= w_relax
            if w > w_relax:
                largest = max(abs(c[k]) * w**-k / abs(c[0]) for c in series for k in (K, K + 1))
                assert largest == pytest.approx(2.0**-53, rel=1e-12), (m, sigma)

    # s_end = 40/sigma takes w about as far as sigma = 1 does at the default 40,
    # so every family reaches its switch
    @pytest.mark.parametrize("n", [3, 6, 10, 20, 30])
    def test_fast_mode_has_relaxed_at_the_switch(self, n):
        # over the stepped nodes from s = 0 to the switch, the fast mode's rate
        # -dg_s/dg, integrated in s, takes an offset off the manifold through
        # at least 53*ln(2) e-folds, below rounding of g; m and sigma as in
        # test_node_s_on_the_edges_of_the_tail
        from fdprofiles.integrate import _chart_coeffs, _log_jac

        for mfrac in (1e-3, 0.5, 0.999):
            m = mfrac * (n - 2) / n
            for sigma in (0.021, 0.05, 1.0, 2.99):
                alpha = (2.0 - sigma) / (1.0 - m)
                lp = solve_profile(P(alpha, n=n, m=m), SolveConfig(s_end=40.0 / sigma)).logprofile
                assert lp.qss_switch_s is not None and lp.s_start == 0.0
                k = int(np.searchsorted(lp.s, lp.qss_switch_s)) + 1
                rate = -_log_jac(_chart_coeffs(n, m, alpha, 1.0))(None, lp.w[:k], lp.g[:k])[3]
                efolds = np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(lp.s[:k]))
                assert efolds >= 53.0 * math.log(2.0), (m, sigma)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_fast_mode_has_relaxed_at_the_eternal_switch(self, n):
        # as above on the eternal relation, sigma = 0, where w grows like a0*s:
        # m near 0, midway and near the endpoint (n-2)/n, where a0 is small
        # and the switch falls as late as s = 500, so s_end = 600
        from fdprofiles.integrate import _chart_coeffs, _log_jac

        for mfrac in (1e-3, 0.5, 0.999):
            m = mfrac * (n - 2) / n
            for beta in (0.25, 1.0, 4.0):
                alpha = eternal_alpha(m, beta)
                lp = solve_profile(P(alpha, n=n, m=m, beta=beta), SolveConfig(s_end=600.0)).logprofile
                assert lp.qss_switch_s is not None and lp.qss_gap < 1e-9, (m, beta)
                k = int(np.searchsorted(lp.s, lp.qss_switch_s)) + 1
                rate = -_log_jac(_chart_coeffs(n, m, alpha, beta))(None, lp.w[:k], lp.g[:k])[3]
                efolds = np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(lp.s[:k]))
                assert efolds >= 53.0 * math.log(2.0), (m, beta)

    @pytest.mark.parametrize("row", [row for row in INVARIANT_GRID if row[2] == 0.0])
    def test_alpha_zero_has_no_gap(self, solved, row):
        # at alpha = 0, c_w = 0 exactly: g = 0 stays invariant and so does G
        lp = solved(*row).logprofile
        assert lp.qss_switch_s is not None
        assert lp.qss_gap == 0.0
        assert np.all(lp.g == 0.0)

    @pytest.mark.parametrize("alpha", [1.25, 0.5, -1.0])
    def test_qss_gap_is_the_jump_in_g_at_the_switch(self, solved, alpha):
        from fdprofiles.integrate import _chart_coeffs, _manifold_series

        sol = solved(3, 0.2, alpha, 1.0)
        lp = sol.logprofile
        i0 = int(np.searchsorted(lp.s, lp.qss_switch_s))
        g = sum(dk * lp.w[i0] ** -k for k, dk in enumerate(_manifold_series(_chart_coeffs(3, 0.2, alpha, 1.0))))
        assert sol.diagnostics["qss_gap"] == lp.qss_gap == pytest.approx(abs(lp.g[i0] - g) / abs(g), abs=1e-15)
        assert lp.qss_gap < 1e-11

    @pytest.mark.parametrize(
        "n,m,alpha", [(3, 0.2, 1.25), (3, 0.2, 0.5), (3, 0.2, -1.0), (5, 0.3, 0.5), (10, 0.016, 1.0), (30, 0.02, 1.0)]
    )
    def test_tail_matches_radau_oracle(self, solved, n, m, alpha):
        # the full (w, g) system, stepped by scipy's Radau from the switch node
        # to w = 1e6, relaxes onto the true manifold: the tail's g and the s
        # it places each w at must both agree with it
        from scipy.integrate import solve_ivp

        from fdprofiles.integrate import _chart_coeffs, _log_jac, _log_rhs

        lp = solved(n, m, alpha, 1.0).logprofile
        cc = _chart_coeffs(n, m, alpha, 1.0)
        rhs, jac = _log_rhs(cc), _log_jac(cc)
        i0 = int(np.searchsorted(lp.s, lp.qss_switch_s))
        tail = np.arange(i0 + 1, lp.s.size)[lp.w[i0 + 1 :] <= 1e6]
        assert tail.size > 10
        ref = solve_ivp(lambda s, y: rhs(s, *y), (lp.s[i0], lp.s[tail[-1]]), [lp.w[i0], lp.g[i0]], method="Radau",
                        t_eval=lp.s[tail], rtol=1e-13, atol=1e-14, jac=lambda s, y: np.reshape(jac(s, *y)[:4], (2, 2)))
        w_ref, g_ref = ref.y
        assert np.max(np.abs(lp.w[tail] - w_ref) / w_ref) <= 1e-12
        assert np.max(np.abs(lp.g[tail] - g_ref) / np.abs(g_ref)) <= 1e-12


# an eternal chart, two power charts and alpha = 0, where g = 0 on the tail
TAIL_ROWS = [(3, 0.2, 2.5, 1.0), (6, 0.25, eternal_alpha(0.25, 1.0), 1.0), (3, 0.2, 1.25, 1.0),
             (3, 0.2, -1.0, 1.0), (3, 0.2, 0.0, 1.0)]


class TestTailReads:
    """Reads past ``qss_switch_s`` come from the tail's relation, one inversion per point."""

    @pytest.mark.parametrize("row", TAIL_ROWS)
    def test_a_point_has_the_same_bits_alone_and_in_short_and_long_arrays(self, row):
        # on the stepped stretch and on the tail, each read on a chart of its own, so
        # that no table is built before it: alone a point is read on floats, a short
        # array point by point, a long one element by element on arrays
        from fdprofiles.integrate import _TAIL_SHORT_READ

        def chart():
            return solve_profile(P(row[2], n=row[0], m=row[1], beta=row[3])).logprofile

        switch = chart().qss_switch_s
        points = np.array([0.0, 0.5 * switch, switch, np.nextafter(switch, 40.0), 0.5 * (switch + 40.0), 39.0, 40.0])
        filler = np.linspace(0.0, 40.0, 4 * _TAIL_SHORT_READ)
        assert np.sum(filler > switch) > _TAIL_SHORT_READ
        for part in ("w", "g", "ws"):
            alone = [chart().eval(float(x), part)[0] for x in points]
            assert all(type(x) is float for x in alone)
            short = chart().eval(points, part)[0]
            long = chart().eval(np.concatenate([filler, points]), part)[0][filler.size :]
            assert np.array_equal(short, alone) and np.array_equal(long, alone), part

    @pytest.mark.parametrize("row", TAIL_ROWS)
    def test_reads_at_the_tail_nodes_are_within_4_ulps_of_them(self, row):
        # g to 4 ulps; w to 4 ulps of log w, the tail's own variable: a node's s is
        # rounded, and at sigma*s ~ 100 an ulp of s moves w by ~100 of its ulps
        lp = solve_profile(P(row[2], n=row[0], m=row[1], beta=row[3])).logprofile
        k = lp.head.t.size
        s, w, g, ws = lp.s[k:], lp.w[k:], lp.g[k:], lp.ws[k:]
        assert s.size > 40
        rw, rg, rws = lp.eval(s, "w", "g", "ws")
        dw = 4.0 * w * np.spacing(np.log(w))
        assert np.all(np.abs(rw - w) <= dw)
        assert np.all(np.abs(rg - g) <= 4.0 * np.spacing(np.abs(g)))
        assert np.all(np.abs(rws - ws) <= abs(lp.sigma) * dw + 4.0 * np.spacing(np.abs(g)))
        # at s_end the read takes the last node's log w, which the tail was set up with
        assert lp.eval_w(40.0) == math.exp(lp.tail.ly_end) and np.exp(lp.tail.ly_end) == w[-1]

    @pytest.mark.parametrize("row", TAIL_ROWS)
    def test_reads_on_the_two_sides_of_the_switch_meet(self, row):
        # one ulp of s either side: w meets to rounding, and g jumps by qss_gap, the
        # stepped g's distance from the manifold at the switch node (0 at alpha = 0)
        lp = solve_profile(P(row[2], n=row[0], m=row[1], beta=row[3])).logprofile
        switch = lp.qss_switch_s
        (w0, g0, ws0), (w1, g1, ws1) = (lp.eval(np.nextafter(switch, s), "w", "g", "ws") for s in (0.0, 40.0))
        assert abs(w1 - w0) <= 1e-14 * w1
        assert abs(g1 - g0) <= (lp.qss_gap + 1e-14) * abs(g1)
        assert abs(ws1 - ws0) <= abs(g1 - g0) + abs(lp.sigma) * abs(w1 - w0) + 1e-14 * abs(ws1)


    @pytest.mark.parametrize("alpha", [2.5, 1.25])
    @pytest.mark.parametrize("shape", [(2, 3), (5, 6)])
    def test_a_query_of_any_shape_past_the_switch_is_read(self, alpha, shape):
        # a 2-d query wholly past the switch, of at most _TAIL_SHORT_READ points and of more: each read
        # has the query's shape and, point by point, the bits of the same read on the flat query
        from fdprofiles.integrate import _TAIL_SHORT_READ

        sol = solve_profile(P(alpha))
        size = math.prod(shape)
        assert (size <= _TAIL_SHORT_READ) == (shape == (2, 3))
        r = np.geomspace(1.5 * math.exp(sol.logprofile.qss_switch_s), math.exp(39.0), size).reshape(shape)
        for read in (sol.v, sol.dv, lambda rr: sol.w_q(rr)[0], lambda rr: sol.w_q(rr)[1]):
            got = read(r)
            assert got.shape == shape and np.array_equal(got.ravel(), read(r.ravel()))
        for part in ("w", "g", "ws", "v"):
            got = sol.logprofile.eval(np.log(r), part)[0]
            assert got.shape == shape and np.array_equal(got.ravel(), sol.logprofile.eval(np.log(r).ravel(), part)[0])


class TestStiffSwitch:
    """The full (w, g) system goes from DOP853 to Radau IIA once stability-bound."""

    def test_switch_recorded(self, eternal_n3):
        lp = eternal_n3.logprofile
        assert lp.stiff_switch is not None
        assert lp.s_start < lp.stiff_switch < lp.s_end
        assert lp.stiff_switch in lp.s
        assert eternal_n3.diagnostics["stiff_switch_s"] == lp.stiff_switch

    def test_matches_radau_oracle(self):
        from scipy.integrate import solve_ivp

        from fdprofiles.integrate import _chart_coeffs, _log_rhs

        n, m, beta = 7, 5 / 9, 1.0
        alpha = 2.0 * beta / (1.0 - m)
        lp = solve_profile(P(alpha, n=n, m=m, beta=beta)).logprofile
        assert lp.n_steps < 500  # DOP853 alone needs 792
        cc = _chart_coeffs(n, m, alpha, beta)
        rhs, sigma = _log_rhs(cc), cc.sigma
        ref = solve_ivp(
            lambda s, y: rhs(s, *y),
            (lp.s_start, 40.0),
            [lp.w[0], lp.g[0]],
            method="Radau",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        s = np.linspace(lp.s_start, 40.0, 4001)
        w_ref, g_ref = ref.sol(s)
        ws_ref = g_ref + sigma * w_ref
        assert np.max(np.abs(lp.eval_w(s) - w_ref) / w_ref) < 1e-7
        assert np.max(np.abs(lp.eval_ws(s) - ws_ref) / np.abs(ws_ref)) < 1e-7


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(3, 6),
    mfrac=st.floats(0.2, 0.95),
    afrac=st.floats(-0.5, 0.99).filter(lambda a: abs(a) > 0.02),
    beta=st.floats(0.5, 2.0),
    eta=st.floats(0.5, 2.0),
)
def test_admissible_solves_are_well_behaved(n, mfrac, afrac, beta, eta):
    m = mfrac * (n - 2) / n
    alpha = afrac * beta * (n - 2) / m  # inside the existence range
    p = Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=eta)
    sol = solve_profile(p, SolveConfig(r_max=5.0, s_end=10.0))
    prof = sol.profile
    assert np.all(prof.v > 0)
    if alpha > 0:
        assert np.all(prof.dv[prof.r > 0] < 0)
    elif alpha < 0:
        assert np.all(prof.dv[prof.r > 0] > 0)
    assert sol.diagnostics["overlap_error"] < 10.0 * max(sol.profile.rtol, sol.logprofile.rtol)


class TestShortLogChart:
    @pytest.mark.parametrize("s_end", [0.5, 0.01])
    def test_overlap_read_where_both_charts_reach(self, s_end):
        # the log chart ends below r = 2*R_HANDOFF, inside the r-chart's reach
        sol = solve_profile(P(2.5), SolveConfig(s_end=s_end))
        assert sol.diagnostics["overlap_error"] < 1e-10
        assert run_all_checks(sol).overall


class TestLogChartPastTheFloatRange:
    def test_radii_beyond_the_float_range_are_infinite(self):
        # e^s overflows for s > 709.78: r_cover and the checks' node radii read
        # inf there instead of raising OverflowError or warning
        sol = solve_profile(P(2.5), SolveConfig(s_end=800.0))
        assert sol.logprofile.s_end == 800.0
        assert sol.r_cover == math.inf
        assert run_all_checks(sol).overall
        with pytest.raises(OutOfRange):
            sol.v(math.inf)


class TestLargeEta:
    @pytest.mark.parametrize("eta", [1e100, 1e300])
    def test_overflow_is_a_located_profile_error(self, eta):
        # both overflow the origin series' coefficients eta^(1+k(1-m))*a_k, k < 16,
        # before the r-chart's first right-hand side
        with pytest.raises(ProfileError) as exc:
            solve_profile(P(2.5, eta=eta))
        assert not isinstance(exc.value, HypothesisViolation)
        assert exc.value.location is not None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the charts' atol is not scaled by eta")
def test_small_eta_flux_identity_at_the_default_r_max():
    # A random admissible family (fuzz draw 95 of default_rng(3)) at eta = 3.5e-6. With
    # r_max = 2 the inaccurate log chart serves r = 5 and the flux identity misses by 3.1e-7
    # against 1e-8; with r_max = 10 the r-chart serves it and the identity holds.
    p = Parameters(3, 0.17113160403548824, -0.32090123901909906, 0.8538090482164935, 3.5425788115774093e-06)
    assert run_all_checks(solve_profile(p, SolveConfig(r_max=10.0))).overall
    assert run_all_checks(solve_profile(p)).entry("flux_identity").passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 12: the dense w dips below 0 between log-chart nodes at tiny eta")
def test_tiny_eta_identities_are_finite():
    # The eternal row (3, 0.2, 2.5, 1) at eta = 1e-20, 1e-100 and 1e-280. The dense w reads
    # below 0 between the log chart's nodes, and w^(m/(1-m)) is NaN there: both identities
    # read NaN, with a RuntimeWarning from numpy's power.
    for eta in (1e-20, 1e-100, 1e-280):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_all_checks(solve_profile(Parameters(3, 0.2, 2.5, 1.0, eta)))
        margins = [rep.entry(name).worst_margin for name in ("flux_identity", "q_identity")]
        assert all(math.isfinite(x) for x in margins), (eta, margins)
        assert not caught, (eta, [str(w.message) for w in caught])
