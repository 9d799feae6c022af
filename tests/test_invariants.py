import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as adaptive_quad
from test_acceptance import INVARIANT_GRID

from fdprofiles import (
    Parameters,
    SolveConfig,
    check_flux_identity,
    check_hypotheses,
    check_pointwise,
    check_q_identity,
    check_slope_bounds,
    derived,
    run_all_checks,
    solve_profile,
)
from fdprofiles import integrate, invariants
from fdprofiles.model import REGIME_TOL, eternal_alpha


class TestPointwise:
    def test_all_pass_on_eternal_case(self, eternal_n3):
        rep = check_pointwise(eternal_n3)
        assert rep.overall
        applicable = {e.name for e in rep.entries if e.applicable}
        assert applicable == {
            "dv_sign",
            "v_between_0_eta",
            "h1_positive",
            "w1_increasing",
            "h_positive",
            "w_increasing",
        }

    def test_unknown_entry_name_is_a_key_error(self, eternal_n3):
        with pytest.raises(KeyError, match="nope"):
            check_pointwise(eternal_n3).entry("nope")

    def test_alpha_zero_special_case(self, solved):
        rep = check_pointwise(solved(3, 0.2, 0.0, 1.0))
        assert rep.overall
        by_name = {e.name: e for e in rep.entries}
        assert by_name["dv_sign"].applicable and by_name["dv_sign"].passed
        for name in ("h1_positive", "w1_increasing", "h_positive", "w_increasing", "v_between_0_eta"):
            assert not by_name[name].applicable

    def test_negative_alpha_slope_sign(self, solved):
        rep = check_pointwise(solved(3, 0.2, -1.0, 1.0))
        assert rep.overall
        by_name = {e.name: e for e in rep.entries}
        assert by_name["dv_sign"].passed  # v' > 0 for alpha < 0
        assert by_name["h1_positive"].applicable and by_name["h1_positive"].passed
        assert not by_name["h_positive"].applicable

    def test_corrupted_profile_detected_with_location(self, eternal_n3):
        prof = eternal_n3.profile
        idx = len(prof.r) // 2
        bad_dv = prof.dv.copy()
        bad_dv[idx] = -bad_dv[idx]
        bad_sol = dataclasses.replace(
            eternal_n3, profile=dataclasses.replace(prof, head=dataclasses.replace(prof.path, z=bad_dv))
        )
        rep = check_pointwise(bad_sol)
        entry = rep.entry("dv_sign")
        assert not entry.passed
        assert entry.location == pytest.approx(prof.r[idx])
        assert not rep.overall

    def test_corrupted_log_chart_node_detected_with_location(self, eternal_n3):
        # past the r-chart's end only the log chart holds the profile: g = 3w
        # there makes r*v'/v = (g/w + sigma - 2)/(1-m) positive although alpha > 0;
        # the node is a stepped one, whose g the chart's head holds
        lp = eternal_n3.logprofile
        head = lp.head
        idx = (np.searchsorted(head.t, math.log(eternal_n3.profile.r_end)) + head.t.size) // 2
        bad_g = head.z.copy()
        bad_g[idx] = 3.0 * head.y[idx]
        bad_lp = dataclasses.replace(lp, head=dataclasses.replace(head, z=bad_g))
        bad_sol = dataclasses.replace(eternal_n3, logprofile=bad_lp)
        entry = check_pointwise(bad_sol).entry("dv_sign")
        assert not entry.passed
        assert entry.location == pytest.approx(math.exp(lp.s[idx]))
        assert entry.location > eternal_n3.profile.r_end

    def test_margins_stable_under_tighter_tolerance(self, solved):
        for factor in (1.0, 0.1):
            p = Parameters(3, 0.2, 2.5, 1.0, 1.0)
            sol = solve_profile(p, SolveConfig(r_max=25.0).tightened(factor))
            assert check_pointwise(sol).overall


# alpha = beta*(n-2)/m exactly, where m*alpha/beta rounds above n-2
EXISTENCE_BOUND_ROWS = [
    (5, 0.08067719033842377, 37.185231506149805, 1.0, 1.0),
    (16, 0.7330431507290887, 19.098466421895527, 1.0, 1.0),
]
# alpha inside the eternal relation's REGIME_TOL band, above 2*beta/(1-m)
ETERNAL_ABOVE_ROW = (3, 0.2, 2.500000000125, 1.0, 1.0)
# REGIME_TOL*scale/(1-m): the alpha width of the eternal match at n = 3, m = 0.2, beta = 1 (scale = 4)
_ETERNAL_BAND = REGIME_TOL * 4.0 / 0.8
BOUNDARY_ROWS = [
    *EXISTENCE_BOUND_ROWS,
    (3, 0.2, 5.0, 1.0, 1.0),  # the existence bound, exact in floating point
    ETERNAL_ABOVE_ROW,
    *((3, 0.2, 2.5 + f * _ETERNAL_BAND, 1.0, 1.0) for f in (0.5, -0.5, 2.0, -2.0)),
    (4, 1 / 3, 3.0, 1.0, 1.0),  # eternal, 2*beta/(1-m) rounds below alpha
    (3, 0.2, 0.0, 1.0, 1.0),
    (3, 1 / 3, 3.0, 1.0, 1.0),  # the endpoint m, eternal and on the existence bound
    (4, 0.5, -1.0, 1.0, 1.0),
]


def _model_verdicts(p):
    """Each entry's applicability as ``model.check_hypotheses`` decides it (at the default s_end)."""
    hyp = check_hypotheses(p)
    h1 = p.alpha != 0.0 and hyp.existence_ok
    h = p.alpha > 0.0 and (hyp.power_decay_ok or hyp.log_decay_ok)
    exact = hyp.exact_decay_ok
    return {
        "dv_sign": True, "v_between_0_eta": p.alpha > 0.0, "h1_positive": h1, "w1_increasing": h1,
        "h_positive": h, "w_increasing": h, "slope_ratio_bound": exact, "ws_positive_bounded": exact,
        "w_unbounded": exact, "flux_identity": True, "q_identity": exact, "q_boundary_decay": exact,
    }


class TestApplicability:
    @pytest.mark.parametrize("row", EXISTENCE_BOUND_ROWS, ids=str)
    def test_h1_applies_on_the_existence_bound(self, solved, row):
        rep = check_pointwise(solved(*row))
        for name in ("h1_positive", "w1_increasing"):
            assert rep.entry(name).applicable and rep.entry(name).passed, name

    def test_h_applies_inside_the_eternal_band(self, solved):
        assert check_hypotheses(Parameters(*ETERNAL_ABOVE_ROW)).log_decay_ok
        rep = check_pointwise(solved(*ETERNAL_ABOVE_ROW))
        for name in ("h_positive", "w_increasing"):
            assert rep.entry(name).applicable and rep.entry(name).passed, name

    @pytest.mark.parametrize("row", BOUNDARY_ROWS, ids=str)
    def test_every_entry_applies_as_model_decides(self, solved, row):
        rep = run_all_checks(solved(*row))
        assert {e.name: e.applicable for e in rep.entries} == _model_verdicts(Parameters(*row))
        assert rep.overall


class TestSlopeBounds:
    def test_flat_branch_bound_is_two(self, eternal_n3):
        # at m = (n-2)/(n+2) the bound (1-m)*sqrt(b1)/m equals the exact
        # origin limit of r*w_r/w, so the margin grazes zero
        rep = check_slope_bounds(eternal_n3)
        assert rep.overall
        entry = rep.entry("slope_ratio_bound")
        assert "2" in entry.note
        assert entry.worst_margin >= -1e-7
        assert entry.worst_margin < 1e-4  # genuinely sharp

    def test_negative_b0_branch(self, solved):
        rep = check_slope_bounds(solved(5, 0.5, 4.0, 1.0))
        assert rep.overall
        assert "b2" in rep.entry("slope_ratio_bound").note

    def test_not_applicable_off_the_eternal_relation(self, solved):
        rep = check_slope_bounds(solved(3, 0.2, 0.0, 1.0))
        assert all(not e.applicable for e in rep.entries)
        assert rep.overall

    def test_w_growth_entry(self, eternal_n3):
        entry = check_slope_bounds(eternal_n3).entry("w_unbounded")
        assert entry.passed and entry.worst_margin > 0.0

    def test_w_growth_is_scale_aware(self, solved):
        # near m = (n-2)/n the constant a0 is small and w grows slowly, yet
        # w_s stays above 1.19*a0: w(s_end) < 10*w(0) must not fail the case
        m = 0.98 / 3.0
        entry = check_slope_bounds(solved(3, m, 4.0 / (1.0 - m), 2.0)).entry("w_unbounded")
        assert entry.passed
        assert entry.worst_margin == pytest.approx(0.69, abs=0.01)


class TestFluxIdentity:
    # the r-chart's pieces grow long at alpha = 0, and the flux integrand
    # rho^(n-1) * eta has degree n - 1: an 8-point rule is exact only to n = 16
    @pytest.mark.parametrize(
        "n, r_max",
        [(3, None), (25, None), (40, None), (60, None), (200, None), (25, 25.0), (30, 25.0), (200, 25.0)],
        ids=["3", "25", "40", "60", "200", "25-r_max25", "30-r_max25", "200-r_max25"],
    )
    def test_constant_solution_balances_exactly(self, solved, n, r_max):
        rep = check_flux_identity(solved(n, 0.2, 0.0, 1.0, **({} if r_max is None else {"r_max": r_max})))
        assert rep.overall
        # both sides vanish; mismatch is pure rounding, far inside threshold
        assert rep.entry("flux_identity").worst_margin > 0.0

    # rho^199 times a septic r-chart piece needs 103 points to be exact
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    @pytest.mark.parametrize("mfrac", [0.1, 0.5, 0.99])
    def test_holds_at_n_200(self, solved, alpha, mfrac):
        assert check_flux_identity(solved(200, mfrac * 198 / 200, alpha, 1.0)).overall

    @pytest.mark.parametrize("alpha", [2.5, 1.25, -1.0])
    def test_holds_along_computed_solutions(self, solved, alpha):
        sol = solved(3, 0.2, alpha, 1.0, r_max=25.0)
        rep = check_flux_identity(sol, quad_tol=1e-10)
        assert rep.overall

    def test_higher_dimension(self, solved):
        rep = check_flux_identity(solved(5, 0.5, 4.0, 1.0, r_max=25.0))
        assert rep.overall

    # The log chart serves r = 5 at the default r_max. With w_s read as
    # g + sigma*w past the DOP853 stretch, each row's flux margin there read
    # -2.8e-9 to -3.2e-7; w_s is the derivative of the Hermite w wherever the
    # chart was stepped.
    @pytest.mark.parametrize(
        "n, m, alpha",
        [(40, 0.095, 200.0), (100, 0.098, 500.0), (100, 0.49, 100.0)]
        + [(n, m, eternal_alpha(m, 1.0)) for n, m in ((60, 0.957), (100, 0.9702), (150, 0.9768))]
        + [(n, m, (n - 2) / m) for n, m in ((40, 0.095), (100, 0.098), (200, 0.495), (200, 0.099))],
    )
    def test_holds_where_the_log_chart_serves_at_large_n(self, solved, n, m, alpha):
        assert run_all_checks(solved(n, m, alpha, 1.0)).overall

    # about 10x the errors read here; w_s as g + sigma*w past the DOP853
    # stretch read 1.3e-7 and 5.6e-7
    @pytest.mark.parametrize("n, m, alpha, bound", [(40, 0.095, 200.0, 1.2e-8), (100, 0.098, 500.0, 8.4e-8)])
    def test_log_chart_slope_at_large_n(self, solved, n, m, alpha, bound):
        r = np.geomspace(1.0, 20.0, 600)
        ref = solve_profile(Parameters(n, m, alpha, 1.0, 1.0), SolveConfig().tightened(1e-3)).dv(r)
        assert np.max(np.abs(solved(n, m, alpha, 1.0).dv(r) - ref) / np.abs(ref)) < bound


# radii ** (n-1) in the check and rho^(n-1) in _moment's cumulative sweep pass
# the float range at r = 20 from n = 238 on
@pytest.mark.parametrize("n", [237, 238])
def test_flux_identity_stays_in_the_float_range(n):
    sol = solve_profile(Parameters(n, 0.2, 1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_flux_identity(sol).overall


class TestQIdentity:
    def test_holds_on_eternal_case(self, eternal_n3):
        rep = check_q_identity(eternal_n3, quad_tol=1e-10)
        assert rep.overall
        assert rep.entry("q_identity").passed
        assert rep.entry("q_boundary_decay").passed

    def test_not_applicable_without_eternal_relation(self, solved):
        rep = check_q_identity(solved(3, 0.2, 1.25, 1.0))
        assert all(not e.applicable for e in rep.entries)

    def test_boundary_factor_decreases(self, eternal_n3):
        entry = check_q_identity(eternal_n3).entry("q_boundary_decay")
        assert entry.worst_margin > 0.5  # roughly a power law in r

    # at n = 200, r^b0 underflows at r = 1e-4 and a power of the log chart's
    # last radius e^40 overflows; neither may be taken
    @pytest.mark.parametrize("m", [0.099, 0.495])
    def test_eternal_rows_at_n_200_raise_no_warning(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_profile(Parameters(n=200, m=m, alpha=eternal_alpha(m, 1.0), beta=1.0, eta=1.0))
            rep = check_q_identity(sol)
        assert all(e.applicable and e.passed for e in rep.entries)


class TestRunAll:
    def test_merged_report(self, eternal_n3):
        rep = run_all_checks(eternal_n3)
        assert rep.overall
        names = [e.name for e in rep.entries]
        assert len(names) == len(set(names))
        assert "flux_identity" in names and "slope_ratio_bound" in names

    def test_node_view_is_built_once_per_solution(self, monkeypatch):
        built = []
        original = integrate.ChartNodes

        def counted(**fields):
            built.append(fields["seam"])
            return original(**fields)

        monkeypatch.setattr(integrate, "ChartNodes", counted)
        sol = solve_profile(Parameters(n=3, m=0.2, alpha=2.5, beta=1.0, eta=1.0))
        merged = run_all_checks(sol)
        # both checks that read the nodes apply on the eternal row, and share one view
        singles = [e for check in (check_pointwise, check_slope_bounds) for e in check(sol).entries]
        assert len(built) == 1 and all(e.applicable for e in singles)
        assert singles == [merged.entry(e.name) for e in singles]

    def test_all_pass_near_range_endpoint(self, solved):
        # p1 = (n-2-nm)/(1-m) = 0.0297: the q integral's series piece is
        # taken in closed form, at the unchanged 1e-7 threshold
        rep = run_all_checks(solved(*NEAR_ENDPOINT))
        assert rep.overall
        assert rep.entry("q_identity").worst_margin > 0.0

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(3, 7),
        mfrac=st.floats(0.0, 1.0),
        log_beta=st.floats(math.log(0.2), math.log(5.0)),
        afrac=st.floats(0.0, 1.0),
    )
    def test_all_pass_across_the_admissible_range_at_eta_one(self, n, mfrac, log_beta, afrac):
        # m in [0.02, 0.98*(n-2)/n], beta log-uniform on [0.2, 5], alpha in [-2*beta, beta*(n-2)/m]
        m = 0.02 + mfrac * (0.98 * (n - 2) / n - 0.02)
        beta = math.exp(log_beta)
        bound = beta * (n - 2) / m
        alpha = bound - (1.0 - afrac) * (bound + 2.0 * beta)  # exactly the bound at afrac = 1
        assert run_all_checks(solve_profile(Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=1.0))).overall

    @pytest.mark.parametrize("row", INVARIANT_GRID, ids=str)
    def test_all_pass_with_the_r_chart_ending_past_the_seam(self, solved, row):
        # the shortest r-chart solve_profile takes: the log chart alone covers r > 2
        sol = solved(*row, r_max=2.0 * integrate.R_HANDOFF)
        assert sol.profile.r_end == 2.0 * integrate.R_HANDOFF
        assert run_all_checks(sol).overall


# Eternal case close to m = (n-2)/n, at the default SolveConfig.
_M_NEAR_END = 0.98 / 3.0
NEAR_ENDPOINT = (3, _M_NEAR_END, 4.0 / (1.0 - _M_NEAR_END), 2.0)


def _with_radii(sol):
    """(solution, radii both identities use there, whether the q identity applies)."""
    radii = invariants._IDENTITY_RADII[invariants._IDENTITY_RADII <= sol.r_cover]
    return sol, radii, check_hypotheses(sol.params).exact_decay_ok


@pytest.fixture(scope="module")
def grid(solved):
    """The acceptance invariant grid as solved there, with the radii both identities use."""
    return [_with_radii(solved(n, m, alpha, beta, eta, r_max=25.0)) for n, m, alpha, beta, eta in INVARIANT_GRID]


class TestGaussLegendre:
    def test_exact_for_degree_15_on_every_piece(self):
        coeffs = np.arange(1.0, 17.0)
        exact = np.polynomial.polynomial.polyval(2.0, np.polynomial.polynomial.polyint(coeffs))
        breaks = np.array([-1.0, 0.3, 0.7, 1.1, 2.5])
        got = invariants.quad(lambda x: np.polynomial.polynomial.polyval(x, coeffs), 0.0, 2.0, breaks, 8)
        assert got == pytest.approx(exact, rel=1e-14)

    def test_moment_is_exact_for_a_septic_at_p_40(self, solved):
        # rho^39 times a septic has degree 46, and the rule _moment picks for
        # p = 40 is exact for it. The alpha = 0 r-chart has pieces as long as
        # [1.6, 11.6], where 8 points are 1e-3 off.
        sol = solved(3, 0.2, 0.0, 1.0, r_max=25.0)
        septic = np.arange(1.0, 9.0)
        lo = sol.profile.r_start
        radii = invariants._IDENTITY_RADII
        got = invariants._moment(sol, radii, 40, lambda x: np.polynomial.polynomial.polyval(x, septic), np.zeros(1))
        powers = 40 + np.arange(septic.size)
        exact = [np.sum(septic * (r**powers - lo**powers) / powers) / r**39 for r in radii]
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)

    # the 1e-14 reference reaches roundoff on some pieces, which quadpack reports
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_flux_integral_matches_adaptive_quadrature(self, grid):
        # a 1e-10 request is 3.4e-11 off the 1e-14 reference, a third of the bound
        for sol, radii, _ in grid:
            n = sol.params.n
            for r in radii:
                ref, _ = adaptive_quad(
                    lambda rho: rho ** (n - 1) * sol.v(rho), 0.0, r, epsabs=1e-14, epsrel=1e-14, limit=5000
                )
                assert invariants._flux_integral(sol, r) == pytest.approx(ref / r ** (n - 1), rel=1e-12, abs=0.0)

    # the 1e-14 reference reaches roundoff on some pieces, which quadpack reports
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_q_integral_matches_adaptive_quadrature(self, grid, solved):
        checked = 0
        for sol, radii, eternal in grid + [_with_radii(solved(*NEAR_ENDPOINT))]:
            if not eternal:
                continue
            p = sol.params
            dc = derived(p)
            mexp = p.m / (1.0 - p.m)

            def smooth_part(rho):
                if rho <= 0.0:
                    return p.eta**p.m * dc.a0
                w, q = sol.w_q(rho)
                return (w / (rho * rho)) ** mexp * (dc.a0 - q)

            edge = dc.b0 - 1.0 + 2.0 * mexp
            # the dense output jumps by the charts' overlap error at the seam,
            # so a radius beyond it gets the seam as a break; the reference runs
            # at 1e-14, since a 1e-10 request is 5e-10 off it near the endpoint
            # at r = 20, half the bound
            seam = sol.profile.r_end
            for r in radii:
                ref, _ = adaptive_quad(
                    smooth_part, 0.0, min(r, seam), weight="alg", wvar=(edge, 0.0),
                    epsabs=1e-14, epsrel=1e-14, limit=5000,
                )
                if r > seam:
                    ref += adaptive_quad(
                        lambda rho: rho**edge * smooth_part(rho), seam, r, epsabs=1e-14, epsrel=1e-14, limit=5000
                    )[0]
                assert invariants._q_integral(sol, r) == pytest.approx(ref / r**edge, rel=1e-9, abs=0.0)
                checked += 1
        assert checked >= 24

    def test_each_rule_agrees_with_eight_more_points(self, grid, monkeypatch):
        def integrals():
            out = []
            for sol, radii, eternal in grid:
                for r in radii:
                    out.append(invariants._flux_integral(sol, r))
                    if eternal:
                        out.append(invariants._q_integral(sol, r))
            return out

        chosen = integrals()
        rule = invariants._rule
        monkeypatch.setattr(invariants, "_rule", lambda points: rule(points + 8))
        np.testing.assert_allclose(chosen, integrals(), rtol=1e-13, atol=0.0)

    def test_one_sweep_matches_a_rule_per_radius(self, grid, monkeypatch):
        # both identities read every radius off one sweep; the reference
        # integrates rho^(p-1)*f over [a, r] afresh for each radius r and
        # divides by r^(p-1) (n <= 6 here, so no power leaves the float range)
        def per_radius(f, a, b, breaks, points, p):
            gl_x, gl_w = invariants._rule(points)
            out = []
            for r in np.atleast_1d(b):
                x = np.concatenate(([a], breaks[(breaks > a) & (breaks < r)], [r]))
                half = 0.5 * np.diff(x)
                nodes = (x[:-1] + half)[:, None] + half[:, None] * gl_x
                out.append(half @ ((nodes ** (p - 1) * f(nodes.ravel()).reshape(nodes.shape)) @ gl_w) / r ** (p - 1))
            return np.array(out)

        def integrals():
            out = []
            for sol, radii, eternal in grid:
                out.append(invariants._flux_integral(sol, radii))
                if eternal:
                    out.append(invariants._q_integral(sol, radii))
            return out

        swept = integrals()
        monkeypatch.setattr(invariants, "quad", per_radius)
        for got, ref in zip(swept, integrals()):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_grid_has_a_non_integer_moment_power(self, grid):
        # n = 5, m = 3/7: the q integral is a moment of rho^(p1-1) with p1 = (n-2-nm)/(1-m) = 1.5
        p1s = [(p.n - 2 - p.n * p.m) / (1.0 - p.m) for p in (s.params for s, _, e in grid if e)]
        assert any(p1 == pytest.approx(1.5, rel=1e-14) for p1 in p1s)
