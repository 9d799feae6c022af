import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fdprofiles import (
    HypothesisViolation,
    LogProfile,
    Parameters,
    SolveConfig,
    double_limit_check,
    limit_convergence,
    log_chart_of_log_equation,
    solve_log_equation,
    solve_profile,
)
from fdprofiles import integrate, loglimit
from fdprofiles.decay import tail_limit_fit


def curvature_oracle(n, alpha, beta, eta, r_eval=5e-3):
    """Independent r^2-coefficient estimate for the log-diffusion equation,
    via its second-order form and a flat start just off the origin."""

    def rhs(r, y):
        u, du = y
        return [du, du * du / u - (n - 1) * du / r - u * (alpha * u + beta * r * du) / (n - 1)]

    sol = solve_ivp(
        rhs, (1e-8, r_eval), [eta, 0.0], method="DOP853", rtol=1e-13, atol=1e-16,
        dense_output=True,
    )
    assert sol.success
    est = lambda r: (sol.sol(r)[0] - eta) / r**2
    c_h, c_h2 = est(r_eval), est(r_eval / 2.0)
    return c_h2 + (c_h2 - c_h) / 3.0


class TestLogEquation:
    def test_constant_solution_for_alpha_zero(self):
        prof = solve_log_equation(3, 0.0, 1.0, 1.0, 10.0)
        assert np.all(prof.v == 1.0)
        assert np.all(prof.dv == 0.0)

    def test_curvature_coefficient(self):
        prof = solve_log_equation(3, 2.0, 1.0, 1.0, 5.0)
        assert prof.series.c2 == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert np.all(np.diff(prof.v) < 0)  # decreasing for alpha > 0

    @pytest.mark.parametrize(
        "n,alpha,beta,eta", [(3, 2.0, 1.0, 1.0), (3, 1.0, 1.0, 1.0), (4, 2.0, 1.0, 0.5)]
    )
    def test_seed_matches_finite_difference_oracle(self, n, alpha, beta, eta):
        prof = solve_log_equation(n, alpha, beta, eta, 1.0)
        assert curvature_oracle(n, alpha, beta, eta) == pytest.approx(prof.series.c2, rel=1e-6)

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolation):
            solve_log_equation(3, 1.0, -1.0, 1.0, 10.0)

    def test_eta_that_is_not_positive_is_rejected(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            solve_log_equation(3, 1.0, 1.0, 0.0, 10.0)

    @pytest.mark.parametrize(
        "n,alpha,beta,eta", [(3, 2.0, 1.0, 1.0), (3, 1.0, 1.0, 1.0), (3, -1.0, 1.0, 1.0), (4, 2.0, 1.0, 0.5)]
    )
    def test_dense_output_between_nodes(self, n, alpha, beta, eta):
        # an independent route: the once-integrated (u, I) system, I' = r^(n-1)*u,
        # from the same seed under scipy, far tighter; read at nodes and midpoints.
        # I(r0) is the origin series integrated term by term: u = eta*sum a_k*y^k
        # with y = scale*r^2
        r_max = 10.0
        prof = solve_log_equation(n, alpha, beta, eta, r_max)
        r0, se = prof.r_start, prof.series
        y0 = se.scale * r0 * r0
        i0 = eta * r0**n * sum(a * y0**k / (2 * k + n) for k, a in enumerate(se.coeffs))

        def rhs(r, y):
            u, acc = y
            return [u / (n - 1) * (-beta * r * u + (n * beta - alpha) * acc / r ** (n - 1)), r ** (n - 1) * u]

        ref = solve_ivp(rhs, (r0, r_max), [prof.v[0], i0], method="DOP853", rtol=1e-13, atol=1e-16,
                        dense_output=True)
        assert ref.success
        rr = np.sort(np.concatenate((prof.r, 0.5 * (prof.r[1:] + prof.r[:-1]))))
        u_ref = ref.sol(rr)[0]
        u, _ = prof.eval(rr)
        assert np.max(np.abs(u - u_ref) / u_ref) < 1e-9

    def test_log_corrected_tail(self):
        # alpha = 2*beta: r^2 u / log r approaches 2*(n-1)*(n-2)/beta
        lp = log_chart_of_log_equation(3, 2.0, 1.0, 1.0)
        sgrid = np.arange(10.0, 40.0 + 1e-9, 5.0)
        limit, _ = tail_limit_fit(sgrid[sgrid >= 20.0], lp.eval_ws(sgrid[sgrid >= 20.0]))
        assert limit == pytest.approx(4.0, rel=0.01)
        # the raw ratio w/s lags the slope but heads the same way
        assert lp.eval_w(40.0) / 40.0 == pytest.approx(4.0, rel=0.15)

    def test_log_chart_takes_the_eternal_tail(self):
        # alpha = 2*beta is the eternal relation at m = 0, so sigma = 0 and
        # the chart goes to the slow manifold once its fast mode has relaxed
        lp = log_chart_of_log_equation(3, 2.0, 1.0, 1.0)
        assert lp.sigma == 0.0
        assert lp.stiff_switch < lp.qss_switch_s < lp.s_end
        assert lp.qss_gap < 1e-9

    def test_direct_path_shows_log_growth(self):
        # without the log chart: r^2 u / log r at moderately large radius
        prof = solve_log_equation(3, 2.0, 1.0, 1.0, 1000.0)
        r = 1000.0
        u, _ = prof.eval(r)
        assert r * r * u / math.log(r) == pytest.approx(4.0, rel=0.25)

    def test_log_chart_has_the_bits_of_the_hand_built_composition(self):
        # the reference: the r-chart at m = 0 to r = 2, the handoff at r = 1, the log chart to s = 40
        prof = integrate.integrate_r(3, 0.0, 2.0, 1.0, 1.0, 2.0)
        start = integrate.handoff_to_log(prof, 0.0)
        ref = integrate.integrate_log(3, 0.0, 2.0, 1.0, start, 40.0)
        lp = log_chart_of_log_equation(3, 2, 1, 1)

        def same(got, want):
            if dataclasses.is_dataclass(want):  # the stepped head, a RawPath
                return all(same(getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(want)
                           if f.compare)
            return np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want

        for field in dataclasses.fields(LogProfile):
            assert same(getattr(lp, field.name), getattr(ref, field.name)), field.name
        for name in ("s", "w", "ws", "wss", "wsss", "g", "gs"):
            assert np.array_equal(getattr(lp, name), getattr(ref, name)), name


class TestCrossSolverAgreement:
    def test_direct_and_chart_paths_agree(self):
        n, alpha, beta, eta = 3, 1.0, 1.0, 1.0
        prof = solve_log_equation(n, alpha, beta, eta, 10.0)
        lp = log_chart_of_log_equation(n, alpha, beta, eta)
        rr = np.geomspace(1.0, 10.0, 41)
        u_direct, _ = prof.eval(rr)
        w_direct = rr * rr * u_direct
        w_chart = lp.eval_w(np.log(rr))
        rel = np.max(np.abs(w_direct - w_chart) / w_chart)
        assert rel < 100.0 * max(prof.rtol, lp.rtol)


class TestLimitConvergence:
    def test_trivial_for_alpha_zero(self):
        rep = limit_convergence(3, 0.0, 1.0, 1.0, m_list=(0.2, 0.1), r_max=5.0)
        assert rep.sup_errors == (0.0, 0.0)

    def test_uniform_convergence_reference_case(self):
        rep = limit_convergence(3, 1.0, 1.0, 1.0)
        assert rep.m_values == (0.2, 0.1, 0.05, 0.02, 0.01)
        errs = rep.sup_errors
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert rep.final_error < 1e-2
        assert rep.monotone

    def test_negative_alpha_family(self):
        rep = limit_convergence(3, -1.0, 1.0, 1.0, m_list=(0.2, 0.1, 0.05), r_max=10.0)
        errs = rep.sup_errors
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_rejects_inadmissible_member(self):
        # alpha > beta*(n-2)/m for the largest m in the list
        with pytest.raises(HypothesisViolation):
            limit_convergence(3, 6.0, 1.0, 1.0, m_list=(0.2, 0.1), r_max=5.0)

    @pytest.mark.parametrize("alpha, beta, field", [(6.0, 1.0, "existence_ok"), (1.0, -1.0, "limit_ok")])
    def test_rejects_before_solving(self, monkeypatch, alpha, beta, field):
        def no_solve(*args):
            raise AssertionError("limit_convergence solved before its check")

        monkeypatch.setattr(loglimit, "integrate_r", no_solve)
        with pytest.raises(HypothesisViolation, match=rf"\({field}\)"):
            limit_convergence(3, alpha, beta, 1.0, m_list=(0.2, 0.1), r_max=5.0)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan, 0.0, -5.0])
    def test_rejects_r_max_that_is_not_finite_and_positive(self, monkeypatch, r_max):
        def no_solve(*args):
            raise AssertionError("limit_convergence solved before its check")

        monkeypatch.setattr(loglimit, "integrate_r", no_solve)
        with pytest.raises(ValueError, match="r_max must be finite and positive"):
            limit_convergence(3, 1.0, 1.0, 1.0, m_list=(0.2, 0.1), r_max=r_max)

    def test_rejects_empty_m_list(self):
        with pytest.raises(ValueError, match="m_list is empty"):
            limit_convergence(3, 1.0, 1.0, 1.0, m_list=())

    def test_measures_the_profile_solve_profile_computes(self):
        # at eta = 1e4 and m = 0.02 the unshrunk origin seed's truncation
        # (2.2e-10*eta) misses the r-chart budget rtol*eta; v^(m) must be
        # seeded, and so integrated, exactly as solve_profile does it
        eta = 1e4
        rep = limit_convergence(3, 1.0, 1.0, eta, m_list=(0.05, 0.02))
        grid = np.linspace(0.0, rep.r_max, 1001)
        u, _ = solve_log_equation(3, 1.0, 1.0, eta, rep.r_max).eval(grid)
        for m, sup in zip(rep.m_values, rep.sup_errors):
            sol = solve_profile(Parameters(3, m, 1.0, 1.0, eta), SolveConfig(r_max=rep.r_max))
            v, _ = sol.profile.eval(grid)
            assert sup == float(np.max(np.abs(v - u)))

    def test_sup_error_scales_linearly_in_m(self):
        rep = limit_convergence(3, 1.0, 1.0, 1.0, m_list=(0.2, 0.1, 0.05))
        ratio10 = rep.sup_errors[0] / rep.sup_errors[1]
        ratio21 = rep.sup_errors[1] / rep.sup_errors[2]
        assert ratio10 == pytest.approx(2.0, rel=0.15)
        assert ratio21 == pytest.approx(2.0, rel=0.15)


class TestDoubleLimit:
    def test_both_orders_reach_the_same_constant(self):
        rep = double_limit_check(3, 1.0)
        assert rep.target == 4.0
        assert rep.rel_err_m_side < 0.02
        assert rep.rel_err_log_side < 0.02

    def test_m_side_is_the_default_solve_bit_for_bit(self):
        # the m side reads the log chart alone, so its r-chart stops past the seam
        from fdprofiles.decay import estimate_log_decay

        rep = double_limit_check(3, 1.0)
        full = [solve_profile(Parameters(3, m, 2.0 / (1.0 - m), 1.0, 1.0)) for m in rep.m_values]
        assert rep.a0_measured == tuple(estimate_log_decay(sol).extrapolated for sol in full)

    def test_beta_zero_is_refused_as_a_hypothesis(self):
        # the m = 0 target 2*(n-1)*(n-2)/beta is NaN there, and the first solve refuses beta = 0
        with pytest.raises(HypothesisViolation, match="existence_ok"):
            double_limit_check(3, 0.0)

    def test_gap_shrinks_along_the_family(self):
        rep = double_limit_check(3, 1.0)
        gaps = [abs(a - rep.target) for a in rep.a0_measured]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
