import dataclasses
import math

import numpy as np
import pytest

from fdprofiles import (
    OutOfRange,
    Regime,
    RegimeMismatch,
    SelfSimilarSolution,
    build_selfsimilar,
    pde_residual,
)
from fdprofiles import selfsim
from fdprofiles.selfsim import residual_grid
from fdprofiles.series import libm_pow


@pytest.fixture(scope="module")
def eternal_wide(solved):
    return solved(3, 0.2, 2.5, 1.0, r_max=8.0)


@pytest.fixture(scope="module")
def forward_sol(solved):
    return solved(3, 0.2, 1.25, 1.0, r_max=9.0)


@pytest.fixture(scope="module")
def backward_sol(solved):
    return solved(3, 0.2, 3.75, 1.0, r_max=14.0)


class TestBuild:
    def test_eternal_anchor_at_time_zero(self, eternal_wide):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        for r in (0.5, 1.0, 3.0):
            assert ss.value(r, 0.0) == pytest.approx(eternal_wide.v(r), rel=1e-14)

    def test_forward_anchor_at_time_one(self, forward_sol):
        ss = build_selfsimilar(forward_sol, Regime.FORWARD)
        for r in (0.5, 2.0):
            assert ss.value(r, 1.0) == pytest.approx(forward_sol.v(r), rel=1e-14)

    def test_backward_anchor_one_before_horizon(self, backward_sol):
        ss = build_selfsimilar(backward_sol, Regime.BACKWARD, T=2.0)
        for r in (0.5, 2.0):
            assert ss.value(r, 1.0) == pytest.approx(backward_sol.v(r), rel=1e-14)

    def test_regime_mismatch_rejected(self, eternal_wide):
        with pytest.raises(RegimeMismatch):
            build_selfsimilar(eternal_wide, Regime.FORWARD)

    def test_backward_needs_horizon(self, backward_sol):
        with pytest.raises(RegimeMismatch):
            build_selfsimilar(backward_sol, Regime.BACKWARD)

    def test_generic_rejected(self, solved):
        sol = solved(3, 0.2, 0.7, 1.0)
        with pytest.raises(RegimeMismatch):
            build_selfsimilar(sol, Regime.ETERNAL)

    def test_time_domains_enforced(self, forward_sol, backward_sol):
        fwd = build_selfsimilar(forward_sol, Regime.FORWARD)
        with pytest.raises(OutOfRange):
            fwd.value(1.0, 0.0)
        bwd = build_selfsimilar(backward_sol, Regime.BACKWARD, T=2.0)
        with pytest.raises(OutOfRange):
            bwd.value(1.0, 2.0)


    @pytest.mark.parametrize("regime, T", [(Regime.FORWARD, None), (Regime.BACKWARD, 2.0)])
    def test_arrays_broadcast_like_scalar_calls(self, forward_sol, backward_sol, regime, T):
        sol = forward_sol if regime is Regime.FORWARD else backward_sol
        ss = build_selfsimilar(sol, regime, T=T)
        r = np.array([[0.5, 1.0, 2.0]])
        t = np.array([[0.8], [1.0], [1.25]])
        u = ss.value(r, t)
        chain = ss.time_derivative_chain(r, t)
        assert u.shape == chain.shape == (3, 3)
        for i, ti in enumerate(t[:, 0]):
            for j, rj in enumerate(r[0]):
                assert u[i, j] == pytest.approx(ss.value(rj, ti), rel=1e-14)
                assert chain[i, j] == pytest.approx(ss.time_derivative_chain(rj, ti), rel=1e-14)

    def test_time_domain_enforced_on_arrays(self, forward_sol):
        fwd = build_selfsimilar(forward_sol, Regime.FORWARD)
        with pytest.raises(OutOfRange):
            fwd.value(1.0, np.array([1.0, 0.5, -0.1]))


class TestResidual:
    def test_constant_solution_is_exact(self, solved):
        sol = solved(3, 0.2, 0.0, 1.0)
        ss = SelfSimilarSolution(
            regime=Regime.ETERNAL, solution=sol, n=3, m=0.2, alpha=0.0, beta=1.0
        )
        stats = pde_residual(ss, radii=(0.5, 1.0, 2.0), times=(-0.2, 0.0, 0.2))
        assert stats.max_rel_residual < 1e-10

    def test_eternal_residual_small_and_second_order(self, eternal_wide):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        stats = pde_residual(ss)
        assert stats.max_rel_residual < 1e-5
        assert 1.8 <= stats.order_estimate <= 2.2
        assert stats.chain_rule_max_rel_diff < 1e-5

    def test_forward_residual(self, forward_sol):
        stats = pde_residual(build_selfsimilar(forward_sol, Regime.FORWARD))
        assert stats.max_rel_residual < 1e-5
        assert 1.8 <= stats.order_estimate <= 2.2
        assert stats.chain_rule_max_rel_diff < 1e-5

    def test_backward_residual(self, backward_sol):
        stats = pde_residual(build_selfsimilar(backward_sol, Regime.BACKWARD, T=2.0))
        assert stats.max_rel_residual < 1e-5
        assert 1.8 <= stats.order_estimate <= 2.2
        assert stats.chain_rule_max_rel_diff < 1e-5

    def test_perturbed_exponent_detected(self, eternal_wide):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        base = pde_residual(ss).max_rel_residual
        bad = dataclasses.replace(ss, alpha=1.01 * ss.alpha)
        assert pde_residual(bad).max_rel_residual >= 100.0 * base

    def test_stencil_past_the_log_charts_switch_is_read(self, solved):
        # at r = 1e5 (s = 11.5) every stencil point of the eternal chart is past qss_switch_s = 9.4, so v and
        # v' are read on stacked arrays that lie wholly on the slow tail
        sol = solved(6, 0.25, 8.0 / 3.0, 1.0)
        assert sol.logprofile.qss_switch_s < math.log(0.9e5)
        stats = pde_residual(build_selfsimilar(sol, Regime.ETERNAL), radii=(1e5,))
        assert np.isfinite(stats.max_rel_residual) and np.isfinite(stats.chain_rule_max_rel_diff)

    def test_out_of_range_stencil_rejected(self, eternal_wide):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        with pytest.raises(OutOfRange):
            pde_residual(ss, radii=(1.0, 1e20), times=(0.0,))

    @pytest.mark.parametrize("steps, name, centre", [
        ({"h": 1e-17}, "h", "0.5"), ({"h": 1e-300}, "h", "0.5"), ({"dt": 1e-300}, "dt", "-0.2"),
    ])
    def test_step_that_leaves_a_centre_in_place_rejected(self, eternal_wide, steps, name, centre):
        # r -/+ h/2 rounds to r (or t -/+ dt/2 to t): both sides of the PDE would read 0, or NaN
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        with pytest.raises(ValueError, match=f"^{name}/2 = .* leaves {centre} on its centre"):
            pde_residual(ss, **steps)

    @pytest.mark.parametrize(
        "steps, name",
        [({"h": 0.0}, "h"), ({"h": -1e-3}, "h"), ({"h": math.nan}, "h"), ({"dt": -1.0}, "dt"), ({"dt": math.inf}, "dt")],
    )
    def test_step_that_is_not_positive_rejected(self, eternal_wide, steps, name):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            pde_residual(ss, **steps)

    @pytest.mark.parametrize("grid", ["radii", "times"])
    def test_empty_grid_rejected(self, eternal_wide, grid):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        with pytest.raises(ValueError, match=f"^{grid} is empty"):
            pde_residual(ss, **{grid: ()})

    @pytest.mark.parametrize("radii, lowest", [((0.0, 1.0), "-0.001"), ((0.0005, 1.0), "-0.0005")])
    def test_stencil_below_origin_rejected(self, eternal_wide, radii, lowest):
        ss = build_selfsimilar(eternal_wide, Regime.ETERNAL)
        with pytest.raises(ValueError, match=f"stencil reaches r = {lowest};"):
            pde_residual(ss, radii=radii, times=(0.0,))

    @pytest.mark.parametrize("grid, values", [
        ("radii", (math.nan,)), ("radii", (1.0, math.inf)), ("times", (math.nan,)), ("times", (0.0, -math.inf)),
    ])
    def test_grid_that_is_not_finite_rejected(self, grid, values):
        # checked without a solve: residual_grid needs the regime alone
        with pytest.raises(ValueError, match=f"^{grid} must be finite"):
            residual_grid(Regime.ETERNAL, **{grid: values})

    @pytest.mark.parametrize("regime, T, times, reach", [
        (Regime.FORWARD, None, (0.0005, 1.0), "t = -0.0005; forward"),
        (Regime.FORWARD, None, (0.001,), "t = 0; forward"),
        (Regime.BACKWARD, 2.0, (1.0, 1.9995), "t = 2.001; backward"),
    ])
    def test_time_stencil_outside_the_regime_rejected(self, regime, T, times, reach):
        with pytest.raises(ValueError, match=f"stencil reaches {reach}"):
            residual_grid(regime, T, times=times)

    @pytest.mark.parametrize("regime, T, t_lo, t_hi", [
        (Regime.ETERNAL, None, -0.2, 0.2), (Regime.FORWARD, None, 0.8, 1.25), (Regime.BACKWARD, 2.0, 0.5, 1.4),
    ])
    def test_value_has_the_same_bits_alone_or_in_an_array(
        self, eternal_wide, forward_sol, backward_sol, regime, T, t_lo, t_hi
    ):
        # the stencil's h/2 residual turns one last-bit difference into ~1% of itself
        sol = {Regime.ETERNAL: eternal_wide, Regime.FORWARD: forward_sol}.get(regime, backward_sol)
        ss = build_selfsimilar(sol, regime, T=T)
        r = np.linspace(0.5, 5.0, 11)
        times = np.linspace(t_lo, t_hi, 41)
        for evaluate in (ss.value, ss.time_derivative_chain):
            grid = evaluate(r[None, :], times[:, None])
            assert np.array_equal(grid, [[evaluate(float(x), float(t)) for x in r] for t in times])

    @pytest.mark.parametrize(
        "regime, T, times",
        [
            (Regime.ETERNAL, None, (-0.2, 0.0, 0.2)),
            (Regime.FORWARD, None, (0.8, 1.0, 1.25)),
            (Regime.BACKWARD, 2.0, (0.5, 1.0, 1.4)),
        ],
    )
    def test_array_stencil_matches_pointwise_loop(
        self, eternal_wide, forward_sol, backward_sol, regime, T, times
    ):
        # reference: the stencil evaluated one (r, t) point at a time through scalar calls
        sol = {Regime.ETERNAL: eternal_wide, Regime.FORWARD: forward_sol}.get(regime, backward_sol)
        ss = build_selfsimilar(sol, regime, T=T)
        eps = 1e-12 * sol.params.eta

        def loop_residual(h, dt):
            worst = chain_worst = 0.0
            for t in times:
                for r in (0.5, 1.0, 2.0, 5.0):
                    u_t = (ss.value(r, t + dt) - ss.value(r, t - dt)) / (2.0 * dt)
                    fp, f0, fm = (ss.value(r + d, t) ** ss.m for d in (h, 0.0, -h))
                    lap = (fp - 2.0 * f0 + fm) / (h * h) + (ss.n - 1) / r * (fp - fm) / (2.0 * h)
                    rhs = (ss.n - 1) / ss.m * lap
                    worst = max(worst, abs(u_t - rhs) / (abs(u_t) + abs(rhs) + eps))
                    chain = ss.time_derivative_chain(r, t)
                    chain_worst = max(chain_worst, abs(u_t - chain) / (abs(u_t) + abs(chain) + eps))
            return worst, chain_worst

        stats = pde_residual(ss)
        full, chain = loop_residual(1e-3, 1e-3)
        half, _ = loop_residual(5e-4, 5e-4)
        # the h/2 stencil amplifies last-digit differences of array arithmetic
        assert stats.max_rel_residual == pytest.approx(full, rel=1e-6)
        assert stats.max_rel_residual_half == pytest.approx(half, rel=1e-6)
        assert stats.chain_rule_max_rel_diff == pytest.approx(chain, rel=1e-6)

    @pytest.mark.parametrize("regime, T", [(Regime.ETERNAL, None), (Regime.FORWARD, None), (Regime.BACKWARD, 2.0)])
    def test_stacked_stencil_has_the_bits_of_per_call_evaluation(
        self, eternal_wide, forward_sol, backward_sol, regime, T, monkeypatch
    ):
        sol = {Regime.ETERNAL: eternal_wide, Regime.FORWARD: forward_sol}.get(regime, backward_sol)
        ss = build_selfsimilar(sol, regime, T=T)
        calls = {"v": 0, "dv": 0}
        for name in calls:
            def counted(self, r, _method=getattr(type(sol), name), _name=name):
                calls[_name] += 1
                return _method(self, r)
            monkeypatch.setattr(type(sol), name, counted)
        stats = pde_residual(ss)
        # one v and one dv call per stencil, at h and at h/2
        assert calls == {"v": 2, "dv": 2}

        def per_call(ss, radii, times, h, dt, eps_scale):
            # the stencil read through value and time_derivative_chain, one call per stencil row
            r = np.asarray(radii, dtype=float)[None, :]
            t = np.asarray(times, dtype=float)[:, None]
            u_t = (ss.value(r, t + dt) - ss.value(r, t - dt)) / (2.0 * dt)
            f0 = libm_pow(ss.value(r, t), ss.m)
            fp = libm_pow(ss.value(r + h, t), ss.m)
            fm = libm_pow(ss.value(r - h, t), ss.m)
            lap = (fp - 2.0 * f0 + fm) / (h * h) + (ss.n - 1) / r * (fp - fm) / (2.0 * h)
            rhs = (ss.n - 1) / ss.m * lap
            resid = np.abs(u_t - rhs) / (np.abs(u_t) + np.abs(rhs) + eps_scale)
            chain = ss.time_derivative_chain(r, t)
            chain_gap = np.abs(u_t - chain) / (np.abs(u_t) + np.abs(chain) + eps_scale)
            return float(np.max(resid)), float(np.max(chain_gap))

        monkeypatch.setattr(selfsim, "_max_residual", per_call)
        assert stats == pde_residual(ss)
        assert calls == {"v": 2 + 12, "dv": 2 + 2}
