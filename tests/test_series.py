import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fdprofiles import OutOfRange, Parameters, eval_series, expand_at_origin, series_residual
from fdprofiles.series import seed_within


def P(alpha, n=3, m=0.2, beta=1.0, eta=1.0):
    return Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=eta)


def curvature_by_finite_difference(p, r_eval=5e-3):
    """Independent estimate of the r^2 coefficient: integrate the raw
    equation from just off the origin with a flat start (no expansion
    knowledge) and Richardson-extrapolate (v(r) - eta)/r^2."""

    def rhs(r, y):
        v, dv = y
        return [
            dv,
            (1 - p.m) * dv * dv / v
            - (p.n - 1) * dv / r
            - v ** (1 - p.m) * (p.alpha * v + p.beta * r * dv) / (p.n - 1),
        ]

    r0 = 1e-8
    sol = solve_ivp(
        rhs, (r0, r_eval), [p.eta, 0.0], method="DOP853", rtol=1e-13, atol=1e-16,
        dense_output=True,
    )
    assert sol.success
    est = lambda r: (sol.sol(r)[0] - p.eta) / r**2
    c_h, c_h2 = est(r_eval), est(r_eval / 2.0)
    return c_h2 + (c_h2 - c_h) / 3.0  # second-order Richardson


class TestCoefficient:
    def test_reference_value(self):
        se = expand_at_origin(P(2.5))
        assert se.c2 == pytest.approx(-2.5 / 12.0, rel=1e-15)

    def test_negative_alpha_flips_sign(self):
        se = expand_at_origin(P(-1.0))
        assert se.c2 == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_alpha_zero_gives_exact_constant(self):
        se = expand_at_origin(P(0.0))
        assert se.c2 == 0.0
        assert math.isinf(se.r_switch)
        assert se.truncation_estimate == 0.0

    @pytest.mark.parametrize("alpha", [2.5, -1.0, 0.7])
    def test_matches_finite_difference_oracle(self, alpha):
        p = P(alpha)
        se = expand_at_origin(p)
        assert curvature_by_finite_difference(p) == pytest.approx(se.c2, rel=1e-6)

    @pytest.mark.parametrize(
        "n,m,alpha,beta,eta",
        [(3, 0.2, 2.5, 1.0, 1.0), (4, 0.3, 1.5, 1.0, 2.0), (7, 0.0, -3.0, 0.5, 1e3), (10, 0.79, 20.0, 2.0, 3.0)],
    )
    def test_first_coefficient_in_closed_form(self, n, m, alpha, beta, eta):
        # c_1, the coefficient of x = r^2, from the coefficient list itself, m = 0 included
        se = seed_within(n, m, alpha, beta, eta, 1e-10)
        c1 = se.eta * se.scale * se.coeffs[1]
        assert c1 == pytest.approx(-alpha * eta ** (2.0 - m) / (2 * n * (n - 1)), rel=1e-14)

    def test_nontrivial_eta_and_m(self):
        p = P(1.5, n=4, m=0.3, eta=2.0)
        se = expand_at_origin(p)
        assert se.c2 == pytest.approx(-1.5 * 2.0 ** (1.7) / (2 * 4 * 3), rel=1e-14)
        assert curvature_by_finite_difference(p) == pytest.approx(se.c2, rel=1e-6)

    @settings(max_examples=100)
    @given(alpha=st.floats(-4.0, 4.0), eta=st.floats(0.2, 3.0))
    def test_sign_opposite_to_alpha(self, alpha, eta):
        se = expand_at_origin(P(alpha, eta=eta))
        if alpha == 0.0:
            assert se.c2 == 0.0
        else:
            assert math.copysign(1.0, se.c2) == -math.copysign(1.0, alpha)


class TestEval:
    def test_center_values_exact(self):
        se = expand_at_origin(P(2.5))
        v, dv = eval_series(se, 0.0)
        assert v == 1.0 and dv == 0.0

    def test_polynomial_values(self):
        se = expand_at_origin(P(2.5))
        v, dv = eval_series(se, 0.01)
        # c2 = -5/24 and, by hand from the recurrence, c4 = (2*L_2 + 0.8*c2^2)/2
        # with L_2 = 4.5*5/24/40; the r^6 term is below 1e-14 and 6*c6*r^5 below 1e-11
        c2 = -5.0 / 24.0
        c4 = (2.0 * 4.5 * 5.0 / 24.0 / 40.0 + 0.8 * c2 * c2) / 2.0
        assert v == pytest.approx(1.0 + c2 * 1e-4 + c4 * 1e-8, abs=1e-13)
        assert dv == pytest.approx(2.0 * c2 * 0.01 + 4.0 * c4 * 1e-6, abs=1e-11)

    def test_constant_series_valid_everywhere(self):
        se = expand_at_origin(P(0.0))
        assert eval_series(se, 0.5) == (1.0, 0.0)

    def test_validity_radius_enforced(self):
        se = expand_at_origin(P(2.5))
        with pytest.raises(OutOfRange):
            eval_series(se, 2.0 * se.r_switch)

    @settings(max_examples=50)
    @given(alpha=st.floats(-3.0, 3.0), eta=st.floats(0.2, 3.0))
    def test_center_conditions_always_exact(self, alpha, eta):
        se = expand_at_origin(P(alpha, eta=eta))
        assert eval_series(se, 0.0) == (eta, 0.0)


class TestResidual:
    # (n, m, alpha, beta, eta): the eternal workhorse, alpha < 0, a slowly
    # converging series (handoff below the cap), large and small eta
    ROWS = [
        (3, 0.2, 2.5, 1.0, 1.0),
        (4, 1 / 3, -2.0, 1.0, 1.0),
        (5, 0.01, 10.0, 2.0, 3.0),
        (3, 0.02, 50.0 * math.e, math.e, 1.0),
        (3, 0.2, 2.5, 1.0, 1e6),
        (6, 0.5, 4.0, 1.0, 1e-6),
    ]

    @pytest.mark.parametrize("row", ROWS)
    def test_full_series_at_rounding_level(self, row):
        # measured at most 5.4e-15 of (|alpha| + beta)*eta over (0, r_switch]
        p = Parameters(*row)
        se = expand_at_origin(p)
        scale = (abs(p.alpha) + p.beta) * p.eta
        for r in np.linspace(0.0, se.r_switch, 201)[1:]:
            assert abs(series_residual(p, se, r)) <= 5e-14 * scale

    def test_truncation_estimate_below_default_budget(self):
        se = expand_at_origin(P(2.5))
        assert se.truncation_estimate < 1e-10
