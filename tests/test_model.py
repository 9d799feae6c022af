import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdprofiles import (
    EndpointExponentError,
    HypothesisReport,
    HypothesisViolation,
    Parameters,
    Regime,
    SolveConfig,
    check_hypotheses,
    classify_regime,
    derived,
    estimate_log_decay,
    estimate_power_decay,
    expected_log_constant,
    limit_convergence,
    solve_log_equation,
    solve_profile,
)
from fdprofiles.model import exponent_relation, require


def P(n=3, m=0.2, alpha=2.5, beta=1.0, eta=1.0):
    return Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=eta)


class TestParameters:
    def test_accepts_interior_point(self):
        p = P()
        assert p.n == 3 and not p.at_endpoint

    def test_accepts_endpoint(self):
        assert P(m=1 / 3).at_endpoint

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2),
            dict(n=3.5),
            dict(m=0.0),
            dict(m=0.4),  # above (n-2)/n for n=3
            dict(m=-0.1),
            dict(eta=0.0),
            dict(eta=-1.0),
            dict(alpha=math.inf),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            P(**kwargs)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_dimension_that_is_not_finite(self, n):
        # one check for the profile equation and for its m -> 0 limit
        message = f"dimension n must be an integer >= 3, got {n}"
        with pytest.raises(ValueError) as exc:
            P(n=n)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            solve_log_equation(n, 1.0, 1.0, 1.0, 5.0)
        assert str(exc.value) == message


class TestClassify:
    def test_eternal(self):
        assert classify_regime(P(alpha=2.5)) is Regime.ETERNAL

    def test_forward(self):
        # alpha = (2*beta - 1)/(1 - m) = 1.25
        assert classify_regime(P(alpha=1.25)) is Regime.FORWARD

    def test_backward(self):
        assert classify_regime(P(alpha=3.75)) is Regime.BACKWARD

    def test_generic_at_alpha_zero(self):
        assert classify_regime(P(alpha=0.0)) is Regime.GENERIC

    def test_near_miss_within_tolerance(self):
        assert classify_regime(P(alpha=2.5 * (1 + 1e-14))) is Regime.ETERNAL

    def test_near_miss_outside_tolerance(self):
        assert classify_regime(P(alpha=2.5 * (1 + 1e-6))) is Regime.GENERIC

    def test_huge_tolerance_tie_is_generic(self):
        # at beta = 1e9 the tolerance exceeds 1/2: alpha*(1-m) - 2*beta = -0.5
        # exactly, as close to forward as to eternal
        p = P(alpha=(2e9 - 0.5) / 0.8, beta=1e9)
        assert exponent_relation(p.m, p.alpha, p.beta)[0] == -0.5
        assert classify_regime(p) is Regime.GENERIC

    @settings(max_examples=200)
    @given(
        n=st.integers(3, 10),
        mfrac=st.floats(0.05, 0.95),
        beta=st.floats(0.1, 10.0),
        which=st.sampled_from(["forward", "backward", "eternal"]),
    )
    def test_relations_always_recognized(self, n, mfrac, beta, which):
        m = mfrac * (n - 2) / n
        shift = {"forward": -1.0, "backward": 1.0, "eternal": 0.0}[which]
        alpha = (2.0 * beta + shift) / (1.0 - m)
        got = classify_regime(Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=1.0))
        assert got is Regime[which.upper()]


class TestDerived:
    def test_reference_case(self):
        dc = derived(P())
        assert dc.k == pytest.approx(0.4)
        assert dc.rho1 == pytest.approx(0.0, abs=1e-14)
        assert dc.a0 == pytest.approx(2.0)
        assert dc.b0 == pytest.approx(0.0, abs=1e-14)
        assert dc.b1 == pytest.approx(0.25)

    def test_n4_conformal_exponent(self):
        dc = derived(Parameters(n=4, m=1 / 3, alpha=3.0, beta=1.0, eta=1.0))
        assert dc.a0 == pytest.approx(6.0)
        assert dc.b0 == pytest.approx(0.0, abs=1e-14)

    def test_endpoint_degenerates_a0(self):
        dc = derived(Parameters(n=3, m=1 / 3, alpha=1.0, beta=1.0, eta=1.0))
        assert abs(dc.a0) < 1e-12

    def test_k_absent_when_alpha_zero(self):
        assert derived(P(alpha=0.0)).k is None

    def test_a0_nan_when_beta_zero(self):
        assert math.isnan(derived(P(beta=0.0)).a0)

    @settings(max_examples=200)
    @given(n=st.integers(3, 10), mfrac=st.floats(0.01, 1.0), beta=st.floats(0.05, 20.0))
    def test_a0_and_b1_nonnegative_on_range(self, n, mfrac, beta):
        m = mfrac * (n - 2) / n
        dc = derived(Parameters(n=n, m=m, alpha=1.0, beta=beta, eta=1.0))
        assert dc.a0 >= -1e-12
        assert dc.b1 >= -1e-12
        assert dc.b2 >= 0.0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_b0_vanishes_exactly_at_conformal_exponent(self, n):
        m_star = (n - 2) / (n + 2)
        dc = derived(Parameters(n=n, m=m_star, alpha=1.0, beta=1.0, eta=1.0))
        assert abs(dc.b0) < 1e-13
        for m in (0.9 * m_star, min(1.08 * m_star, (n - 2) / n * 0.999)):
            off = derived(Parameters(n=n, m=m, alpha=1.0, beta=1.0, eta=1.0))
            assert abs(off.b0) > 1e-3

    def test_a0_equals_expected_log_constant(self):
        for n, m, beta in [(3, 0.2, 1.0), (5, 0.5, 2.0), (7, 0.3, 0.5)]:
            p = Parameters(n=n, m=m, alpha=1.0, beta=beta, eta=1.0)
            assert derived(p).a0 == expected_log_constant(p)


class TestHypotheses:
    def test_reference_flags(self):
        hyp = check_hypotheses(P())
        assert hyp.existence_ok  # 2.5 <= beta*(n-2)/m = 5
        assert hyp.log_decay_ok
        assert hyp.strict_m
        assert hyp.limit_ok
        assert not hyp.power_decay_ok  # the wide-range inequality is strict

    def test_existence_bound_violated(self):
        assert not check_hypotheses(P(alpha=6.0)).existence_ok

    def test_power_decay_below_eternal(self):
        assert check_hypotheses(P(alpha=1.25)).power_decay_ok

    def test_limit_needs_beta_or_alpha_zero(self):
        assert check_hypotheses(P(alpha=0.0, beta=-1.0)).limit_ok
        assert not check_hypotheses(P(alpha=1.0, beta=-1.0)).limit_ok

    def test_endpoint_clears_strict_flag(self):
        assert not check_hypotheses(P(m=1 / 3, alpha=1.0)).strict_m

    @settings(max_examples=200)
    @given(
        n=st.integers(3, 8),
        mfrac=st.floats(0.05, 0.95),
        beta=st.floats(0.1, 5.0),
        off=st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) > 1e-6),
    )
    def test_log_decay_excludes_power_decay(self, n, mfrac, beta, off):
        # away from the equality-matching tolerance band the two decay
        # regimes never overlap: the wide-range condition is strict and
        # fails exactly on the eternal relation
        m = mfrac * (n - 2) / n
        alpha = 2.0 * beta / (1.0 - m) + off
        hyp = check_hypotheses(Parameters(n=n, m=m, alpha=alpha, beta=beta, eta=1.0))
        assert not (hyp.log_decay_ok and hyp.power_decay_ok)
        if off < 0.0:
            assert hyp.power_decay_ok and not hyp.log_decay_ok


class TestRequire:
    @pytest.mark.parametrize("field, p", [
        ("existence_ok", P(alpha=6.0)),
        ("strict_m", P(m=1 / 3, alpha=1.0)),
        ("log_decay_ok", P(alpha=1.25)),
        ("power_decay_ok", P(alpha=2.5)),
        ("limit_ok", P(alpha=1.0, beta=-1.0)),
    ])
    def test_every_condition_has_a_message(self, field, p):
        with pytest.raises(HypothesisViolation) as exc:
            require(p, "this study", field)
        assert type(exc.value) is (EndpointExponentError if field == "strict_m" else HypothesisViolation)
        assert str(exc.value).startswith("this study needs ")
        assert f"({field})" in str(exc.value)

    def test_returns_the_report_when_every_condition_holds(self):
        fields = [f.name for f in dataclasses.fields(HypothesisReport)]
        assert require(P(), "a solve", "existence_ok", "strict_m") == check_hypotheses(P())
        with pytest.raises(HypothesisViolation, match=r"\(log_decay_ok\)"):
            require(P(alpha=1.25), "a decay", *fields)  # the first that fails is named

    @pytest.mark.parametrize("call, error, field", [
        (lambda: solve_profile(P(alpha=6.0)), HypothesisViolation, "existence_ok"),
        (lambda: estimate_power_decay(solve_profile(P())), HypothesisViolation, "power_decay_ok"),
        (lambda: estimate_log_decay(solve_profile(P(m=1 / 3, alpha=3.0), SolveConfig(s_end=25.0))),
         EndpointExponentError, "strict_m"),
        (lambda: expected_log_constant(P(m=1 / 3, alpha=3.0)), EndpointExponentError, "strict_m"),
        (lambda: expected_log_constant(P(alpha=1.0, beta=-1.0)), HypothesisViolation, "existence_ok"),
        (lambda: limit_convergence(3, 6.0, 1.0, 1.0, m_list=(0.2, 0.1), r_max=5.0),
         HypothesisViolation, "existence_ok"),
    ], ids=["solve_profile", "power_decay", "log_decay", "log_constant_endpoint", "log_constant_beta",
            "limit_convergence"])
    def test_gated_call_names_the_failed_condition(self, call, error, field):
        with pytest.raises(HypothesisViolation) as exc:
            call()
        assert type(exc.value) is error
        assert f"({field})" in str(exc.value)
