import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fdprofiles import rk
from fdprofiles.errors import PositivityLoss, StepUnderflow
from fdprofiles.rk import Hermite, integrate_2d

# A call with a Jacobian takes DP5 steps; a zero Jacobian never trips the switch to Radau IIA.
_DP5 = {"jac": lambda t, y, z: (0.0, 0.0, 0.0, 0.0)}


def test_exponential_growth():
    path = integrate_2d(lambda t, y, z: (y, z), 0.0, 1.0, 1.0, 5.0, 1e-10, 1e-12)
    assert path.t[-1] == 5.0
    assert path.y[-1] == pytest.approx(math.e**5, rel=1e-8)
    assert path.z[-1] == pytest.approx(math.e**5, rel=1e-8)


def test_harmonic_oscillator_period():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 1.0, 0.0, 2.0 * math.pi, 1e-11, 1e-13)
    assert path.y[-1] == pytest.approx(1.0, abs=1e-8)
    assert path.z[-1] == pytest.approx(0.0, abs=1e-8)


def test_tightening_tolerance_reduces_error():
    errs = []
    for rtol in (1e-5, 1e-7, 1e-9):
        path = integrate_2d(lambda t, y, z: (y, 0.0), 0.0, 1.0, 0.0, 3.0, rtol, rtol * 1e-2)
        errs.append(abs(path.y[-1] - math.e**3) / math.e**3)
    assert errs[0] > errs[1] > errs[2]


def test_agrees_with_scipy_on_nonlinear_system():
    def f(t, y, z):
        return z, -math.sin(y) - 0.1 * z

    path = integrate_2d(f, 0.0, 2.5, 0.0, 10.0, 1e-11, 1e-13)
    ref = solve_ivp(
        lambda t, y: [y[1], -math.sin(y[0]) - 0.1 * y[1]],
        (0.0, 10.0),
        [2.5, 0.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    assert path.y[-1] == pytest.approx(ref.y[0][-1], abs=1e-8)
    assert path.z[-1] == pytest.approx(ref.y[1][-1], abs=1e-8)


def test_positivity_loss_located():
    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(lambda t, y, z: (-1.0, 0.0), 0.0, 1.0, 0.0, 10.0, 1e-9, 1e-12, positive_y=True, **_DP5)
    assert exc.value.location == pytest.approx(1.0, abs=1e-2)


def test_step_underflow_at_unreachable_point():
    def f(t, y, z):
        if t > 0.5:
            return math.nan, math.nan
        return 1.0, 0.0

    with pytest.raises(StepUnderflow) as exc:
        integrate_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-9, 1e-12, **_DP5)
    assert exc.value.location == pytest.approx(0.5, abs=1e-2)


@pytest.mark.parametrize(
    "f,y0,z0",
    [
        (lambda t, y, z: (z * z, 0.0), 0.0, 1e80),  # a scaled slope whose square overflows
        (lambda t, y, z: (z, 1e300 * y), 1.0, 0.0),  # a scaled slope that is inf itself
    ],
)
def test_overflowing_start_slope_is_step_underflow_at_start(f, y0, z0):
    with pytest.raises(StepUnderflow) as exc:
        integrate_2d(f, 0.0, y0, z0, 1.0, 1e-10, 1e-12)
    assert exc.value.location == 0.0


def test_early_stop_threshold():
    path = integrate_2d(
        lambda t, y, z: (y, 0.0), 0.0, 1.0, 0.0, 20.0, 1e-9, 1e-12, stop_when_y_above=100.0
    )
    assert path.y[-1] >= 100.0
    assert path.t[-1] < 20.0


def test_nodes_store_derivatives():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 1.0, 0.0, 1.0, 1e-9, 1e-11)
    assert np.allclose(path.fy, path.z)
    assert np.allclose(path.fz, -path.y)


def test_nfev_counts_every_rhs_call():
    calls = 0

    def f(t, y, z):
        nonlocal calls
        calls += 1
        return z, -y

    path = integrate_2d(f, 0.0, 1.0, 0.0, 6.0, 1e-9, 1e-11, **_DP5)
    assert path.nfev == calls
    assert path.t_stiff is None


def _radau_alone(monkeypatch, f, jac, t0, y0, z0, t_end, rtol):
    """Radau IIA from the first accepted node to t_end; returns (steps, final y)."""
    monkeypatch.setattr(rk, "_STIFF_RUN", 1)
    monkeypatch.setattr(rk, "_STIFF_H_RHO", -1.0)
    path = integrate_2d(f, t0, y0, z0, t_end, rtol, rtol, jac=jac)
    assert path.t_stiff == path.t[1]
    return path.n_steps, path.y[-1]


def test_radau_converges_with_order_five(monkeypatch):
    # y = 1/(1+t) solves y'' = 2y^3 with y(0) = 1, y'(0) = -1
    def f(t, y, z):
        return z, 2.0 * y**3

    def jac(t, y, z):
        return 0.0, 1.0, 6.0 * y * y, 0.0

    steps, errs = [], []
    for rtol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        n, y_end = _radau_alone(monkeypatch, f, jac, 0.0, 1.0, -1.0, 3.0, rtol)
        steps.append(n)
        errs.append(abs(y_end - 0.25))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert -5.8 < slope < -4.5


def _prothero_robinson(lam):
    # y' = lam*(y - sin t) + cos t has the smooth solution y = sin t for every
    # lam < 0; z' = -z is a slow companion mode
    def f(t, y, z):
        return lam * (y - math.sin(t)) + math.cos(t), -z

    def jac(t, y, z):
        return lam, 0.0, 0.0, -1.0

    return f, jac


@pytest.mark.parametrize("lam", [-1e4, -1e8])
def test_stiff_problem_solved_to_tolerance(lam):
    f, jac = _prothero_robinson(lam)
    path = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    assert path.t_stiff is not None and path.t_stiff < 0.1
    assert np.max(np.abs(path.y - np.sin(path.t))) < 1e-8
    assert np.max(np.abs(path.z - np.exp(-path.t)) / np.exp(-path.t)) < 1e-7
    assert path.n_steps < 400


def test_jacobian_switch_saves_steps_on_stiff_problem():
    f, jac = _prothero_robinson(-1e4)
    calls = 0

    def counted(t, y, z):
        nonlocal calls
        calls += 1
        return f(t, y, z)

    stiff = integrate_2d(counted, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    assert stiff.nfev == calls
    explicit = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, **_DP5)
    assert explicit.t_stiff is None
    assert 10 * stiff.n_steps <= explicit.n_steps
    # DP5 runs identically up to the switch node
    k = int(np.searchsorted(stiff.t, stiff.t_stiff)) + 1
    for attr in ("t", "y", "z", "fy", "fz"):
        assert np.array_equal(getattr(stiff, attr)[:k], getattr(explicit, attr)[:k])
    assert stiff.t[k] != explicit.t[k]


def test_non_stiff_problem_never_switches_with_jacobian():
    path = integrate_2d(
        lambda t, y, z: (z, -y), 0.0, 1.0, 0.0, 20.0, 1e-10, 1e-12, jac=lambda t, y, z: (0.0, 1.0, -1.0, 0.0)
    )
    assert path.t_stiff is None


def test_radau_honours_early_stop_and_positivity():
    f, jac = _prothero_robinson(-1e4)
    path = integrate_2d(f, 0.0, 0.0, 1.0, 20.0, 1e-9, 1e-12, jac=jac, stop_when_y_above=0.9)
    assert path.t_stiff is not None
    assert path.y[-1] >= 0.9 and path.t[-1] < 20.0
    # y follows sin t, which reaches zero at pi
    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(f, 0.0, 1.0, 1.0, 10.0, 1e-9, 1e-12, positive_y=True, jac=jac)
    assert exc.value.location == pytest.approx(math.pi, abs=1e-2)


def test_step_budget_is_shared_by_both_step_kinds(monkeypatch):
    f, jac = _prothero_robinson(-1e4)
    full = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    dp5_steps = int(np.searchsorted(full.t, full.t_stiff))
    for budget, in_radau in ((dp5_steps - 2, False), (full.n_steps + full.n_rejected - 5, True)):
        monkeypatch.setattr(rk, "_MAX_STEPS", budget)
        with pytest.raises(StepUnderflow, match=f"step budget of {budget} exhausted") as exc:
            integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
        assert (exc.value.location > full.t_stiff) is in_radau


@pytest.mark.parametrize("a,b,c,d", [(-3.0, 1.0, 0.5, -2.0), (0.0, 1.0, -4.0, 0.0), (1.0, 2.0, 3.0, 4.0)])
def test_spectral_radius(a, b, c, d):
    assert rk._spectral_radius(a, b, c, d) == pytest.approx(max(abs(np.linalg.eigvals([[a, b], [c, d]]))))


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=100)
@given(c=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8), xq=st.floats(0.0, 2.0))
def test_hermite_reproduces_polynomials(k, c, xq):
    # k derivatives reproduce every polynomial of degree 2k - 1
    poly = np.polynomial.Polynomial(c[: 2 * k])
    x = np.array([0.0, 0.6, 1.1, 2.0])
    interp = Hermite(x, *(poly.deriv(j)(x) for j in range(k)))
    scale = 1.0 + float(np.max(np.abs(poly(x))))
    assert interp.value(xq) == pytest.approx(float(poly(xq)), abs=1e-10 * scale)
    assert interp.derivative(xq) == pytest.approx(float(poly.deriv()(xq)), abs=1e-9 * scale)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hermite_correction_table_is_the_exact_inverse(k):
    a = np.array([[math.comb(k + l, i) for l in range(k)] for i in range(k)], dtype=float)
    assert np.array_equal(np.array(rk._CORRECTION[k], dtype=float), np.rint(np.linalg.inv(a)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hermite_scalar_and_array_queries_have_the_same_bits(k):
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 0.0, 1.0, 6.0, 1e-10, 1e-12)
    interp = Hermite(path.t, *(path.y, path.z, -path.y, -path.z)[:k])
    xs = np.random.default_rng(k).uniform(0.0, 6.0, 200)
    for evaluate in (interp.value, interp.derivative):
        assert np.array_equal(evaluate(xs), [evaluate(float(x)) for x in xs])


@pytest.mark.parametrize("derivatives", [1, 5])
def test_hermite_rejects_an_unsupported_order(derivatives):
    with pytest.raises(ValueError, match="2, 3 or 4 derivative arrays"):
        Hermite([0.0, 1.0], *([[0.0, 1.0]] * derivatives))


def test_dense_output_between_integration_nodes():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 0.0, 1.0, 6.0, 1e-10, 1e-12, **_DP5)
    interp = Hermite(path.t, path.y, path.z, -path.y)
    xs = np.linspace(0.0, 6.0, 777)
    assert np.max(np.abs(interp.value(xs) - np.sin(xs))) < 1e-8
    assert np.max(np.abs(interp.derivative(xs) - np.cos(xs))) < 1e-7


def test_dop853_tableau_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref

    a, b, c, e5 = np.zeros((12, 12)), np.zeros(12), np.zeros(12), np.zeros(13)
    for name, value in vars(rk).items():
        if name.startswith("_DA"):
            i, j = map(int, name[3:].split("_"))
            a[i - 1, j - 1] = value
        elif name.startswith("_DB"):
            b[int(name[3:]) - 1] = value
        elif name.startswith("_DC"):
            c[int(name[3:]) - 1] = value
        elif name.startswith("_DE5_"):
            e5[int(name[5:]) - 1] = value
    assert np.array_equal(a, ref.A[:12, :12])
    assert np.array_equal(b, ref.B)
    assert np.array_equal(c, ref.C[:12])
    assert np.array_equal(e5, ref.E5)


def test_dop853_converges_with_order_eight():
    # y = 1/(1+t) solves y'' = 2y^3 with y(0) = 1, y'(0) = -1
    steps, errs = [], []
    for rtol in (1e-6, 1e-8, 1e-10, 1e-12):
        path = integrate_2d(lambda t, y, z: (z, 2.0 * y**3), 0.0, 1.0, -1.0, 3.0, rtol, rtol)
        steps.append(path.n_steps)
        errs.append(abs(path.y[-1] - 0.25))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert -9.5 < slope < -7.0
    # far fewer steps than DP5 at the same tolerance
    dp5 = integrate_2d(lambda t, y, z: (z, 2.0 * y**3), 0.0, 1.0, -1.0, 3.0, 1e-12, 1e-12, **_DP5)
    assert 2 * steps[-1] < dp5.n_steps


def test_dop853_nfev_counts_every_rhs_call():
    calls = 0

    def f(t, y, z):
        nonlocal calls
        calls += 1
        return z, -y

    path = integrate_2d(f, 0.0, 1.0, 0.0, 6.0, 1e-9, 1e-11)
    assert path.nfev == calls
    # 11 stages per attempt and the new node's derivative on every accepted one
    assert path.nfev == 2 + 12 * path.n_steps + 11 * path.n_rejected
    assert np.allclose(path.fz, -path.y, rtol=0.0, atol=1e-15)


def test_dop853_guards():
    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(lambda t, y, z: (-1.0, 0.0), 0.0, 1.0, 0.0, 10.0, 1e-9, 1e-12, positive_y=True)
    assert exc.value.location == pytest.approx(1.0, abs=1e-2)

    def f(t, y, z):
        return (math.nan, math.nan) if t > 0.5 else (1.0, 0.0)

    with pytest.raises(StepUnderflow) as exc:
        integrate_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-9, 1e-12)
    assert exc.value.location == pytest.approx(0.5, abs=1e-2)


@pytest.mark.parametrize("dop853", [False, True])
def test_vanished_positive_y_is_held_to_rtol(dop853):
    # y = (1 - t)^5 solves y'' = 0.8*y'^2/y (the (1-m)*v'^2/v term of the
    # r-chart at m = 0.2) and vanishes at t = 1; far below atol the mixed error
    # scale let DP5 step past the zero onto a spurious positive branch
    def f(t, y, z):
        return (math.nan, math.nan) if y <= 0.0 else (z, 0.8 * z * z / y)

    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(f, 0.0, 1.0, -5.0, 3.0, 1e-10, 1e-12, positive_y=True, **({} if dop853 else _DP5))
    assert exc.value.location == pytest.approx(1.0, abs=1e-6)


def test_septic_dense_output_between_integration_nodes():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 0.0, 1.0, 6.0, 1e-10, 1e-12)
    interp = Hermite(path.t, path.y, path.z, -path.y, -path.z)
    xs = np.linspace(0.0, 6.0, 777)
    assert np.max(np.abs(interp.value(xs) - np.sin(xs))) < 1e-9
    assert np.max(np.abs(interp.derivative(xs) - np.cos(xs))) < 1e-9
