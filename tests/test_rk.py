import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fdprofiles import rk
from fdprofiles.errors import PositivityLoss, ProfileError, StepUnderflow
from fdprofiles.rk import Hermite, hermite_piece, integrate_2d
from fdprofiles.series import horner

# A zero Jacobian never trips the switch to Radau IIA: the call takes DOP853 steps
# throughout, through the loop's Jacobian branch.
_ZERO_JAC = {"jac": lambda t, y, z: (0.0, 0.0, 0.0, 0.0, 0.0)}


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
        integrate_2d(lambda t, y, z: (-1.0, 0.0), 0.0, 1.0, 0.0, 10.0, 1e-9, 1e-12, positive_y=True, **_ZERO_JAC)
    assert exc.value.location == pytest.approx(1.0, abs=1e-2)


def test_step_underflow_at_unreachable_point():
    def f(t, y, z):
        if t > 0.5:
            return math.nan, math.nan
        return 1.0, 0.0

    with pytest.raises(StepUnderflow) as exc:
        integrate_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-9, 1e-12, **_ZERO_JAC)
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


def test_step_collapse_floor_does_not_grow_with_the_span():
    # y = log t from t = 1e-4 out to 1e17: the first step is ~1e-5 long, far
    # below a floor scaled by the span (1e-20*span = 1e-3), yet t + h resolves it
    path = integrate_2d(lambda t, y, z: (1.0 / t, 0.0), 1e-4, math.log(1e-4), 0.0, 1e17, 1e-10, 1e-12)
    assert path.t[-1] == 1e17
    assert path.y[-1] == pytest.approx(math.log(1e17), rel=1e-9)


@pytest.mark.parametrize("with_jac", [False, True])
def test_step_collapse_at_t_zero(with_jac):
    # no step out of t = 0 succeeds: the guard still fires there, at once
    def f(t, y, z):
        return (math.nan, math.nan) if t > 0.0 else (1.0, 0.0)

    with pytest.raises(StepUnderflow, match="step size underflow") as exc:
        integrate_2d(f, 0.0, 1.0, 0.0, 40.0, 1e-9, 1e-12, **(_ZERO_JAC if with_jac else {}))
    assert exc.value.location == 0.0


def test_early_stop_threshold():
    path = integrate_2d(lambda t, y, z: (y, 0.0), 0.0, 1.0, 0.0, 20.0, 1e-9, 1e-12, pause_above=100.0)
    assert path.paused is not None
    assert path.y[-1] >= 100.0 and path.y[-2] < 100.0
    assert path.t[-1] < 20.0


def test_nodes_store_derivatives():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 1.0, 0.0, 1.0, 1e-9, 1e-11)
    assert np.allclose(path.fz, -path.y)


def test_nfev_counts_every_rhs_call():
    calls = 0

    def f(t, y, z):
        nonlocal calls
        calls += 1
        return z, -y

    path = integrate_2d(f, 0.0, 1.0, 0.0, 6.0, 1e-9, 1e-11, **_ZERO_JAC)
    assert path.nfev == calls
    assert path.t_stiff is None and path.n_explicit == path.t.size


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
        return 0.0, 1.0, 6.0 * y * y, 0.0, 0.0

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
        return lam, 0.0, 0.0, -1.0, 0.0

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
    explicit = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10)
    assert explicit.t_stiff is None and explicit.n_explicit == explicit.t.size
    assert 10 * stiff.n_steps <= explicit.n_steps
    # DOP853 runs identically up to the switch node
    k = stiff.n_explicit
    assert stiff.t_stiff == stiff.t[k - 1]
    for attr in ("t", "y", "z", "fz"):
        assert np.array_equal(getattr(stiff, attr)[:k], getattr(explicit, attr)[:k])
    assert stiff.t[k] != explicit.t[k]


def test_stiff_tolerances_take_over_at_the_switch():
    f, jac = _prothero_robinson(-1e4)
    loose = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-6, 1e-8, jac=jac)
    tight = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-6, 1e-8, jac=jac, stiff_tol=(1e-9, 1e-11))
    # the same DOP853 steps up to the switch, the tighter pair past it
    assert tight.t_stiff == loose.t_stiff is not None
    k = tight.n_explicit
    assert np.array_equal(tight.t[:k], loose.t[:k]) and np.array_equal(tight.y[:k], loose.y[:k])
    assert tight.n_steps > loose.n_steps
    past = tight.t > tight.t_stiff
    assert np.max(np.abs(tight.z[past] - np.exp(-tight.t[past])) / np.exp(-tight.t[past])) < 1e-8
    with pytest.raises(ValueError, match="positive"):
        integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-6, 1e-8, jac=jac, stiff_tol=(1e-9, 0.0))


def test_non_stiff_problem_never_switches_with_jacobian():
    path = integrate_2d(
        lambda t, y, z: (z, -y), 0.0, 1.0, 0.0, 20.0, 1e-10, 1e-12, jac=lambda t, y, z: (0.0, 1.0, -1.0, 0.0, 0.0)
    )
    assert path.t_stiff is None


@pytest.mark.parametrize("forced", [False, True])
def test_fzz_is_z_second_derivative_on_every_dop853_node(forced):
    # y'' = -y, and y'' = t - y, whose f_z has the time partial 1: z'' = -z and 1 - z
    def f(t, y, z):
        return z, t - y if forced else -y

    path = integrate_2d(f, 0.0, 1.0, 0.0, 20.0, 1e-10, 1e-12,
                        jac=lambda t, y, z: (0.0, 1.0, -1.0, 0.0, 1.0 if forced else 0.0))
    assert path.t_stiff is None and path.fzz.size == path.n_explicit == path.t.size
    assert np.array_equal(path.fzz, (1.0 if forced else 0.0) - path.z)
    # without jac the same nodes and no z''
    plain = integrate_2d(f, 0.0, 1.0, 0.0, 20.0, 1e-10, 1e-12)
    assert np.array_equal(plain.t, path.t) and plain.fzz.size == 0 and plain.n_explicit == plain.t.size


def test_fzz_follows_the_derivative_of_fz_up_to_the_stiff_switch():
    # Prothero-Robinson: f_z = -z = -e^(-t), so z'' = e^(-t), recorded up to and including the switch node
    f, jac = _prothero_robinson(-1e4)
    path = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    k = path.n_explicit
    assert path.t_stiff == path.t[k - 1] and path.fzz.size == k < path.t.size
    assert np.max(np.abs(path.fzz - np.exp(-path.t[:k])) / np.exp(-path.t[:k])) < 1e-7


def test_radau_honours_early_stop_and_positivity():
    f, jac = _prothero_robinson(-1e4)
    path = integrate_2d(f, 0.0, 0.0, 1.0, 20.0, 1e-9, 1e-12, jac=jac, pause_above=0.9)
    assert path.paused is not None and path.t_stiff is not None
    assert path.y[-1] >= 0.9 and path.t[-1] < 20.0
    # y follows sin t, which reaches zero at pi
    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(f, 0.0, 1.0, 1.0, 10.0, 1e-9, 1e-12, positive_y=True, jac=jac)
    assert exc.value.location == pytest.approx(math.pi, abs=1e-2)


@pytest.mark.parametrize("problem", ["exponential", "prothero_robinson"])
def test_path_paused_on_y_resumes_to_the_uninterrupted_one(problem):
    # DOP853 throughout on y' = y; on Prothero-Robinson Radau IIA takes over before the pause at y = 0.9
    if problem == "exponential":
        f, y0, z0, kw, level = (lambda t, y, z: (y, 0.0)), 1.0, 0.0, {}, 100.0
    else:
        f, jac = _prothero_robinson(-1e4)
        y0, z0, kw, level = 0.0, 1.0, {"jac": jac}, 0.9
    whole = integrate_2d(f, 0.0, y0, z0, 20.0, 1e-9, 1e-12, **kw)
    head = integrate_2d(f, 0.0, y0, z0, 20.0, 1e-9, 1e-12, pause_above=level, **kw)
    assert head.paused is not None and head.y[-1] >= level > head.y[-2]
    assert (head.t_stiff is not None) == (problem == "prothero_robinson")
    assert np.array_equal(head.t, whole.t[: head.t.size])
    resumed = head.resumed()
    assert resumed.paused is None
    for name in ("t", "y", "z", "fz", "fzz"):
        assert np.array_equal(getattr(resumed, name), getattr(whole, name)), name
    assert resumed.counters == whole.counters and resumed.n_explicit == whole.n_explicit


def test_step_budget_is_shared_by_both_step_kinds(monkeypatch):
    f, jac = _prothero_robinson(-1e4)
    full = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    explicit_steps = full.n_explicit - 1
    for budget, in_radau in ((explicit_steps - 2, False), (full.n_steps + full.n_rejected - 5, True)):
        monkeypatch.setattr(rk, "_MAX_STEPS", budget)
        with pytest.raises(StepUnderflow, match=f"step budget of {budget} exhausted") as exc:
            integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
        assert (exc.value.location > full.t_stiff) is in_radau


def _pr_with_jacobian_off_by_a_tenth():
    # Prothero-Robinson at lam = -1e8 with a Jacobian 10% off: the simplified
    # Newton iteration then contracts by about 0.1 per iteration, so its stop,
    # not the exactness of a linear solve, sets what it leaves in each step
    f, _ = _prothero_robinson(-1e8)
    path = integrate_2d(f, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=lambda t, y, z: (-0.9e8, 0.0, 0.0, -1.0, 0.0))
    return path, 1e-10 + 1e-8 * abs(path.y[-1])


def _cubic():
    # y'' = 2y^3, y(0) = 1, y'(0) = -1
    path = integrate_2d(
        lambda t, y, z: (z, 2.0 * y**3), 0.0, 1.0, -1.0, 3.0, 1e-8, 1e-8,
        jac=lambda t, y, z: (0.0, 1.0, 6.0 * y * y, 0.0, 0.0),
    )
    return path, 1e-8 + 1e-8 * abs(path.y[-1])


@pytest.mark.parametrize(
    "solve,c",
    [
        # measured gaps: 1.24 and 0.48 kappa*scale
        (_pr_with_jacobian_off_by_a_tenth, 12.0),
        (_cubic, 5.0),
    ],
    ids=["prothero_robinson", "cubic"],
)
def test_newton_stop_leaves_kappa_times_tol(monkeypatch, solve, c):
    # Radau IIA from the first node, at kappa and at kappa/100
    monkeypatch.setattr(rk, "_STIFF_RUN", 1)
    monkeypatch.setattr(rk, "_STIFF_H_RHO", -1.0)
    kappa = rk._NEWTON_KAPPA
    path, scale = solve()
    monkeypatch.setattr(rk, "_NEWTON_KAPPA", kappa / 100.0)
    tight, _ = solve()
    assert path.t_stiff == path.t[1] and tight.t_stiff == tight.t[1]
    assert abs(path.y[-1] - tight.y[-1]) <= c * kappa * scale


def test_persistent_step_collapse_is_raised_where_it_sets_in(monkeypatch):
    # DOP853 without a Jacobian on y' = lam*(y - cos t) - sin t from t = 1: stability
    # holds its steps near 6e-13 < 1e-12*t, so it would grind through the whole budget
    lam = -1e13
    monkeypatch.setattr(rk, "_MAX_STEPS", 10_000)
    with pytest.raises(StepUnderflow, match=r"below 1e-12\*\|t\| on 100 accepted steps in a row") as exc:
        integrate_2d(lambda t, y, z: (lam * (y - math.cos(t)) - math.sin(t), -z), 1.0, math.cos(1.0), 1.0, 2.0, 1e-9, 1e-12)
    assert exc.value.location == pytest.approx(1.0, rel=1e-9)


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
    x, d = path.t, (path.y, path.z, -path.y, -path.z)[:k]
    # for k > 2 the last array stops at node j - 1, the seam past which the pieces are two degrees lower
    j = x.size if k == 2 else x.size // 2

    def fresh():
        return Hermite(x, *d[:-1], d[-1][:j])

    built = fresh()
    rng = np.random.default_rng(k)
    xs = rng.uniform(0.0, 6.0, 200)
    for evaluate in (built.value, built.derivative):
        assert np.array_equal(evaluate(xs), [evaluate(float(q)) for q in xs])
    assert "_coef" in built.__dict__
    # short reads on a table not yet built, piece by piece on floats: the end pieces, also
    # past the nodes where they extend outward, and both sides of the seam, each node included
    seam = x[j - 1]
    points = [x[0] - 0.1, x[0], 0.5 * (x[0] + x[1]), x[j - 2], 0.5 * (x[j - 2] + seam), seam,
              0.5 * (seam + x[min(j, x.size - 1)]), x[-2], 0.5 * (x[-2] + x[-1]), x[-1], x[-1] + 0.1]
    for method in ("value", "derivative"):
        ref = getattr(built, method)
        for q in points:
            interp = fresh()
            got = getattr(interp, method)(q)
            assert type(got) is float and got == ref(q), (method, q)
            assert "_coef" not in interp.__dict__
        for size in range(1, rk._SHORT_READ + 1):
            q = rng.choice(points, size)
            interp = fresh()
            got = getattr(interp, method)(q)
            assert np.array_equal(got, ref(q)) and got.shape == q.shape, (method, q)
            assert "_coef" not in interp.__dict__
        # the budget counts every short read: once it is spent the next read builds the table
        interp = fresh()
        assert [getattr(interp, method)(q) for q in points[: rk._SHORT_READ]] == list(ref(points[: rk._SHORT_READ]))
        assert "_coef" not in interp.__dict__
        assert getattr(interp, method)(points[-1]) == ref(points[-1])
        assert "_coef" in interp.__dict__


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [[0.0, 1.0], [2.0, 3.0]]])
def test_hermite_rejects_nodes_that_are_not_strictly_increasing_or_not_1d(x):
    with pytest.raises(ValueError, match="strictly increasing 1-d array"):
        Hermite(x, np.zeros_like(x), np.zeros_like(x))


@pytest.mark.parametrize("derivatives", [1, 5])
def test_hermite_rejects_an_unsupported_order(derivatives):
    with pytest.raises(ValueError, match="2, 3 or 4 derivative arrays"):
        Hermite([0.0, 1.0], *([[0.0, 1.0]] * derivatives))


@pytest.mark.parametrize("k", [3, 4])
def test_hermite_with_a_short_last_array_is_two_interpolants(k):
    # the last array covers the first j nodes: degree 2k - 1 up to node j - 1, 2k - 3 past it
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 0.0, 1.0, 6.0, 1e-10, 1e-12)
    x, d = path.t, (path.y, path.z, -path.y, -path.z)[:k]
    j = x.size // 2
    interp = Hermite(x, *d[:-1], d[-1][:j])
    head = Hermite(x[:j], *(a[:j] for a in d))
    tail = Hermite(x[j - 1 :], *(a[j - 1 :] for a in d[:-1]))
    xs = np.random.default_rng(k).uniform(x[0], x[-1], 400)
    below, past = xs[xs < x[j - 1]], xs[xs > x[j - 1]]
    assert below.size and past.size
    for method in ("value", "derivative"):
        evaluate = getattr(interp, method)
        assert np.array_equal(evaluate(below), getattr(head, method)(below))
        assert np.array_equal(evaluate(past), getattr(tail, method)(past))
        assert np.array_equal(evaluate(xs), [evaluate(float(q)) for q in xs])
    assert np.array_equal(interp.value(x[:-1]), d[0][:-1])
    assert interp.value(x[-1]) == pytest.approx(d[0][-1], abs=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hermite_piece_built_alone_has_the_bits_of_the_whole(k):
    # each piece built from its two nodes alone, on data spread over 20 decades,
    # against the same piece of one interpolant of 40 (with a short last array
    # for k > 2): a one-piece einsum summed the table products in another order
    rng = np.random.default_rng(k)
    x = np.cumsum(rng.uniform(0.1, 2.0, 41))
    d = [rng.standard_normal(x.size) * 10.0 ** rng.integers(-10, 10, x.size) for _ in range(k)]
    j = x.size if k == 2 else 25
    whole = Hermite(x, *d[:-1], d[-1][:j])
    for i in range(x.size - 1):
        rows = d if i + 2 <= j else d[:-1]
        piece = Hermite(x[i : i + 2], *(a[i : i + 2] for a in rows))
        xq = x[i] + np.array([0.0, 0.3, 0.5, 0.9]) * (x[i + 1] - x[i])
        assert np.array_equal(piece.value(xq), whole.value(xq)), i
        assert np.array_equal(piece.derivative(xq), whole.derivative(xq)), i


@pytest.mark.parametrize("k", [2, 3, 4])
def test_float_piece_has_the_bits_of_hermite(k):
    # each piece built on Python floats from its two nodes and read by Horner's
    # rule, against the same piece of one numpy interpolant of 40 (with a short
    # last array for k > 2), on data spread over 20 decades
    rng = np.random.default_rng(10 + k)
    x = np.cumsum(rng.uniform(0.1, 2.0, 41))
    d = [rng.standard_normal(x.size) * 10.0 ** rng.integers(-10, 10, x.size) for _ in range(k)]
    j = x.size if k == 2 else 25
    whole = Hermite(x, *d[:-1], d[-1][:j])
    for i in range(x.size - 1):
        rows = d if i + 2 <= j else d[:-1]
        (x0, x1), *nodes = (a[i : i + 2].tolist() for a in (x, *rows))
        h = x1 - x0
        coef = hermite_piece(h, *zip(*nodes))
        dcoef = [p * c for p, c in enumerate(coef[1:], 1)]
        # the left node, the midpoint and theta = 0.3 and 0.9; the right node on the last piece
        for xq in [x0 + th * h for th in (0.0, 0.3, 0.5, 0.9)] + [x1] * (i == x.size - 2):
            th = (xq - x0) / h
            assert horner(coef, th) == whole.value(xq), (i, xq)
            assert horner(dcoef, th) / h == whole.derivative(xq), (i, xq)


@pytest.mark.parametrize("k,short", [(3, 1), (4, 0), (2, 2), (3, 6)])
def test_hermite_rejects_a_last_array_it_cannot_use(k, short):
    # a short last array needs at least two nodes and k > 2; none may be longer
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="the last may cover the first j >= 2"):
        Hermite(x, *([x] * (k - 1)), np.ones(short))


def test_dense_output_between_integration_nodes():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 0.0, 1.0, 6.0, 1e-10, 1e-12, **_ZERO_JAC)
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


def test_jacobian_that_never_trips_the_switch_changes_nothing():
    # y'' = 2y^3 with y = 1/(1+t) is not stiff: its true Jacobian adds only the
    # stiffness test, and the steps are those of the call without one
    def f(t, y, z):
        return z, 2.0 * y**3

    plain = integrate_2d(f, 0.0, 1.0, -1.0, 3.0, 1e-12, 1e-12)
    with_jac = integrate_2d(f, 0.0, 1.0, -1.0, 3.0, 1e-12, 1e-12,
                            jac=lambda t, y, z: (0.0, 1.0, 6.0 * y * y, 0.0, 0.0))
    assert with_jac.t_stiff is None
    for attr in ("t", "y", "z", "fz"):
        assert np.array_equal(getattr(with_jac, attr), getattr(plain, attr))
    assert (with_jac.n_steps, with_jac.n_rejected, with_jac.nfev) == (plain.n_steps, plain.n_rejected, plain.nfev)


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


def test_rhs_not_finite_at_the_start_is_located_there():
    with pytest.raises(ProfileError, match="not finite at the starting point") as exc:
        integrate_2d(lambda t, y, z: (math.inf, 0.0), 0.5, 1.0, 0.0, 1.0, 1e-9, 1e-12)
    assert exc.value.location == 0.5


@pytest.mark.parametrize("t_end", [0.5, 0.0])
def test_span_that_does_not_advance_is_rejected(t_end):
    with pytest.raises(ValueError, match="t_end must exceed t0"):
        integrate_2d(lambda t, y, z: (y, 0.0), 0.5, 1.0, 0.0, t_end, 1e-9, 1e-12)


def test_dop853_guards():
    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(lambda t, y, z: (-1.0, 0.0), 0.0, 1.0, 0.0, 10.0, 1e-9, 1e-12, positive_y=True)
    assert exc.value.location == pytest.approx(1.0, abs=1e-2)

    def f(t, y, z):
        return (math.nan, math.nan) if t > 0.5 else (1.0, 0.0)

    with pytest.raises(StepUnderflow) as exc:
        integrate_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-9, 1e-12)
    assert exc.value.location == pytest.approx(0.5, abs=1e-2)


def test_dop853_rejects_a_step_whose_new_node_is_not_finite():
    # call 14 is the first attempt's new node (2 start calls, 11 stages, then
    # the node's own derivative); it reads NaN, so the attempt is rejected and h shrinks
    calls = 0

    def f(t, y, z):
        nonlocal calls
        calls += 1
        return (math.nan, math.nan) if calls == 14 else (z, -y)

    clean = integrate_2d(lambda t, y, z: (z, -y), 0.0, 1.0, 0.0, 6.0, 1e-9, 1e-11)
    path = integrate_2d(f, 0.0, 1.0, 0.0, 6.0, 1e-9, 1e-11)
    assert clean.n_rejected == 0 and path.n_rejected == 1
    assert path.nfev == calls == 2 + 12 * path.n_steps + 11 * path.n_rejected + 1
    assert path.t[1] == pytest.approx(rk._MIN_FACTOR * clean.t[1], rel=1e-12)
    assert path.y[-1] == pytest.approx(math.cos(6.0), abs=1e-9)


def test_radau_newton_on_a_stage_that_is_not_finite_rejects_and_halves_h():
    # the first call past the switch node is the first Radau IIA stage; it reads NaN
    f, jac = _prothero_robinson(-1e4)
    times = []

    def logged(t, y, z):
        times.append(t)
        return f(t, y, z)

    clean = integrate_2d(logged, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    first_stage = max(i for i, t in enumerate(times) if t == clean.t_stiff) + 1
    calls = 0

    def poisoned(t, y, z):
        nonlocal calls
        calls += 1
        return (math.nan, math.nan) if calls == first_stage + 1 else f(t, y, z)

    path = integrate_2d(poisoned, 0.0, 0.0, 1.0, 10.0, 1e-8, 1e-10, jac=jac)
    k = clean.n_explicit
    assert path.n_explicit == k and path.t_stiff == clean.t_stiff
    assert path.t[k] - path.t[k - 1] == pytest.approx(0.5 * (clean.t[k] - clean.t[k - 1]), rel=1e-12)
    assert path.n_rejected == clean.n_rejected + 1
    assert path.nfev == calls
    assert np.max(np.abs(path.y - np.sin(path.t))) < 1e-8


@pytest.mark.parametrize("err_old", [None, 0.5])
def test_radau_factor_at_zero_error_is_the_largest(err_old):
    assert rk._radau_factor(0.1, 0.2, 0.0, err_old) == rk._MAX_FACTOR


@pytest.mark.parametrize("y0", [1e-320, rk.POSITIVITY_FLOOR, 5e-324])
def test_start_at_or_below_the_positivity_floor_is_located_at_t0(y0):
    # below ~2.5e-314 the error scale rtol*|y| underflows to 0
    with pytest.raises(PositivityLoss, match="starts at or below the positivity floor") as exc:
        integrate_2d(lambda t, y, z: (z, 0.0), 0.5, y0, 0.0, 1.0, 1e-9, 1e-12, positive_y=True)
    assert exc.value.location == 0.5
    # a y0 above the floor is stepped
    path = integrate_2d(lambda t, y, z: (z, 0.0), 0.5, 1e-290, 0.0, 1.0, 1e-9, 1e-12, positive_y=True)
    assert path.t[-1] == 1.0 and path.y[-1] == 1e-290


@pytest.mark.parametrize("with_jac", [False, True])
def test_vanished_positive_y_is_held_to_rtol(with_jac):
    # y = (1 - t)^5 solves y'' = 0.8*y'^2/y (the (1-m)*v'^2/v term of the
    # r-chart at m = 0.2) and vanishes at t = 1; far below atol the mixed error
    # scale let an explicit step pass the zero onto a spurious positive branch
    def f(t, y, z):
        return (math.nan, math.nan) if y <= 0.0 else (z, 0.8 * z * z / y)

    with pytest.raises(PositivityLoss) as exc:
        integrate_2d(f, 0.0, 1.0, -5.0, 3.0, 1e-10, 1e-12, positive_y=True, **(_ZERO_JAC if with_jac else {}))
    assert exc.value.location == pytest.approx(1.0, abs=1e-6)


def test_septic_dense_output_between_integration_nodes():
    path = integrate_2d(lambda t, y, z: (z, -y), 0.0, 0.0, 1.0, 6.0, 1e-10, 1e-12)
    interp = Hermite(path.t, path.y, path.z, -path.y, -path.z)
    xs = np.linspace(0.0, 6.0, 777)
    assert np.max(np.abs(interp.value(xs) - np.sin(xs))) < 1e-9
    assert np.max(np.abs(interp.derivative(xs) - np.cos(xs))) < 1e-9
