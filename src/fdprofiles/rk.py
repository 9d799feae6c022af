"""Runge-Kutta stepping for two-state systems: DOP853, then Radau IIA once stiff.

Every chart in this package is a second-order scalar ODE reduced to first
order, so the state always has exactly two components. The hot loops therefore
work on plain Python floats: at this state size the interpreter overhead of
array arithmetic dominates the flops, and a float core is roughly an order of
magnitude faster than wrapping a general-purpose array solver.

One step loop drives two step kinds. Every call starts with Dormand-Prince
8(5,3) steps (DOP853; Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5).
A call that passes the Jacobian of the right-hand side can turn stiff: it
switches, once and for good, to steps of the 3-stage Radau IIA method (order
5, L-stable, stiffly accurate; Hairer & Wanner, Solving ODEs II, Sec. IV.8)
when h*rho(J), the accepted DOP853 step times the spectral radius of the 2x2
Jacobian, stays above _STIFF_H_RHO for _STIFF_RUN accepted steps in a row.
The explicit method is then paying for stability, not accuracy, and the
implicit method takes steps set by the tolerance alone. Its simplified Newton
iteration costs one real and one complex 2x2 solve per iteration and starts
from the previous step's collocation polynomial. It stops once its estimated
remaining error is below _NEWTON_KAPPA times the step's error scale, the
kappa*Tol of Hairer & Wanner; ``RawPath.n_newton`` counts its iterations.
J and h are fixed within an attempt, so the diagonal and determinant of
mu*I - J for both shifts are formed once per attempt and the solves are
written out inline (a helper call per solve gave half the saving back). The
error estimate is Hairer & Wanner's, with a predictive (Gustafsson)
step-size controller whose safety factor grows as fewer iterations are
needed. Both charts of ``integrate`` pass a Jacobian. The r-chart turns
stiff only where its profile grows or decays slowly, and its Radau IIA
stretch runs at its own, tighter tolerance pair (``stiff_tol``). The step
budget, the final-step clamp, the step-collapse and positivity guards, the
node store and the early stop are the loop's own; only the attempt and the
step-size update depend on the step kind. A step collapse is raised at once
where the step falls below ~50 ulps of t, and where it stays below
1e-12*|t| for 100 accepted steps in a row, rather than after the budget.

Accepted nodes retain both state components and the second one's
derivative, which is enough for quintic Hermite dense output (``Hermite``)
whenever the second component is the derivative of the first (value, slope,
and curvature known at both ends of every step). The caller adds the third
derivative over the DOP853 stretch, the first ``RawPath.n_explicit`` nodes,
and one ``Hermite`` is then septic there and quintic past the switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import PositivityLoss, ProfileError, StepUnderflow

__all__ = ["POSITIVITY_FLOOR", "RawPath", "integrate_2d", "Hermite"]

# No clamping below this value; clamping would corrupt decay estimation.
POSITIVITY_FLOOR = 1e-300

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5;
# the coefficients of the authors' code DOP853): nodes _DCi, stage weights _DAi_j (zero
# entries left out), 8th-order weights _DBj and 5th-order error weights _DE5_j. The
# 3rd-order estimate of DOP853 is not used (see _dop853_attempt).
_DC2, _DC3, _DC4, _DC5 = 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726
_DC6, _DC7, _DC8, _DC9 = 0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513
_DC10, _DC11, _DC12 = 0.6, 0.8571428571428571, 1.0
_DA2_1 = 0.05260015195876773
_DA3_1, _DA3_2 = 0.0197250569845379, 0.0591751709536137
_DA4_1, _DA4_3 = 0.02958758547680685, 0.08876275643042054
_DA5_1, _DA5_3, _DA5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_DA6_1, _DA6_4, _DA6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_DA7_1, _DA7_4, _DA7_5, _DA7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_DA8_1, _DA8_4, _DA8_5, _DA8_6, _DA8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
)
_DA9_1, _DA9_4, _DA9_5, _DA9_6, _DA9_7, _DA9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996,
)
_DA10_1, _DA10_4, _DA10_5, _DA10_6, _DA10_7, _DA10_8, _DA10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
_DA11_1, _DA11_4, _DA11_5, _DA11_6, _DA11_7, _DA11_8, _DA11_9, _DA11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
_DA12_1, _DA12_4, _DA12_5, _DA12_6, _DA12_7, _DA12_8, _DA12_9, _DA12_10, _DA12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188, 27.94888452941996,
    -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636,
)
_DB1, _DB6, _DB7, _DB8, _DB9, _DB10, _DB11, _DB12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_DE5_1, _DE5_6, _DE5_7, _DE5_8, _DE5_9, _DE5_10, _DE5_11, _DE5_12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)

# Radau IIA (3 stages, order 5): nodes, error-estimate weights, the eigenvalues
# of the inverse collocation matrix (one real, one complex pair) and the
# transformations W = TI*Z, Z = T*W that diagonalize it, and the coefficients
# of the collocation polynomial y_old + sum_k Q_k x^(k+1), Q = Z^T P.
_S6 = 6.0**0.5
_RC1, _RC2 = (4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0
_RE1, _RE2, _RE3 = (-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0
_MU_REAL = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
_MU_COMPLEX = complex(
    3.0 + 0.5 * (3.0 ** (1.0 / 3.0) - 3.0 ** (2.0 / 3.0)),
    -0.5 * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0)),
)
_T00, _T01, _T02 = 0.09443876248897524, -0.14125529502095421, 0.03002919410514742
_T10, _T11, _T12 = 0.25021312296533332, 0.20412935229379994, -0.38294211275726192
_TI00, _TI01, _TI02 = 4.17871859155190428, 0.32768282076106237, 0.52337644549944951
_TI10, _TI11, _TI12 = -4.17871859155190428, -0.32768282076106237, 0.47662355450055044
_TI20, _TI21, _TI22 = 0.50287263494578682, -2.57192694985560522, 0.59603920482822492
_TIC0, _TIC1, _TIC2 = complex(_TI10, _TI20), complex(_TI11, _TI21), complex(_TI12, _TI22)
_P00, _P01, _P02 = 13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0, 10.0 / 3.0 + 5.0 * _S6
_P10, _P11, _P12 = 13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0, 10.0 / 3.0 - 5.0 * _S6
_P20, _P21, _P22 = 1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0
_NEWTON_MAXITER = 6
# Newton stops once its estimated remaining error is below _NEWTON_KAPPA in the
# error estimate's scaled norm, where 1 is the tolerance (Hairer & Wanner IV.8
# take kappa between 1e-2 and 1e-1). On the decay workload's log charts 5e-3
# and 1e-2 ran equally fast, but at 1e-2 the order-five convergence slope of
# y'' = 2y^3 reads -4.65, near its test bound of -4.5, and -5.04 at 5e-3.
_NEWTON_KAPPA = 5e-3
# the RMS norm of k scaled components is hypot(...)/sqrt(k); sqrt(6) is _S6
_SQRT2 = math.sqrt(2.0)

# Hand over to Radau IIA once h*rho(J) > _STIFF_H_RHO on _STIFF_RUN accepted
# DOP853 steps in a row. A sustained h*rho(J) of 0.5, well inside DOP853's
# real-axis stability bound of 6.39, means the fast mode has died out and
# stability, not accuracy, holds the step down; the run length keeps a
# transient from tripping the switch. At 1.0 the log chart saved 3% more
# right-hand side calls, but its worst Barenblatt error rose from 2.8e-9 to
# 8.9e-9: the explicit stretch is where the septic dense output is read.
# Handing over only where the first Radau IIA attempt predicts a lower cost
# per unit t than DOP853's step at 12 calls was measured and not adopted: on
# the log chart DOP853 then runs up to the slow-manifold switch, whose jump in
# g grows 10-1500x (to 1.1e-11 on the power rows), and on the r-chart it
# needs a revert, a filtered error estimate and a re-probe schedule to win
# 12-17% on the four alpha < 0 grid rows, two of them a few % slower.
_STIFF_H_RHO = 0.5
_STIFF_RUN = 15

# Accepted plus rejected steps (of every kind together) before StepUnderflow.
_MAX_STEPS = 1_000_000
# A step collapse that persists: _COLLAPSE_RUN accepted steps in a row shorter
# than _COLLAPSE_H*|t| raise StepUnderflow where they set in, not after
# _MAX_STEPS. At that length a solve would need some 1e12 steps to double t.
_COLLAPSE_H = 1e-12
_COLLAPSE_RUN = 100

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# DOP853's err is its 5th-order estimate (~h^6): h *= SAFETY * err^-_DOP853_EXP.
_DOP853_EXP = 1.0 / 6.0

RHS = Callable[[float, float, float], tuple[float, float]]
# Jacobian of an RHS: (dfy/dy, dfy/dz, dfz/dy, dfz/dz).
JAC = Callable[[float, float, float], tuple[float, float, float, float]]


@dataclass(frozen=True)
class RawPath:
    """Accepted nodes of one integration: the states (y, z) and z' = fz."""

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fz: np.ndarray
    n_steps: int
    n_rejected: int
    nfev: int
    # simplified Newton iterations of the Radau IIA attempts (0 when DOP853 ran the whole span)
    n_newton: int
    # DOP853's nodes, up to and including the one from which Radau IIA took over
    # (every node when DOP853 ran the whole span).
    n_explicit: int

    @property
    def t_stiff(self) -> float | None:
        """Node from which Radau IIA took over (None when DOP853 ran the whole span)."""
        return None if self.n_explicit == self.t.size else float(self.t[self.n_explicit - 1])

    @property
    def counters(self) -> dict:
        """The step counters and the switch node (``stiff_switch``), under the names of the chart records."""
        return dict(n_steps=self.n_steps, n_rejected=self.n_rejected, nfev=self.nfev, n_newton=self.n_newton,
                    stiff_switch=self.t_stiff)


def _rms(a: float, b: float) -> float:
    """RMS norm of two scaled components; inf once a square leaves the float range."""
    try:
        return math.sqrt(0.5 * (a**2 + b**2))
    except OverflowError:
        return math.inf


def _initial_step(f: RHS, t0, y0, z0, fy0, fz0, span, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4) for DOP853's 5th-order estimate."""
    scy = atol + rtol * abs(y0)
    scz = atol + rtol * abs(z0)
    d0 = _rms(y0 / scy, z0 / scz)
    d1 = _rms(fy0 / scy, fz0 / scz)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    if h0 == 0.0:  # d1 overflowed: the loop reports a step collapse at t0
        return 0.0
    fy1, fz1 = f(t0 + h0, y0 + h0 * fy0, z0 + h0 * fz0)
    if math.isfinite(fy1) and math.isfinite(fz1):
        d2 = _rms((fy1 - fy0) / scy, (fz1 - fz0) / scz) / h0
    else:
        d2 = math.inf
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    elif math.isinf(d2):
        h1 = h0 * 1e-2
    else:
        h1 = (0.01 / max(d1, d2)) ** _DOP853_EXP
    return min(100.0 * h0, h1, span)


def _spectral_radius(a, b, c, d) -> float:
    """Largest eigenvalue modulus of [[a, b], [c, d]]."""
    half_tr = 0.5 * (a + d)
    disc = half_tr * half_tr - (a * d - b * c)
    if disc >= 0.0:
        return abs(half_tr) + math.sqrt(disc)
    return math.sqrt(a * d - b * c)  # complex pair: |lambda|^2 = det


def _radau_factor(h, h_old, err, err_old) -> float:
    """Step-size factor of the Gustafsson predictive controller (Hairer & Wanner IV.8)."""
    if err == 0.0:
        return _MAX_FACTOR
    if err_old is None:
        return err**-0.25
    return min(1.0, h / h_old * (err_old / err) ** 0.25) * err**-0.25


def _step_collapse(t, positive_y, y, y_vanished, what="step size underflow") -> ProfileError:
    """The error for a step size that fell below resolution at t."""
    if positive_y and y <= y_vanished:
        return PositivityLoss("profile vanishes faster than the integrator can resolve", t)
    return StepUnderflow(what, t)


def _bracket_crossing(t, h, y0, d0, y1, d1, floor) -> float:
    """Bisect the step's cubic Hermite interpolant for the first floor crossing."""
    piece = Hermite(np.array([0.0, h]), np.array([y0, y1]), np.array([d0, d1]))
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if piece._value(0, mid) - floor > 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h


def _dop853_attempt(f: RHS, t, y, z, k1y, k1z, h, rtol, atol_y, atol_z) -> tuple[float, float, float]:
    """One DOP853 step from (t, y, z) with first stage (k1y, k1z): (y_new, z_new, err).

    err is the scaled RMS norm of the 5th-order estimate alone (inf when the
    new state is not finite, NaN when a stage is). DOP853's own blend with its
    3rd-order estimate, |h|*E5^2/sqrt(E5^2 + 0.01*E3^2), understates the local
    error of the 8th-order result on the r-chart's long steps: on six
    INVARIANT_GRID rows out to r = 25 it let 2% of the accepted steps exceed
    the tolerance, by up to 3x, and the nodes drifted up to 6.7x further from a
    tight reference than those of a Dormand-Prince 5(4) pair. E5 alone bounds
    the local error there and costs 23% more steps than the blend.
    """
    k2y, k2z = f(t + _DC2 * h, y + h * (_DA2_1 * k1y), z + h * (_DA2_1 * k1z))
    k3y, k3z = f(t + _DC3 * h, y + h * (_DA3_1 * k1y + _DA3_2 * k2y), z + h * (_DA3_1 * k1z + _DA3_2 * k2z))
    k4y, k4z = f(t + _DC4 * h, y + h * (_DA4_1 * k1y + _DA4_3 * k3y), z + h * (_DA4_1 * k1z + _DA4_3 * k3z))
    k5y, k5z = f(
        t + _DC5 * h,
        y + h * (_DA5_1 * k1y + _DA5_3 * k3y + _DA5_4 * k4y),
        z + h * (_DA5_1 * k1z + _DA5_3 * k3z + _DA5_4 * k4z),
    )
    k6y, k6z = f(
        t + _DC6 * h,
        y + h * (_DA6_1 * k1y + _DA6_4 * k4y + _DA6_5 * k5y),
        z + h * (_DA6_1 * k1z + _DA6_4 * k4z + _DA6_5 * k5z),
    )
    k7y, k7z = f(
        t + _DC7 * h,
        y + h * (_DA7_1 * k1y + _DA7_4 * k4y + _DA7_5 * k5y + _DA7_6 * k6y),
        z + h * (_DA7_1 * k1z + _DA7_4 * k4z + _DA7_5 * k5z + _DA7_6 * k6z),
    )
    k8y, k8z = f(
        t + _DC8 * h,
        y + h * (_DA8_1 * k1y + _DA8_4 * k4y + _DA8_5 * k5y + _DA8_6 * k6y + _DA8_7 * k7y),
        z + h * (_DA8_1 * k1z + _DA8_4 * k4z + _DA8_5 * k5z + _DA8_6 * k6z + _DA8_7 * k7z),
    )
    k9y, k9z = f(
        t + _DC9 * h,
        y + h * (_DA9_1 * k1y + _DA9_4 * k4y + _DA9_5 * k5y + _DA9_6 * k6y + _DA9_7 * k7y + _DA9_8 * k8y),
        z + h * (_DA9_1 * k1z + _DA9_4 * k4z + _DA9_5 * k5z + _DA9_6 * k6z + _DA9_7 * k7z + _DA9_8 * k8z),
    )
    k10y, k10z = f(
        t + _DC10 * h,
        y + h * (_DA10_1 * k1y + _DA10_4 * k4y + _DA10_5 * k5y + _DA10_6 * k6y
                 + _DA10_7 * k7y + _DA10_8 * k8y + _DA10_9 * k9y),
        z + h * (_DA10_1 * k1z + _DA10_4 * k4z + _DA10_5 * k5z + _DA10_6 * k6z
                 + _DA10_7 * k7z + _DA10_8 * k8z + _DA10_9 * k9z),
    )
    k11y, k11z = f(
        t + _DC11 * h,
        y + h * (_DA11_1 * k1y + _DA11_4 * k4y + _DA11_5 * k5y + _DA11_6 * k6y
                 + _DA11_7 * k7y + _DA11_8 * k8y + _DA11_9 * k9y + _DA11_10 * k10y),
        z + h * (_DA11_1 * k1z + _DA11_4 * k4z + _DA11_5 * k5z + _DA11_6 * k6z
                 + _DA11_7 * k7z + _DA11_8 * k8z + _DA11_9 * k9z + _DA11_10 * k10z),
    )
    k12y, k12z = f(
        t + h,
        y + h * (_DA12_1 * k1y + _DA12_4 * k4y + _DA12_5 * k5y + _DA12_6 * k6y + _DA12_7 * k7y
                 + _DA12_8 * k8y + _DA12_9 * k9y + _DA12_10 * k10y + _DA12_11 * k11y),
        z + h * (_DA12_1 * k1z + _DA12_4 * k4z + _DA12_5 * k5z + _DA12_6 * k6z + _DA12_7 * k7z
                 + _DA12_8 * k8z + _DA12_9 * k9z + _DA12_10 * k10z + _DA12_11 * k11z),
    )
    by = _DB1 * k1y + _DB6 * k6y + _DB7 * k7y + _DB8 * k8y + _DB9 * k9y + _DB10 * k10y + _DB11 * k11y + _DB12 * k12y
    bz = _DB1 * k1z + _DB6 * k6z + _DB7 * k7z + _DB8 * k8z + _DB9 * k9z + _DB10 * k10z + _DB11 * k11z + _DB12 * k12z
    y_new = y + h * by
    z_new = z + h * bz
    if not (math.isfinite(y_new) and math.isfinite(z_new)):
        return y_new, z_new, math.inf
    scy = atol_y + rtol * max(abs(y), abs(y_new))
    scz = atol_z + rtol * max(abs(z), abs(z_new))
    e5y = (_DE5_1 * k1y + _DE5_6 * k6y + _DE5_7 * k7y + _DE5_8 * k8y
           + _DE5_9 * k9y + _DE5_10 * k10y + _DE5_11 * k11y + _DE5_12 * k12y) / scy
    e5z = (_DE5_1 * k1z + _DE5_6 * k6z + _DE5_7 * k7z + _DE5_8 * k8z
           + _DE5_9 * k9z + _DE5_10 * k10z + _DE5_11 * k11z + _DE5_12 * k12z) / scz
    return y_new, z_new, _rms(h * e5y, h * e5z)


def integrate_2d(
    f: RHS,
    t0: float,
    y0: float,
    z0: float,
    t_end: float,
    rtol: float,
    atol: float,
    *,
    positive_y: bool = False,
    stop_when_y_above: float | None = None,
    jac: JAC | None = None,
    stiff_tol: tuple[float, float] | None = None,
) -> RawPath:
    """Integrate (y, z)' = f(t, y, z) from t0 to t_end, storing every accepted node.

    With ``positive_y`` the first component is monitored against
    POSITIVITY_FLOOR; a crossing raises PositivityLoss with the bracketed
    location. A step-size collapse raises StepUnderflow unless y has already
    fallen below 1e-8*|y0|, which is reported as positivity loss as well
    (steep vanishing profiles exhaust the step size long before y reaches
    the floor). Below that level y's error is measured against rtol*|y|
    alone: far below atol the mixed scale no longer sees y, and a step could
    cross its zero onto a spurious positive branch.

    ``stop_when_y_above`` ends the integration at the first accepted node with
    y above the threshold (overshoot of at most one step); the caller detects
    the early stop by comparing the final node against t_end.

    ``jac`` is the Jacobian of f. Every step is DOP853 until, with ``jac``,
    the problem is measurably stiff (see the module docstring); the
    integration then switches to Radau IIA, and ``RawPath.n_explicit``
    counts the nodes up to and including that one (``RawPath.t_stiff``).
    Up to that node a call with ``jac`` takes the same steps as one without.
    ``stiff_tol``, an (rtol, atol) pair, replaces the tolerances from that
    node on (by default they stay as they are).
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if rtol <= 0.0 or atol <= 0.0 or (stiff_tol is not None and min(stiff_tol) <= 0.0):
        raise ValueError("tolerances must be positive")

    fy, fz = f(t0, y0, z0)
    if not (math.isfinite(fy) and math.isfinite(fz)):
        raise ProfileError("right-hand side not finite at the starting point", t0)

    span = t_end - t0
    y_vanished = max(1e-8 * abs(y0), 1e3 * POSITIVITY_FLOOR)

    ts = [t0]
    ys = [y0]
    zs = [z0]
    fzs = [fz]

    h = _initial_step(f, t0, y0, z0, fy, fz, span, rtol, atol)

    t, y, z = t0, y0, z0
    n_steps = 0
    n_rejected = 0
    nfev = 2
    n_newton = 0
    # accepted steps in a row shorter than _COLLAPSE_H*|t|
    collapsed = 0
    # the last attempt was rejected for its error (or, in an explicit step, a non-finite stage)
    rejected = False
    # accepted DOP853 steps in a row with h*rho(J) > _STIFF_H_RHO
    stiff_run = 0
    # Radau IIA state: the iteration matrix's Jacobian (None while DOP853 steps),
    # the last accepted step's (t, h, y, z, Q of y, Q of z) and controller memory
    J = None
    n_explicit = None
    poly = None
    h_old = err_old = newton_tol = None

    while t < t_end:
        if n_steps + n_rejected >= _MAX_STEPS:
            raise StepUnderflow(f"step budget of {_MAX_STEPS} exhausted", t)
        final = h >= (t_end - t) * (1.0 - 1e-12)
        if final:
            h = t_end - t
        # the step has collapsed once it is below ~50 ulps of t; near t = 0,
        # where |t| sets no scale (the log chart starts at s = 0), below 1e-20
        if h < 1e-14 * max(abs(t), 1e-6):
            raise _step_collapse(t, positive_y, y, y_vanished)
        t_new = t_end if final else t + h

        # a positive y that has vanished is held to rtol alone: far below atol the
        # mixed error scale is blind to it, and a step can pass its zero unseen
        atol_y = 0.0 if positive_y and y <= y_vanished else atol
        if J is None:
            y_new, z_new, err = _dop853_attempt(f, t, y, z, fy, fz, h, rtol, atol_y, atol)
            nfev += 11
            if err <= 1.0:  # the last stage is not the new node's: one more call, accepted steps only
                fy_new, fz_new = f(t_new, y_new, z_new)
                nfev += 1
                if not (math.isfinite(fy_new) and math.isfinite(fz_new)):
                    err = math.inf
        else:
            # Newton start: the last step's collocation polynomial at this step's nodes.
            if poly is None:
                zy0 = zy1 = zy2 = zz0 = zz1 = zz2 = 0.0
            else:
                tp, hp, yp, zp, (qy0, qy1, qy2), (qz0, qz1, qz2) = poly
                x0 = (t + _RC1 * h - tp) / hp
                x1 = (t + _RC2 * h - tp) / hp
                x2 = (t + h - tp) / hp
                zy0 = yp + x0 * (qy0 + x0 * (qy1 + x0 * qy2)) - y
                zy1 = yp + x1 * (qy0 + x1 * (qy1 + x1 * qy2)) - y
                zy2 = yp + x2 * (qy0 + x2 * (qy1 + x2 * qy2)) - y
                zz0 = zp + x0 * (qz0 + x0 * (qz1 + x0 * qz2)) - z
                zz1 = zp + x1 * (qz0 + x1 * (qz1 + x1 * qz2)) - z
                zz2 = zp + x2 * (qz0 + x2 * (qz1 + x2 * qz2)) - z
            wy0 = _TI00 * zy0 + _TI01 * zy1 + _TI02 * zy2
            wy1 = _TI10 * zy0 + _TI11 * zy1 + _TI12 * zy2
            wy2 = _TI20 * zy0 + _TI21 * zy1 + _TI22 * zy2
            wz0 = _TI00 * zz0 + _TI01 * zz1 + _TI02 * zz2
            wz1 = _TI10 * zz0 + _TI11 * zz1 + _TI12 * zz2
            wz2 = _TI20 * zz0 + _TI21 * zz1 + _TI22 * zz2

            # Simplified Newton on the collocation system, in the eigenbasis of
            # the Radau matrix: one real and one complex 2x2 solve per iteration,
            # (mu*I - J)^-1 (r1, r2) = (q*r1 + J01*r2, J10*r1 + p*r2)/det with
            # p = mu - J00, q = mu - J11 and det = p*q - J01*J10 fixed for the attempt.
            # It stops once rate/(1 - rate)*norm, the remaining error it predicts,
            # is below newton_tol = _NEWTON_KAPPA in the scaled norm, and gives up
            # when the rate says it cannot get there within _NEWTON_MAXITER.
            mu_r = _MU_REAL / h
            mu_c = _MU_COMPLEX / h
            j00, j01, j10, j11 = J
            p_r = mu_r - j00
            q_r = mu_r - j11
            det_r = p_r * q_r - j01 * j10
            p_c = mu_c - j00
            q_c = mu_c - j11
            det_c = p_c * q_c - j01 * j10
            ry = 1.0 / (atol + rtol * abs(y))
            rz = 1.0 / (atol + rtol * abs(z))
            converged = False
            norm_old = rate = None
            n_iter = 0
            while n_iter < _NEWTON_MAXITER:
                n_iter += 1
                n_newton += 1
                f0y, f0z = f(t + _RC1 * h, y + zy0, z + zz0)
                f1y, f1z = f(t + _RC2 * h, y + zy1, z + zz1)
                f2y, f2z = f(t_new, y + zy2, z + zz2)
                nfev += 3
                r1 = _TI00 * f0y + _TI01 * f1y + _TI02 * f2y - mu_r * wy0
                r2 = _TI00 * f0z + _TI01 * f1z + _TI02 * f2z - mu_r * wz0
                dy0 = (q_r * r1 + j01 * r2) / det_r
                dz0 = (j10 * r1 + p_r * r2) / det_r
                r1 = _TIC0 * f0y + _TIC1 * f1y + _TIC2 * f2y - mu_c * complex(wy1, wy2)
                r2 = _TIC0 * f0z + _TIC1 * f1z + _TIC2 * f2z - mu_c * complex(wz1, wz2)
                dyc = (q_c * r1 + j01 * r2) / det_c
                dzc = (j10 * r1 + p_c * r2) / det_c
                norm = math.hypot(dy0 * ry, dyc.real * ry, dyc.imag * ry, dz0 * rz, dzc.real * rz, dzc.imag * rz) / _S6
                if not math.isfinite(norm):  # a stage left the domain of f
                    break
                if norm_old is not None:
                    rate = norm / norm_old
                    if rate >= 1.0 or rate ** (_NEWTON_MAXITER - n_iter + 1) / (1.0 - rate) * norm > newton_tol:
                        break
                wy0 += dy0
                wy1 += dyc.real
                wy2 += dyc.imag
                wz0 += dz0
                wz1 += dzc.real
                wz2 += dzc.imag
                zy0 = _T00 * wy0 + _T01 * wy1 + _T02 * wy2
                zy1 = _T10 * wy0 + _T11 * wy1 + _T12 * wy2
                zy2 = wy0 + wy1
                zz0 = _T00 * wz0 + _T01 * wz1 + _T02 * wz2
                zz1 = _T10 * wz0 + _T11 * wz1 + _T12 * wz2
                zz2 = wz0 + wz1
                if norm == 0.0 or (rate is not None and rate / (1.0 - rate) * norm < newton_tol):
                    converged = True
                    break
                norm_old = norm

            if converged:
                y_new = y + zy2
                z_new = z + zz2
                fy_new, fz_new = f(t_new, y_new, z_new)
                nfev += 1
                converged = math.isfinite(fy_new) and math.isfinite(fz_new)
            if not converged:
                n_rejected += 1
                h *= 0.5
                continue

            # Hairer-Wanner error estimate, smoothed by (mu_r*I - J)^-1; after a
            # rejection it is filtered once more through the stiff component.
            ey = (_RE1 * zy0 + _RE2 * zy1 + _RE3 * zy2) / h
            ez = (_RE1 * zz0 + _RE2 * zz1 + _RE3 * zz2) / h
            r1 = fy + ey
            r2 = fz + ez
            err_y = (q_r * r1 + j01 * r2) / det_r
            err_z = (j10 * r1 + p_r * r2) / det_r
            scy = atol_y + rtol * max(abs(y), abs(y_new))
            scz = atol + rtol * max(abs(z), abs(z_new))
            err = math.hypot(err_y / scy, err_z / scz) / _SQRT2
            if rejected and err > 1.0:
                gy, gz = f(t, y + err_y, z + err_z)
                nfev += 1
                r1 = gy + ey
                r2 = gz + ez
                err_y = (q_r * r1 + j01 * r2) / det_r
                err_z = (j10 * r1 + p_r * r2) / det_r
                err = math.hypot(err_y / scy, err_z / scz) / _SQRT2
            safety = _SAFETY * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)

        if not math.isfinite(err):
            err = math.inf
        if err > 1.0:
            n_rejected += 1
            rejected = True
            if J is None:
                h *= min(1.0, max(_MIN_FACTOR, _SAFETY * err**-_DOP853_EXP))
            else:
                h *= max(_MIN_FACTOR, safety * _radau_factor(h, h_old, err, err_old))
            continue

        if positive_y and y_new <= POSITIVITY_FLOOR:
            raise PositivityLoss(
                "profile crossed the positivity floor",
                _bracket_crossing(t, h, y, fy, y_new, fy_new, POSITIVITY_FLOOR),
            )
        collapsed = collapsed + 1 if h < _COLLAPSE_H * abs(t) else 0
        if collapsed >= _COLLAPSE_RUN:
            raise _step_collapse(
                t, positive_y, y, y_vanished,
                f"step size below {_COLLAPSE_H:g}*|t| on {_COLLAPSE_RUN} accepted steps in a row",
            )
        t, y, z, fy, fz = t_new, y_new, z_new, fy_new, fz_new
        ts.append(t)
        ys.append(y)
        zs.append(z)
        fzs.append(fz)
        n_steps += 1
        if stop_when_y_above is not None and y >= stop_when_y_above:
            break

        if J is None:
            if jac is not None and not final:
                jac_t = jac(t, y, z)
                stiff_run = stiff_run + 1 if h * _spectral_radius(*jac_t) > _STIFF_H_RHO else 0
                if stiff_run >= _STIFF_RUN:
                    # hand over with the current h and the Jacobian just evaluated
                    J, n_explicit, rejected = jac_t, len(ts), False
                    if stiff_tol is not None:
                        rtol, atol = stiff_tol
                    newton_tol = max(10.0 * math.ulp(1.0) / rtol, _NEWTON_KAPPA)
                    continue
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**-_DOP853_EXP
            if rejected:
                factor = min(1.0, factor)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            poly = (
                ts[-2], h, ys[-2], zs[-2],
                (zy0 * _P00 + zy1 * _P10 + zy2 * _P20,
                 zy0 * _P01 + zy1 * _P11 + zy2 * _P21,
                 zy0 * _P02 + zy1 * _P12 + zy2 * _P22),
                (zz0 * _P00 + zz1 * _P10 + zz2 * _P20,
                 zz0 * _P01 + zz1 * _P11 + zz2 * _P21,
                 zz0 * _P02 + zz1 * _P12 + zz2 * _P22),
            )
            factor = min(_MAX_FACTOR, safety * _radau_factor(h, h_old, err, err_old))
            h_old, err_old = h, err
            J = jac(t, y, z)
            h *= factor
        rejected = False

    return RawPath(
        t=np.asarray(ts),
        y=np.asarray(ys),
        z=np.asarray(zs),
        fz=np.asarray(fzs),
        n_steps=n_steps,
        n_rejected=n_rejected,
        nfev=nfev,
        n_newton=n_newton,
        n_explicit=len(ts) if n_explicit is None else n_explicit,
    )


# The theta^k correction of a k-derivative Hermite piece: row l, applied to the
# right node's Taylor defects e_i (in units of h^i/i!), gives the coefficient of
# theta^(k+l). It is the inverse of A[i][l] = C(k+l, i), which is unimodular,
# so every entry is an exact integer.
_CORRECTION = {
    2: ((3, -1), (-2, 1)),
    3: ((10, -4, 1), (-15, 7, -2), (6, -3, 1)),
    4: ((35, -15, 5, -1), (-84, 39, -14, 3), (70, -34, 13, -3), (-20, 10, -4, 1)),
}
# Per k: C(j, i) for j > i in row i, column j, which maps the left node's Taylor
# coefficients past the i-th to the rest of the Taylor polynomial's i-th
# derivative at theta = 1 (in units of h^i/i!), and the correction table as an array.
_HERMITE_TABLES = {
    k: (np.array([[math.comb(j, i) * (j > i) for j in range(k)] for i in range(k)], dtype=float),
        np.array(rows, dtype=float))
    for k, rows in _CORRECTION.items()
}


def _fill_pieces(coef, d, unit):
    """Write the 2k Hermite coefficients of each piece between the nodes of ``d``, k derivative rows, into ``coef``."""
    k = d.shape[0]
    binom, table = _HERMITE_TABLES[k]
    taylor = d[:, :-1] * unit
    # each derivative is differenced across the piece first: at the right node
    # the value defect is a small difference of two large numbers
    defects = np.diff(d) * unit - np.einsum("ij,jp->ip", binom, taylor)
    coef[:k] = taylor
    coef[k:] = np.einsum("li,ip->lp", table, defects)


class Hermite:
    """Piecewise two-point Hermite interpolant of degree 2k - 1 from k derivatives.

    ``Hermite(x, y, dy, ...)`` takes the value and the first k - 1 derivatives
    (k = 2, 3 or 4) at strictly increasing nodes; the interpolation error is
    O(h^(2k)) per piece. On piece i at fraction theta it is the left node's
    Taylor polynomial of degree k - 1 plus a correction theta^k*(c_k + ... +
    c_(2k-1)*theta^(k-1)) whose coefficients are combinations of the Taylor
    defects at the right node (``_CORRECTION``), so no coefficient is a
    difference of large monomial terms. ``value`` and ``derivative`` return a
    float for a scalar query and an array otherwise, with the same bits.

    For k = 3 or 4 the last array may cover only the first j >= 2 nodes; the
    pieces past node j - 1 then come from the first k - 1 arrays alone, of
    degree 2k - 3, with the bits of the interpolant built on that stretch
    (their two top coefficients are zero, which leaves Horner's sum unchanged).
    """

    def __init__(self, x, *derivatives):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("nodes must be a strictly increasing 1-d array")
        h = self._h = np.diff(self.x)
        if np.any(h <= 0):
            raise ValueError("nodes must be a strictly increasing 1-d array")
        k = len(derivatives)
        if k not in _CORRECTION:
            raise ValueError(f"Hermite takes 2, 3 or 4 derivative arrays, got {k}")
        n = self.x.size
        j = len(derivatives[-1])  # nodes the last array covers
        if any(len(a) != n for a in derivatives[:-1]) or not (j == n or (2 <= j < n and k > 2)):
            raise ValueError("each derivative array must cover every node; the last may cover the first j >= 2, k > 2")
        # row i: h^i/i!, the unit of the i-th derivative's Taylor coefficient
        unit = [np.ones_like(h)]
        for i in range(1, k):
            unit.append(unit[-1] * h / i)
        unit = np.array(unit)
        # coefficients of theta^0 .. theta^(2k-1), one column per piece: from all k
        # arrays up to node j - 1, from the first k - 1 past it (two top rows zero)
        coef = self._coef = np.zeros((2 * k, n - 1))
        _fill_pieces(coef[:, : j - 1], np.array([a[:j] for a in derivatives], dtype=float), unit[:, : j - 1])
        if j < n:
            past = np.array(derivatives[:-1], dtype=float)[:, j - 1 :]
            _fill_pieces(coef[:-2, j - 1 :], past, unit[:-1, j - 1 :])

    @cached_property
    def _dcoef(self):
        return self._coef[1:] * np.arange(1.0, self._coef.shape[0])[:, None]

    @staticmethod
    def _horner(coef, i, th):
        """sum_j coef[j, i]*th^j."""
        c = np.take(coef, i, axis=1)
        out = c[-1]
        for row in c[-2::-1]:
            out = out * th + row
        return out

    def _value(self, i, th):
        return self._horner(self._coef, i, th)

    def _derivative(self, i, th):
        return self._horner(self._dcoef, i, th) / self._h[i]

    def _at(self, piece, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        # the piece whose left node is the last node <= xq; the end pieces extend outward
        i = np.searchsorted(self.x[1:-1], xq, side="right")
        out = piece(i, (xq - self.x[i]) / self._h[i])
        return float(out[0]) if scalar else out

    def value(self, xq):
        return self._at(self._value, xq)

    def derivative(self, xq):
        return self._at(self._derivative, xq)
