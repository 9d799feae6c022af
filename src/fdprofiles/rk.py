"""Embedded Runge-Kutta 5(4) stepping for two-state systems.

Every chart in this package is a second-order scalar ODE reduced to first
order, so the state always has exactly two components. The hot loop therefore
works on plain Python floats: at this state size the interpreter overhead of
array arithmetic dominates the flops, and a float core is roughly an order of
magnitude faster than wrapping a general-purpose array solver.

The pair is Dormand-Prince 5(4) with FSAL and a PI step-size controller.
Accepted nodes retain both state components and their derivatives, which is
enough for quintic Hermite dense output whenever the second component is the
derivative of the first (value, slope, and curvature known at both ends of
every step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PositivityLoss, StepUnderflow

__all__ = ["POSITIVITY_FLOOR", "RawPath", "integrate_2d", "QuinticHermite", "CubicHermite"]

# No clamping below this value; clamping would corrupt decay estimation.
POSITIVITY_FLOOR = 1e-300

# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller: h *= SAFETY * err^(-PI_EXP) * err_prev^PI_MEM  (5th-order pair)
_PI_EXP = 0.17
_PI_MEM = 0.04

RHS = Callable[[float, float, float], tuple[float, float]]


@dataclass(frozen=True)
class RawPath:
    """Accepted nodes of one integration: states and their derivatives."""

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fy: np.ndarray
    fz: np.ndarray
    n_steps: int
    n_rejected: int


def _initial_step(f: RHS, t0, y0, z0, fy0, fz0, span, rtol, atol) -> float:
    scy = atol + rtol * abs(y0)
    scz = atol + rtol * abs(z0)
    d0 = math.sqrt(0.5 * ((y0 / scy) ** 2 + (z0 / scz) ** 2))
    d1 = math.sqrt(0.5 * ((fy0 / scy) ** 2 + (fz0 / scz) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    fy1, fz1 = f(t0 + h0, y0 + h0 * fy0, z0 + h0 * fz0)
    if math.isfinite(fy1) and math.isfinite(fz1):
        d2 = math.sqrt(0.5 * (((fy1 - fy0) / scy) ** 2 + ((fz1 - fz0) / scz) ** 2)) / h0
    else:
        d2 = math.inf
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    elif math.isinf(d2):
        h1 = h0 * 1e-2
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _cubic_eval(theta, h, y0, d0, y1, d1):
    # value of the cubic Hermite on one step at fraction theta
    a = y1 - y0 - h * d0
    b = h * (d1 - d0)
    c3 = b - 2.0 * a
    c2 = 3.0 * a - b
    return y0 + h * d0 * theta + theta * theta * (c2 + theta * c3)


def _bracket_crossing(t, h, y0, d0, y1, d1, floor) -> float:
    """Bisect the step's Hermite interpolant for the first floor crossing."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _cubic_eval(mid, h, y0, d0, y1, d1) - floor > 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h


def integrate_2d(
    f: RHS,
    t0: float,
    y0: float,
    z0: float,
    t_end: float,
    rtol: float,
    atol: float,
    *,
    max_step: float = math.inf,
    positive_y: bool = False,
    max_steps: int = 1_000_000,
    stop_when_y_above: float | None = None,
) -> RawPath:
    """Integrate (y, z)' = f(t, y, z) from t0 to t_end, storing every accepted node.

    With ``positive_y`` the first component is monitored against
    POSITIVITY_FLOOR; a crossing raises PositivityLoss with the bracketed
    location. A step-size collapse raises StepUnderflow unless y has already
    fallen below 1e-8*|y0|, which is reported as positivity loss as well
    (steep vanishing profiles exhaust the step size long before y reaches
    the floor).

    ``stop_when_y_above`` ends the integration at the first accepted node with
    y above the threshold (overshoot of at most one step); the caller detects
    the early stop by comparing the final node against t_end.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if rtol <= 0.0 or atol <= 0.0:
        raise ValueError("tolerances must be positive")

    fy, fz = f(t0, y0, z0)
    if not (math.isfinite(fy) and math.isfinite(fz)):
        raise ValueError(f"right-hand side not finite at the starting point t={t0}")

    span = t_end - t0
    y_vanished = max(1e-8 * abs(y0), 1e3 * POSITIVITY_FLOOR)

    ts = [t0]
    ys = [y0]
    zs = [z0]
    fys = [fy]
    fzs = [fz]

    h = min(_initial_step(f, t0, y0, z0, fy, fz, span, rtol, atol), max_step, span)

    t, y, z = t0, y0, z0
    err_prev = 1e-4
    just_rejected = False
    n_steps = 0
    n_rejected = 0

    while t < t_end:
        if n_steps + n_rejected >= max_steps:
            raise StepUnderflow(f"step budget of {max_steps} exhausted", t)
        final = h >= (t_end - t) * (1.0 - 1e-12)
        if final:
            h = t_end - t
        if h < 1e-14 * max(abs(t), 1e-6 * span):
            if positive_y and y <= y_vanished:
                raise PositivityLoss("profile vanishes faster than the integrator can resolve", t)
            raise StepUnderflow("step size underflow", t)

        k1y, k1z = fy, fz
        k2y, k2z = f(t + _C2 * h, y + h * (_A21 * k1y), z + h * (_A21 * k1z))
        k3y, k3z = f(t + _C3 * h, y + h * (_A31 * k1y + _A32 * k2y), z + h * (_A31 * k1z + _A32 * k2z))
        k4y, k4z = f(
            t + _C4 * h,
            y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y),
            z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z),
        )
        k5y, k5z = f(
            t + _C5 * h,
            y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
            z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z),
        )
        k6y, k6z = f(
            t + h,
            y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y),
            z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
        )
        y_new = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        z_new = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        t_new = t_end if final else t + h

        ok = math.isfinite(y_new) and math.isfinite(z_new)
        if ok:
            k7y, k7z = f(t_new, y_new, z_new)
            err_y = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
            err_z = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
            scy = atol + rtol * max(abs(y), abs(y_new))
            scz = atol + rtol * max(abs(z), abs(z_new))
            err = math.sqrt(0.5 * ((err_y / scy) ** 2 + (err_z / scz) ** 2))
            if not math.isfinite(err) or not (math.isfinite(k7y) and math.isfinite(k7z)):
                ok = False
        if not ok:
            n_rejected += 1
            just_rejected = True
            h *= _MIN_FACTOR
            continue

        if err <= 1.0:
            if positive_y and y_new <= POSITIVITY_FLOOR:
                raise PositivityLoss(
                    "profile crossed the positivity floor",
                    _bracket_crossing(t, h, y, k1y, y_new, k7y, POSITIVITY_FLOOR),
                )
            t, y, z = t_new, y_new, z_new
            fy, fz = k7y, k7z
            ts.append(t)
            ys.append(y)
            zs.append(z)
            fys.append(fy)
            fzs.append(fz)
            n_steps += 1
            if stop_when_y_above is not None and y >= stop_when_y_above:
                break

            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-_PI_EXP) * err_prev**_PI_MEM
            if just_rejected:
                factor = min(1.0, factor)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            h = min(h, max_step)
            err_prev = max(err, 1e-4)
            just_rejected = False
        else:
            n_rejected += 1
            just_rejected = True
            h *= min(1.0, max(_MIN_FACTOR, _SAFETY * err**-0.2))

    return RawPath(
        t=np.asarray(ts),
        y=np.asarray(ys),
        z=np.asarray(zs),
        fy=np.asarray(fys),
        fz=np.asarray(fzs),
        n_steps=n_steps,
        n_rejected=n_rejected,
    )


class QuinticHermite:
    """Piecewise two-point quintic Hermite interpolant.

    Built from (value, first derivative, second derivative) at strictly
    increasing nodes. Interpolation error is O(h^6) per step, and the
    differentiated interpolant stays C1 across nodes, so finite-difference
    stencils applied downstream see a smooth function.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, dy: np.ndarray, ddy: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2 or np.any(np.diff(self.x) <= 0):
            raise ValueError("nodes must be a strictly increasing 1-d array")
        self.y = np.asarray(y, dtype=float)
        self.dy = np.asarray(dy, dtype=float)
        self.ddy = np.asarray(ddy, dtype=float)
        h = np.diff(self.x)
        y0, y1 = self.y[:-1], self.y[1:]
        d0, d1 = self.dy[:-1], self.dy[1:]
        s0, s1 = self.ddy[:-1], self.ddy[1:]
        a = y1 - y0 - h * d0 - 0.5 * h * h * s0
        b = h * (d1 - d0) - h * h * s0
        c = h * h * (s1 - s0)
        self._h = h
        self._c5 = 0.5 * c - 3.0 * b + 6.0 * a
        self._c4 = 7.0 * b - 15.0 * a - c
        self._c3 = 10.0 * a - 4.0 * b + 0.5 * c

    def _pieces(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        theta = (xq - self.x[idx]) / self._h[idx]
        return idx, theta

    def value(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        i, th = self._pieces(xq)
        h = self._h[i]
        out = (
            self.y[i]
            + h * self.dy[i] * th
            + 0.5 * h * h * self.ddy[i] * th * th
            + th**3 * (self._c3[i] + th * (self._c4[i] + th * self._c5[i]))
        )
        return float(out[0]) if scalar else out

    def derivative(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        i, th = self._pieces(xq)
        h = self._h[i]
        out = (
            self.dy[i]
            + h * self.ddy[i] * th
            + th * th * (3.0 * self._c3[i] + th * (4.0 * self._c4[i] + th * 5.0 * self._c5[i])) / h
        )
        return float(out[0]) if scalar else out


class CubicHermite:
    """Piecewise cubic Hermite interpolant from (value, derivative) nodes."""

    def __init__(self, x: np.ndarray, y: np.ndarray, dy: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2 or np.any(np.diff(self.x) <= 0):
            raise ValueError("nodes must be a strictly increasing 1-d array")
        self.y = np.asarray(y, dtype=float)
        self.dy = np.asarray(dy, dtype=float)
        h = np.diff(self.x)
        a = self.y[1:] - self.y[:-1] - h * self.dy[:-1]
        b = h * (self.dy[1:] - self.dy[:-1])
        self._h = h
        self._c3 = b - 2.0 * a
        self._c2 = 3.0 * a - b

    def _pieces(self, xq):
        idx = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        theta = (xq - self.x[idx]) / self._h[idx]
        return idx, theta

    def value(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        i, th = self._pieces(xq)
        out = self.y[i] + self._h[i] * self.dy[i] * th + th * th * (self._c2[i] + th * self._c3[i])
        return float(out[0]) if scalar else out

    def derivative(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        i, th = self._pieces(xq)
        out = self.dy[i] + th * (2.0 * self._c2[i] + 3.0 * th * self._c3[i]) / self._h[i]
        return float(out[0]) if scalar else out
