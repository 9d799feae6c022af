"""Decay-limit extraction from computed solutions.

Two regimes are measured. Under the eternal relation alpha = 2*beta/(1-m) > 0
the quantity q = r*w_r (equal to w_s in the log chart) tends to

    a0 = 2*(n-1)*(n-2-n*m) / ((1-m)*beta),

equivalently |x|^2 v^(1-m) / log|x| -> a0; the approach is slow, so the tail
of w_s is fitted with a + c/s and a is reported. Under the wider condition
2*beta/(1-m) > max(alpha, 0) the quantity q = r^(alpha/beta) * v plateaus at
a positive constant A with no closed form; the plateau is detected through
the relative drift over the final decade, and the tail-decay proxy
r^p0 * q'/q with p0 = 2 - (alpha/2beta)*(1-m) is reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import HypothesisViolation
from .integrate import LogProfile, Solution
from .model import EXACT_DECAY, Parameters, derived, require

__all__ = [
    "DecayKind",
    "DecayEstimate",
    "expected_log_constant",
    "require_decay_inputs",
    "estimate_log_decay",
    "estimate_power_decay",
    "tail_limit_fit",
    "log_tail_fit",
]

_LN10 = math.log(10.0)
# The log-decay trace samples w_s at s = 10, 15, ... and at the chart end.
_TRACE_START = 10.0
_TRACE_STEP = 5.0
# A log-decay fit counts as converged when its last sample is this close to it.
_CONVERGED_RTOL = 0.02
# A power plateau counts as converged when its last-decade drift is below this.
_DRIFT_RTOL = 1e-3


class DecayKind(Enum):
    LOG_CORRECTED = "log-corrected"
    POWER = "power"


@dataclass(frozen=True)
class DecayEstimate:
    """Estimator trace plus the extrapolated limit and convergence verdict.

    ``scales`` is the log-radius s for the log-corrected kind and the radius
    r for the power kind; ``values`` holds w_s(s) or q(r) respectively.
    NotConverged is soft: converged=False with the full trace retained.
    """

    kind: DecayKind
    scales: np.ndarray
    values: np.ndarray
    raw_last: float
    extrapolated: float
    converged: bool
    expected: float | None = None
    rel_error_vs_expected: float | None = None
    # power kind diagnostics
    drift: float | None = None
    proxy_values: np.ndarray | None = None
    proxy_decreasing: bool | None = None
    direction: str | None = None
    # log kind diagnostics
    fit_slope: float | None = None
    w_over_s_last: float | None = None


def expected_log_constant(p: Parameters) -> float:
    """The closed-form limit 2*(n-1)*(n-2-n*m)/((1-m)*beta).

    At m = (n-2)/(n+2) this reduces to (n-1)*(n-2)/beta identically. The
    range endpoint m = (n-2)/n is refused (the constant degenerates to zero
    there and the decay law changes character), and so is any p outside the
    existence range.
    """
    require(p, "the log-corrected decay constant", "strict_m", "existence_ok")
    return derived(p).a0


# What each kind needs of the parameters (fields of model.HypothesisReport).
_NEEDS = {DecayKind.LOG_CORRECTED: EXACT_DECAY, DecayKind.POWER: ("strict_m", "power_decay_ok")}


def require_decay_inputs(p: Parameters, kind: DecayKind, s_end: float) -> None:
    """Refuse parameters, or a log chart ending at s_end, that ``kind``'s estimator cannot use.

    It needs only the SolveConfig, so a caller can check before it solves;
    the estimators check again on the chart they get. Raises
    HypothesisViolation (EndpointExponentError at the endpoint m = (n-2)/n).
    """
    what = "log-corrected decay" if kind is DecayKind.LOG_CORRECTED else "power decay"
    require(p, what, *_NEEDS[kind])
    _require_chart_length(kind, s_end, p.alpha)


def _require_chart_length(kind: DecayKind, s_end: float, alpha: float | None = None) -> None:
    """Raise HypothesisViolation unless a log chart ending at s_end is long enough for ``kind``.

    The log-corrected trace starts at s = 10 and fits the upper half of the
    chart, so s_end >= 20; the power plateau reads three decades of r beyond
    r = 1 (none at alpha = 0, where q = v = eta).
    """
    if kind is DecayKind.LOG_CORRECTED and s_end < 2.0 * _TRACE_START:
        raise HypothesisViolation(
            f"log chart reaches only s = {s_end:.3g}; need at least {2 * _TRACE_START:.3g}"
        )
    if kind is DecayKind.POWER and alpha != 0.0 and _decades(s_end) < 3:
        raise HypothesisViolation(f"log chart reaches only r = {math.exp(s_end):.3g}; need at least three decades")


def _decades(s_end: float) -> int:
    """Whole decades of r from r = 1 to r = e^s_end; the 1e-9 slack counts a chart end that rounds short."""
    return int(math.floor(s_end / _LN10 + 1e-9))


def tail_limit_fit(s: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares fit values ~ a + c/s; returns (a, c).

    1/s is the generic first correction for the log-chart slope; no rate is
    available analytically, so this is an extrapolation assumption.
    """
    A = np.column_stack([np.ones_like(s), 1.0 / s])
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    return float(coef[0]), float(coef[1])


def log_tail_fit(lp: LogProfile) -> tuple[np.ndarray, np.ndarray, float, float]:
    """w_s sampled along the log chart and its a + c/s fit: (s, w_s, a, c).

    The trace runs from s = 10 in steps of 5 and ends at the chart end; the
    fit window is the upper half of the chart.
    """
    s_end = lp.s_end
    _require_chart_length(DecayKind.LOG_CORRECTED, s_end)
    # the stop's 1e-9 slack keeps a point at s_end; one it lets past s_end is read at s_end
    sgrid = np.minimum(np.arange(_TRACE_START, s_end + 1e-9, _TRACE_STEP), s_end)
    if s_end - sgrid[-1] > 1e-9:
        sgrid = np.append(sgrid, s_end)
    vals = lp.eval_ws(sgrid)
    window = sgrid >= 0.5 * s_end - 1e-9
    return (sgrid, vals, *tail_limit_fit(sgrid[window], vals[window]))


def estimate_log_decay(sol: Solution) -> DecayEstimate:
    """Extrapolated limit of w_s under the eternal relation (see log_tail_fit)."""
    p = sol.params
    lp = sol.logprofile
    s_end = lp.s_end
    require_decay_inputs(p, DecayKind.LOG_CORRECTED, s_end)
    sgrid, vals, a_fit, c_fit = log_tail_fit(lp)
    expected = expected_log_constant(p)
    raw_last = float(vals[-1])
    return DecayEstimate(
        kind=DecayKind.LOG_CORRECTED,
        scales=sgrid,
        values=vals,
        raw_last=raw_last,
        extrapolated=a_fit,
        converged=bool(abs(raw_last - a_fit) < _CONVERGED_RTOL * abs(a_fit)),
        expected=expected,
        rel_error_vs_expected=abs(a_fit - expected) / abs(expected),
        fit_slope=c_fit,
        w_over_s_last=float(lp.eval_w(s_end) / s_end),
    )


def estimate_power_decay(sol: Solution) -> DecayEstimate:
    """Plateau of q = r^(alpha/beta) * v at decade radii.

    alpha = 0 short-circuits to A = eta (q is then v itself, a constant).
    Otherwise q and its logarithmic derivative are read from the log chart at
    r = 1, 10, 100, ... (the chart starts at r = 1), where the decay residual
    is held as exact state.
    """
    p = sol.params
    lp = sol.logprofile
    require_decay_inputs(p, DecayKind.POWER, lp.s_end)
    if p.alpha == 0.0:
        scales = np.array([1.0])
        values = np.array([p.eta])
        return DecayEstimate(
            kind=DecayKind.POWER,
            scales=scales,
            values=values,
            raw_last=p.eta,
            extrapolated=p.eta,
            converged=True,
            expected=p.eta,
            rel_error_vs_expected=0.0,
            drift=0.0,
            direction="constant",
        )

    a = p.alpha / p.beta
    one_m = 1.0 - p.m
    n_dec = _decades(lp.s_end)
    # the 1e-9 slack in n_dec can put the last decade just past s_end; it is read at s_end
    sgrid = np.minimum(np.arange(0, n_dec + 1) * _LN10, lp.s_end)
    w = lp.eval_w(sgrid)
    g = lp.eval_g(sgrid)
    logq = a * sgrid + (np.log(w) - 2.0 * sgrid) / one_m
    q = np.exp(logq)
    scales = np.exp(sgrid)

    drift = float(abs(q[-1] - q[-2]) / abs(q[-1]))
    extrapolated = float(np.mean(q[-3:]))
    p0 = 2.0 - 0.5 * a * one_m
    # r^p0 * q'/q with q'/q = g / ((1-m)*w*r)
    proxy = np.exp((p0 - 1.0) * sgrid) * g / (one_m * w)
    absP = np.abs(proxy)
    tol_dir = 100.0 * lp.rtol
    diffs = np.diff(q)
    if np.all(diffs >= -tol_dir * np.abs(q[:-1])):
        direction = "nondecreasing"
    elif np.all(diffs <= tol_dir * np.abs(q[:-1])):
        direction = "nonincreasing"
    else:
        direction = "mixed"

    return DecayEstimate(
        kind=DecayKind.POWER,
        scales=scales,
        values=q,
        raw_last=float(q[-1]),
        extrapolated=extrapolated,
        converged=bool(drift < _DRIFT_RTOL and extrapolated > 0.0),
        drift=drift,
        proxy_values=proxy,
        proxy_decreasing=bool(absP[-3] > absP[-2] > absP[-1]),
        direction=direction,
    )
