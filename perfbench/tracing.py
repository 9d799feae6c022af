"""Per-layer tracing for the fdprofiles benchmark.

``Tracer.install`` wraps the public functions of each package module at the
name its caller resolves: every ``fdprofiles`` module attribute (and the
package attribute) that holds the original function is replaced, so
``solve_profile`` reaching ``fdprofiles.integrate.integrate_r``, ``loglimit``
calling the ``integrate_2d`` it imported by name and ``invariants`` calling
its module-global ``quad`` are all seen. Dense output (``Solution.v``,
``dv`` and ``w_q``) and ``SelfSimilarSolution.value`` are wrapped on their
classes. ``remove`` puts every original back.

A span records name, start, end, parent and the case it belongs to; a
layer's self time is its span minus its child spans. Counts come from
public results (``RawPath.n_steps``/``n_rejected``) or from counting
wrappers, so they repeat exactly for a given case list.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

CHARTS = ("r_chart", "log_chart", "qss_tail", "logdiff")
CLI_COMMANDS = ("solve", "verify", "decay", "limit", "pde-check", "sweep")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("import.total_ms", "ms", "lower"), ("import.scipy_ms", "ms", "lower"),
     ("import.numpy_ms", "ms", "lower"), ("import.fdprofiles_self_ms", "ms", "lower"),
     ("import.rss_mb", "MB", "lower")]
    + [(f"rk.{c}.{s}", unit, better) for c in CHARTS for s, unit, better in (
        ("calls", "count", "lower"), ("steps", "count", "lower"), ("rejected", "count", "lower"),
        ("nfev", "count", "lower"), ("accept_ratio", "1", "higher"), ("h_min", "1", "higher"),
        ("self_ms", "ms", "lower"), ("us_per_step", "us", "lower"))]
    + [("rk.nfev_identity_gap", "count", "lower"),
       ("rk.fixed_full.calls", "count", "lower"), ("rk.fixed_full.steps", "count", "lower"),
       ("rk.fixed_full.rejected", "count", "lower"), ("rk.fixed_full.nfev", "count", "lower"),
       ("rk.fixed_qss.calls", "count", "lower"), ("rk.fixed_qss.steps", "count", "lower"),
       ("series.expand_at_origin.calls", "count", "lower"), ("model.calls", "count", "lower"),
       ("integrate.solve_profile.calls", "count", "lower"), ("integrate.solve_profile.ms", "ms", "lower"),
       ("integrate.solve_profile.self_ms", "ms", "lower"), ("integrate.integrate_r.ms", "ms", "lower"),
       ("integrate.integrate_log.ms", "ms", "lower"),
       ("integrate.dense.calls", "count", "lower"), ("integrate.dense.points", "count", "lower"),
       ("integrate.dense.scalar_calls", "count", "lower"), ("integrate.dense.ms", "ms", "lower"),
       ("integrate.dense.us_per_point", "us", "lower"), ("integrate.dense.fixed_v_calls", "count", "lower"),
       ("invariants.check_pointwise.ms", "ms", "lower"), ("invariants.check_slope_bounds.ms", "ms", "lower"),
       ("invariants.check_flux_identity.ms", "ms", "lower"), ("invariants.check_q_identity.ms", "ms", "lower"),
       ("invariants.quad.calls", "count", "lower"), ("invariants.quad.ms", "ms", "lower"),
       ("invariants.quad.integrand_evals", "count", "lower"), ("invariants.quad.fixed_calls", "count", "lower"),
       ("invariants.flux_mismatch_max", "1", "lower"), ("invariants.q_mismatch_max", "1", "lower"),
       ("decay.estimate_log_decay.ms", "ms", "lower"), ("decay.estimate_power_decay.ms", "ms", "lower"),
       ("decay.rel_err_max", "1", "lower"),
       ("loglimit.limit_convergence.ms", "ms", "lower"), ("loglimit.double_limit_check.ms", "ms", "lower"),
       ("loglimit.solve_log_equation.ms", "ms", "lower"),
       ("loglimit.log_chart_of_log_equation.ms", "ms", "lower"),
       ("selfsim.pde_residual.ms", "ms", "lower"), ("selfsim.value_calls", "count", "lower"),
       ("selfsim.residual_max", "1", "lower")]
    + [(f"cli.{c}.{k}", "ms", "lower") for c in CLI_COMMANDS for k in ("process_ms", "main_ms")]
    + [("cli.self_ms", "ms", "lower"), ("cli.report_bytes", "bytes", "lower"),
       ("trace.untraced_ms", "ms", "lower"), ("trace.traced_ms", "ms", "lower"),
       ("trace.overhead_ms", "ms", "lower")]
)

# Functions that get a span, by module; the span is named "<module>.<function>".
SPANNED = {
    "integrate": ("solve_profile", "integrate_r", "integrate_log"),
    "invariants": ("check_pointwise", "check_slope_bounds", "check_flux_identity", "check_q_identity"),
    "decay": ("estimate_log_decay", "estimate_power_decay"),
    "loglimit": ("limit_convergence", "double_limit_check", "solve_log_equation", "log_chart_of_log_equation"),
    "selfsim": ("pde_residual",),
    "cli": ("main",),
}
# Functions that are only counted: their time stays in the caller's self time.
COUNTED = {
    "model": ("check_hypotheses", "derived", "classify_regime"),
    "series": ("expand_at_origin",),
}
_CHART_OF_PARENT = {
    "integrate.integrate_r": "r_chart",
    "integrate.integrate_log": "log_chart",
    "loglimit.solve_log_equation": "logdiff",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, case]
        self._stack: list[int] = []
        self._rk_children: Counter = Counter()
        self.count: Counter = Counter()
        self.charts = defaultdict(Counter)
        self.h_min: dict[str, float] = {}
        self.case = -1
        self.fixed = False
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.case])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- special wrappers ----------------------------------------------
    def _integrate_2d(self, fn):
        def wrapper(f, *args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            chart = _CHART_OF_PARENT.get(self.spans[parent][0] if parent >= 0 else "", "other")
            if chart == "log_chart" and self._rk_children[parent]:
                chart = "qss_tail"  # the second integration inside integrate_log
            self._rk_children[parent] += 1
            nfev = 0

            def rhs(t, y, z):
                nonlocal nfev
                nfev += 1
                return f(t, y, z)

            st = self.charts[chart]
            idx = self._enter("rk." + chart)
            try:
                path = fn(rhs, *args, **kwargs)
            finally:
                self._exit(idx)
                st["calls"] += 1
                st["nfev"] += nfev
            st["steps"] += path.n_steps
            st["rejected"] += path.n_rejected
            if path.t.size > 2:  # the last step is cut to the end point, so it is left out
                self.h_min[chart] = min(self.h_min.get(chart, np.inf), float(np.min(np.diff(path.t)[:-1])))
            if self.fixed:
                key = "fixed_qss" if chart == "qss_tail" else "fixed_full"
                fx = self.charts[key]
                fx["calls"] += 1
                fx["steps"] += path.n_steps
                fx["rejected"] += path.n_rejected
                fx["nfev"] += nfev
            return path

        return wrapper

    def _quad(self, fn):
        def wrapper(func, a, b, *args, **kwargs):
            def integrand(x, *more):
                self.count["quad.evals"] += 1
                return func(x, *more)

            self.count["quad.calls"] += 1
            self.count["quad.fixed_calls"] += self.fixed
            idx = self._enter("invariants.quad")
            try:
                return fn(integrand, a, b, *args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def _dense(self, method_name, fn):
        def wrapper(sol, r):
            arr = np.asarray(r)
            self.count["dense.calls"] += 1
            self.count["dense.points"] += arr.size
            self.count["dense.scalar_calls"] += arr.ndim == 0
            self.count["dense.fixed_v_calls"] += self.fixed and method_name == "v"
            idx = self._enter("integrate.dense")
            try:
                return fn(sol, r)
            finally:
                self._exit(idx)

        return wrapper

    # -- install / remove ----------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "fdprofiles" and not name.startswith("fdprofiles."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _replace_method(self, cls, attr, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from fdprofiles import integrate, invariants, rk, selfsim

        mods = {name: sys.modules[f"fdprofiles.{name}"] for name in (*SPANNED, *COUNTED)
                if f"fdprofiles.{name}" in sys.modules}
        for mod_name, funcs in SPANNED.items():
            for fn_name in funcs:
                if mod_name in mods:
                    orig = getattr(mods[mod_name], fn_name)
                    self._replace_everywhere(orig, self._spanned(f"{mod_name}.{fn_name}", orig))
        for mod_name, funcs in COUNTED.items():
            for fn_name in funcs:
                orig = getattr(mods[mod_name], fn_name)
                self._replace_everywhere(orig, self._counted(f"{mod_name}.{fn_name}", orig))
        self._replace_everywhere(rk.integrate_2d, self._integrate_2d(rk.integrate_2d))
        self._replace_everywhere(invariants.quad, self._quad(invariants.quad))
        for attr in ("v", "dv", "w_q"):
            self._replace_method(integrate.Solution, attr, self._dense(attr, integrate.Solution.__dict__[attr]))
        self._replace_method(selfsim.SelfSimilarSolution, "value",
                             self._counted("selfsim.value", selfsim.SelfSimilarSolution.value))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------
    def span_totals(self, case_scale: list[float]) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms), each span scaled by its case's speed factor."""
        dur = [(end - start) * 1e3 * case_scale[case] for _, start, end, _, case in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, span in enumerate(self.spans):
            acc = out[span[0]]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}
