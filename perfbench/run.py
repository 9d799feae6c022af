#!/usr/bin/env python3
"""Benchmark of fdprofiles: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``./src`` and temporary files go to ``./.perfbench_tmp``. Workloads and their
checks live in ``cases.py``; the reasons behind them are in ``DESIGN.md``.

With ``--trace 0`` the run sets the workload up in ``SETUP_PROBES`` fresh
interpreters (``setup_s`` is their median), then runs whole passes of cases
back to back until ``--seconds`` have passed and reports the end-to-end
metrics. With ``--trace 1`` it runs one fixed pass of the workload untraced
and once more traced, and reports the per-layer metrics of ``tracing.py``.
The last line of standard output is one JSON object; the lines before it
are for people.

Every time is normalized for host speed: a fixed calibration runs before
each case and after the last, and a case's wall time is divided by the mean
slowness (calibration time over its reference) of the two around it. Cases
in this process are calibrated by an in-process loop, fresh interpreters
(CLI cases, set-up probes, import profiles) by starting one that imports a
few standard-library modules. Times are therefore at the reference speed;
the raw wall times are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
IMPORT_PROBES = 3
SPIN_REF_S = 0.45e-3  # one in-process calibration at the reference speed
PROCESS_REF_S = 70e-3  # one fresh-interpreter calibration at the reference speed
PROCESS_CALIBRATION = "import argparse, decimal, email.parser, json, xml.dom.minidom"
WORKLOADS = ("verify_grid", "tail_decay", "eta_sweep", "cli_commands")
END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
    "ref_rel_err_max": "1",
}


class Clock:
    """Host-speed calibration by a fixed workload that is part of the benchmark,
    not of the package: an adaptive Runge-Kutta loop on plain floats and
    scalar NumPy interpolation calls, the two kinds of work the package does.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 10.0, 200)
        self._y = np.sin(self._x)

    def _spin(self) -> float:
        def f(t, y, z):
            return z, -y - 0.1 * z * math.exp(-t)

        t, y, z, h = 0.0, 1.0, 0.0, 0.01
        fy, fz = f(t, y, z)
        for _ in range(120):
            k2 = f(t + 0.2 * h, y + 0.2 * h * fy, z + 0.2 * h * fz)
            k3 = f(t + 0.3 * h, y + h * (0.075 * fy + 0.225 * k2[0]), z + h * (0.075 * fz + 0.225 * k2[1]))
            y += h * (0.1 * fy + 0.5 * k2[0] + 0.4 * k3[0])
            z += h * (0.1 * fz + 0.5 * k2[1] + 0.4 * k3[1])
            t += h
            fy, fz = f(t, y, z)
            err = math.sqrt(0.5 * ((fy * 1e-3) ** 2 + (fz * 1e-3) ** 2)) + 1e-12
            h = min(0.02, h * min(2.0, max(0.5, 0.9 * err**-0.2)))
        np, xs, ys = self._np, self._x, self._y
        for i in range(20):
            q = np.atleast_1d(np.asarray(0.05 * i + 0.01))
            idx = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, xs.size - 2)
            th = (q - xs[idx]) / (xs[idx + 1] - xs[idx])
            y += float((ys[idx] + th * (ys[idx + 1] - ys[idx]))[0])
        return y

    def in_process(self) -> float:
        """Slowness of in-process work: the faster of two spins over ``SPIN_REF_S``."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self._spin()
            best = min(best, time.perf_counter() - t0)
        return best / SPIN_REF_S

    def process(self) -> float:
        """Slowness of starting a fresh interpreter, over ``PROCESS_REF_S``."""
        t0 = time.perf_counter()
        # no timeout: Popen.wait with a timeout polls, and its sleeps would quantize the time
        subprocess.run([sys.executable, "-c", PROCESS_CALIBRATION], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        return (time.perf_counter() - t0) / PROCESS_REF_S

    @staticmethod
    def timed(fn, slowness):
        """(result, raw seconds, speed scale) of one call bracketed by calibrations."""
        s0 = slowness()
        t0 = time.perf_counter()
        result = fn()
        t = time.perf_counter() - t0
        return result, t, 2.0 / (s0 + slowness())


@dataclass
class Record:
    label: str
    seconds: float  # raw wall time
    slowness: float  # calibration just before the case
    outcome: object
    scale: float = 1.0

    @property
    def norm(self) -> float:
        return self.seconds * self.scale


def run_cases(passes, slowness, cases, seconds=None, tracer=None) -> list[Record]:
    """Closed loop over whole passes; stops after the pass that crosses ``seconds``.

    Ending on a pass boundary gives every run the same mix of cases.
    """
    recs: list[Record] = []
    start = time.perf_counter()
    for case_list in passes:
        for case in case_list:
            slow = slowness()
            if tracer is not None:
                tracer.case, tracer.fixed = len(recs), case.fixed
            t0 = time.perf_counter()
            out = cases.run_case(case)
            recs.append(Record(case.label, time.perf_counter() - t0, slow, out))
        if seconds is None or time.perf_counter() - start >= seconds:
            break
    slows = [r.slowness for r in recs] + [slowness()]
    for i, r in enumerate(recs):
        r.scale = 2.0 / (slows[i] + slows[i + 1])
    return recs


def setup_probe(workload: str, tmp: Path, clock: Clock) -> float:
    """Wall seconds (normalized) of one fresh-interpreter set-up."""
    err = tmp / "probe.stderr"
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(SRC), str(tmp / "probe")]

    def spawn():
        with open(err, "w") as fh:
            return subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=fh).returncode

    code, t, scale = clock.timed(spawn, clock.process)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err.read_text().strip()[-400:]}")
    return t * scale


def import_profile(target: str, clock: Clock) -> dict:
    """``import.*`` metrics: medians over ``IMPORT_PROBES`` fresh ``python -X importtime`` imports."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {target}"

    def spawn():
        proc = subprocess.Popen([sys.executable, "-X", "importtime", "-c", code],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        text = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, text, usage.ru_maxrss

    samples = []
    for _ in range(IMPORT_PROBES):
        (rc, text, rss_kb), _, scale = clock.timed(spawn, clock.process)
        if rc != 0:
            raise RuntimeError(f"import of {target} failed: {text.strip()[-400:]}")
        total_us, self_us = 0, {"scipy": 0, "numpy": 0, "fdprofiles": 0}
        for line in text.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            own_us, cum_us, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top == "fdprofiles" and len(name) - len(name.lstrip()) == 1:
                total_us += int(cum_us)  # a top-level import of the package
            if top in self_us:
                self_us[top] += int(own_us)
        ms = 1e-3 * scale
        samples.append({"import.total_ms": total_us * ms, "import.scipy_ms": self_us["scipy"] * ms,
                        "import.numpy_ms": self_us["numpy"] * ms,
                        "import.fdprofiles_self_ms": self_us["fdprofiles"] * ms,
                        "import.rss_mb": rss_kb / 1024.0})
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def build_workload(cases, name: str, seed: int, tmp: Path):
    if name == "cli_commands":
        return cases.cli_workload(seed, SRC, tmp / "cli")
    return getattr(cases, name)(seed)


def _failures(recs: list[Record]) -> list[str]:
    out = []
    for r in recs:
        if not r.outcome.ok:
            out.append(f"  FAILED {r.label}: {r.outcome.reason}")
    return out


def timed_run(args, cases, clock, tmp: Path) -> dict:
    wl = build_workload(cases, args.workload, args.seed, tmp)
    setup = [setup_probe(args.workload, tmp, clock) for _ in range(SETUP_PROBES)]
    cases.run_case(cases.warmup(args.workload, tmp / "warm-up"))
    slowness = clock.in_process if wl.in_process else clock.process
    recs = run_cases(wl.passes(), slowness, cases, seconds=args.seconds)

    t = [r.norm for r in recs]
    n = len(recs)
    failed = sum(not r.outcome.ok for r in recs)
    tail = percentile(t, wl.tail_pct)
    refs = [r.outcome.ref_err for r in recs if r.outcome.ok and math.isfinite(r.outcome.ref_err)]
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.outcome.child_rss_kb for r in recs)
    metrics = {
        "setup_s": statistics.median(setup),
        "cases_per_s": n / sum(t),
        "case_p50_ms": 1e3 * statistics.median(t),
        "case_tail_ms": 1e3 * tail,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": rss_kb / 1024.0,
        "ref_rel_err_max": max(refs) if refs else math.nan,
    }
    raw = sum(r.seconds for r in recs)
    print(f"{args.workload} seed {args.seed}: {n} cases, {failed} failed, "
          f"raw wall {raw:.2f} s, normalized {sum(t):.2f} s, "
          f"median speed scale {statistics.median(r.scale for r in recs):.3f}")
    print(f"raw: {n / raw:.4g} cases/s, p50 {1e3 * statistics.median(r.seconds for r in recs):.4g} ms; "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
    print(f"case_tail_ms is p{wl.tail_pct:g}: {sum(x > tail for x in t)} of {n} samples beyond it")
    for line in _failures(recs)[:20]:
        print(line)
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def trace_run(args, cases, clock, tmp: Path) -> dict:
    from tracing import CHARTS, CLI_COMMANDS, PER_LAYER, Tracer

    wl = build_workload(cases, args.workload, args.seed, tmp)
    cases.run_case(cases.warmup(args.workload, tmp / "warm-up"))
    untraced = run_cases([wl.trace_pass], clock.in_process, cases)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cases([wl.trace_pass], clock.in_process, cases, tracer=tracer)
    finally:
        tracer.remove()
    processes = [] if wl.in_process else run_cases([next(wl.passes())], clock.process, cases)
    target = "fdprofiles" if wl.in_process else "fdprofiles.cli"

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update(import_profile(target, clock))
    spans = tracer.span_totals([r.scale for r in traced])

    def span(name, i):
        return spans.get(name, (0, 0.0, 0.0))[i]

    gap = 0
    for chart, st in tracer.charts.items():
        if chart.startswith("fixed_"):
            continue
        gap += st["nfev"] - 6 * (st["steps"] + st["rejected"]) - 2 * st["calls"]
        if chart not in CHARTS:
            continue
        tries = st["steps"] + st["rejected"]
        self_ms = span("rk." + chart, 2)
        m.update({
            f"rk.{chart}.calls": st["calls"], f"rk.{chart}.steps": st["steps"],
            f"rk.{chart}.rejected": st["rejected"], f"rk.{chart}.nfev": st["nfev"],
            f"rk.{chart}.accept_ratio": st["steps"] / tries if tries else 0.0,
            f"rk.{chart}.h_min": tracer.h_min.get(chart, 0.0),
            f"rk.{chart}.self_ms": self_ms,
            f"rk.{chart}.us_per_step": 1e3 * self_ms / st["steps"] if st["steps"] else 0.0,
        })
    m["rk.nfev_identity_gap"] = gap
    for key in ("fixed_full", "fixed_qss"):
        for stat in ("calls", "steps", "rejected", "nfev"):
            if f"rk.{key}.{stat}" in m:
                m[f"rk.{key}.{stat}"] = tracer.charts[key][stat]
    count = tracer.count
    m["series.expand_at_origin.calls"] = count["series.expand_at_origin"]
    m["model.calls"] = sum(v for k, v in count.items() if k.startswith("model."))
    m["integrate.solve_profile.calls"] = span("integrate.solve_profile", 0)
    m["integrate.solve_profile.ms"] = span("integrate.solve_profile", 1)
    m["integrate.solve_profile.self_ms"] = span("integrate.solve_profile", 2)
    m["integrate.integrate_r.ms"] = span("integrate.integrate_r", 1)
    m["integrate.integrate_log.ms"] = span("integrate.integrate_log", 1)
    for stat in ("calls", "points", "scalar_calls", "fixed_v_calls"):
        m[f"integrate.dense.{stat}"] = count[f"dense.{stat}"]
    m["integrate.dense.ms"] = span("integrate.dense", 1)
    if count["dense.points"]:
        m["integrate.dense.us_per_point"] = 1e3 * m["integrate.dense.ms"] / count["dense.points"]
    for check in ("check_pointwise", "check_slope_bounds", "check_flux_identity", "check_q_identity"):
        m[f"invariants.{check}.ms"] = span(f"invariants.{check}", 1)
    m["invariants.quad.calls"] = count["quad.calls"]
    m["invariants.quad.ms"] = span("invariants.quad", 1)
    m["invariants.quad.integrand_evals"] = count["quad.evals"]
    m["invariants.quad.fixed_calls"] = count["quad.fixed_calls"]

    def detail_max(key):
        return max((r.outcome.detail[key] for r in traced if key in r.outcome.detail), default=0.0)

    m["invariants.flux_mismatch_max"] = detail_max("flux_identity")
    m["invariants.q_mismatch_max"] = detail_max("q_identity")
    m["decay.estimate_log_decay.ms"] = span("decay.estimate_log_decay", 1)
    m["decay.estimate_power_decay.ms"] = span("decay.estimate_power_decay", 1)
    m["decay.rel_err_max"] = detail_max("decay")
    for fn in ("limit_convergence", "double_limit_check", "solve_log_equation", "log_chart_of_log_equation"):
        m[f"loglimit.{fn}.ms"] = span(f"loglimit.{fn}", 1)
    m["selfsim.pde_residual.ms"] = span("selfsim.pde_residual", 1)
    m["selfsim.value_calls"] = count["selfsim.value"]
    m["selfsim.residual_max"] = detail_max("pde_residual")
    for recs, key in ((processes, "process_ms"), (untraced, "main_ms")):
        for r in recs:
            kind, _, cmd = r.label.partition(" ")
            if kind in ("cli", "main") and cmd in CLI_COMMANDS:
                m[f"cli.{cmd}.{key}"] = 1e3 * r.norm
    m["cli.self_ms"] = span("cli.main", 2)
    m["cli.report_bytes"] = sum(r.outcome.detail.get("report_bytes", 0) for r in traced)
    m["trace.untraced_ms"] = 1e3 * sum(r.norm for r in untraced)
    m["trace.traced_ms"] = 1e3 * sum(r.norm for r in traced)
    m["trace.overhead_ms"] = m["trace.traced_ms"] - m["trace.untraced_ms"]

    all_recs = untraced + traced + processes
    failed = sum(not r.outcome.ok for r in traced)
    print(f"{args.workload} seed {args.seed} traced pass: {len(traced)} cases, {failed} failed; "
          f"untraced {m['trace.untraced_ms']:.1f} ms, traced {m['trace.traced_ms']:.1f} ms, "
          f"overhead {m['trace.overhead_ms']:.1f} ms")
    for line in _failures(traced + processes)[:20]:
        print(line)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {"correct": all(r.outcome.ok for r in all_recs), "attempted": len(traced), "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in m.items()}}


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile, as numpy.percentile's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = SRC / "fdprofiles" / "__init__.py"
    if not pkg.is_file():
        print(f"run.py: no package source at {pkg}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdprofiles

    if Path(fdprofiles.__file__).resolve() != pkg.resolve():
        print(f"run.py: imported fdprofiles from {fdprofiles.__file__}, not {pkg}", file=sys.stderr)
        return 2
    import cases

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = trace_run if args.trace else timed_run
        result = run(args, cases, Clock(), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        print(f"run.py: non-finite metrics {bad}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
