"""Workloads of the fdprofiles benchmark: seeded case lists and output checks.

A case is one job a user of the library or of the command line runs, followed
by the checks that ``tests/test_acceptance.py`` applies to that kind of
result. ``run_case`` turns every failure (a ``ProfileError``, a failed check,
a raw exception, a nonzero CLI exit) into a failed ``Outcome``; nothing here
aborts a run.

All library calls go through the ``fdprofiles`` package attributes at call
time (``fd.solve_profile(...)``), so the tracer in ``tracing.py`` sees them.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import fdprofiles as fd

# Thresholds of tests/test_acceptance.py.
QUAD_TOL = 1e-10
LOG_FIT_MAX = 0.01
LOG_RAW_MAX = 0.03
POWER_DRIFT_MAX = 1e-3
POWER_AGREE_MAX = 1e-6
PDE_RESIDUAL_MAX = 1e-5
PDE_ORDER_RANGE = (1.8, 2.2)
PDE_SENSITIVITY_MIN = 100.0
LIMIT_FINAL_MAX = 1e-2
DOUBLE_LIMIT_MAX = 0.02

# INVARIANT_GRID of tests/test_acceptance.py: (n, m, alpha, beta, eta).
INVARIANT_GRID = [
    (3, 0.2, 2.5, 1.0, 1.0),
    (3, 0.2, 1.25, 1.0, 1.0),
    (3, 0.2, 3.75, 1.0, 1.0),
    (3, 0.2, -1.0, 1.0, 1.0),
    (3, 0.2, 0.0, 1.0, 1.0),
    (4, 1 / 3, 3.0, 1.0, 1.0),
    (4, 1 / 3, 1.5, 1.0, 0.5),
    (4, 1 / 3, 4.5, 1.0, 1.0),
    (4, 1 / 3, -2.0, 1.0, 1.0),
    (5, 0.5, 4.0, 1.0, 1.0),
    (5, 0.5, 3.0, 1.0, 2.0),
    (5, 0.5, 5.0, 1.0, 1.0),
    (5, 3 / 7, 7.0, 2.0, 1.0),
    (5, 3 / 7, -0.5, 2.0, 1.0),
    (5, 3 / 7, 0.0, 2.0, 1.0),
    (3, 0.3, 2.0 / 0.7, 1.0, 1.0),
    (3, 0.3, 1.0 / 0.7, 1.0, 1.5),
    (6, 0.4, 2.0 / 0.6, 1.0, 1.0),
    (6, 0.4, 1.0 / 0.6, 1.0, 1.0),
    (6, 0.4, -1.0, 1.0, 1.0),
]

# GRID of scripts/run_decay_grid.py: (n, m, beta), alpha on the eternal relation.
DECAY_GRID = [
    (3, 0.2, 1.0),
    (4, 1 / 3, 1.0),
    (5, 3 / 7, 2.0),
    (5, 0.5, 1.0),
    (6, 0.25, 1.0),
    (7, 5 / 9, 1.0),
]

POWER_ALPHAS = (1.25, 0.5, -1.0)
ETA_LADDER = tuple(10.0**k for k in range(-3, 4))
RELATIONS = ("eternal", "forward", "backward", "generic")
SEEDED_DECAY_POINTS = 2  # eternal and power points each, per pass of tail_decay
ETA_TRACE_FAMILIES = 6  # keeps a traced eta_sweep run short even when a stiff family is drawn


@dataclass
class Outcome:
    ok: bool
    ref_err: float = math.nan  # worst deviation from an exact relation the paper proves
    reason: str = ""
    detail: dict = field(default_factory=dict)  # per-layer quantities read from public results
    child_rss_kb: int = 0


@dataclass
class Case:
    label: str
    fn: Callable[[], Outcome]
    fixed: bool  # seed-independent part of the workload


def run_case(case: Case) -> Outcome:
    try:
        return case.fn()
    except fd.ProfileError as exc:
        return Outcome(False, reason=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a raw exception is a failed case, never an aborted run
        last = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(False, reason=f"raw {type(exc).__name__} at {Path(last.filename).name}:{last.lineno}: {exc}")


# ---------------------------------------------------------------------------
# Seeded parameter draws


def _radical_inverse(i: int, base: int) -> float:
    out, f = 0.0, 1.0 / base
    while i:
        i, d = divmod(i, base)
        out += d * f
        f /= base
    return out


def _uniforms(seed: int, stream: int) -> Iterator[tuple[int, list[float]]]:
    """Halton points in bases 3, 5, 7, 11 with a seeded random shift.

    Low-discrepancy draws keep each run's mix of families close to the
    distribution, so run-to-run spread comes from the host, not the draw.
    """
    rng = random.Random(f"{seed}:{stream}")
    shift = [rng.random() for _ in range(4)]
    for i in itertools.count(1):
        yield i, [(_radical_inverse(i, b) + s) % 1.0 for b, s in zip((3, 5, 7, 11), shift)]


def draw_family(u: list[float], relation: str, m_span=(0.1, 0.8), beta_span=(0.5, 2.0)):
    """(n, m, alpha, beta) from four uniforms, on one exponent relation.

    n is 3..7, beta log-uniform on ``beta_span`` and m a fraction
    ``m_span`` of the admissible range, which for the backward relation is
    capped so that alpha = (2 beta + 1)/(1 - m) stays below beta (n-2)/m.
    A generic alpha is uniform on [-2, min(4, beta (n-2)/m)).
    """
    n = 3 + int(5 * u[0])
    lo, hi = beta_span
    beta = lo * (hi / lo) ** u[1]
    m_top = (n - 2) / n
    if relation == "backward":
        m_top = min(m_top, beta * (n - 2) / (beta * n + 1))
    m = m_top * (m_span[0] + (m_span[1] - m_span[0]) * u[2])
    if relation == "eternal":
        alpha = 2 * beta / (1 - m)
    elif relation == "forward":
        alpha = (2 * beta - 1) / (1 - m)
    elif relation == "backward":
        alpha = (2 * beta + 1) / (1 - m)
    else:
        alpha = -2.0 + u[3] * (min(4.0, beta * (n - 2) / m) + 2.0)
    return n, m, alpha, beta


# ---------------------------------------------------------------------------
# Library cases


def identity_mismatches(sol, rep) -> dict:
    """Worst relative mismatch of the flux and q identities, from the report margins."""
    out = {}
    for name, rtol in (("flux_identity", sol.profile.rtol), ("q_identity", sol.logprofile.rtol)):
        entry = rep.entry(name)
        if entry.applicable and entry.worst_margin is not None:
            out[name] = 100.0 * max(QUAD_TOL, rtol) - entry.worst_margin
    return out


def _failed_names(rep) -> str:
    return ",".join(e.name for e in rep.entries if e.applicable and not e.passed)


def verify_case(params, config, label, fixed) -> Case:
    def fn():
        sol = fd.solve_profile(fd.Parameters(*params), config)
        rep = fd.run_all_checks(sol, quad_tol=QUAD_TOL)
        mm = identity_mismatches(sol, rep)
        ref = max(mm.values()) if mm else math.nan
        return Outcome(rep.overall, ref, "" if rep.overall else "invariants: " + _failed_names(rep), mm)

    return Case(label, fn, fixed)


def pde_case(regime, params, T) -> Case:
    def fn():
        sol = fd.solve_profile(fd.Parameters(*params), fd.SolveConfig(r_max=22.0))
        ss = fd.build_selfsimilar(sol, regime, T=T)
        stats = fd.pde_residual(ss)
        perturbed = fd.pde_residual(dataclasses.replace(ss, alpha=1.01 * ss.alpha))
        ratio = perturbed.max_rel_residual / stats.max_rel_residual
        lo, hi = PDE_ORDER_RANGE
        ok = (
            stats.max_rel_residual < PDE_RESIDUAL_MAX
            and lo <= stats.order_estimate <= hi
            and ratio >= PDE_SENSITIVITY_MIN
        )
        reason = "" if ok else (
            f"pde {regime.value}: residual {stats.max_rel_residual:.2e}, "
            f"order {stats.order_estimate:.2f}, sensitivity {ratio:.0f}"
        )
        res = stats.max_rel_residual
        return Outcome(ok, res, reason, {"pde_residual": res})

    return Case(f"pde {regime.value}", fn, True)


def log_decay_case(n, m, beta, fixed) -> Case:
    def fn():
        p = fd.Parameters(n, m, 2.0 * beta / (1.0 - m), beta, 1.0)
        est = fd.estimate_log_decay(fd.solve_profile(p, fd.SolveConfig(s_end=40.0)))
        a0 = fd.expected_log_constant(p)
        fit = abs(est.extrapolated - a0) / a0
        raw = abs(est.raw_last - a0) / a0
        ok = fit < LOG_FIT_MAX and raw < LOG_RAW_MAX
        return Outcome(ok, fit, "" if ok else f"log decay: fit {fit:.2e}, raw {raw:.2e}", {"decay": fit})

    return Case(f"log decay n={n} m={m:.4g} beta={beta:.4g}", fn, fixed)


def _power_ok(est) -> bool:
    return est.drift < POWER_DRIFT_MAX and est.extrapolated > 0.0 and bool(est.proxy_decreasing)


def power_decay_case(params, fixed, plateaus: dict | None = None, tightened=False) -> Case:
    """Plateau A of r^(alpha/beta) v, from one solve.

    With ``plateaus``, the default-tolerance case records A there and the
    ``tightened`` case (0.1x tolerances, run after it in the same pass)
    checks that its A agrees.
    """

    def fn():
        config = fd.SolveConfig(s_end=40.0)
        est = fd.estimate_power_decay(fd.solve_profile(fd.Parameters(*params),
                                                       config.tightened(0.1) if tightened else config))
        ok = _power_ok(est)
        reason = f"power decay: drift {est.drift:.1e}"
        if plateaus is not None and tightened:
            agree = abs(est.extrapolated - plateaus[params]) / abs(plateaus[params])
            ok = ok and agree < POWER_AGREE_MAX
            reason += f", tolerance agreement {agree:.1e}"
        elif plateaus is not None:
            plateaus[params] = est.extrapolated
        return Outcome(ok, reason="" if ok else reason)

    return Case(f"power decay {params}" + (" tightened" if tightened else ""), fn, fixed)


def limit_case() -> Case:
    def fn():
        rep = fd.limit_convergence(3, 1.0, 1.0, 1.0, m_list=(0.2, 0.1, 0.05, 0.02, 0.01), r_max=10.0)
        errs = rep.sup_errors
        ok = all(b < a for a, b in zip(errs, errs[1:])) and rep.final_error < LIMIT_FINAL_MAX
        return Outcome(ok, reason="" if ok else f"limit sup errors {errs}")

    return Case("limit_convergence(3,1,1,1)", fn, True)


def double_limit_case() -> Case:
    def fn():
        rep = fd.double_limit_check(3, 1.0)
        worst = max(rep.rel_err_m_side, rep.rel_err_log_side)
        ok = worst < DOUBLE_LIMIT_MAX
        return Outcome(ok, worst, "" if ok else f"double limit error {worst:.2e}", {"decay": worst})

    return Case("double_limit_check(3,1)", fn, True)


# ---------------------------------------------------------------------------
# Command-line cases


def _num(x: float) -> str:
    return repr(float(x))


_SOLVE_KEYS = ("r_steps", "r_rejected", "s_steps", "s_rejected", "overlap_error")


def _entry_fields(entry: dict) -> tuple:
    return tuple(entry[k] for k in ("name", "applicable", "passed", "worst_margin"))


@dataclass
class CliCommand:
    name: str
    argv: list[str]
    files: dict[str, Path]  # output role -> path
    expect: Callable[[], dict]  # in-process library result, compared with the report
    check: Callable[[dict, dict], tuple[bool, float, str]]


def cli_commands(seed: int, tmp: Path) -> list[CliCommand]:
    """The six README commands; beta and eta are scaled by seeded factors in [0.8, 1.25]."""
    rng = random.Random(f"{seed}:cli")
    c = 0.8 * (1.25 / 0.8) ** rng.random()
    eta = 0.8 * (1.25 / 0.8) ** rng.random()
    tmp.mkdir(parents=True, exist_ok=True)

    def paths(cmd, *roles):
        return {role: tmp / f"{cmd}.{role}" for role in roles}

    def common(p: fd.Parameters) -> list[str]:
        return ["--n", str(p.n), "--m", _num(p.m), "--alpha", _num(p.alpha),
                "--beta", _num(p.beta), "--eta", _num(p.eta)]

    out = []

    # solve
    p_solve = fd.Parameters(3, 0.2, 2.5 * c, c, eta)
    f = paths("solve", "json", "csv", "log.csv")

    def expect_solve(p=p_solve):
        sol = fd.solve_profile(p, fd.SolveConfig(r_max=100.0))
        return {"diagnostics": {k: sol.diagnostics[k] for k in _SOLVE_KEYS},
                "rows": (len(sol.profile.r), len(sol.logprofile.s))}

    def check_solve(rep, exp, f=f):
        rows = tuple(len(path.read_text().splitlines()) - 1 for path in (f["csv"], f["log.csv"]))
        diag = {k: rep["diagnostics"][k] for k in _SOLVE_KEYS}
        ok = diag == exp["diagnostics"] and rows == exp["rows"]
        return ok, math.nan, "" if ok else "solve report differs from the library"

    out.append(CliCommand(
        "solve",
        ["solve", *common(p_solve), "--r-max", "100", "--out", str(f["csv"]),
         "--log-out", str(f["log.csv"]), "--json", str(f["json"])],
        f, expect_solve, check_solve))

    # verify
    p_verify = fd.Parameters(3, 0.2, 2.5 * c, c, eta)
    f = paths("verify", "json")

    def expect_verify(p=p_verify):
        sol = fd.solve_profile(p, fd.SolveConfig())
        rep = fd.run_all_checks(sol, quad_tol=QUAD_TOL)
        return {"entries": [_entry_fields(e.__dict__) for e in rep.entries],
                "tol": {"flux_identity": 100.0 * max(QUAD_TOL, sol.profile.rtol),
                        "q_identity": 100.0 * max(QUAD_TOL, sol.logprofile.rtol)}}

    def check_verify(rep, exp):
        inv = rep["invariants"]
        mm = [exp["tol"][e["name"]] - e["worst_margin"] for e in inv["entries"]
              if e["name"] in exp["tol"] and e["applicable"]]
        ok = inv["overall"] is True and [_entry_fields(e) for e in inv["entries"]] == exp["entries"]
        return ok, max(mm), "" if ok else "verify report fails or differs from the library"

    out.append(CliCommand("verify", ["verify", *common(p_verify), "--json", str(f["json"])],
                          f, expect_verify, check_verify))

    # decay
    m4 = 0.333333333333
    p_decay = fd.Parameters(4, m4, 3.0 * c, c, eta)
    f = paths("decay", "json", "csv")

    def expect_decay(p=p_decay):
        est = fd.estimate_log_decay(fd.solve_profile(p, fd.SolveConfig(s_end=40.0)))
        return {"extrapolated": est.extrapolated, "raw_last": est.raw_last}

    def check_decay(rep, exp):
        d = rep["decay"]
        fit = abs(d["extrapolated"] - d["expected"]) / d["expected"]
        raw = abs(d["raw_last"] - d["expected"]) / d["expected"]
        ok = (d["extrapolated"] == exp["extrapolated"] and d["raw_last"] == exp["raw_last"]
              and fit < LOG_FIT_MAX and raw < LOG_RAW_MAX)
        return ok, fit, "" if ok else f"decay report: fit {fit:.2e}, raw {raw:.2e} or differs"

    out.append(CliCommand(
        "decay",
        ["decay", *common(p_decay), "--s-end", "40", "--json", str(f["json"]),
         "--trace-out", str(f["csv"])],
        f, expect_decay, check_decay))

    # limit
    m_list = (0.2, 0.1, 0.05, 0.02, 0.01)
    f = paths("limit", "json")

    def expect_limit():
        rep = fd.limit_convergence(3, c, c, eta, m_list=m_list)
        return {"sup_errors": list(rep.sup_errors)}

    def check_limit(rep, exp):
        errs = rep["limit"]["sup_errors"]
        ok = (errs == exp["sup_errors"] and all(b < a for a, b in zip(errs, errs[1:]))
              and errs[-1] < LIMIT_FINAL_MAX)
        return ok, math.nan, "" if ok else f"limit report: sup errors {errs}"

    out.append(CliCommand(
        "limit",
        ["limit", "--n", "3", "--alpha", _num(c), "--beta", _num(c), "--eta", _num(eta),
         "--m-list", " ".join(_num(m) for m in m_list), "--json", str(f["json"])],
        f, expect_limit, check_limit))

    # pde-check (backward relation alpha (1-m) = 2 beta + 1)
    p_pde = fd.Parameters(3, 0.2, (2.0 * c + 1.0) / 0.8, c, eta)
    f = paths("pde", "json")

    def expect_pde(p=p_pde):
        sol = fd.solve_profile(p, fd.SolveConfig(r_max=20.0))
        stats = fd.pde_residual(fd.build_selfsimilar(sol, fd.Regime.BACKWARD, T=2.0))
        return {"max_rel_residual": stats.max_rel_residual, "order_estimate": stats.order_estimate}

    def check_pde(rep, exp):
        d = rep["pde"]
        lo, hi = PDE_ORDER_RANGE
        res = d["max_rel_residual"]
        ok = (res == exp["max_rel_residual"] and d["order_estimate"] == exp["order_estimate"]
              and res < PDE_RESIDUAL_MAX and lo <= d["order_estimate"] <= hi)
        return ok, res, "" if ok else f"pde report: residual {res:.2e} or differs"

    out.append(CliCommand("pde-check", ["pde-check", *common(p_pde), "--T", "2", "--json", str(f["json"])],
                          f, expect_pde, check_pde))

    # sweep
    f = paths("sweep", "json", "csv")

    def expect_sweep():
        rows = []
        for n in (3, 4, 5):
            for m in (0.2, 0.25):
                p = fd.Parameters(n, m, 2.0 * c / (1.0 - m), c, eta)
                rows.append(fd.estimate_log_decay(fd.solve_profile(p, fd.SolveConfig())).extrapolated)
        return {"a0_measured": rows}

    def check_sweep(rep, exp):
        rows = rep["sweep"]
        errs = [abs(r["a0_measured"] - r["a0_expected"]) / r["a0_expected"] for r in rows]
        ok = ([r["a0_measured"] for r in rows] == exp["a0_measured"]
              and all(r["invariants_passed"] == r["invariants_applicable"] for r in rows)
              and max(errs) < LOG_FIT_MAX)
        return ok, max(errs), "" if ok else "sweep report fails or differs from the library"

    out.append(CliCommand(
        "sweep",
        ["sweep", "--n-list", "3 4 5", "--m-list", "0.2 0.25", "--beta-list", _num(c),
         "--eta-list", _num(eta), "--alpha-list", "eternal", "--out", str(f["csv"]),
         "--json", str(f["json"])],
        f, expect_sweep, check_sweep))
    return out


def spawn_cli(src: Path, argv: list[str], stderr_path: Path) -> tuple[int, int]:
    """Run ``python -m fdprofiles argv`` to completion; (exit code, peak RSS in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fdprofiles", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _report_outcome(cmd: CliCommand, expected: dict, code: int, err: str, rss_kb: int = 0) -> Outcome:
    if code != 0:
        return Outcome(False, reason=f"{cmd.name}: exit {code}: {err[-200:]}", child_rss_kb=rss_kb)
    ok, ref, reason = cmd.check(json.loads(cmd.files["json"].read_text()), expected)
    size = sum(p.stat().st_size for p in cmd.files.values() if p.exists())
    return Outcome(ok, ref, reason, {"report_bytes": size}, rss_kb)


def _clear(cmd: CliCommand) -> None:
    for path in cmd.files.values():
        path.unlink(missing_ok=True)


def cli_case(cmd: CliCommand, src: Path, expected: dict) -> Case:
    """One fresh ``python -m fdprofiles`` process, its exit code and its reports."""

    def fn():
        _clear(cmd)
        err_path = cmd.files["json"].with_suffix(".stderr")
        code, rss = spawn_cli(src, cmd.argv, err_path)
        return _report_outcome(cmd, expected, code, err_path.read_text().strip(), rss)

    return Case(f"cli {cmd.name}", fn, False)


def cli_main_case(cmd: CliCommand, expected: dict) -> Case:
    """The same command as an in-process ``fdprofiles.cli.main(argv)`` call."""
    from fdprofiles import cli

    def fn():
        _clear(cmd)
        return _report_outcome(cmd, expected, cli.main(cmd.argv), "see stderr")

    return Case(f"main {cmd.name}", fn, False)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    passes: Callable[[], Iterator[list[Case]]]  # endless; each pass is one unit of work
    trace_pass: list[Case]  # run in this process, traced and untraced
    tail_pct: float  # percentile of case_tail_ms, fixed per workload
    in_process: bool = True  # False when the timed cases are child processes


def warmup(name: str, tmp: Path) -> Case:
    """The untimed, seed-independent warm-up case of a workload."""
    if name == "cli_commands":
        from fdprofiles import cli

        argv = cli_commands(0, tmp)[0].argv  # the seed-0 ``solve`` command, in-process
        return Case("warm-up", lambda: Outcome(cli.main(argv) == 0), True)
    if name == "tail_decay":
        return log_decay_case(*DECAY_GRID[0], True)
    config = fd.SolveConfig(r_max=25.0) if name == "verify_grid" else fd.SolveConfig()
    return verify_case(INVARIANT_GRID[0], config, "warm-up", True)


def verify_grid(seed: int) -> Workload:
    """The fixed grid and PDE regimes, and in each pass three newly drawn families.

    Fresh families in every pass spread the seeded cost over many draws, so
    the tail percentile, which falls on the costliest case of a pass (often
    the eternal family), does not hang on three draws of one seed.
    """
    config = fd.SolveConfig(r_max=25.0)
    R = fd.Regime
    fixed = [verify_case(g, config, f"grid {g}", True) for g in INVARIANT_GRID] + [
        pde_case(R.ETERNAL, (3, 0.2, 2.5, 1.0, 1.0), None),
        pde_case(R.FORWARD, (3, 0.2, 1.25, 1.0, 1.0), None),
        pde_case(R.BACKWARD, (3, 0.2, 3.75, 1.0, 1.0), 2.0),
    ]

    def family_case(u, rel):
        fam = draw_family(u, rel)
        return verify_case((*fam, 1.0), config, f"family {rel} {fam}", False)

    def passes():
        # One Halton stream per relation: every third point of one stream would
        # keep a relation's u[0] (base 3), and so its n, in a third of the range.
        streams = {rel: _uniforms(seed, stream)
                   for rel, stream in (("eternal", 0), ("forward", 3), ("backward", 4))}
        while True:
            yield fixed + [family_case(next(draws)[1], rel) for rel, draws in streams.items()]

    return Workload(passes, next(passes()), 98.0)


def tail_decay(seed: int) -> Workload:
    """The decay grid, power decay at two tolerances, the m -> 0 limit and the
    double limit, and in each pass newly drawn eternal and power points.

    Fresh points in every pass keep the seed's draw from shifting the
    case mix, and so the median and the throughput, of a whole run.
    """
    fixed = [log_decay_case(n, m, beta, True) for n, m, beta in DECAY_GRID]
    plateaus: dict = {}
    fixed += [power_decay_case((3, 0.2, a, 1.0, 1.0), True, plateaus, tightened)
              for a in POWER_ALPHAS for tightened in (False, True)]
    fixed += [limit_case(), double_limit_case()]

    def seeded(draws):
        for _ in range(SEEDED_DECAY_POINTS):
            _, u = next(draws)
            n, m, _, beta = draw_family(u, "eternal")
            yield log_decay_case(n, m, beta, False)
            _, u = next(draws)
            n, m, alpha_eternal, beta = draw_family(u, "eternal")
            alpha = -1.5 + u[3] * (0.9 * alpha_eternal + 1.5)
            yield power_decay_case((n, m, alpha, beta, 1.0), False)

    def passes():
        draws = _uniforms(seed, 1)
        while True:
            yield fixed + list(seeded(draws))

    return Workload(passes, next(passes()), 99.0)


def eta_families(seed: int) -> Iterator[tuple[int, float, float, float]]:
    """Endless seeded families over the whole admissible range, alpha < 0 included."""
    for i, u in _uniforms(seed, 2):
        yield draw_family(u, RELATIONS[i % 4], m_span=(0.05, 0.95), beta_span=(0.25, 2.0))


def eta_sweep(seed: int) -> Workload:
    def family_pass(fam):
        return [verify_case((*fam, eta), fd.SolveConfig(), f"family {fam} eta={eta:g}", False)
                for eta in ETA_LADDER]

    def passes():
        return (family_pass(fam) for fam in eta_families(seed))

    trace = [c for fam in itertools.islice(eta_families(seed), ETA_TRACE_FAMILIES) for c in family_pass(fam)]
    return Workload(passes, trace, 95.0)


def cli_workload(seed: int, src: Path, tmp: Path) -> Workload:
    """Passes of fresh CLI processes; the traced pass calls ``main(argv)`` in-process."""
    cmds = cli_commands(seed, tmp)
    expected = [cmd.expect() for cmd in cmds]
    procs = [cli_case(cmd, src, exp) for cmd, exp in zip(cmds, expected)]
    mains = [cli_main_case(cmd, exp) for cmd, exp in zip(cmds, expected)]
    return Workload(lambda: itertools.repeat(procs), mains, 60.0, False)
