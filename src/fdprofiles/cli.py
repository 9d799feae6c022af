"""Command-line front end: solve, verify, decay, limit, pde-check, sweep.

Outputs are deterministic (byte-identical across repeated runs with the same
configuration): CSV floats carry 17 significant digits and JSON keys are
sorted. Every JSON report embeds the resolved configuration and the derived
constants for provenance. Exit codes: 0 success, 2 hypothesis violation or
invalid configuration, 3 numerical failure (any other ProfileError, or a
non-converged estimate under --strict), 4 I/O errors.

Only the solver layers are imported here; each command imports the analysis
layer it runs, so a ``solve`` process never loads the invariant checks, the
decay fits, the m -> 0 studies or the self-similar solutions.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HypothesisViolation, ProfileError, RegimeMismatch
from .integrate import SolveConfig, solve_profile
from .model import Parameters, check_hypotheses, classify_regime, derived, eternal_alpha

__all__ = ["main"]

_OUTDIR_ENV = "FDPROFILES_OUTDIR"

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_path(name: str | None) -> Path | None:
    if name is None:
        return None
    path = Path(name)
    outdir = os.environ.get(_OUTDIR_ENV)
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path: Path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


_PARAM_OPTS = ("n", "m", "alpha", "beta", "eta")
# limit_convergence's own parameters: m is what it varies
_LIMIT_PARAMS = ("n", "alpha", "beta", "eta")
# How a config file spells the state of a switch such as --strict.
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """Flat `key = value` lines; '#' starts a comment; keys are flag names.

    Each value is converted by the flag's own argparse action (type, choices,
    and true/false for switches), so a file is checked exactly like flags.
    """
    actions = {a.dest: a for a in parser._actions if a.option_strings}
    del actions["help"], actions["config"]
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs == 0:  # a switch: true sets it, false leaves it unset
            word = text.lower()
            if word not in _TRUE + _FALSE:
                raise ValueError(f"config key {key!r} takes true or false, got {text!r}")
            if word in _TRUE:
                values[action.dest] = action.const
            continue
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError):
            raise ValueError(f"config key {key!r}: invalid value {text!r}") from None
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise ValueError(f"config key {key!r} must be one of {choices}, got {text!r}")
        values[action.dest] = value
    return values


def _flags(args: argparse.Namespace) -> dict:
    """The values set on the command line."""
    skip = ("config", "command", "func", "parser")
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _required(cfg: dict, keys) -> list:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")
    return [cfg[k] for k in keys]


def _params_from(cfg: dict) -> Parameters:
    return Parameters(*_required(cfg, _PARAM_OPTS))


def _solve_config_from(cfg: dict) -> SolveConfig:
    """The SolveConfig fields that flags or the file set (switches arrive only as True)."""
    return SolveConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(SolveConfig) if f.name in cfg})


def _base_report(cfg: dict, p: Parameters | None) -> dict:
    report = {"config": {**cfg, "version": __version__}}
    if p is not None:
        report["derived"] = _jsonable(derived(p))
        report["hypotheses"] = _jsonable(check_hypotheses(p))
        report["regime"] = classify_regime(p).value
    return report


def _strict_exit(cfg: dict, command: str, failed: str) -> int:
    """Exit 3 under --strict when ``failed`` names what failed, and say so on stderr."""
    if not (cfg.get("strict") and failed):
        return EXIT_OK
    print(f"fdprofiles: {command} failed: {failed}", file=sys.stderr)
    return EXIT_NUMERICAL


def _solved(cfg: dict):
    """Solve the configured profile; (parameters, solution, report with diagnostics)."""
    p = _params_from(cfg)
    report = _base_report(cfg, p)
    sol = solve_profile(p, _solve_config_from(cfg))
    report["diagnostics"] = _jsonable(sol.diagnostics)
    return p, sol, report


def _cmd_solve(cfg: dict) -> tuple[int, dict]:
    _, sol, report = _solved(cfg)
    out = _resolve_path(cfg.get("out"))
    if out is not None:
        prof = sol.profile
        _write_csv(out, "r,v,dv", zip(prof.r, prof.v, prof.dv))
    log_out = _resolve_path(cfg.get("log_out"))
    if log_out is not None:
        lp = sol.logprofile
        _write_csv(log_out, "s,w,ws", zip(lp.s, lp.w, lp.ws))
    return EXIT_OK, report


def _cmd_verify(cfg: dict) -> tuple[int, dict]:
    from .invariants import run_all_checks

    _, sol, report = _solved(cfg)
    rep = run_all_checks(sol)
    report["invariants"] = _jsonable(rep)
    failed = ", ".join(e.name for e in rep.entries if e.applicable and not e.passed)
    return _strict_exit(cfg, "verify", failed), report


def _cmd_decay(cfg: dict) -> tuple[int, dict]:
    from .decay import DecayKind, estimate_log_decay, estimate_power_decay, require_decay_inputs

    p = _params_from(cfg)
    kind = cfg.get("kind", "auto")
    log = kind == "log" or (kind == "auto" and check_hypotheses(p).log_decay_ok)
    # the parameters and the log chart's length are checked before the solve
    require_decay_inputs(p, DecayKind.LOG_CORRECTED if log else DecayKind.POWER, _solve_config_from(cfg).s_end)
    _, sol, report = _solved(cfg)
    est = estimate_log_decay(sol) if log else estimate_power_decay(sol)
    report["decay"] = _jsonable(est)
    trace_out = _resolve_path(cfg.get("trace_out"))
    if trace_out is not None:
        _write_csv(trace_out, "scale,value", zip(est.scales, est.values))
    return _strict_exit(cfg, "decay", "" if est.converged else "the estimate did not converge"), report


def _cmd_limit(cfg: dict) -> tuple[int, dict]:
    from .loglimit import limit_convergence

    params = _required(cfg, _LIMIT_PARAMS)
    report = _base_report(cfg, None)
    # only what the flags or the file set; limit_convergence owns the defaults
    cr = limit_convergence(*params, **{k: cfg[k] for k in ("m_list", "r_max") if k in cfg})
    report["limit"] = _jsonable(cr)
    return _strict_exit(cfg, "limit", "" if cr.monotone else "the sup-norm errors are not monotone in m"), report


def _cmd_pde_check(cfg: dict) -> tuple[int, dict]:
    from .selfsim import build_selfsimilar, pde_residual, residual_grid

    p = _params_from(cfg)
    report = _base_report(cfg, p)
    regime = classify_regime(p)
    # checked before the solve; only what the flags or the file set, the library owns the defaults
    stencil = {k: cfg[k] for k in ("radii", "times", "h", "dt") if k in cfg}
    radii, times, h, dt = residual_grid(regime, cfg.get("T"), **stencil)
    solve_cfg = _solve_config_from(cfg)
    if "r_max" not in cfg:
        # generous default coverage for the rescaled stencil arguments
        solve_cfg = dataclasses.replace(solve_cfg, r_max=4.0 * max(radii))
    sol = solve_profile(p, solve_cfg)
    stats = pde_residual(build_selfsimilar(sol, regime, T=cfg.get("T")), radii, times, h, dt)
    report["pde"] = _jsonable(stats)
    report["pde"]["regime"] = regime.value
    return EXIT_OK, report


def _sweep_grid(cfg: dict):
    ns = cfg.get("n_list", (cfg.get("n"),))
    ms = cfg.get("m_list", (cfg.get("m"),))
    if None in ns or None in ms:
        raise ValueError("sweep needs n/m values via --n-list/--m-list or --n/--m")
    betas = cfg.get("beta_list", (cfg.get("beta", 1.0),))
    etas = cfg.get("eta_list", (cfg.get("eta", 1.0),))
    alphas = cfg.get("alpha_list", (cfg["alpha"],) if "alpha" in cfg else "eternal")
    lists = {"--n-list": ns, "--m-list": ms, "--beta-list": betas, "--eta-list": etas, "--alpha-list": alphas}
    empty = [flag for flag, values in lists.items() if len(values) == 0]
    if empty:
        raise ValueError(f"{', '.join(empty)} is empty: the sweep needs at least one value in each list")
    # alpha None stands for the eternal relation alpha = 2*beta/(1-m) at each point
    grid = itertools.product(ns, ms, betas, etas, (None,) if alphas == "eternal" else alphas)
    return [(n, m, eternal_alpha(m, beta) if alpha is None else alpha, beta, eta)
            for n, m, beta, eta, alpha in grid]


_SWEEP_COLUMNS = ("n", "m", "alpha", "beta", "eta", "a0_expected", "a0_measured",
                  "invariants_passed", "invariants_applicable")


def _cmd_sweep(cfg: dict) -> tuple[int, dict]:
    from .decay import estimate_log_decay
    from .invariants import run_all_checks

    report = _base_report(cfg, None)
    summary = []
    for point in _sweep_grid(cfg):
        p = Parameters(*point)  # rejects a non-integer n
        sol = solve_profile(p, _solve_config_from(cfg))
        rep = run_all_checks(sol)
        n_app = sum(1 for e in rep.entries if e.applicable)
        n_pass = sum(1 for e in rep.entries if e.applicable and e.passed)
        a0_expected = math.nan
        a0_measured = math.nan
        if check_hypotheses(p).exact_decay_ok:
            est = estimate_log_decay(sol)
            a0_expected, a0_measured = est.expected, est.extrapolated
        row = (*dataclasses.astuple(p), a0_expected, a0_measured, n_pass, n_app)
        summary.append(dict(zip(_SWEEP_COLUMNS, row)))
    out = _resolve_path(cfg.get("out"))
    if out is not None:
        _write_csv(out, ",".join(_SWEEP_COLUMNS), (row.values() for row in summary))
    report["sweep"] = _jsonable(summary)
    return EXIT_OK, report


# argparse's negative-number pattern has no exponent (Python 3.10-3.13), so it would
# read the -1e-1 of "--alpha -1e-1" as an option; each subcommand's parser uses this one
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _flag_set(param_names=()) -> argparse.ArgumentParser:
    """A parent parser, holding --n/--m/--alpha/--beta/--eta for the names given."""
    group = argparse.ArgumentParser(add_help=False)
    for name in param_names:
        group.add_argument(f"--{name}", type=int if name == "n" else float)
    return group


def _alpha_choice(text: str):
    """'eternal' (alpha = 2*beta/(1-m) at each point) or the listed alpha values."""
    return "eternal" if text.strip() == "eternal" else _parse_floats(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdprofiles",
        description="Radial self-similar profiles of the fast diffusion equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    io = _flag_set()
    io.add_argument("--config", help="flat key = value config file; flags override it")
    io.add_argument("--json", dest="json", help="write the JSON report here")
    params = _flag_set(_PARAM_OPTS)
    solve = _flag_set()  # the SolveConfig fields
    solve.add_argument("--tol", type=float, help="r-chart relative tolerance (log chart 10x looser; atol = rtol/100)")
    solve.add_argument("--r-max", dest="r_max", type=float)
    solve.add_argument("--s-end", dest="s_end", type=float)
    strict = _flag_set()
    strict.add_argument("--strict", action="store_const", const=True, help="exit 3 when the verdict fails")

    def add(name, func, summary, *parents):
        # no prefix matching: limit would read a stray --m as --m-list
        p = sub.add_parser(name, help=summary, parents=[io, *parents], allow_abbrev=False)
        p.set_defaults(func=func, parser=p)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    p_solve = add("solve", _cmd_solve, "solve the profile and write samples", params, solve)
    p_solve.add_argument("--out", help="r-chart CSV (r,v,dv)")
    p_solve.add_argument("--log-out", dest="log_out", help="log-chart CSV (s,w,ws)")

    add("verify", _cmd_verify, "run all invariant and identity checks", params, solve, strict)

    p_decay = add("decay", _cmd_decay, "measure the decay limit", params, solve, strict)
    p_decay.add_argument("--kind", choices=("auto", "log", "power"), default=None)
    p_decay.add_argument("--trace-out", dest="trace_out", help="trace CSV (scale,value)")

    p_limit = add("limit", _cmd_limit, "m -> 0 uniform convergence study", _flag_set(_LIMIT_PARAMS), strict)
    p_limit.add_argument("--r-max", dest="r_max", type=float, help="sup-norm interval [0, r_max]")
    p_limit.add_argument("--m-list", dest="m_list", type=_parse_floats)

    p_pde = add("pde-check", _cmd_pde_check, "finite-difference residual of the self-similar solution",
                params, solve)
    p_pde.add_argument("--T", type=float, help="horizon for the backward regime")
    p_pde.add_argument("--h", type=float)
    p_pde.add_argument("--dt", type=float)
    p_pde.add_argument("--radii", type=_parse_floats)
    p_pde.add_argument("--times", type=_parse_floats)

    p_sweep = add("sweep", _cmd_sweep, "Cartesian parameter sweep with summary rows", params, solve)
    p_sweep.add_argument("--n-list", dest="n_list", type=_parse_floats)
    p_sweep.add_argument("--m-list", dest="m_list", type=_parse_floats)
    p_sweep.add_argument("--beta-list", dest="beta_list", type=_parse_floats)
    p_sweep.add_argument("--eta-list", dest="eta_list", type=_parse_floats)
    p_sweep.add_argument("--alpha-list", dest="alpha_list", type=_alpha_choice,
                         help="'eternal' or space/comma separated values")
    p_sweep.add_argument("--out", help="summary CSV")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _flags(args)  # what the error report shows if the config file is rejected
    try:
        if args.config:  # flags override the file
            cfg = {**_read_config_file(args.config, args.parser), **cfg}
        code, report = args.func(cfg)
    except (HypothesisViolation, RegimeMismatch, ValueError) as exc:
        code, report = EXIT_HYPOTHESIS, _error_report(cfg, exc)
    except ProfileError as exc:
        code, report = EXIT_NUMERICAL, _error_report(cfg, exc)
    except OSError as exc:
        print(f"fdprofiles: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    json_path = _resolve_path(cfg.get("json"))
    if json_path is not None:
        try:
            _write_json(json_path, report)
        except OSError as exc:
            print(f"fdprofiles: i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    if "error" in report:
        print(f"fdprofiles: {report['error']['type']}: {report['error']['message']}", file=sys.stderr)
    return code


def _error_report(cfg: dict, exc: Exception) -> dict:
    report = _base_report(cfg, None)
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return report
