#!/usr/bin/env python3
"""Print one sha256 per group of fdprofiles outputs, to check a refactor for bit identity.

Run it on two source trees and compare the lines; a group whose digest
differs is named by its line:

    PYTHONPATH=src python scripts/output_digest.py
    PYTHONPATH=/path/to/other/src python scripts/output_digest.py

The inputs are the INVARIANT_GRID rows of tests/test_acceptance.py at the
default SolveConfig and at r_max = 25, the six eternal rows of
scripts/run_decay_grid.py, the power-decay rows (3, 0.2, alpha, 1, 1) at
two tolerances, the three regimes of scripts/run_pde_residuals.py and the
m -> 0 studies. The groups are:

    charts      every node array of both charts and the origin series
    diagnostics every Solution.diagnostics entry
    reads       Solution.v, dv and w_q, on arrays and one radius at a time
    invariants  every InvariantEntry field of run_all_checks
    estimates   decay, m -> 0 limit and double-limit estimates
    residuals   ResidualStats of pde_residual, on and off the relation

Floats are hashed by their bits, so the digests depend on how the CPU's
vectorized pow and exp round: compare runs made on one machine. The script
uses only the public API, so it runs on older trees as well.
"""

import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

import numpy as np

import fdprofiles as fd
from fdprofiles.model import eternal_alpha

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "scripts")]

from run_decay_grid import GRID as DECAY_GRID  # noqa: E402
from run_pde_residuals import CASES as PDE_CASES  # noqa: E402
from test_acceptance import INVARIANT_GRID  # noqa: E402

GROUPS = ("charts", "diagnostics", "reads", "invariants", "estimates", "residuals")
POWER_ALPHAS = (1.25, 0.5, -1.0, 0.0)
# radii read one at a time; the array reads add 0 and a geometric grid to 1e6
SCALAR_RADII = (0.0, 0.01, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 25.0, 1e3)
GRID_RADII = np.concatenate(([0.0], np.geomspace(1e-4, 1e6, 121)))


def feed(h, x) -> None:
    """Hash x into h by its bits: floats, arrays, containers, enums and dataclasses."""
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            feed(h, getattr(x, f.name))
    elif isinstance(x, dict):
        for k in sorted(x):
            h.update(repr(k).encode())
            feed(h, x[k])
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for item in x:
            feed(h, item)
        h.update(b"]")
    elif isinstance(x, enum.Enum):
        h.update(repr(x.value).encode())
    elif isinstance(x, (bool, np.bool_)):
        h.update(repr(bool(x)).encode())
    elif isinstance(x, (float, np.floating)):
        h.update(float(x).hex().encode())
    else:
        h.update(repr(x).encode())


def feed_r_chart(h, prof) -> None:
    se = prof.series
    feed(h, (prof.r, prof.v, prof.dv, prof.ddv, prof.dddv, prof.rtol))
    feed(h, (se.eta, se.scale, se.coeffs, se.log_coeffs, se.r_switch, se.truncation_estimate))


def feed_log_chart(h, lp) -> None:
    feed(h, (lp.s, lp.w, lp.ws, lp.wss, lp.wsss, lp.g, lp.gs, lp.sigma, lp.m, lp.rtol))


def feed_solution(hs, sol, checks: bool) -> None:
    feed_r_chart(hs["charts"], sol.profile)
    feed_log_chart(hs["charts"], sol.logprofile)
    feed(hs["diagnostics"], sol.diagnostics)
    radii = GRID_RADII[GRID_RADII <= sol.r_cover]
    feed(hs["reads"], (sol.v(radii), sol.dv(radii), sol.w_q(radii)))
    feed(hs["reads"], [(sol.v(r), sol.dv(r), sol.w_q(r)) for r in SCALAR_RADII if r <= sol.r_cover])
    if checks:
        feed(hs["invariants"], fd.run_all_checks(sol, quad_tol=1e-10).entries)


def main() -> int:
    hs = {g: hashlib.sha256() for g in GROUPS}
    for config in (fd.SolveConfig(), fd.SolveConfig(r_max=25.0)):
        for row in INVARIANT_GRID:
            feed_solution(hs, fd.solve_profile(fd.Parameters(*row), config), checks=True)

    for n, m, beta in DECAY_GRID:
        sol = fd.solve_profile(fd.Parameters(n, m, eternal_alpha(m, beta), beta, 1.0))
        feed_solution(hs, sol, checks=False)
        feed(hs["estimates"], fd.estimate_log_decay(sol))

    for alpha in POWER_ALPHAS:
        for config in (fd.SolveConfig(), fd.SolveConfig().tightened(0.1)):
            sol = fd.solve_profile(fd.Parameters(3, 0.2, alpha, 1.0, 1.0), config)
            feed_solution(hs, sol, checks=False)
            feed(hs["estimates"], fd.estimate_power_decay(sol))

    for regime, p, T in PDE_CASES:
        sol = fd.solve_profile(p, fd.SolveConfig(r_max=22.0))
        feed_solution(hs, sol, checks=False)
        ss = fd.build_selfsimilar(sol, regime, T=T)
        feed(hs["residuals"], fd.pde_residual(ss))
        feed(hs["residuals"], fd.pde_residual(dataclasses.replace(ss, alpha=1.01 * ss.alpha)))

    feed(hs["estimates"], fd.limit_convergence(3, 1.0, 1.0, 1.0))
    feed(hs["estimates"], fd.double_limit_check(3, 1.0))
    feed_r_chart(hs["charts"], fd.solve_log_equation(3, 1.0, 1.0, 1.0, 10.0))
    for n, alpha in ((3, 2.0), (4, 0.0)):
        feed_log_chart(hs["charts"], fd.log_chart_of_log_equation(n, alpha, 1.0, 1.0))

    for g in GROUPS:
        print(f"{g:<12} {hs[g].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
