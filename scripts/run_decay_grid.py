#!/usr/bin/env python3
"""Measure the log-corrected decay limit across the reference grid.

Prints one row per parameter set: the closed-form constant, the raw slope at
the end of the log chart, the tail-fit extrapolation, their relative gaps,
and where the log chart went to the slow-manifold tail (its s, and the jump
qss_gap that put into g; "-" where it did not). The conformal rows
(m = (n-2)/(n+2)) also show (n-1)(n-2)/beta.
"""

import argparse
import sys
import time

from fdprofiles import Parameters, SolveConfig, estimate_log_decay, solve_profile
from fdprofiles.model import eternal_alpha

GRID = [
    (3, 0.2, 1.0),
    (4, 1 / 3, 1.0),
    (5, 3 / 7, 2.0),
    (5, 0.5, 1.0),
    (6, 0.25, 1.0),
    (7, 5 / 9, 1.0),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s-end", type=float, default=40.0)
    ap.add_argument("--eta", type=float, default=1.0)
    ap.add_argument("--csv", help="optionally append rows to this CSV file")
    args = ap.parse_args()

    rows = []
    print(f"{'n':>2} {'m':>8} {'beta':>5} {'expected':>10} {'raw':>10} "
          f"{'fit':>10} {'raw rel':>9} {'fit rel':>9} {'switch s':>8} {'qss_gap':>9} {'time':>7}")
    for n, m, beta in GRID:
        p = Parameters(n=n, m=m, alpha=eternal_alpha(m, beta), beta=beta, eta=args.eta)
        t0 = time.perf_counter()
        sol = solve_profile(p, SolveConfig(s_end=args.s_end))
        est = estimate_log_decay(sol)
        dt = time.perf_counter() - t0
        raw_rel = abs(est.raw_last - est.expected) / est.expected
        switch, gap = sol.diagnostics["qss_switch_s"], sol.diagnostics["qss_gap"]
        print(f"{n:>2} {m:>8.5f} {beta:>5.2f} {est.expected:>10.6f} {est.raw_last:>10.6f} "
              f"{est.extrapolated:>10.6f} {raw_rel:>9.2e} {est.rel_error_vs_expected:>9.2e} "
              f"{'-' if switch is None else format(switch, '.3f'):>8} "
              f"{'-' if gap is None else format(gap, '.2e'):>9} {dt:>6.2f}s")
        rows.append((n, m, beta, est.expected, est.raw_last, est.extrapolated, switch, gap))

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,m,beta,expected,raw_last,extrapolated,qss_switch_s,qss_gap\n")
            for row in rows:
                fh.write(",".join("" if x is None else format(x, ".17g") for x in row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
