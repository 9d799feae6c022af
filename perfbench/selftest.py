#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, untraced and traced.

    python3 perfbench/selftest.py

Run it from the root of a source checkout. It fails (exit 1) when a run
exits nonzero, when the last line of a run lacks a metric that
BENCHMARK.json names (``end_to_end`` for ``--trace 0``, ``per_layer`` for
``--trace 1``) or carries another unit or a non-finite value, when two
traced runs of one seed disagree on a count, or when the benchmark prints a
result in a directory that holds only BENCHMARK.json and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

EXACT_UNITS = ("count", "bytes", "1")
SECONDS = 2.0  # length of each short run


def run(cwd: Path, workload: str, seconds: float, trace: int) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_result(lines: list[str], declared: dict[str, str]) -> tuple[dict, list[str]]:
    problems = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}, ["last line is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing {name}")
        elif got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        elif not (isinstance(got.get("value"), (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{name}: value {got.get('value')!r}")
    problems += [f"undeclared {name}" for name in metrics if name not in declared]
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    return metrics, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = []

    for workload in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            code, lines, err = run(ROOT, workload, SECONDS, trace)
            label = f"{workload} --trace {trace}"
            if code != 0:
                failures.append(f"{label}: exit {code}: {err.strip()[-300:]}")
                continue
            metrics, problems = check_result(lines, declared[trace])
            failures += [f"{label}: {p}" for p in problems]
            if trace:
                traced.append(metrics)
            print(f"ok   {label}: {len(metrics)} metrics" if not problems else f"FAIL {label}")
        if len(traced) == 2:
            for name, unit in declared[1].items():
                a, b = (t.get(name, {}).get("value") for t in traced)
                if unit in EXACT_UNITS and a != b:
                    failures.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = run(bare, "verify_grid", 1, 0)
        if code == 0 or any(line.startswith("{") for line in lines):
            failures.append(f"bare directory: exit {code} with output {lines[-1:]}")
        else:
            print(f"ok   bare directory refused with exit {code}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in failures:
        print("FAIL", line)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
