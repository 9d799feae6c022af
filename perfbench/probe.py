"""One set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/probe.py <workload> <src dir> <work dir>

Imports the package (``fdprofiles.cli`` for ``cli_commands``, whose warm-up
builds the parser inside ``main``) and runs the workload's untimed warm-up
case. ``run.py`` times this whole process as one sample of ``setup_s``.
"""

import sys
from pathlib import Path


def main() -> int:
    workload, src, work = sys.argv[1:4]
    sys.path.insert(0, src)
    import cases

    outcome = cases.run_case(cases.warmup(workload, Path(work)))
    if not outcome.ok:
        print(f"probe: warm-up case failed: {outcome.reason}", file=sys.stderr)
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
