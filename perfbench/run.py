"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload wave --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A readable table goes to standard error; standard output ends
with a ``{"record": ...}`` line (operations, host stamp, problems) and,
last, the result object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("wave", "rollout", "faas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing: {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]

    from perfbench.harness import format_table, measure
    from perfbench.workloads import WORKLOADS

    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(format_table(result), file=sys.stderr)
    for problem in result.record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"record": result.record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
