"""Play one benchmark round in this process and print it as JSON.

The harness starts one worker per round so that every round begins in a
fresh interpreter; see :mod:`perfbench.harness`.  Usage::

    python3 perfbench/worker.py '{"workload": "wave", "size": {...},
        "seed": 1, "traced": false, "verify": false}'
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    request = json.loads((argv or sys.argv[1:])[0])
    # One interpreter runs one simulated thread at a time (the GIL), so
    # the round gives up nothing on one CPU.  Spread over several, every
    # scheduler handoff wakes a thread on another CPU: on a 2-vCPU
    # virtual machine that doubled a faas round's wall time and added a
    # third to its CPU time, varying with the neighbours' load.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.harness import play_round
    from perfbench.workloads import from_spec

    played = play_round(
        from_spec(request), request["seed"], request["traced"], request["verify"]
    )
    print(json.dumps(dataclasses.asdict(played)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
