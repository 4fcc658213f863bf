"""The host a run was measured on, and the process's memory.

A run records, beside its metrics, the CPU count, the Python version,
the CPU-steal ticks the hypervisor took while the run lasted (from
``/proc/stat``) and the time of a fixed pure-Python calibration loop,
so a run made on a starved host can be told apart.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from typing import Dict, Optional

#: Iterations of the calibration loop (about 0.1 s on a 2020s core).
CALIBRATION_LOOPS = 1_000_000


def steal_ticks() -> Optional[int]:
    """Steal ticks summed over all CPUs since boot (``None`` off Linux)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def calibration_s() -> float:
    """Median wall time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        begun = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_LOOPS):
            total += value * value
        times.append(time.perf_counter() - begun)
    return statistics.median(times)


def rss_mib() -> float:
    """Current resident set of this process."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mib() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostStamp:
    """Open at the start of a run, close at its end."""

    def __init__(self) -> None:
        self._steal_before = steal_ticks()
        self._calibration = calibration_s()

    def close(self) -> Dict[str, object]:
        steal_after = steal_ticks()
        steal = (
            steal_after - self._steal_before
            if steal_after is not None and self._steal_before is not None
            else None
        )
        return {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "steal_ticks": steal,
            "ticks_per_s": os.sysconf("SC_CLK_TCK"),
            "calibration_s": round(self._calibration, 6),
            "calibration_loops": CALIBRATION_LOOPS,
        }
