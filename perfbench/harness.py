"""Rounds, timing and metric assembly for one benchmark run.

A run is a sequence of *rounds*.  Each round runs in a fresh Python
process (:mod:`perfbench.worker`): it builds a world from the seed
(set-up, timed) and runs the workload's timed phase once, and reports
its own CPU, wall and peak resident set.  A fresh process per round
keeps every round's host figures apart from the rounds before it: heap
growth and fragmentation from an earlier world never reach a later
one, so how many rounds fit in ``seconds`` does not move the figures.
Timed rounds repeat until ``seconds`` of measuring have passed (and at
least :data:`MIN_ROUNDS` ran); host metrics are medians over them.  A
last, verification round then runs with a recorder noting every file
the startup tasks read, and the workload's independent checks run on
its outputs; every timed round must have reproduced its modelled
outputs bit for bit.

With ``trace`` set, rounds alternate untraced / traced; traced rounds
run with :class:`~perfbench.layers.LayerTracer` installed and give the
per-layer metrics, untraced ones the base of the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import checks, host
from perfbench.layers import LayerTrace, LayerTracer
from perfbench.workloads import ReadRecorder, spec_of

#: Timed rounds at least (per kind, when tracing), whatever ``seconds``.
MIN_ROUNDS = 2

#: A round that has not ended by then has hung; the run fails.
ROUND_TIMEOUT_S = 120

WORKER = Path(__file__).resolve().parent / "worker.py"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("makespan_s", "s"),
    ("ready_p50_s", "s"),
    ("ready_p95_s", "s"),
    ("egress_mb", "MB"),
    ("stored_mb", "MB"),
)


@dataclass
class Round:
    """What one round measured, as it crosses from the worker process."""

    traced: bool
    setup_cpu_s: float
    setup_wall_s: float
    corpus_build_s: float
    wall_s: float
    cpu_s: float
    ops: int
    failures: List[str]
    #: Peak resident set of the round's process at the end of its timed
    #: phase (before any checks ran).
    peak_rss_mib: float
    rss_growth_mib: float
    #: Digest of every modelled output of the round.
    signature: str
    modelled: Dict[str, float]
    ready_samples: int
    problems: List[str] = field(default_factory=list)
    timed_trace: Optional[LayerTrace] = None
    setup_trace: Optional[LayerTrace] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Round":
        for name in ("timed_trace", "setup_trace"):
            if data[name] is not None:
                data[name] = LayerTrace(**data[name])
        return cls(**data)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    record: Dict[str, Any]


def play_round(workload: Any, seed: int, traced: bool, verify: bool) -> Round:
    """One round in this process: set-up, timed phase, and checks if ``verify``."""
    tracer = LayerTracer() if traced else None
    setup_trace = timed_trace = None
    if tracer is not None:
        tracer.install()
    try:
        wall_before = time.perf_counter()
        cpu_before = time.process_time()
        world = workload.setup(seed)
        setup_cpu = time.process_time() - cpu_before
        setup_wall = time.perf_counter() - wall_before
        if tracer is not None:
            setup_trace = tracer.collect()
            tracer.reset()
        rss_before = host.rss_mib()
        recorder = ReadRecorder()
        with recorder if verify else contextlib.nullcontext():
            wall_before = time.perf_counter()
            cpu_before = time.process_time()
            outcome = workload.run(world)
            wall = time.perf_counter() - wall_before
            cpu = time.process_time() - cpu_before
        if tracer is not None:
            timed_trace = tracer.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_growth = host.rss_mib() - rss_before
    peak_rss = host.peak_rss_mib()
    return Round(
        traced=traced,
        setup_cpu_s=setup_cpu,
        setup_wall_s=setup_wall,
        corpus_build_s=world.corpus_build_s,
        wall_s=wall,
        cpu_s=cpu,
        ops=outcome.ops,
        failures=outcome.failures,
        peak_rss_mib=peak_rss,
        rss_growth_mib=rss_growth,
        signature=hashlib.sha256(repr(outcome.signature).encode()).hexdigest(),
        modelled={
            "makespan_s": outcome.makespan_s,
            "ready_p50_s": checks.percentile(outcome.ready_s, 50),
            "ready_p95_s": checks.percentile(outcome.ready_s, 95),
            "egress_mb": outcome.egress_bytes / 1e6,
            "stored_mb": outcome.stored_bytes / 1e6,
        },
        ready_samples=len(outcome.ready_s),
        problems=workload.verify(world, outcome, recorder.reads) if verify else [],
        timed_trace=timed_trace,
        setup_trace=setup_trace,
        counts=workload.layer_counts(world) if traced else {},
    )


def _child_round(workload: Any, seed: int, traced: bool, verify: bool) -> Round:
    """One round in a fresh worker process."""
    request = dict(spec_of(workload), seed=seed, traced=traced, verify=verify)
    done = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(request)],
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"round worker exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return Round.from_json(json.loads(done.stdout.strip().splitlines()[-1]))


def measure(workload: Any, seed: int, seconds: float, trace: bool) -> RunResult:
    """Run rounds for ``seconds``, then verify, each round in its own process."""
    stamp = host.HostStamp()
    rounds: List[Round] = []
    begun = time.perf_counter()
    while not _enough(rounds, trace) or time.perf_counter() - begun < seconds:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_child_round(workload, seed, traced, False))
    verified = _child_round(workload, seed, False, True)

    problems = list(verified.problems)
    problems += [
        f"timed round {index}: modelled outputs differ from the verified round"
        for index, sample in enumerate(rounds, 1)
        if sample.signature != verified.signature
    ]
    everything = rounds + [verified]
    attempted = sum(r.ops for r in everything)
    failures = [failure for r in everything for failure in r.failures]
    if trace:
        metrics = _layer_metrics(rounds, verified, problems)
    else:
        metrics = _end_to_end(rounds, verified)
    untraced = [r for r in rounds if not r.traced]
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "operation": workload.op_name,
        "attempted": attempted,
        "failed": len(failures),
        "rounds": len(everything),
        "ready_samples": verified.ready_samples,
        "modelled": verified.modelled,
        "ops_per_s": statistics.median(r.ops_per_s for r in untraced),
        "round_ops_per_s": [round(r.ops_per_s, 3) for r in rounds],
        "round_cpu_ms_per_op": [round(1000.0 * r.cpu_s / r.ops, 4) for r in rounds],
        "round_peak_rss_mib": [round(r.peak_rss_mib, 2) for r in rounds],
        "round_setup_cpu_s": [round(r.setup_cpu_s, 4) for r in _setups(rounds, verified)],
        "round_setup_wall_s": [round(r.setup_wall_s, 4) for r in _setups(rounds, verified)],
        "failures": failures[:10],
        "problems": problems[:20],
        "host": stamp.close(),
    }
    return RunResult(not problems, attempted, len(failures), metrics, record)


def _enough(rounds: List[Round], trace: bool) -> bool:
    traced = sum(1 for r in rounds if r.traced)
    untraced = len(rounds) - traced
    return untraced >= MIN_ROUNDS and (not trace or traced >= MIN_ROUNDS)


def _setups(rounds: List[Round], verified: Round) -> List[Round]:
    """Rounds whose set-up ran untraced: the timed untraced ones and the verifier."""
    return [r for r in rounds if not r.traced] + [verified]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _end_to_end(rounds: List[Round], verified: Round) -> Dict[str, Dict[str, Any]]:
    values = dict(
        verified.modelled,
        setup_s=statistics.median(r.setup_cpu_s for r in _setups(rounds, verified)),
        cpu_ms_per_op=statistics.median(1000.0 * r.cpu_s / r.ops for r in rounds),
        peak_rss_mib=statistics.median(r.peak_rss_mib for r in rounds),
    )
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(
    rounds: List[Round], verified: Round, problems: List[str]
) -> Dict[str, Dict[str, Any]]:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    setups = _setups(rounds, verified)
    if any(r.counts != traced[0].counts for r in traced):
        problems.append("per-layer counts differ between traced rounds")

    def median(fn) -> float:
        return statistics.median(fn(r) for r in traced)

    def timed_cpu(layer: str):
        return median(lambda r: r.timed_trace.cpu.get(layer, 0.0))

    def round_cpu(layer: str):
        return median(
            lambda r: r.timed_trace.cpu.get(layer, 0.0) + r.setup_trace.cpu.get(layer, 0.0)
        )

    last = traced[-1]

    def round_total(attr: str, key: str) -> float:
        return getattr(last.timed_trace, attr).get(key, 0) + getattr(last.setup_trace, attr).get(key, 0)

    counts = last.counts
    clock = last.timed_trace.clock
    convert_key = "converter.GearConverter.convert"
    convert_cpu = median(
        lambda r: r.timed_trace.inclusive.get(convert_key, 0.0)
        + r.setup_trace.inclusive.get(convert_key, 0.0)
    )
    uploads = round_total("calls", "registry.GearRegistry.upload")
    pool_lookups = counts["pool.hits"] + counts["pool.misses"]
    traced_ops = statistics.median(r.ops_per_s for r in traced)
    untraced_ops = statistics.median(r.ops_per_s for r in untraced)
    values = [
        ("clock.events", clock["events"], "count"),
        ("clock.events_per_s", median(lambda r: _ratio(r.timed_trace.clock["events"], r.timed_trace.clock["wall_s"])), "1/s"),
        ("clock.loop_cpu_s", timed_cpu("clock"), "s"),
        ("clock.handoff_wait_s", median(lambda r: max(0.0, r.timed_trace.clock["wall_s"] - r.timed_trace.clock["process_cpu_s"])), "s"),
        ("link.transfers", counts["link.transfers"], "count"),
        ("link.cpu_s", timed_cpu("link"), "s"),
        ("link.mb", counts["link.bytes"] / 1e6, "MB"),
        ("link.busy_s", counts["link.busy_s"], "s"),
        ("transport.cpu_s", timed_cpu("transport"), "s"),
        ("vfs.clones", last.timed_trace.calls.get("vfs.clone.Inode.clone", 0), "count"),
        ("vfs.clone_cpu_s", timed_cpu("vfs.clone"), "s"),
        ("vfs.overlay_cpu_s", timed_cpu("vfs.overlay"), "s"),
        ("mem.timed_growth_mib", statistics.median(r.rss_growth_mib for r in untraced), "MiB"),
        ("converter.images", round_total("calls", convert_key), "count"),
        ("converter.cpu_s", round_cpu("converter"), "s"),
        ("converter.mb_per_cpu_s", _ratio(round_total("counts", "converter.bytes") / 1e6, convert_cpu), "MB/s"),
        ("index.cpu_s", round_cpu("index"), "s"),
        ("hashing.mb", round_total("counts", "hashing.bytes") / 1e6, "MB"),
        ("hashing.cpu_s", round_cpu("hashing"), "s"),
        ("registry.uploads", uploads, "count"),
        ("registry.upload_skipped", _ratio(round_total("counts", "registry.dedup_hits"), uploads), "ratio"),
        ("registry.cpu_s", round_cpu("registry"), "s"),
        ("viewer.fetches", counts["viewer.fetches"], "count"),
        ("viewer.cache_hits", counts["viewer.cache_hits"], "count"),
        ("viewer.cpu_s", timed_cpu("viewer"), "s"),
        ("pool.hits", counts["pool.hits"], "count"),
        ("pool.misses", counts["pool.misses"], "count"),
        ("pool.hit_ratio", _ratio(counts["pool.hits"], pool_lookups), "ratio"),
        ("pool.cpu_s", timed_cpu("pool"), "s"),
        ("journal.appends", counts["journal.appends"], "count"),
        ("journal.cpu_s", timed_cpu("journal"), "s"),
        ("driver.cpu_s", timed_cpu("driver"), "s"),
        ("docker.cpu_s", timed_cpu("docker"), "s"),
        ("faas.tier_hits", counts.get("faas.tier_hits", 0), "count"),
        ("faas.tier_fills", counts.get("faas.tier_upstream_fetches", 0), "count"),
        ("faas.coalesced", counts.get("faas.tier_coalesced", 0), "count"),
        ("faas.evictions", counts.get("faas.tier_evictions", 0), "count"),
        ("faas.sheds", counts.get("faas.tier_sheds", 0), "count"),
        ("faas.tier_hit_ratio", _ratio(counts.get("faas.tier_hits", 0), counts.get("faas.fetches", 0)), "ratio"),
        ("faas.cpu_s", timed_cpu("faas"), "s"),
        ("unattributed.cpu_s", median(lambda r: max(0.0, r.cpu_s - sum(r.timed_trace.cpu.values()))), "s"),
        ("corpus.build_s", statistics.median(r.corpus_build_s for r in setups), "s"),
        ("wall.setup_s", statistics.median(r.setup_wall_s for r in setups), "s"),
        ("trace.ops_per_s_traced", traced_ops, "1/s"),
        ("trace.ops_per_s_untraced", untraced_ops, "1/s"),
        ("trace.overhead", _ratio(traced_ops, untraced_ops), "ratio"),
    ]
    return {name: _metric(value, unit) for name, value, unit in values}


def format_table(result: RunResult) -> str:
    """The metrics as an aligned human-readable table."""
    lines = [f"{name:28s} {m['value']:>16.6g} {m['unit']}" for name, m in result.metrics.items()]
    lines.append(f"{'attempted':28s} {result.attempted:>16d}")
    lines.append(f"{'failed':28s} {result.failed:>16d}")
    lines.append(f"{'correct':28s} {str(result.correct):>16s}")
    return "\n".join(lines)
