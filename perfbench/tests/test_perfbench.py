"""The benchmark's own tests: small runs, and checks that reject bad output.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.blob import Blob
from repro.gear.gearfile import GearFile
from repro.gear.journal import FETCH_BEGIN

from perfbench import checks, harness
from perfbench.layers import LayerTracer
from perfbench.workloads import (
    Faas,
    FaasSize,
    ReadRecorder,
    Rollout,
    RolloutSize,
    Wave,
    WaveSize,
    from_spec,
    spec_of,
)

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

SMALL = {
    "wave": lambda: Wave(WaveSize(clients=8, versions=2, scale=0.1)),
    "rollout": lambda: Rollout(
        RolloutSize(series=("nginx", "redis"), versions=4, shipped=3, scale=0.1)
    ),
    "faas": lambda: Faas(
        FaasSize(
            series=("nginx", "redis"),
            versions=2,
            scale=0.1,
            regions=2,
            functions=16,
            duration_s=10.0,
            rate_per_s=4.0,
            bursts=((2.0, 1.0),),
        )
    ),
}


def _verified(name: str):
    """A small world after its verification round, with the reads."""
    workload = SMALL[name]()
    world = workload.setup(seed=3)
    with ReadRecorder() as recorder:
        outcome = workload.run(world)
    return workload, world, outcome, recorder.reads


def _tampered_reads(reads):
    reference, path, blob = reads[0]
    wrong = Blob.synthetic("perfbench-tamper", max(blob.size, 1))
    return [(reference, path, wrong)] + list(reads[1:])


# -- small runs ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_reports_every_end_to_end_metric(name):
    result = harness.measure(SMALL[name](), seed=1, seconds=0, trace=False)
    assert result.correct, result.record["problems"]
    assert result.failed == 0
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert list(result.metrics) == names
    for metric in BENCHMARK["end_to_end"]:
        reported = result.metrics[metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_traced_run_reports_every_layer_metric(name):
    result = harness.measure(SMALL[name](), seed=1, seconds=0, trace=True)
    assert result.correct, result.record["problems"]
    layers = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == layers
    # rollout runs on the sequential clock: no scheduler events there.
    assert (result.metrics["clock.events"]["value"] > 0) == (name != "rollout")
    assert result.metrics["driver.cpu_s"]["value"] > 0
    assert 0 < result.metrics["trace.overhead"]["value"]


def test_each_run_verifies_and_counts_the_same_operations():
    workload = SMALL["wave"]()
    result = harness.measure(workload, seed=2, seconds=0, trace=False)
    per_round = workload.size.clients
    assert result.attempted == per_round * result.record["rounds"]
    assert result.record["ready_samples"] == per_round


def test_a_round_rebuilds_its_workload_from_the_spec():
    for name, make in SMALL.items():
        workload = make()
        assert from_spec(json.loads(json.dumps(spec_of(workload)))).size == workload.size, name


def test_rounds_in_worker_processes_match_rounds_in_process():
    workload = SMALL["rollout"]()
    here = harness.play_round(workload, seed=4, traced=False, verify=False)
    there = harness._child_round(workload, seed=4, traced=False, verify=False)
    assert there.signature == here.signature
    assert there.modelled == here.modelled


# -- every check rejects a wrong output ---------------------------------------


def test_wave_checks_pass_then_reject_tampering():
    workload, world, outcome, reads = _verified("wave")
    assert workload.verify(world, outcome, reads) == []

    assert any("read content" in p for p in workload.verify(world, outcome, _tampered_reads(reads)))
    more_bytes = dataclasses.replace(outcome, egress_bytes=outcome.egress_bytes + 1)
    assert any("egress" in p for p in workload.verify(world, more_bytes, reads))
    too_fast = dataclasses.replace(outcome, makespan_s=0.001)
    assert any("makespan" in p for p in workload.verify(world, too_fast, reads))
    results = dict(outcome.detail["results"])
    name, first = sorted(results.items())[0]
    results[name] = dataclasses.replace(first, ready_s=first.total_s + 1.0)
    late = dataclasses.replace(outcome, detail={"results": results})
    assert any("ready" in p for p in workload.verify(world, late, reads))
    node = world.cluster.nodes[0]
    node.testbed.gear_driver.containers()[-1].mount.write_file("/perfbench-tamper", b"x")
    assert any("fs digest" in p for p in workload.verify(world, outcome, reads))


def test_rollout_checks_pass_then_reject_tampering():
    workload, world, outcome, reads = _verified("rollout")
    assert workload.verify(world, outcome, reads) == []

    assert any("read content" in p for p in workload.verify(world, outcome, _tampered_reads(reads)))
    journal = world.testbed.gear_driver.journal
    fetched = next(r.identity for r in journal.records if r.op == FETCH_BEGIN)
    journal.fetch_begin(fetched)
    assert any("fetched 2 times" in p for p in workload.verify(world, outcome, reads))
    world.testbed.gear_registry.upload(
        GearFile(identity="perfbench-extra", blob=Blob.synthetic("perfbench-extra", 4096))
    )
    assert any("logical bytes" in p for p in workload.verify(world, outcome, reads))


def test_faas_checks_pass_then_reject_tampering():
    workload, world, outcome, reads = _verified("faas")
    assert workload.verify(world, outcome, reads) == []

    assert any("read content" in p for p in workload.verify(world, outcome, _tampered_reads(reads)))
    reports = outcome.detail["reports"]
    for field, value, needle in (
        ("digest_conflicts", 1, "digest conflicts"),
        ("cold_starts", reports[1].cold_starts + 1, "cold + warm"),
        ("fabric", dict(reports[1].fabric, duplicate_upstream_fetches=1), "duplicate upstream"),
    ):
        bad_reports = [reports[0], dataclasses.replace(reports[1], **{field: value})]
        bad = dataclasses.replace(outcome, detail={"reports": bad_reports})
        assert any(needle in p for p in workload.verify(world, bad, reads)), field
    region = world.regions[1]
    results = region.platform.results
    first = results[0]
    results[0] = dataclasses.replace(first, ready_s=first.latency_s + 1.0)
    assert any("ready" in p for p in workload.verify(world, outcome, reads))
    results[0] = first
    tier = region.testbed.faas.tier
    entry = next(iter(tier.cache.values()))
    entry.gear_file = GearFile(
        identity=entry.gear_file.identity, blob=Blob.synthetic("perfbench-poison", 64)
    )
    assert any("audit_integrity" in p for p in workload.verify(world, outcome, reads))


def test_content_hasher_matches_materialized_bytes():
    import hashlib

    blob = Blob.synthetic("perfbench-check", 300_000)
    assert checks.ContentHasher().md5(blob) == hashlib.md5(blob.materialize()).hexdigest()
    literal = Blob.from_bytes(b"hello perfbench")
    assert checks.ContentHasher().md5(literal) == hashlib.md5(b"hello perfbench").hexdigest()


def test_percentile_interpolates():
    assert checks.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert checks.percentile([0.0, 10.0], 95) == pytest.approx(9.5)


class _DriftingWorkload:
    """A workload whose modelled output changes between rounds."""

    name = "drift"
    op_name = "steps"

    def __init__(self) -> None:
        self.calls = 0

    def setup(self, seed):
        return type("World", (), {"corpus_build_s": 0.001})()

    def run(self, world):
        from perfbench.workloads import Outcome

        self.calls += 1
        return Outcome(
            ops=1, failures=[], makespan_s=1.0, ready_s=[1.0], egress_bytes=1,
            stored_bytes=1, signature=(self.calls,),
        )

    def verify(self, world, outcome, reads):
        return []

    def layer_counts(self, world):
        return {}


def test_harness_rejects_rounds_that_do_not_reproduce(monkeypatch):
    # The drifting workload lives in this test, so its rounds play here.
    monkeypatch.setattr(harness, "_child_round", harness.play_round)
    result = harness.measure(_DriftingWorkload(), seed=1, seconds=0, trace=False)
    assert not result.correct
    assert any("differ from the verified round" in p for p in result.record["problems"])


# -- the tracer -----------------------------------------------------------------


def test_tracer_wraps_names_bound_by_import_and_restores_them():
    import repro.blob.blob as blob_module
    import repro.common.hashing as hashing

    original = hashing.fingerprint_tokens
    assert blob_module.fingerprint_tokens is original
    tracer = LayerTracer()
    tracer.install()
    try:
        assert blob_module.fingerprint_tokens is not original
        Blob.synthetic("perfbench-trace", 1000).fingerprint
    finally:
        tracer.uninstall()
    assert blob_module.fingerprint_tokens is original
    trace = tracer.collect()
    assert trace.calls["hashing.fingerprint_tokens"] == 1
    assert trace.counts["hashing.bytes"] == len("perfbench-trace/0:1000") + 1
    assert trace.cpu["hashing"] >= 0.0
