"""The benchmark's three workloads: ``wave``, ``rollout`` and ``faas``.

Every workload has the same shape.  :meth:`setup` generates the inputs
from the seed and builds a fresh testbed (the part reported as
``setup_s``); :meth:`run` is the timed phase and returns an
:class:`Outcome`; :meth:`verify` checks one round's outputs against
values computed apart from the program; :meth:`layer_counts` reads the
per-layer counts the program keeps.  The program receives only the
generated inputs.

The image corpus is the repository's calibration corpus (corpus seed 7);
the benchmark seed draws the workload on top of it: the client→image
assignment of a wave, the versions a release train ships and their
order, and the FaaS arrival stream.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.bench.deploy import (
    container_fs_digest,
    deploy_with_docker,
    deploy_with_gear,
    viewer_fs_digest,
)
from repro.bench.environment import make_faas_testbed, make_testbed, publish_images
from repro.common.units import mbps_to_bytes_per_s
from repro.gear.journal import FETCH_BEGIN
from repro.net.faas import FaasPlatform
from repro.net.topology import Cluster
from repro.workloads import tasks
from repro.workloads.corpus import CorpusBuilder, CorpusConfig
from repro.workloads.schedule import BurstWindow, ScheduleBuilder

from perfbench import checks

#: Seed of the image corpus every workload draws from (the corpus the
#: paper-figure calibration in EXPERIMENTS.md uses).
CORPUS_SEED = 7


@dataclass
class Outcome:
    """What one timed phase produced.

    ``signature`` holds every modelled output of the round; a fresh
    world built from the same seed must reproduce it bit for bit.
    """

    ops: int
    failures: List[str]
    makespan_s: float
    ready_s: List[float]
    egress_bytes: int
    stored_bytes: int
    signature: tuple
    detail: Dict[str, Any] = field(default_factory=dict)


class ReadRecorder:
    """Records every file a startup task reads, while installed.

    Wraps :meth:`repro.workloads.tasks.TaskModel.run` so the mount it is
    handed notes each ``read_blob`` result as ``(reference, path, blob)``.
    """

    def __init__(self) -> None:
        self.reads: List[Tuple[str, str, Any]] = []
        self._original = None

    def __enter__(self) -> "ReadRecorder":
        original = tasks.TaskModel.run
        reads = self.reads

        def run(task, clock, mount, trace):
            return original(task, clock, _RecordingMount(mount, trace.reference, reads), trace)

        self._original = original
        tasks.TaskModel.run = run
        return self

    def __exit__(self, *exc_info: object) -> None:
        tasks.TaskModel.run = self._original


class _RecordingMount:
    def __init__(self, mount, reference: str, reads: list) -> None:
        self._mount = mount
        self._reference = reference
        self._reads = reads

    def read_blob(self, path: str):
        blob = self._mount.read_blob(path)
        self._reads.append((self._reference, path, blob))
        return blob

    def __getattr__(self, name: str):
        return getattr(self._mount, name)


def _build_corpus(**config: Any):
    begun = time.perf_counter()
    corpus = CorpusBuilder(CorpusConfig(seed=CORPUS_SEED, **config)).build()
    return corpus, time.perf_counter() - begun


def _merge_stats(groups: Sequence[Any]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for group in groups:
        for key, value in group.metrics().items():
            total[key] = total.get(key, 0) + value
    return total


def _client_counts(beds: Sequence[Any], links: Sequence[Any]) -> Dict[str, float]:
    """Pool, journal, viewer and link counts summed over client nodes.

    Summed from each node's own stat groups: every node a fleet mints
    re-registers its pool and journal under the same key, so the root
    registry's snapshot holds only the last node's.
    """
    pool = _merge_stats([bed.gear_driver.pool.stats for bed in beds])
    journal = _merge_stats([bed.gear_driver.journal.stats for bed in beds])
    mounts = _merge_stats(
        [c.mount.fault_stats for bed in beds for c in bed.gear_driver.containers()]
    )
    return {
        "pool.hits": pool.get("hits", 0),
        "pool.misses": pool.get("misses", 0),
        "journal.appends": journal.get("appends", 0),
        "viewer.fetches": mounts.get("remote_fetches", 0),
        "viewer.cache_hits": mounts.get("cache_hits", 0),
        "link.transfers": sum(link.log.total_requests for link in links),
        "link.bytes": sum(link.log.total_bytes for link in links),
        "link.busy_s": sum(link.busy_seconds for link in links),
    }


# ---------------------------------------------------------------------------
# wave: a cold fleet deploy over one shared uplink


#: Series whose newest version the wave's clients deploy, each client
#: drawing one of them with equal share.  The shares carry no source;
#: with three images of different size the median client sits inside
#: the middle image's ready cluster and the 95th percentile inside the
#: heaviest one's, so neither falls on the boundary between two images,
#: and the ready tail differs from the median.
WAVE_SERIES = ("python", "node", "redis")

#: The uplink all clients share: the paper's measured testbed link, the
#: repository's default (``Cluster``, ``make_testbed``).
WAVE_UPLINK_MBPS = 904.0


@dataclass(frozen=True)
class WaveSize:
    clients: int = 256
    versions: int = 10
    scale: float = 0.2


@dataclass
class WaveWorld:
    corpus_build_s: float
    cluster: Cluster
    targets: List[Any]
    assignment: Dict[str, Any]


class Wave:
    """Hundreds of cold clients run ``deploy_with_gear`` at once."""

    name = "wave"
    op_name = "client deploys"

    Size = WaveSize

    def __init__(self, size: WaveSize = WaveSize()) -> None:
        self.size = size

    def setup(self, seed: int) -> WaveWorld:
        size = self.size
        corpus, corpus_s = _build_corpus(
            file_scale=size.scale,
            size_scale=size.scale,
            series_names=WAVE_SERIES,
            versions_cap=size.versions,
        )
        cluster = Cluster(size.clients, bandwidth_mbps=WAVE_UPLINK_MBPS)
        # The registry holds every series' version history, converted.
        publish_images(cluster.registry_testbed, corpus.images, convert=True)
        targets = [corpus.by_series[name][-1] for name in WAVE_SERIES]
        rng = random.Random(f"perfbench-wave:{seed}")
        assignment = {node.name: rng.choice(targets) for node in cluster.nodes}
        return WaveWorld(corpus_s, cluster, targets, assignment)

    def run(self, world: WaveWorld) -> Outcome:
        results: Dict[str, Any] = {}
        failures: List[str] = []

        def action(node):
            try:
                result = deploy_with_gear(node.testbed, world.assignment[node.name])
            except Exception as error:  # one failed operation, recorded
                failures.append(f"{node.name}: {type(error).__name__}: {error}")
                return None
            results[node.name] = result
            return result

        report = world.cluster.deploy_wave(action)
        stored = world.cluster.registry_testbed.gear_registry.stored_bytes
        return Outcome(
            ops=len(world.cluster.nodes),
            failures=failures,
            makespan_s=report.makespan_s,
            ready_s=list(report.ready_s),
            egress_bytes=report.egress_bytes,
            stored_bytes=stored,
            signature=(
                report.makespan_s,
                report.latencies_s,
                report.ready_s,
                report.egress_bytes,
                report.uplink_busy_s,
                stored,
            ),
            detail={"results": results},
        )

    def verify(self, world: WaveWorld, outcome: Outcome, reads: list) -> List[str]:
        images = {g.reference: g for g in world.targets}
        problems = checks.check_reads(
            reads, images, checks.ContentHasher(), checks.SourceFiles()
        )
        results = outcome.detail["results"]
        problems += checks.check_ready_within_total(
            (name, r.ready_s, r.total_s) for name, r in sorted(results.items())
        )
        docker_digest: Dict[str, str] = {}
        solo_bytes: Dict[str, int] = {}
        for generated in world.targets:
            bed = make_testbed(bandwidth_mbps=WAVE_UPLINK_MBPS)
            publish_images(bed, [generated], convert=False)
            deploy_with_docker(bed, generated)
            docker_digest[generated.reference] = viewer_fs_digest(bed.daemon.containers()[-1].mount)
            bed = make_testbed(bandwidth_mbps=WAVE_UPLINK_MBPS)
            publish_images(bed, [generated], convert=True)
            solo_bytes[generated.reference] = deploy_with_gear(bed, generated).network_bytes
        for node in world.cluster.nodes:
            reference = world.assignment[node.name].reference
            containers = node.testbed.gear_driver.containers()
            digest = container_fs_digest(containers[-1]) if containers else "<none>"
            problems += checks.check_equal(
                f"{node.name} container fs digest", digest, docker_digest[reference]
            )
        expected = sum(
            solo_bytes[world.assignment[node.name].reference] for node in world.cluster.nodes
        )
        problems += checks.check_equal("wave egress bytes", outcome.egress_bytes, expected)
        floor = outcome.egress_bytes / mbps_to_bytes_per_s(WAVE_UPLINK_MBPS)
        problems += checks.check_at_least("wave makespan_s", outcome.makespan_s, floor)
        return problems

    def layer_counts(self, world: WaveWorld) -> Dict[str, float]:
        root = world.cluster.registry_testbed
        beds = [node.testbed for node in world.cluster.nodes]
        return _client_counts(beds, root.all_links())


# ---------------------------------------------------------------------------
# rollout: a CI/CD release train on one node with a warm shared pool


@dataclass(frozen=True)
class RolloutSize:
    series: Tuple[str, ...] = (
        "nginx", "redis", "python", "node", "httpd", "mysql",
        "golang", "postgres", "mongo", "php", "ruby", "haproxy",
    )
    #: Versions generated per series; each series ships ``shipped`` of
    #: them, chosen by the seed, in version order.
    versions: int = 20
    shipped: int = 17
    scale: float = 0.1


#: The release node's link to the registries: one of the bandwidths the
#: paper's deploy experiments use (904, 100, 20 and 5 Mbps).
ROLLOUT_BANDWIDTH_MBPS = 100.0


@dataclass
class RolloutWorld:
    corpus_build_s: float
    testbed: Any
    train: List[Any]


class Rollout:
    """Convert, publish and deploy a release train, one release at a time."""

    name = "rollout"
    op_name = "releases rolled out"

    Size = RolloutSize

    def __init__(self, size: RolloutSize = RolloutSize()) -> None:
        self.size = size

    def setup(self, seed: int) -> RolloutWorld:
        size = self.size
        corpus, corpus_s = _build_corpus(
            file_scale=size.scale,
            size_scale=size.scale,
            series_names=size.series,
            versions_cap=size.versions,
        )
        rng = random.Random(f"perfbench-rollout:{seed}")
        shipped = {
            name: sorted(rng.sample(range(size.versions), size.shipped)) for name in size.series
        }
        train = []
        for step in range(size.shipped):
            order = list(size.series)
            rng.shuffle(order)
            train += [corpus.by_series[name][shipped[name][step]] for name in order]
        testbed = make_testbed(bandwidth_mbps=ROLLOUT_BANDWIDTH_MBPS)
        return RolloutWorld(corpus_s, testbed, train)

    def run(self, world: RolloutWorld) -> Outcome:
        testbed = world.testbed
        clock = testbed.clock
        start = clock.now
        egress_before = testbed.link.log.total_bytes
        results = []
        failures: List[str] = []
        for generated in world.train:
            try:
                testbed.docker_registry.push_image(generated.image)
                testbed.converter.convert(generated.reference)
                results.append(deploy_with_gear(testbed, generated))
            except Exception as error:  # one failed operation, recorded
                failures.append(f"{generated.reference}: {type(error).__name__}: {error}")
        makespan = clock.now - start
        egress = testbed.link.log.total_bytes - egress_before
        stored = testbed.gear_registry.stored_bytes
        ready = [r.ready_s for r in results]
        return Outcome(
            ops=len(world.train),
            failures=failures,
            makespan_s=makespan,
            ready_s=ready,
            egress_bytes=egress,
            stored_bytes=stored,
            signature=(
                makespan,
                tuple(ready),
                tuple(r.total_s for r in results),
                egress,
                stored,
                testbed.gear_registry.logical_bytes,
            ),
            detail={"results": results},
        )

    def verify(self, world: RolloutWorld, outcome: Outcome, reads: list) -> List[str]:
        testbed = world.testbed
        images = {g.reference: g for g in world.train}
        problems = checks.check_reads(
            reads, images, checks.ContentHasher(), checks.SourceFiles()
        )
        problems += checks.check_ready_within_total(
            (r.reference, r.ready_s, r.total_s) for r in outcome.detail["results"]
        )
        logical = checks.distinct_content_bytes(
            node.blob for g in world.train for _, node in g.image.flatten().iter_files()
        )
        registry = testbed.gear_registry
        problems += checks.check_equal("rollout logical bytes", registry.logical_bytes, logical)
        problems += checks.check_at_most(
            "rollout stored bytes", registry.stored_bytes, registry.logical_bytes
        )
        fetched = [
            record.identity
            for record in testbed.gear_driver.journal.records
            if record.op == FETCH_BEGIN
        ]
        wire = sum(
            1
            for record in testbed.link.log.records
            if record.label.startswith("gear-fetch:") and record.label.endswith(":response")
        )
        problems += checks.check_no_refetch(fetched, wire)
        return problems

    def layer_counts(self, world: RolloutWorld) -> Dict[str, float]:
        return _client_counts([world.testbed], world.testbed.all_links())


# ---------------------------------------------------------------------------
# faas: seeded Poisson invocation streams with a 10x burst, four regions

# Each region replays the spike scenario of ``repro.cli faas`` with that
# command's defaults: Zipf skew 1.0 over 40 functions, 6 invocations/s for
# 20 virtual seconds with one 10x burst from 8 s to 12 s (in ``FaasSize``,
# so the tests can shrink it), 6 nodes, a 200 Mbps registry WAN, a tier
# admission gate of 4 concurrent fills and 6 s keep-warm.  One registry
# per region, not the command's two replicas: those serve its outage
# scenarios, which this workload does not run.
FAAS_SKEW = 1.0
FAAS_NODES = 6
FAAS_WAN_MBPS = 200.0
FAAS_ADMISSION = 4
FAAS_KEEP_WARM_S = 6.0

#: Tier capacity as a share of the region's tier working set (the distinct
#: bytes its stream's startup traces read).  Synthetic: the command's
#: default tier is unbounded and never evicts; a tier that holds about a
#: third of the working set evicts all through the stream.
FAAS_TIER_SHARE = 0.35


@dataclass(frozen=True)
class FaasSize:
    series: Tuple[str, ...] = (
        "nginx", "redis", "python", "node", "httpd", "mysql", "golang", "postgres",
    )
    versions: int = 4
    scale: float = 0.1
    #: Independent regions, each with its own registry, WAN link, shared
    #: tier, nodes and stream (seeded apart).  Synthetic, for sample count
    #: and steadiness: one stream has about 80 cold starts; four pool
    #: about 300, so the cold-start tail has at least 14 samples beyond
    #: the 95th percentile.
    regions: int = 4
    functions: int = 40
    duration_s: float = 20.0
    rate_per_s: float = 6.0
    #: 10x bursts: (start, length) in virtual seconds.
    bursts: Tuple[Tuple[float, float], ...] = ((8.0, 4.0),)


class _RecordingPlatform(FaasPlatform):
    """Keeps every invocation's result for the checks."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.results: List[Any] = []

    def _invoke(self, invocation):
        result = super()._invoke(invocation)
        self.results.append(result)
        return result


@dataclass
class FaasRegion:
    stream: List[Any]
    testbed: Any
    platform: _RecordingPlatform


@dataclass
class FaasWorld:
    corpus_build_s: float
    regions: List[FaasRegion]


class Faas:
    """Invocations against ``make_faas_testbed`` and ``FaasPlatform``."""

    name = "faas"
    op_name = "invocations served"

    Size = FaasSize

    def __init__(self, size: FaasSize = FaasSize()) -> None:
        self.size = size

    def setup(self, seed: int) -> FaasWorld:
        size = self.size
        corpus, corpus_s = _build_corpus(
            file_scale=size.scale,
            size_scale=size.scale,
            series_names=size.series,
            versions_cap=size.versions,
        )
        bursts = tuple(BurstWindow(start, length, 10.0) for start, length in size.bursts)
        regions = []
        for index in range(size.regions):
            stream = ScheduleBuilder(
                corpus, seed=f"perfbench-faas:{seed}:{index}"
            ).invocation_stream(
                duration_s=size.duration_s,
                rate_per_s=size.rate_per_s,
                functions=size.functions,
                skew=FAAS_SKEW,
                bursts=bursts,
            )
            referenced = {invocation.image.reference for invocation in stream}
            images = [g for g in corpus.images if g.reference in referenced]
            testbed = make_faas_testbed(
                bandwidth_mbps=FAAS_WAN_MBPS,
                tier_capacity_bytes=int(_working_set_bytes(images) * FAAS_TIER_SHARE),
                tier_admission_capacity=FAAS_ADMISSION,
                seed=f"perfbench-region-{index}",
            )
            publish_images(testbed, images, convert=True)
            platform = _RecordingPlatform(
                testbed,
                testbed.faas,
                nodes=FAAS_NODES,
                keep_warm_s=FAAS_KEEP_WARM_S,
                seed=f"perfbench-region-{index}",
            )
            regions.append(FaasRegion(stream, testbed, platform))
        return FaasWorld(corpus_s, regions)

    def run(self, world: FaasWorld) -> Outcome:
        reports = [region.platform.run(region.stream) for region in world.regions]
        cold_ready: List[float] = []
        failures: List[str] = []
        signature = []
        for region, report in zip(world.regions, reports):
            results = sorted(region.platform.results, key=lambda r: r.position)
            cold_ready += [r.ready_s for r in results if r.kind == "cold"]
            failures += [f"{r.function}: {r.error}" for r in results if r.kind == "failed"]
            signature.append(
                (
                    report.makespan_s,
                    tuple((r.kind, r.latency_s, r.ready_s) for r in results),
                    report.wan_egress_bytes,
                    tuple(sorted(report.fabric.items())),
                    tuple(sorted(report.fs_digests.items())),
                )
            )
        stored = sum(region.testbed.gear_registry.stored_bytes for region in world.regions)
        egress = sum(report.wan_egress_bytes for report in reports)
        makespan = max(report.makespan_s for report in reports)
        return Outcome(
            ops=sum(len(region.stream) for region in world.regions),
            failures=failures,
            makespan_s=makespan,
            ready_s=cold_ready,
            egress_bytes=egress,
            stored_bytes=stored,
            signature=(makespan, egress, stored, tuple(signature)),
            detail={"reports": reports},
        )

    def verify(self, world: FaasWorld, outcome: Outcome, reads: list) -> List[str]:
        images = {
            inv.image.reference: inv.image for region in world.regions for inv in region.stream
        }
        problems = checks.check_reads(
            reads, images, checks.ContentHasher(), checks.SourceFiles()
        )
        for index, (region, report) in enumerate(zip(world.regions, outcome.detail["reports"])):
            label = f"region {index}"
            problems += checks.check_ready_within_total(
                (f"{label} invocation {r.position}", r.ready_s, r.latency_s)
                for r in region.platform.results
                if r.kind != "failed"
            )
            problems += checks.check_equal(
                f"{label} cold + warm starts",
                report.cold_starts + report.warm_starts,
                len(region.stream),
            )
            problems += checks.check_equal(
                f"{label} duplicate upstream fetches",
                report.fabric["duplicate_upstream_fetches"],
                0,
            )
            problems += checks.check_equal(f"{label} digest conflicts", report.digest_conflicts, 0)
            problems += checks.check_equal(
                f"{label} audit_integrity()", region.testbed.faas.audit_integrity(), []
            )
        return problems

    def layer_counts(self, world: FaasWorld) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for region in world.regions:
            region_counts = _client_counts(region.platform.node_beds, region.testbed.all_links())
            snapshot = region.testbed.metrics.snapshot()
            for name in (
                "fetches", "tier_hits", "tier_upstream_fetches", "tier_coalesced",
                "tier_evictions", "tier_sheds",
            ):
                region_counts[f"faas.{name}"] = snapshot[f"faas.{name}"]
            for key, value in region_counts.items():
                counts[key] = counts.get(key, 0) + value
        return counts


def _working_set_bytes(images: Sequence[Any]) -> int:
    """Distinct bytes the startup traces of ``images`` read."""
    sources = checks.SourceFiles()
    return checks.distinct_content_bytes(
        sources.blob(generated, path)
        for generated in images
        for path, _ in generated.trace.accesses
    )


WORKLOADS = {workload.name: workload for workload in (Wave, Rollout, Faas)}


def spec_of(workload: Any) -> Dict[str, Any]:
    """A JSON-able description a round in another process rebuilds from."""
    return {"workload": workload.name, "size": dataclasses.asdict(workload.size)}


def from_spec(spec: Dict[str, Any]) -> Any:
    cls = WORKLOADS[spec["workload"]]
    return cls(cls.Size(**{key: _tuples(value) for key, value in spec["size"].items()}))


def _tuples(value: Any) -> Any:
    """JSON arrays back to the tuples the sizes hold."""
    return tuple(_tuples(item) for item in value) if isinstance(value, list) else value
