"""The five workloads and the correctness gates around them.

Each workload drives the system only through public entry points
(``repro.api``, ``ShardedWorkload`` / ``build_shard_rounds``, the sharded
supervisor, node ``enforce_retention``) and generates all load from this
one process.  A workload object does its one-off set-up in :meth:`setup`,
then :meth:`rep` runs one repetition: untimed preparation, the timed
region, and — outside the timed region — the correctness gates, which
raise :class:`GateFailure` rather than record a number that cannot be
trusted.

Work per rep is fixed (round and op counts, not durations), so counts
repeat exactly from rep to rep.
"""

from __future__ import annotations

import bisect
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.runtime import ShardedWorkload, ShardSupervisor, WorkerSpec, shards
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator

from f2cbench import mix, stats
from f2cbench.speed import BURST, Gauge
from f2cbench.trace import Tracer

DEVICES_PER_TYPE = 50  # 21 sensor types -> 1,050 devices
ROUND_S = 900.0
FOG1_TTL_S = 6 * 3600.0
FOG2_TTL_S = 72 * 3600.0
FRAME_TRANSPORT = "frames-binary-v2"
IPC_FRAME_FORMAT = "binary-v2"
FSYNC_POLICY = "fsync at every sync point (the default durable policy)"
#: The query loops read the speed gauge this often (a point op takes 0.2 ms,
#: the gauge's kernel 1 ms).
GAUGE_EVERY_S = 0.02
#: The open loop reads it only when the next query is at least this far off
#: (its period is 5 ms, the kernel takes 1-1.5 ms).
GAUGE_SLACK_S = 0.003

#: Bounds of the workload-specific detail metrics (compare.py reads them):
#: timings as the end-to-end timings in BENCHMARK.json, counts exact.
TIMING_BOUND = 0.25
COUNT_BOUND = 0.02

clock = time.perf_counter


class GateFailure(AssertionError):
    """A correctness gate failed; no number from this run may be reported."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


@dataclass(frozen=True)
class Size:
    """How much work one rep does."""

    label: str = "full"
    day_hours: float = 24.0  # ingest_direct, ingest_sharded, query_tiers
    durable_hours: float = 12.0
    serve_hours: float = 4.0
    point_ops: int = 2000
    scatter_ops: int = 200
    summarize_ops: int = 12
    checked_ops: int = 200  # ops of rep 1 compared row for row with brute force
    serve_rate: float = 200.0  # open-loop queries per second
    #: Pacing between rounds.  At 0.1 s a round blocks readers for a fifth of
    #: the time and the queue behind it puts the median query on the knee
    #: between served-at-once and queued (run-to-run spread 17-31%); at
    #: 0.2 s the median is a served-at-once query and p90 a queued one.
    serve_tick_s: float = 0.2


FULL = Size()
SMOKE = Size(
    label="smoke", day_hours=2.0, durable_hours=2.0, serve_hours=2.0,
    point_ops=120, scatter_ops=20, summarize_ops=3, checked_ops=60,
    serve_rate=200.0, serve_tick_s=0.05,
)


# ---------------------------------------------------------------------- #
# Inputs and shared steps
# ---------------------------------------------------------------------- #
@dataclass
class Inputs:
    """One seeded city workload, generated once and replayed every rep."""

    workload: ShardedWorkload
    rounds: List[Tuple[float, list]]
    assignment: Dict[str, str]  # sensor id -> section id (round-robin layout)
    offered: int


def make_inputs(seed: int, hours: float) -> Inputs:
    workload = ShardedWorkload.stream_rounds(
        devices_per_type=DEVICES_PER_TYPE, seed=seed, duration_s=hours * 3600.0, round_s=ROUND_S
    )
    layout = api.connect(catalog=BARCELONA_CATALOG).system
    generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=DEVICES_PER_TYPE, seed=seed)
    spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=BARCELONA_CATALOG)
    # Through the module so the traced run's span around it applies.
    rounds = shards.build_shard_rounds(spec, layout, generator)
    assignment = {
        device.sensor_id: layout.section_of_sensor(device.sensor_id)
        for device in generator.all_devices()
    }
    return Inputs(workload, rounds, assignment, sum(len(readings) for _, readings in rounds))


def deploy(inputs: Inputs, **config):
    """A fresh deployment laid out like the one the inputs were built on."""
    client = api.connect(catalog=BARCELONA_CATALOG, **config)
    assign = client.system.assign_sensor
    for sensor_id, section_id in inputs.assignment.items():
        assign(sensor_id, section_id)
    return client


def ingest_rounds(client, inputs: Inputs, tracer: Tracer, gauge: Gauge) -> List[float]:
    """The per-round loop every single-process workload shares.

    ingest -> synchronise -> TTL retention on every fog node, at the
    round's own virtual time (so fog layer 1's 6 h TTL really evicts).
    The gauge is read after every round, outside the round's own timing.
    Returns each round's wall seconds.
    """
    session = client.session
    system = client.system
    fog_nodes = system.fog1_nodes() + system.fog2_nodes()
    round_s: List[float] = []
    with tracer.root("rep"):
        for timestamp, readings in inputs.rounds:
            begin = clock()
            session.ingest(readings, now=timestamp)
            system.synchronise(now=timestamp)
            for node in fog_nodes:
                node.enforce_retention(timestamp)
            round_s.append(clock() - begin)
            with tracer.span("harness.gauge"):
                gauge.sample()
    return round_s


def lost_readings(client, offered: int) -> int:
    """Readings the conservation ledger cannot account for (must be 0)."""
    ledger = client.health()["conservation"]
    fog1 = ledger["tiers"]["fog_layer_1"]
    unaccounted = offered - fog1["ingested_readings"] - fog1["rejected_readings"]
    return int(ledger["total_counted_losses"]) + abs(unaccounted)


def canonical(reading) -> tuple:
    """A reading in the row shape ``cloud_contents()`` uses."""
    return (
        reading.sensor_id, reading.sensor_type, reading.category, reading.value,
        reading.timestamp, reading.size_bytes, reading.sequence,
        tuple(sorted(reading.tags.items())),
    )


# ---------------------------------------------------------------------- #
# Base
# ---------------------------------------------------------------------- #
class Workload:
    """One workload: set-up once, then fixed-work reps."""

    name = ""
    reps = 4  # in a run of the benchmark's own length (BENCHMARK.json run_seconds)
    work_unit = "readings"
    latency_unit = "round"
    tail_pct = 85.0
    #: Whether latency sample k is the same unit of work in every rep.
    latency_aligned = True

    def __init__(self, seed: int, size: Size, tracer: Tracer, workdir: Path, gauge: Gauge) -> None:
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.workdir = workdir
        self.gauge = gauge
        # Every timing below except wall_s is at reference speed (see speed.py).
        self.prep_s: List[float] = []  # per rep: preparation before the timed region
        #: per rep: seconds of each unit of work in the timed region, the
        #: same units in the same order every rep (rounds, ops, the run).
        self.cost_s: List[List[float]] = []
        self.work = 0.0  # work units (readings, ops) one rep's cost_s covers
        self.latency_ms: List[List[float]] = []  # per rep: latency samples
        self.wall_s: List[List[float]] = []  # per rep: cost_s as clocked
        self.speed: List[float] = []  # per rep: reference seconds per wall second
        self.attempted = 0
        self.failed = 0
        self.cloud_bytes_per_reading: Optional[float] = None
        self.detail: Dict[str, Dict[str, Any]] = {}  # workload-specific measurements
        self.counts: Dict[str, float] = {}  # exact per-rep counts (checked equal across reps)
        self.facts: Dict[str, Any] = {}  # what the gates saw

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, index: int) -> None:
        raise NotImplementedError

    @property
    def timed_s(self) -> List[float]:
        """Per rep: the timed region's wall seconds, as clocked."""
        return [sum(units) for units in self.wall_s]

    def record(self, prep_s: float, wall_s: List[float], work: float, latency_ms: List[float]) -> None:
        """One rep, as clocked; kept at the speed the gauge saw since its restart."""
        speed = self.gauge.speed()
        self.prep_s.append(prep_s * speed)
        self.cost_s.append([seconds * speed for seconds in wall_s])
        self.work = work
        self.latency_ms.append([millis * speed for millis in latency_ms])
        self.wall_s.append(wall_s)
        self.speed.append(speed)

    def finish(self, plain: int) -> None:
        """Fold the first *plain* (untraced) reps into the detail measurements."""

    def layer_values(self, self_s) -> Dict[str, float]:
        """Per-layer metrics only this workload can know (traced runs).

        *self_s(name)* is a span name's self seconds per traced rep.
        """
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- shared bookkeeping ------------------------------------------- #
    def note_counts(self, **counts: float) -> None:
        """Record a rep's exact counts; every rep must reproduce rep 1's."""
        if not self.counts:
            self.counts = dict(counts)
        gate(self.counts == counts, f"{self.name}: counts changed between reps: {self.counts} != {counts}")

    def note_digest(self, digest: str) -> None:
        first = self.facts.setdefault("cloud_sha256", digest)
        gate(first == digest, f"{self.name}: cloud digest {digest[:12]} differs from rep 1's {first[:12]}")

    def note_ingest(self, client, offered: int, traffic: Dict[str, int], **more_counts: float) -> None:
        """Ledger gate plus the exact byte counts of one ingest rep."""
        lost = lost_readings(client, offered)
        self.attempted += offered
        self.failed += lost
        gate(lost == 0, f"{self.name}: conservation ledger leaks {lost} readings")
        self.cloud_bytes_per_reading = traffic["cloud"] / offered
        self.note_counts(
            offered=offered,
            fog1_bytes=traffic["fog_layer_1"], fog2_bytes=traffic["fog_layer_2"],
            cloud_bytes=traffic["cloud"], **more_counts,
        )

    def add_detail(self, name: str, unit: str, better: str, bound: float, value: float, **more) -> None:
        self.detail[name] = {"value": value, "unit": unit, "better": better, "bound": bound, **more}


# ---------------------------------------------------------------------- #
# ingest_direct
# ---------------------------------------------------------------------- #
class IngestDirect(Workload):
    name = "ingest_direct"

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed, self.size.day_hours)

    def rep(self, index: int) -> None:
        self.gauge.restart()
        begin = clock()
        client = deploy(self.inputs, transport="direct")
        prep_s = clock() - begin
        rounds = ingest_rounds(client, self.inputs, self.tracer, self.gauge)
        self.record(prep_s, rounds, self.inputs.offered, [seconds * 1e3 for seconds in rounds])
        self.note_digest(client.cloud_digest())
        self.note_ingest(client, self.inputs.offered, client.traffic_report())


# ---------------------------------------------------------------------- #
# ingest_frames_durable
# ---------------------------------------------------------------------- #
class IngestFramesDurable(Workload):
    name = "ingest_frames_durable"
    reps = 3
    tail_pct = 75.0  # of 48 rounds: p85 would leave 7 beyond it

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed, self.size.durable_hours)
        self.recover_s: List[float] = []
        self.facts["fsync_policy"] = FSYNC_POLICY

    def rep(self, index: int) -> None:
        gauge = self.gauge
        gauge.restart()
        begin = clock()
        durable = dict(
            transport=FRAME_TRANSPORT, durable_dir=str(self.workdir / f"rep{index}"), durable_fog2=True
        )
        Path(durable["durable_dir"]).mkdir(parents=True)
        client = deploy(self.inputs, **durable)
        prep_s = clock() - begin

        rounds = ingest_rounds(client, self.inputs, self.tracer, gauge)
        self.record(prep_s, rounds, self.inputs.offered, [seconds * 1e3 for seconds in rounds])

        live_digest = client.cloud_digest()
        health = client.health()
        wire_bytes = health["broker"]["published_bytes"]
        self.facts["shed_messages"] = health["broker"]["shed_messages"]
        log_bytes = sum(log["log_bytes"] for log in health["durable"]["logs"].values())
        self.note_digest(live_digest)
        self.note_ingest(
            client, self.inputs.offered, client.traffic_report(), wire_bytes=wire_bytes, log_bytes=log_bytes
        )
        client.system.durable.close()

        gauge.restart()
        gauge.sample(BURST)
        with self.tracer.root("recover"):
            begin = clock()
            recovered = api.recover(catalog=BARCELONA_CATALOG, **durable)
            recover_s = clock() - begin
        gauge.sample(BURST)
        self.recover_s.append(recover_s * gauge.speed())
        report = recovered.health()["durable"]
        gate(recovered.cloud_digest() == live_digest, f"{self.name}: recovered digest differs from live")
        gate(report["dropped_log_records"] == 0, f"{self.name}: recovery dropped log records")
        self.facts["replayed_rows"] = report["replayed_rows"]
        recovered.system.durable.close()
        shutil.rmtree(durable["durable_dir"])

    def finish(self, plain: int) -> None:
        offered = self.inputs.offered
        recover_s = self.recover_s[:plain]
        self.add_detail("recover_s", "s", "lower", TIMING_BOUND, stats.median(recover_s), per_rep=recover_s)
        self.add_detail("wire_bytes_per_reading", "B", "lower", COUNT_BOUND,
                        self.counts["wire_bytes"] / offered, what="broker published_bytes / offered")
        self.add_detail("log_bytes_per_reading", "B", "lower", COUNT_BOUND,
                        self.counts["log_bytes"] / offered, what="on-disk segment-log bytes / offered")

    def layer_values(self, self_s) -> Dict[str, float]:
        return {"broker.shed_messages": self.facts["shed_messages"]}


# ---------------------------------------------------------------------- #
# ingest_sharded
# ---------------------------------------------------------------------- #
class IngestSharded(Workload):
    name = "ingest_sharded"
    latency_unit = "sync barrier (one round through workers, supervisor and cloud)"
    workers = 2

    def setup(self) -> None:
        self.workload = ShardedWorkload.stream_rounds(
            devices_per_type=DEVICES_PER_TYPE, seed=self.seed,
            duration_s=self.size.day_hours * 3600.0, round_s=ROUND_S,
        )
        # The digest every sharded rep must reproduce: one direct run.
        reference = api.run_workload(self.workload, transport="direct", catalog=BARCELONA_CATALOG)
        self.facts["reference_sha256"] = reference.cloud_digest()
        self.offered = sum(
            stats["ingested_readings"] + stats["rejected_readings"]
            for node_id, stats in reference.storage_report().items()
            if node_id.startswith("fog1/")
        )

    def rep(self, index: int) -> None:
        # run_sharded() is exactly this plus nothing; the supervisor object
        # is used for its per-barrier completion hook.
        supervisor = ShardSupervisor(
            workers=self.workers, workload=self.workload, catalog=BARCELONA_CATALOG,
            frame_format=IPC_FRAME_FORMAT,
        )
        gauge = self.gauge
        barriers: List[Tuple[float, float]] = []  # (reached, left): the gauge is read in between

        def on_barrier(sync_index: int) -> None:
            reached = clock()
            with self.tracer.span("harness.gauge"):
                gauge.sample()
            barriers.append((reached, clock()))

        supervisor.on_sync_complete = on_barrier
        gauge.restart()
        with self.tracer.root("rep"):
            result = supervisor.run()
        # The run as units that line up across reps: the barrier-to-barrier
        # intervals, plus what lies before the first and after the last.
        intervals = [later[0] - earlier[1] for earlier, later in zip(barriers, barriers[1:])]
        gauged = sum(left - reached for reached, left in barriers)
        self.record(
            result.wall_s - result.run_s, [result.run_s - gauged - sum(intervals)] + intervals, self.offered,
            [seconds * 1e3 for seconds in intervals],
        )
        self.last_result = result

        client = result.client()
        gate(
            client.cloud_digest() == self.facts["reference_sha256"],
            f"{self.name}: sharded digest differs from the direct reference",
        )
        gate(result.worker_restarts == 0, f"{self.name}: a worker restarted on a fault-free run")
        self.note_ingest(
            client, self.offered, result.traffic,
            wire_bytes=result.ipc_bytes, absorbed=result.total_readings_absorbed,
        )

    def finish(self, plain: int) -> None:
        self.add_detail("wire_bytes_per_reading", "B", "lower", COUNT_BOUND,
                        self.counts["wire_bytes"] / self.offered, what="IPC bytes read / offered")

    def layer_values(self, self_s) -> Dict[str, float]:
        result = self.last_result
        return {
            "supervisor.sync_cloud_s": self_s("movement.fog2_to_cloud"),
            # What the run spends outside every wrapped call: blocked on the
            # workers' pipes, and parsing what arrives.
            "supervisor.wait_s": self_s("rep"),
            "supervisor.restarts": result.worker_restarts,
            "ipc.bytes": result.ipc_bytes,
            "ipc.dropped_frames": result.dropped_ipc_frames,
        }


# ---------------------------------------------------------------------- #
# query_tiers
# ---------------------------------------------------------------------- #
class QueryTiers(Workload):
    name = "query_tiers"
    reps = 3
    work_unit = "ops"
    latency_unit = "point query"
    tail_pct = 99.0

    def setup(self) -> None:
        size = self.size
        self.inputs = make_inputs(self.seed, size.day_hours)
        self.unit = self.inputs.workload.duration_s / 24.0
        self.client = deploy(self.inputs, transport="direct")
        ingest_rounds(self.client, self.inputs, self.tracer, self.gauge)
        gate(lost_readings(self.client, self.inputs.offered) == 0, f"{self.name}: set-up ingest lost readings")
        self.cloud_bytes_per_reading = self.client.traffic_report()["cloud"] / self.inputs.offered
        system = self.client.system
        # Age the tiers so [0,12u) lives only in the cloud, [12u,18u) also
        # in fog L2 and [18u,24u) also in fog L1.  For the city-day the
        # fog L1 call is a no-op: its 6 h TTL already evicted to 18 h.
        for fog1 in system.fog1_nodes():
            fog1.enforce_retention(FOG1_TTL_S + 18 * self.unit)
        for fog2 in system.fog2_nodes():
            fog2.enforce_retention(FOG2_TTL_S + 12 * self.unit)
        self.facts["tier_rows"] = {
            "fog1": sum(len(node.storage) for node in system.fog1_nodes()),
            "fog2": sum(len(node.storage) for node in system.fog2_nodes()),
            "cloud": len(system.cloud.storage),
        }
        self.sections = [section.section_id for section in system.city.sections]
        self.sensors = sorted(self.inputs.assignment)
        self.categories = sorted({spec.category.value for spec in BARCELONA_CATALOG})
        # One mix for the whole run: every rep times the same ops, so an op's
        # latency can be compared across reps.  Windows are unique within
        # the mix and the memo is dropped between reps, so it never hits.
        self.ops = mix.tier_mix(
            self.seed, 0, self.unit, self.sections, self.sensors, self.categories,
            size.point_ops, size.scatter_ops, size.summarize_ops,
        )
        self.rows_by_kind: Dict[str, int] = {}

    def rep(self, index: int) -> None:
        gauge = self.gauge
        gauge.restart()
        begin = clock()
        ops = self.ops
        client = self.client
        client.queries.invalidate()
        prep_s = clock() - begin

        tracer = self.tracer
        traced = tracer.armed
        elapsed: List[float] = [0.0] * len(ops)
        results: List[Any] = [None] * len(ops)
        gauge_due = 0.0
        with tracer.root("rep"):
            for position, op in enumerate(ops):
                begin = clock()
                if begin >= gauge_due:
                    with tracer.span("harness.gauge"):
                        gauge.sample()
                    begin = clock()
                    gauge_due = begin + GAUGE_EVERY_S
                try:
                    if traced:
                        with tracer.span(f"op.{op.kind}"):
                            results[position] = op.run(client)
                    else:
                        results[position] = op.run(client)
                except Exception as exc:  # noqa: BLE001 - a raised query is a failed op, not a crash
                    results[position] = exc
                elapsed[position] = clock() - begin
        self.record(
            prep_s, elapsed, len(ops),
            [seconds * 1e3 for op, seconds in zip(ops, elapsed) if op.group == "point"],
        )
        self.attempted += len(ops)

        rows_by_kind: Dict[str, int] = dict.fromkeys(mix.KINDS + ("summarize",), 0)
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                self.failed += 1
                self.facts.setdefault("first_failure", repr(result))
                continue
            rows_by_kind[op.kind] += result.rows if op.group == "summarize" else len(result)
            if op.tiers is not None:
                # A scatter lists only the chains that returned rows, so an
                # empty window names no tier; a point op always names its chain's.
                served = {source.tier for source in result.sources}
                gate(
                    served == op.tiers or (op.group == "scatter" and not served),
                    f"{self.name}: {op.kind} [{op.since:.0f},{op.until:.0f}) served from "
                    f"{sorted(served)}, expected {sorted(op.tiers)}",
                )
        self.rows_by_kind = self.rows_by_kind or rows_by_kind
        gate(self.rows_by_kind == rows_by_kind, f"{self.name}: a rep returned different row counts")
        if index == 0:
            self.failed += self.wrong_answers(ops[: self.size.checked_ops], results)
        gate(
            client.queries.cache_hits == 0,
            f"{self.name}: the memo hit {client.queries.cache_hits} times on a cold mix",
        )

    def wrong_answers(self, ops: List[mix.Op], results: List[Any]) -> int:
        """Ops whose rows differ from a brute-force filter over the cloud."""
        rows = sorted(self.client.cloud_contents(), key=lambda row: row[4])
        stamps = [row[4] for row in rows]
        wrong = 0
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                continue  # already counted as failed
            window = rows[bisect.bisect_left(stamps, op.since): bisect.bisect_left(stamps, op.until)]
            if op.section_id is not None:
                tag = ("section", op.section_id)
                window = [row for row in window if tag in row[7]]
            if op.sensor_id is not None:
                window = [row for row in window if row[0] == op.sensor_id]
            if op.category is not None:
                window = [row for row in window if row[2] == op.category]
            if op.group == "summarize":
                wrong += result.rows != len(window)
            else:
                wrong += sorted(canonical(r) for r in result.readings()) != sorted(window)
        self.facts["brute_force_checked_ops"] = len(ops)
        return wrong

    def finish(self, plain: int) -> None:
        typical_ms = [seconds * 1e3 for seconds in stats.typical(self.cost_s[:plain])]
        groups: Dict[str, List[float]] = {"scatter": [], "summarize": []}
        for op, millis in zip(self.ops, typical_ms):
            if op.group in groups:
                groups[op.group].append(millis)
        scatter, summaries = groups["scatter"], groups["summarize"]
        self.add_detail("query_scatter_p50_ms", "ms", "lower", TIMING_BOUND,
                        stats.percentile(scatter, 50), samples=len(scatter))
        self.add_detail("query_scatter_p90_ms", "ms", "lower", TIMING_BOUND,
                        stats.percentile(scatter, 90, require_support=False),
                        samples=len(scatter), supported=stats.supported(len(scatter), 90))
        self.add_detail("summarize_p50_ms", "ms", "lower", TIMING_BOUND,
                        stats.percentile(summaries, 50), samples=len(summaries))
        self.facts["cache_hits"] = self.client.queries.cache_hits

    def layer_values(self, self_s) -> Dict[str, float]:
        per_kind = {kind: sum(op.kind == kind for op in self.ops) for kind in mix.KINDS}
        values = {
            f"query.{kind}.rows_per_op": self.rows_by_kind[kind] / count
            for kind, count in per_kind.items()
            if count
        }
        values["query.memo_hit_ratio"] = self.client.queries.cache_hits / (len(self.ops) * len(self.cost_s))
        values["query.memo_evictions"] = self.client.queries.cache_evictions
        return values


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #
class ServeMixed(Workload):
    name = "serve_mixed"
    reps = 5  # its tail is the noisiest number of the benchmark: more, shorter reps
    latency_unit = "query, timed from its due time"
    tail_pct = 90.0
    latency_aligned = False  # the open loop issues on the wall clock

    def setup(self) -> None:
        size = self.size
        self.workload = ShardedWorkload.stream_rounds(
            devices_per_type=DEVICES_PER_TYPE, seed=self.seed,
            duration_s=size.serve_hours * 3600.0, round_s=ROUND_S,
        )
        reference = api.run_workload(self.workload, transport="direct", catalog=BARCELONA_CATALOG)
        self.facts["reference_sha256"] = reference.cloud_digest()
        self.sections = [section.section_id for section in reference.system.city.sections]
        self.by_kind: Dict[str, List[float]] = {kind: [] for kind, _ in mix.SERVE_KINDS}
        self.late = 0
        self.memo_hits = 0
        self.served = 0

    def rep(self, index: int) -> None:
        size = self.size
        rounds_total = self.workload.round_count()
        expected_s = rounds_total * (size.serve_tick_s + 0.05)
        draws = mix.serve_mix(self.seed, index, int(size.serve_rate * expected_s * 3) + 64)
        hooks: List[Tuple[float, int]] = []  # (wall time, readings offered) at each round start

        def round_hook(handle, round_index, readings):
            hooks.append((clock(), len(readings)))

        begin = clock()
        handle = api.serve(
            self.workload, transport="direct", catalog=BARCELONA_CATALOG,
            serve_tick_interval_s=size.serve_tick_s, round_hook=round_hook,
        )
        prep_s = clock() - begin
        try:
            samples = self.drive(handle, draws)
            gate(handle.drain(timeout=60.0), f"{self.name}: the serve loop did not drain")
            gate(
                handle.cloud_digest() == self.facts["reference_sha256"],
                f"{self.name}: drained digest differs from run_workload's",
            )
            lost = lost_readings(handle.client, handle.readings_offered)
            gate(lost == 0, f"{self.name}: conservation ledger leaks {lost} readings")
            served = handle.client.queries.stats()
            self.memo_hits += served["cache_hits"]
            self.served += served["served"]
            self.cloud_bytes_per_reading = handle.client.traffic_report()["cloud"] / handle.readings_offered
            self.note_counts(offered=handle.readings_offered, rounds=handle.rounds_ingested)
        finally:
            handle.shutdown(drain=False)

        # A round's turnaround: from its start to the next round's start,
        # less the pacing tick — ingest + sync + any wait for a reader.
        tick = size.serve_tick_s
        busy = [(later[0] - earlier[0] - tick) for earlier, later in zip(hooks, hooks[1:])]
        self.record(
            prep_s, busy, sum(offered for _, offered in hooks[:-1]), [millis for _, millis in samples]
        )
        for kind, millis in samples:
            self.by_kind[kind].append(millis)

    def drive(self, handle, draws) -> List[Tuple[str, float]]:
        """The open-loop client: one query every 1/rate s until the loop ends."""
        period = 1.0 / self.size.serve_rate
        sections = self.sections
        dashboard = sections[: mix.DASHBOARD_SECTIONS]
        tracer = self.tracer
        samples: List[Tuple[str, float]] = []
        gauge = self.gauge
        gauge.restart()
        gauge_due = 0.0
        with tracer.root("rep"):
            start = clock()
            for position, (kind, u, v) in enumerate(draws):
                due = start + position * period
                wait = due - clock()
                if wait > GAUGE_SLACK_S and clock() >= gauge_due:
                    # Idle until the next query is due: room for the gauge.
                    with tracer.span("harness.gauge"):
                        gauge.sample()
                    gauge_due = clock() + GAUGE_EVERY_S
                    wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                if not handle.running:
                    break
                virtual_now = handle.rounds_ingested * ROUND_S
                if kind == "hot":
                    section_id = dashboard[int(v * len(dashboard))]
                    since, until = virtual_now - 3600.0, virtual_now
                elif kind == "point":
                    section_id = sections[int(v * len(sections))]
                    since = u * max(virtual_now - 3600.0, 0.0)
                    until = since + 3600.0
                else:
                    section_id = None
                    since = u * max(virtual_now - 900.0, 0.0)
                    until = since + 900.0
                issued = clock()
                self.attempted += 1
                self.late += issued - due > 1e-3
                try:
                    handle.submit_query(since=since, until=until, section_id=section_id)
                except Exception as exc:  # noqa: BLE001 - a raised query is a failed op
                    self.failed += 1
                    self.facts.setdefault("first_failure", repr(exc))
                    continue
                samples.append((kind, (clock() - due) * 1e3))
            else:
                raise GateFailure(f"{self.name}: ran out of query draws before the serve loop ended")
        return samples

    def finish(self, plain: int) -> None:
        turnaround_ms = [seconds * 1e3 for seconds in stats.typical(self.cost_s[:plain])]
        self.add_detail("round_turnaround_p50_ms", "ms", "lower", TIMING_BOUND,
                        stats.percentile(turnaround_ms, 50), samples=len(turnaround_ms))
        self.facts["memo_hit_ratio"] = self.memo_hits / max(self.served, 1)
        gate(self.memo_hits > 0, f"{self.name}: the hot share never hit the memo")

    def layer_values(self, self_s) -> Dict[str, float]:
        pooled = [millis for rep in self.latency_ms for millis in rep]
        values = {
            f"serving.{kind}_p50_ms": stats.percentile(samples, 50)
            for kind, samples in self.by_kind.items()
        }
        values.update({
            "serving.round_busy_p50_ms": stats.percentile(
                [seconds * 1e3 for rep in self.cost_s for seconds in rep], 50
            ),
            "serving.memo_hit_ratio": self.facts["memo_hit_ratio"],
            "serving.generator_late_share": self.late / self.attempted,
            "serving.over_50ms_share": sum(millis > 50.0 for millis in pooled) / len(pooled),
            "serving.rounds": self.counts["rounds"],
        })
        return values


WORKLOADS = {
    cls.name: cls for cls in (IngestDirect, IngestFramesDurable, IngestSharded, QueryTiers, ServeMixed)
}
