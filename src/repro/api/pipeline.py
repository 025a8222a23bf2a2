"""The unified write-side pipeline.

One engine, four transports.  :class:`Pipeline` owns the transport-level
ingest operations that used to live directly on
:class:`~repro.core.architecture.F2CDataManagement` — direct batch ingest,
broker CSV and column-frame publishing, and the one broker entry into fog
layer-1 acquisition, :meth:`Pipeline.flush_broker` — plus the
config-driven porcelain on top:

* :meth:`Pipeline.session` returns an :class:`IngestSession` whose single
  ``ingest()`` verb drives readings through whatever transport the frozen
  :class:`~repro.api.config.PipelineConfig` selects;
* :meth:`Pipeline.run` executes a whole declarative seeded workload
  (:class:`~repro.runtime.shards.ShardedWorkload`) through the configured
  transport — including ``sharded(N)``, which delegates to the
  multi-process runtime — and returns an
  :class:`~repro.api.client.F2CClient` over the finished deployment.

This is the only write surface of the system:
:class:`~repro.core.architecture.F2CDataManagement` holds the deployment
(nodes, routing tables, broker subscription state) and exposes its default
engine as ``system.api_pipeline``.
"""

from __future__ import annotations

from collections import Counter
from math import isfinite
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.city.barcelona import fog1_node_id
from repro.common.errors import ConfigurationError
from repro.common.serialization import decode_csv_line
from repro.messaging.broker import Broker, Message
from repro.network.topology import LayerName
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns

from repro.api.config import PipelineConfig
from repro.dlc.acquisition import acquire_round

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.client import F2CClient
    from repro.api.serving import ServeHandle
    from repro.core.architecture import F2CDataManagement
    from repro.runtime.shards import ShardedWorkload


def _as_columns(readings: Iterable[Reading]) -> ReadingColumns:
    """A round as one column set: a batch's own columns, or one bulk decomposition."""
    if isinstance(readings, ReadingBatch):
        return readings.columns
    if isinstance(readings, ReadingColumns):
        return readings
    return ReadingColumns.from_readings(readings)


def _group_by_rank(columns: ReadingColumns, ranks: List[int], groups: int) -> List[ReadingColumns]:
    """*columns* split into one column set per rank, row order kept within each.

    One stable C-level sort on the rank column and one gather, then a slice
    per group.  A single group is the caller's instance itself, not a copy.
    """
    if groups == 1:
        return [columns]
    grouped = columns.gather(sorted(range(len(ranks)), key=ranks.__getitem__))
    rows_per_rank = Counter(ranks)
    return grouped.split(rows_per_rank[rank] for rank in range(groups))


class Pipeline:
    """Transport engine bound to one F2C deployment.

    Construct with a frozen :class:`PipelineConfig` (the deployment is
    built lazily from *catalog*/*city* on first use), or wrap an existing
    system with :meth:`for_system`.  The verb-level methods
    (:meth:`ingest_rows`, :meth:`publish_frames`, :meth:`flush_broker`,
    ...) are the canonical implementations of the F2C write path; the
    config-driven :meth:`session` / :meth:`run` porcelain maps the
    configured transport onto them.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        system: Optional["F2CDataManagement"] = None,
        catalog=None,
        city=None,
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self._system = system
        self._catalog = catalog if catalog is not None else (
            system.catalog if system is not None else None
        )
        self._city = city

    @classmethod
    def for_system(cls, system: "F2CDataManagement") -> "Pipeline":
        """The engine for an existing deployment (default direct config)."""
        return cls(system=system)

    # ------------------------------------------------------------------ #
    # Deployment access
    # ------------------------------------------------------------------ #
    @property
    def system(self) -> "F2CDataManagement":
        """The underlying deployment (built on first use)."""
        if self._system is None:
            if self.config.transport == "sharded":
                raise ConfigurationError(
                    "the sharded transport builds its deployment per run(); "
                    "use Pipeline.run(workload) instead of streaming ingest"
                )
            self._system = self._build_system(self._catalog)
        return self._system

    def _build_system(self, catalog) -> "F2CDataManagement":
        from repro.core.architecture import F2CDataManagement

        return F2CDataManagement(
            city=self._city,
            catalog=catalog,
            movement_policy=self.config.movement_policy(),
            durable_dir=self.config.durable_dir,
            durable_fog2=self.config.durable_fog2,
        )

    # ------------------------------------------------------------------ #
    # Direct ingestion
    # ------------------------------------------------------------------ #
    def ingest_rows(
        self,
        readings: Iterable[Reading],
        now: Optional[float] = None,
        default_section: Optional[str] = None,
    ) -> Dict[str, int]:
        """Route readings to their section's fog layer-1 node and acquire them.

        Readings from sensors without an explicit assignment are spread over
        sections deterministically (stable CRC-32 hash of the sensor id, so
        the spreading is identical across runs), or sent to *default_section*
        when given.  Returns the number of readings acquired per fog layer-1
        node.

        The edge→fog hop is also recorded in the traffic accountant, so the
        per-layer byte report includes what fog layer 1 received from the
        sensors themselves.

        Whatever the input — a :class:`ReadingBatch`, :class:`ReadingColumns`
        or any iterable of :class:`Reading` — the round is turned into one
        column set (a batch's own columns, untouched; a reading list by one
        bulk decomposition) and handed whole to :meth:`ingest_columns`.
        """
        return self.ingest_columns(_as_columns(readings), now=now, default_section=default_section)

    def ingest_columns(
        self,
        columns: ReadingColumns,
        now: Optional[float] = None,
        default_section: Optional[str] = None,
    ) -> Dict[str, int]:
        """Columnar-native ingest: route and acquire a whole round of columns.

        The round is routed at C speed (:meth:`_route_columns`: the sensor id
        column mapped through the node cache, nodes kept in first-appearance
        order — the order of the accountant's records and of the returned
        dict) and acquired at one ``now`` for all its nodes by
        :meth:`_acquire_routed`, the post-routing code this entry shares
        with :meth:`flush_broker`.

        *columns* is never mutated (rounds are replayed across benchmark
        reps and serve runs).
        """
        system = self.system
        timestamp = now if now is not None else system.simulator.clock.now()
        node_ids, ranks = self._route_columns(columns, default_section)
        nodes = [system.fog1_node(node_id) for node_id in node_ids]
        sources = [f"sensors/{fog1.section_id}" for fog1 in nodes]
        return self._acquire_routed(nodes, sources, columns, ranks, [timestamp] * len(nodes))

    def _acquire_routed(
        self,
        nodes: list,
        sources: List[str],
        columns: ReadingColumns,
        ranks: List[int],
        nows: List[float],
    ) -> Dict[str, int]:
        """Acquire one routed round: row *i* of *columns* is ``nodes[ranks[i]]``'s.

        Node ``nodes[r]`` acquires its rows at ``nows[r]``.  When every
        node's block is in the default configuration the round is acquired
        once for all of them by :func:`~repro.dlc.acquisition.acquire_round`
        (a flawed row is scored alone, the rest of the round stays
        columnar), and only the accounting (one record per node, from
        ``sources[rank]``) and the store append run per node.  Otherwise the
        round is grouped per node by one stable sort and each node's slice
        takes :meth:`FogNodeLevel1.ingest` and its block's own phases.  The
        deployment's configuration picks the path, never the round's
        content.  Returns the acquired rows per node, in *nodes* order.
        """
        acquired_counts: Dict[str, int] = {}
        blocks = [fog1.acquisition for fog1 in nodes]
        if not all(block._acquires_by_round() for block in blocks):
            for fog1, source, node_columns, now in zip(
                nodes, sources, _group_by_rank(columns, ranks, len(nodes)), nows
            ):
                self._record_edge_transfer(
                    fog1, source, now, node_columns.total_bytes, len(node_columns)
                )
                acquired = fog1.ingest(ReadingBatch.from_columns(node_columns), now)
                acquired_counts[fog1.node_id] = len(acquired)
            return acquired_counts
        outcomes = acquire_round(blocks, columns, ranks, nows)
        for fog1, source, now, (acquired, result) in zip(nodes, sources, nows, outcomes):
            offered = result.phase_results[0]
            self._record_edge_transfer(
                fog1, source, now, offered.input_bytes, offered.input_readings
            )
            fog1.accept_acquired(offered.input_readings, acquired, result)
            acquired_counts[fog1.node_id] = len(acquired)
        return acquired_counts

    def _acquisition_time(self, timestamps: Iterable[float]) -> float:
        """When a batch given no explicit ``now`` is acquired: its latest finite timestamp.

        The batch maximum, not the last arrival: with out-of-order arrivals
        an older last row would make newer readings look like they are from
        the future and fail the quality phase's skew check.  Non-finite
        timestamps are skipped — the quality phase rejects them, and
        ``max`` around a NaN depends on row order — and a batch without a
        finite one is acquired at the simulator clock.
        """
        latest = max(filter(isfinite, timestamps), default=None)
        return latest if latest is not None else self.system.simulator.clock.now()

    def _record_edge_transfer(
        self, fog1, source: str, timestamp: float, size_bytes: int, readings: int
    ) -> None:
        """Account one round's hop into fog layer 1 for one node."""
        self.system.simulator.accountant.record_transfer(
            timestamp=timestamp,
            source=source,
            target=fog1.node_id,
            target_layer=LayerName.FOG_1,
            size_bytes=size_bytes,
            message_count=readings,
        )

    def _route_columns(
        self, columns: ReadingColumns, default_section: Optional[str] = None
    ) -> Tuple[List[str], List[int]]:
        """The fog layer-1 node of every row: ``(node_ids, ranks)``.

        *node_ids* are the distinct owning nodes in first-appearance order;
        ``ranks[i]`` indexes the node of row *i* in it.  The one router
        behind direct ingest and frame / CSV publishing: a ``map`` of the
        sensor id column through the persistent sensor → node cache, with
        only a cache miss (a sensor's first appearance) or a per-call
        *default_section* paying the Python-level resolver, once per
        distinct sensor.
        """
        system = self.system
        sensor_ids = columns.sensor_ids
        route = system._resolve_node_cached
        if default_section is None:
            node_of = system._sensor_node_cache
            try:
                row_nodes = list(map(node_of.__getitem__, sensor_ids))
            except KeyError:
                for sensor_id in dict.fromkeys(sensor_ids):
                    if sensor_id not in node_of:
                        route(sensor_id, None)
                row_nodes = list(map(node_of.__getitem__, sensor_ids))
        else:
            # A caller default overrides cached spread routes, so the cache
            # is bypassed (assignment still wins inside the resolver).
            node_of = {
                sensor_id: route(sensor_id, default_section)
                for sensor_id in dict.fromkeys(sensor_ids)
            }
            row_nodes = list(map(node_of.__getitem__, sensor_ids))
        node_ids = list(dict.fromkeys(row_nodes))
        rank_of = {node_id: rank for rank, node_id in enumerate(node_ids)}
        return node_ids, list(map(rank_of.__getitem__, row_nodes))

    # ------------------------------------------------------------------ #
    # Broker integration
    # ------------------------------------------------------------------ #
    def attach_broker(self, broker: Broker, city_slug: str = "bcn") -> None:
        """Subscribe every fog layer-1 node to its section's topic subtree.

        Topics follow ``city/<city>/<district>/<section>/<category>/<type>``
        (per-reading CSV payloads from :meth:`Reading.encode`) or
        ``city/<city>/<section>/frame`` (column frames).  Matching messages
        are parked in a per-fog-node broker inbox; :meth:`flush_broker`
        drains every inbox and acquires the backlog as one round, so the
        acquisition block, traffic accounting and storage bookkeeping run
        once per flush instead of once per message.

        The subscription state lives on the deployment (not this engine), so
        every pipeline bound to the same system shares it.
        """
        system = self.system
        system._broker = broker
        for district in system.city.districts:
            for section in district.sections:
                # Section ids contain '/', which is fine for MQTT topics.
                broker.subscribe(
                    fog1_node_id(section.section_id), f"city/{city_slug}/{section.section_id}/#"
                )

    @staticmethod
    def _parse_broker_message(message: Message) -> Optional[Reading]:
        """Decode one CSV wire payload back into a minimal reading.

        Returns ``None`` for anything that does not parse as a whole reading
        line — a line cut short by its Table-I size (no ``\n`` once the
        padding is stripped), too few fields, a non-numeric timestamp, bytes
        that are not UTF-8 (e.g. a binary frame whose magic got corrupted in
        flight).  A bad payload is dropped, never raised.
        """
        line = message.payload.rstrip(b" ")
        if not line.endswith(b"\n"):
            return None
        try:
            fields = decode_csv_line(line)
        except UnicodeDecodeError:
            return None
        if len(fields) < 4:
            return None
        sensor_id, sensor_type, value_text, timestamp_text = fields[:4]
        try:
            value: object = float(value_text)
        except ValueError:
            value = value_text
        try:
            timestamp = float(timestamp_text)
        except ValueError:
            return None
        category = message.topic.split("/")[-2] if message.topic.count("/") >= 2 else "unknown"
        return Reading(
            sensor_id=sensor_id,
            sensor_type=sensor_type,
            category=category,
            value=value,
            timestamp=timestamp,
            size_bytes=len(message.payload),
        )

    def _decode_message_columns(self, message: Message) -> Optional[ReadingColumns]:
        """Decode any broker payload (column frame or CSV line) into columns.

        Column frames carry the whole batch, including the per-reading
        Table-I wire sizes, so downstream traffic accounting is identical to
        the per-reading CSV path.  Returns ``None`` (and counts the drop)
        for any malformed payload: a frame decodes whole or not at all, so
        a corrupt message can neither abort a flush nor partially ingest.
        """
        payload = message.payload
        if ReadingColumns.is_frame(payload):
            try:
                return ReadingColumns.decode_frame(payload)
            except (ValueError, TypeError, KeyError, OverflowError):
                # Malformed frames are dropped exactly like malformed CSV
                # payloads (QoS 0): one corrupt message must not abort a
                # flush and lose the rest of the drained inbox.
                self.system.dropped_payloads += 1
                return None
        reading = self._parse_broker_message(message)
        if reading is None:
            self.system.dropped_payloads += 1
            return None
        columns = ReadingColumns()
        columns.append_reading(reading)
        return columns

    def flush_broker(self, now: Optional[float] = None) -> Dict[str, int]:
        """Drain every fog node's broker inbox and acquire the flush as one round.

        The one broker entry into fog layer-1 acquisition, after
        :meth:`attach_broker`.  Every fog layer-1 inbox is drained in
        deployment order and each payload decoded (a malformed one is
        dropped and counted in ``dropped_payloads``, never aborting the
        flush); the decoded rows are concatenated node-major into one column
        set with a rank column — a row belongs to the node whose inbox it
        arrived in — and handed to
        :meth:`_acquire_routed`, the post-routing code of
        :meth:`ingest_columns`.  Each node acquires its rows at *now*, or,
        when *now* is ``None``, at its own batch's latest finite timestamp
        (:meth:`_acquisition_time`).  Dedup is per node, so a sensor id in
        two nodes' inboxes is admitted at both.  Returns the number of
        readings acquired per fog layer-1 node; the traffic accountant
        records one ``broker/<node>`` transfer per (node, flush) with the
        summed byte volume, mirroring what :meth:`ingest_rows` does for
        direct batch ingestion.
        """
        system = self.system
        if system._broker is None:
            raise ConfigurationError("no broker attached")
        # Drain only this architecture's own fog layer-1 subscriptions: other
        # clients may share the broker and own their inboxes.
        drain = system._broker.drain_inbox
        decode = self._decode_message_columns
        nodes: list = []
        nows: List[float] = []
        ranks: List[int] = []
        columns = ReadingColumns()
        for node_id, fog1 in system._fog1.items():
            rows_before = len(columns)
            for message in drain(node_id):
                decoded = decode(message)
                if decoded is not None:
                    columns.extend_columns(decoded)
            rows = len(columns) - rows_before
            if rows:
                ranks += [len(nodes)] * rows
                nodes.append(fog1)
                if now is None:
                    nows.append(self._acquisition_time(columns.timestamps[rows_before:]))
                else:
                    nows.append(now)
        sources = [f"broker/{fog1.node_id}" for fog1 in nodes]
        return self._acquire_routed(nodes, sources, columns, ranks, nows)

    def _columns_per_section(
        self, readings: Iterable[Reading], default_section: Optional[str]
    ) -> List[Tuple[str, ReadingColumns]]:
        """``(section id, its rows)`` per owning section, routed like direct ingest."""
        columns = _as_columns(readings)
        node_ids, ranks = self._route_columns(columns, default_section)
        sections = [self.system.fog1_node(node_id).section_id for node_id in node_ids]
        return list(zip(sections, _group_by_rank(columns, ranks, len(sections))))

    def publish_frames(
        self,
        broker: Optional[Broker] = None,
        readings: Iterable[Reading] = (),
        city_slug: str = "bcn",
        default_section: Optional[str] = None,
        timestamp: float = 0.0,
    ) -> Dict[str, int]:
        """Publish readings as one column frame per section (wire fast path).

        Readings are routed to sections exactly like :meth:`ingest_rows`
        routes them to fog nodes, then each section's rows are encoded into
        a single :meth:`ReadingColumns.encode_frame` payload and published
        on ``city/<slug>/<section>/frame``.  Fog layer-1 subscribers decode
        the frame back into columns (see :meth:`_decode_message_columns`),
        so one broker delivery replaces one delivery per reading while the
        per-reading Table-I wire sizes — carried inside the frame — keep the
        traffic accounting identical.

        Returns the number of readings framed per section.
        """
        system = self.system
        if broker is None:
            broker = system._broker
        if broker is None:
            raise ConfigurationError("no broker attached and none supplied")
        published: Dict[str, int] = {}
        topic_cache = system._frame_topic_cache
        for section_id, columns in self._columns_per_section(readings, default_section):
            topic = topic_cache.get((city_slug, section_id))
            if topic is None:
                topic = topic_cache[(city_slug, section_id)] = (
                    f"city/{city_slug}/{section_id}/frame"
                )
            broker.publish(
                topic,
                columns.encode_frame(),
                timestamp=timestamp,
            )
            published[section_id] = len(columns)
        return published

    def publish_csv(
        self,
        broker: Optional[Broker] = None,
        readings: Iterable[Reading] = (),
        city_slug: str = "bcn",
        default_section: Optional[str] = None,
    ) -> Dict[str, int]:
        """Publish readings one CSV payload at a time (the per-reading wire).

        The historical broker transport: each reading is encoded with
        :meth:`Reading.encode` and published on its own
        ``city/<slug>/<section>/<category>/<type>`` topic at the reading's
        timestamp.  Returns the number of readings published per section.

        Note the CSV wire truncates payloads to the reading's Table-I
        ``size_bytes``; readings whose line does not fit are dropped on
        re-parse at the fog node (frames are lossless — prefer a frame
        transport for new code).
        """
        system = self.system
        if broker is None:
            broker = system._broker
        if broker is None:
            raise ConfigurationError("no broker attached and none supplied")
        published: Dict[str, int] = {}
        publish = broker.publish
        for section_id, columns in self._columns_per_section(readings, default_section):
            prefix = f"city/{city_slug}/{section_id}/"
            for category, sensor_type, payload, row_timestamp in zip(
                columns.categories, columns.sensor_types, columns.encode_rows(), columns.timestamps
            ):
                publish(f"{prefix}{category}/{sensor_type}", payload, timestamp=row_timestamp)
            published[section_id] = len(columns)
        return published

    # ------------------------------------------------------------------ #
    # Config-driven porcelain
    # ------------------------------------------------------------------ #
    def session(self, broker: Optional[Broker] = None) -> "IngestSession":
        """An :class:`IngestSession` over this pipeline's deployment."""
        return IngestSession(self, broker=broker)

    def run(self, workload: Optional["ShardedWorkload"] = None) -> "F2CClient":
        """Run a declarative seeded workload through the configured transport.

        The one entry point that covers all transports, including
        ``sharded(N)``: the workload (default: the golden-fixture workload)
        is regenerated deterministically, ingested round by round through
        the configured wire, and synchronised per its sync plan.  Returns an
        :class:`~repro.api.client.F2CClient` over the finished deployment —
        query it, read its reports, or keep ingesting (non-sharded
        transports).
        """
        from repro.api.client import F2CClient
        from repro.runtime.shards import ShardedWorkload, WorkerSpec, build_shard_rounds
        from repro.sensors.catalog import BARCELONA_CATALOG
        from repro.sensors.generator import ReadingGenerator

        config = self.config
        if workload is None:
            workload = ShardedWorkload.golden()
        catalog = self._catalog if self._catalog is not None else BARCELONA_CATALOG
        if config.transport == "sharded":
            from repro.runtime.supervisor import run_sharded

            result = run_sharded(
                workers=config.workers,
                workload=workload,
                catalog=catalog,
                inline=config.inline_workers,
                durable_dir=config.durable_dir,
                durable_fog2=config.durable_fog2,
            )
            return result.client()

        # Single process: regenerate the full workload exactly like a
        # one-shard run (workers=1 keeps every section), then drive it
        # through this transport's session round by round.
        system = self._build_system(catalog)
        pipeline = Pipeline(config, system=system, catalog=catalog)
        generator = ReadingGenerator(
            catalog, devices_per_type=workload.devices_per_type, seed=workload.seed
        )
        spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=catalog)
        rounds = build_shard_rounds(spec, system, generator)
        session = pipeline.session()
        ingested = 0
        for rounds_before, sync_time in workload.sync_plan:
            while ingested < min(rounds_before, len(rounds)):
                timestamp, readings = rounds[ingested]
                if readings:
                    session.ingest(readings, now=timestamp)
                ingested += 1
            system.synchronise(now=sync_time)
        return F2CClient(system=system, pipeline=pipeline, session=session)

    def serve(
        self,
        workload: Optional["ShardedWorkload"] = None,
        *,
        clock=None,
        broker: Optional[Broker] = None,
        round_hook=None,
        worker_faults=None,
    ) -> "ServeHandle":
        """Run *workload* as a long-running service and return its handle.

        The service shape of :meth:`run`: the same rounds and sync points,
        applied in the same order — so the final cloud digest is
        byte-identical — but advanced by a background thread on a clock
        (``config.serve_tick_interval_s`` between rounds) while the
        returned :class:`~repro.api.serving.ServeHandle` answers queries
        concurrently from the same deployment.  Pass a
        :class:`~repro.common.clock.VirtualClock` as *clock* for a
        deterministic instant-pacing run; omit it to pace on the wall
        clock.

        For broker transports the serve loop builds its broker with the
        config's ``serve_inbox_limit`` (bounded per-client inboxes;
        overflow sheds and is counted).  For the ``sharded`` transport the
        background thread runs the supervisor fan-in itself — queries
        resolve against the broad tiers while workers stream, and
        ``shutdown`` drains gracefully at the next sync barrier.

        *round_hook* (round-ticking transports only) is called as
        ``round_hook(handle, round_index, readings)`` under the serve lock
        before each round lands — the scenario engine's fault-injection
        point.  *worker_faults* (sharded only) schedules deterministic
        per-shard worker kills (see
        :class:`~repro.runtime.shards.WorkerFault`).

        See :mod:`repro.api.serving` for the concurrency/consistency model.
        """
        from repro.api.client import F2CClient
        from repro.api.serving import ServeHandle
        from repro.runtime.shards import ShardedWorkload, WorkerSpec, build_shard_rounds
        from repro.sensors.catalog import BARCELONA_CATALOG
        from repro.sensors.generator import ReadingGenerator

        config = self.config
        if workload is None:
            workload = ShardedWorkload.golden()
        catalog = self._catalog if self._catalog is not None else BARCELONA_CATALOG
        if config.transport == "sharded":
            from repro.runtime.supervisor import ShardSupervisor

            if round_hook is not None:
                raise ConfigurationError(
                    "round_hook is not supported on the sharded transport "
                    "(rounds run inside the workers); schedule worker_faults instead"
                )
            supervisor = ShardSupervisor(
                workers=config.workers,
                workload=workload,
                catalog=catalog,
                inline=config.inline_workers,
                durable_dir=config.durable_dir,
                durable_fog2=config.durable_fog2,
                faults=worker_faults,
            )
            client = F2CClient(
                system=supervisor.architecture,
                pipeline=Pipeline(config, system=supervisor.architecture, catalog=catalog),
            )
            return ServeHandle(
                client,
                workload=workload,
                supervisor=supervisor,
                clock=clock,
                tick_interval_s=config.serve_tick_interval_s,
                drain_timeout_s=config.serve_drain_timeout_s,
            )

        # Single process: regenerate the workload exactly like run() does,
        # then let the handle's thread pace it round by round.
        if worker_faults:
            raise ConfigurationError(
                "worker_faults requires the sharded transport; use round_hook "
                "to inject faults into round-ticking transports"
            )
        system = self._build_system(catalog)
        pipeline = Pipeline(config, system=system, catalog=catalog)
        generator = ReadingGenerator(
            catalog, devices_per_type=workload.devices_per_type, seed=workload.seed
        )
        spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=catalog)
        rounds = build_shard_rounds(spec, system, generator)
        if broker is None and config.uses_broker():
            broker = Broker(inbox_limit=config.serve_inbox_limit)
        session = pipeline.session(broker=broker)
        client = F2CClient(system=system, pipeline=pipeline, session=session, broker=broker)
        return ServeHandle(
            client,
            workload=workload,
            rounds=rounds,
            clock=clock,
            tick_interval_s=config.serve_tick_interval_s,
            drain_timeout_s=config.serve_drain_timeout_s,
            round_hook=round_hook,
        )


class IngestSession:
    """One ``ingest()`` verb, whatever the transport.

    Sessions are cheap views over a :class:`Pipeline`: they attach the
    broker (for broker transports) on construction and translate
    ``ingest(readings)`` into the transport's publish/flush/acquire steps.
    """

    def __init__(self, pipeline: Pipeline, broker: Optional[Broker] = None) -> None:
        config = pipeline.config
        if config.transport == "sharded":
            raise ConfigurationError(
                "the sharded transport runs whole workloads; use Pipeline.run(workload)"
            )
        self.pipeline = pipeline
        self.config = config
        #: Narrow observation hook (the scenario engine's ingest tap):
        #: called as ``on_ingest(offered, counts)`` after every
        #: :meth:`ingest`, where *offered* is the number of readings handed
        #: to the transport and *counts* the per-node acquisition dict the
        #: call returns.  ``None`` (the default) costs one falsy check.
        self.on_ingest = None
        self.broker: Optional[Broker] = None
        if config.uses_broker():
            self.broker = broker if broker is not None else Broker()
            pipeline.attach_broker(self.broker, city_slug=config.city_slug)

    @property
    def system(self) -> "F2CDataManagement":
        return self.pipeline.system

    def ingest(
        self,
        readings: Iterable[Reading],
        now: Optional[float] = None,
        default_section: Optional[str] = None,
    ) -> Dict[str, int]:
        """Drive *readings* through the configured transport.

        Returns the number of readings acquired per fog layer-1 node.  A
        broker transport publishes the readings and then flushes the
        broker, so every row this call published has been acquired (or
        dropped and counted) when it returns.
        """
        transport = self.config.transport
        pipeline = self.pipeline
        if self.on_ingest is not None and not hasattr(readings, "__len__"):
            readings = list(readings)
        if transport == "direct":
            counts = pipeline.ingest_rows(readings, now=now, default_section=default_section)
        elif transport == "broker-csv":
            pipeline.publish_csv(
                self.broker,
                readings,
                city_slug=self.config.city_slug,
                default_section=default_section,
            )
            counts = pipeline.flush_broker(now=now)
        else:
            # The frame transport: one column frame per section, then one flush.
            timestamp = now if now is not None else pipeline.system.simulator.clock.now()
            pipeline.publish_frames(
                self.broker,
                readings,
                city_slug=self.config.city_slug,
                default_section=default_section,
                timestamp=timestamp,
            )
            counts = pipeline.flush_broker(now=now)
        if self.on_ingest is not None:
            self.on_ingest(len(readings), counts)
        return counts

    def synchronise(self, now: Optional[float] = None) -> Dict[str, Dict[str, int]]:
        """Move pending data fog L1 → fog L2 → cloud immediately."""
        return self.pipeline.system.synchronise(now=now)
