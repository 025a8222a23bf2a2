"""The scenario executor: drive a spec through its schedule, faults and all.

One entry point, :func:`run_scenario`: build the scenario's pipeline,
serve its workload on a :class:`~repro.common.clock.VirtualClock`, inject
each scheduled :class:`~repro.scenarios.spec.FaultEvent` at its round
boundary (through the narrow hooks the serve/sharded runtimes expose —
``round_hook``, ``worker_faults``, the broker's ``partition`` /
``corrupt_next``, the :class:`~repro.core.faults.FailureInjector`), and
return a :class:`ScenarioRun` carrying everything the invariant auditors
need: the final health snapshot (with its unified conservation ledger),
the cloud digest, availability snapshots taken at each event, mid-run
query probes, and — for durable scenarios — the post-crash recovery
digests.

The executor *observes and injects*; it never asserts.  Auditing is the
:mod:`~repro.scenarios.invariants` registry's job, so every claim about a
run is made exactly once, in one place.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.pipeline import Pipeline
from repro.common.clock import VirtualClock
from repro.scenarios.spec import FaultEvent, Scenario


@dataclass
class ScenarioRun:
    """Everything observed while executing one scenario (auditor input)."""

    scenario: Scenario
    digest: str
    health: Dict[str, Any]
    serve_stats: Dict[str, Any]
    cloud_rows: int
    #: Readings the executor expects to have been lost to corrupted frames
    #: (whole-round corruption: the round's full offered count).
    expected_corrupt_loss: int = 0
    #: Per-event observations: kind, round, and the availability report
    #: taken immediately after the event was applied.
    events_applied: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-round query probes taken under the serve lock (attribution
    #: consistency while faults are live).
    midrun_queries: List[Dict[str, Any]] = field(default_factory=list)
    #: The final full-window query: row count, per-tier rows, sources.
    final_query: Dict[str, Any] = field(default_factory=dict)
    #: Fog L1 nodes whose local store was isolated by an outage (must not
    #: appear as final query sources).
    isolated_nodes: List[str] = field(default_factory=list)
    #: Failover records (as dicts) produced by outage events.
    failovers: List[Dict[str, Any]] = field(default_factory=list)
    #: Durable scenarios: digest at the drained boundary, digest after
    #: ``recover()``, and the recovered deployment's durable report.
    boundary_digest: Optional[str] = None
    recovered_digest: Optional[str] = None
    recovered_durable: Optional[Dict[str, Any]] = None
    #: Readings ingested *after* the boundary without a sync (at-risk data
    #: a correct recovery must NOT resurrect).
    at_risk_readings: int = 0


def _snapshot_query(result) -> Dict[str, Any]:
    return {
        "rows": len(result),
        "rows_by_tier": dict(result.rows_by_tier),
        "sources": [
            {"node_id": s.node_id, "tier": s.tier, "rows": s.rows} for s in result.sources
        ],
        "cache_hit": result.cache_hit,
    }


class _EventApplier:
    """Interprets round-keyed events against a live serve handle."""

    def __init__(self, scenario: Scenario, run: ScenarioRun) -> None:
        self.scenario = scenario
        self.run = run
        self.events_by_round: Dict[int, List[FaultEvent]] = {}
        for event in scenario.round_events():
            self.events_by_round.setdefault(event.round_index, []).append(event)

    # Called as the serve round hook: under the serve lock, immediately
    # before round *index* is ingested.
    def __call__(self, handle, index: int, readings) -> None:
        client = handle.client
        for event in self.events_by_round.get(index, ()):
            self._apply(event, client, readings)
            self.run.events_applied.append(
                {
                    "kind": event.kind,
                    "round_index": index,
                    "node_id": event.node_id,
                    "availability": client.injector.availability().as_dict(),
                }
            )
        # Probe the read side while the fault (if any) is live: the answer
        # must stay attribution-consistent at every round boundary.
        result = client.query()
        probe = _snapshot_query(result)
        probe["round_index"] = index
        self.run.midrun_queries.append(probe)

    def _apply(self, event: FaultEvent, client, readings) -> None:
        injector = client.injector
        system = client.system
        if event.kind == "fog1_outage":
            injector.fail_node(event.node_id)
            injector.isolate_node_store(event.node_id)
            self.run.isolated_nodes.append(event.node_id)
            if event.failover:
                records = injector.failover_node(event.node_id)
                for record in records:
                    self.run.failovers.append(
                        {
                            "section_id": record.section_id,
                            "failed_node": record.failed_node,
                            "replacement_node": record.replacement_node,
                            "readings_at_risk": record.readings_at_risk,
                            "bytes_at_risk": record.bytes_at_risk,
                        }
                    )
                    # Re-home the dark section's sensors onto the
                    # replacement node's section so the remaining rounds
                    # route through the real transport to the sibling.
                    replacement_section = system.fog1_node(record.replacement_node).section_id
                    for sensor_id in system.sensors_in_section(record.section_id):
                        system.assign_sensor(sensor_id, replacement_section)
        elif event.kind == "fog1_recovery":
            injector.recover_node(event.node_id)
        elif event.kind == "broker_partition":
            client.session.broker.partition(event.node_id)
        elif event.kind == "broker_heal":
            client.session.broker.heal(event.node_id)
        elif event.kind == "corrupt_round":
            # Corrupt every frame of this round: the frame count is the
            # number of sections the round's readings route to, and the
            # expected reading loss is the round's whole offered count —
            # CRC-protected frames guarantee rejection, never silent
            # mis-decode.
            frames = len(client.pipeline._route_columns(readings.columns)[0])
            client.session.broker.corrupt_next(frames, seed=self.scenario.seed)
            self.run.expected_corrupt_loss += len(readings)


def run_scenario(
    scenario: Scenario,
    *,
    processes: bool = False,
    durable_dir: Optional[str] = None,
) -> ScenarioRun:
    """Execute *scenario* end to end and return the run's observations.

    Deterministic by construction: the workload is regenerated from the
    scenario's seed, pacing runs on a :class:`VirtualClock` (instant,
    seeded), and every fault lands at its scheduled round boundary — the
    same spec always produces the same cloud digest.

    ``durable_dir`` overrides the temporary directory durable scenarios
    write their segment logs to (they default to a fresh ``tempfile``
    directory, removed with the context).
    """
    if scenario.durable and durable_dir is None:
        with tempfile.TemporaryDirectory(prefix=f"scenario-{scenario.name}-") as tmp:
            return _run(scenario, processes=processes, durable_dir=tmp)
    return _run(scenario, processes=processes, durable_dir=durable_dir)


def _run(scenario: Scenario, *, processes: bool, durable_dir: Optional[str]) -> ScenarioRun:
    config = scenario.config(durable_dir, processes=processes)
    workload = scenario.workload()
    pipeline = Pipeline(config)
    run = ScenarioRun(
        scenario=scenario,
        digest="",
        health={},
        serve_stats={},
        cloud_rows=0,
    )
    applier = _EventApplier(scenario, run)
    handle = pipeline.serve(
        workload,
        clock=VirtualClock(start=workload.start, seed=scenario.seed),
        round_hook=None if scenario.transport == "sharded" else applier,
        worker_faults=scenario.worker_faults() or None,
    )
    with handle:
        handle.drain()
        # Re-freeze the stats overlay of every isolated store now that the
        # final sync has drained: the overlay taken mid-outage shows stale
        # pending counts, and conservation is audited on the final state.
        for node_id in run.isolated_nodes:
            handle.client.injector.isolate_node_store(node_id)
        run.health = handle.health()
        run.serve_stats = handle.stats()
        run.digest = handle.cloud_digest()
        run.final_query = _snapshot_query(handle.submit_query())
    client = handle.client
    run.cloud_rows = len(client.cloud_contents())
    if scenario.wants_recovery():
        _crash_and_recover(scenario, run, client, config)
    return run


def _crash_and_recover(scenario: Scenario, run: ScenarioRun, client, config) -> None:
    """The crash-and-``recover()`` leg of durable scenarios.

    The drained run's digest is the committed boundary.  Extra readings
    ingested *without* a sync stay in the fog L1 pending queues — the
    durable logs cover the broad tiers only, so they are exactly the
    at-risk data a node loses in a crash.  ``recover()`` over the same
    directory must land on the boundary: same digest, nothing at-risk
    silently resurrected.
    """
    from repro.api.client import recover
    from repro.sensors.catalog import BARCELONA_CATALOG
    from repro.sensors.generator import ReadingGenerator

    run.boundary_digest = run.digest
    generator = ReadingGenerator(
        BARCELONA_CATALOG,
        devices_per_type=scenario.devices_per_type,
        seed=scenario.seed + 1,
    )
    devices = generator.shard_devices(lambda index, device: True)
    extra = list(ReadingGenerator.transaction_for(devices, 7200.0))
    client.ingest(extra, now=7200.0)
    run.at_risk_readings = len(extra)
    recovered = recover(config)
    run.recovered_digest = recovered.cloud_digest()
    run.recovered_durable = recovered.system.durable_report()
