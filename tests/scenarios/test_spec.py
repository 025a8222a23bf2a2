"""Scenario/FaultEvent specs validate at construction, not at run time."""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenarios import EVENT_KINDS, LOAD_SHAPES, FaultEvent, Scenario


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="meteor_strike")

    def test_every_declared_kind_constructs(self):
        for kind in EVENT_KINDS:
            node = (
                "fog1/district-01/section-01"
                if kind in ("fog1_outage", "fog1_recovery", "broker_partition", "broker_heal")
                else None
            )
            event = FaultEvent(kind=kind, node_id=node)
            assert event.kind == kind

    def test_node_targeted_kinds_require_node_id(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="fog1_outage")

    def test_failover_only_on_outage(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="corrupt_round", failover=True)

    def test_negative_round_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="corrupt_round", round_index=-1)


class TestScenarioValidation:
    def test_unknown_load_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", load="tsunami")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", transport="carrier-pigeon")

    def test_unnamed_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="")

    def test_worker_kill_requires_sharded(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", events=(FaultEvent(kind="worker_kill"),))

    def test_worker_kill_shard_must_exist(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                transport="sharded",
                workers=2,
                events=(FaultEvent(kind="worker_kill", shard_index=5),),
            )

    def test_round_events_rejected_on_sharded(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                transport="sharded",
                events=(
                    FaultEvent(kind="fog1_outage", node_id="fog1/district-01/section-01"),
                ),
            )

    def test_partition_requires_broker_csv(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                transport="frames-binary-v2",
                events=(
                    FaultEvent(
                        kind="broker_partition", node_id="fog1/district-01/section-01"
                    ),
                ),
            )

    def test_corrupt_round_requires_crc_frames(self):
        # CSV payloads can silently mis-decode a flipped byte; only the
        # CRC-protected frame wires guarantee rejection-and-count.
        with pytest.raises(ConfigurationError):
            Scenario(name="x", transport="broker-csv", events=(FaultEvent(kind="corrupt_round"),))
        Scenario(
            name="ok", transport="frames-binary-v2", events=(FaultEvent(kind="corrupt_round"),)
        )

    def test_retired_binary_transport_rejected(self):
        # The version-1 frame wire was a corrupt_round target; it is gone.
        with pytest.raises(ConfigurationError, match="'frames-binary'"):
            Scenario(name="x", transport="frames-binary", events=(FaultEvent(kind="corrupt_round"),))

    def test_crash_recover_requires_durable(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", events=(FaultEvent(kind="crash_recover"),))

    def test_event_round_must_fit_the_workload(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                transport="frames-binary-v2",
                events=(FaultEvent(kind="corrupt_round", round_index=99),),
            )

    def test_inbox_limit_requires_broker_transport(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", transport="direct", inbox_limit=2)


class TestDerivedPieces:
    def test_every_load_shape_builds_a_workload(self):
        for load in LOAD_SHAPES:
            workload = Scenario(name="x", load=load).workload()
            assert workload.round_count() >= 1

    def test_steady_is_the_golden_shape(self):
        from repro.runtime.shards import ShardedWorkload

        assert Scenario(name="x").workload() == ShardedWorkload.golden()

    def test_mobile_sensor_uses_spread_assignment(self):
        assert Scenario(name="x", load="mobile-sensor").workload().assignment == "spread"

    def test_config_maps_transport_and_workers(self):
        config = Scenario(name="x", transport="sharded", workers=3).config()
        assert config.transport == "sharded"
        assert config.workers == 3
        assert config.inline_workers is True
        assert Scenario(name="x", transport="sharded").config(processes=True).inline_workers is False

    def test_durable_config_requires_a_directory(self):
        scenario = Scenario(
            name="x", durable=True, events=(FaultEvent(kind="crash_recover"),)
        )
        with pytest.raises(ConfigurationError):
            scenario.config()
        assert scenario.config("/tmp/somewhere").durable_dir == "/tmp/somewhere"

    def test_worker_faults_map_kill_events(self):
        scenario = Scenario(
            name="x",
            transport="sharded",
            workers=2,
            events=(FaultEvent(kind="worker_kill", shard_index=1, round_index=2),),
        )
        (fault,) = scenario.worker_faults()
        assert fault.shard_index == 1
        assert fault.die_after_round == 2
        assert scenario.round_events() == ()

    def test_round_events_exclude_construction_time_kinds(self):
        scenario = Scenario(
            name="x",
            transport="broker-csv",
            durable=True,
            events=(
                FaultEvent(kind="broker_partition", node_id="fog1/district-01/section-01"),
                FaultEvent(kind="crash_recover"),
            ),
        )
        assert [event.kind for event in scenario.round_events()] == ["broker_partition"]
        assert scenario.wants_recovery()
        assert scenario.is_faulty()
