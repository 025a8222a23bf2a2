"""One way in: :class:`repro.api.Pipeline` is the only write surface.

The deployment class holds nodes and routing state and has no write verbs
or frame layout of its own; there is one frame layout and one broker entry
into acquisition, so nothing takes a layout name or a delivery mode; the
sharded runtime takes worker faults as one ``faults`` list.
"""

import pytest

from repro.api import Pipeline, PipelineConfig
from repro.core import architecture
from repro.core.architecture import F2CDataManagement
from repro.messaging.broker import Broker
from repro.runtime import ShardSupervisor, WorkerFault, run_sharded
from repro.sensors.readings import ReadingColumns


@pytest.mark.parametrize(
    "name",
    [
        "ingest_readings",
        "ingest_columns",
        "attach_broker",
        "flush_broker",
        "publish_frames",
        "frame_format",
        "_spread_section",
        "_broker_batched",
    ],
)
def test_the_deployment_has_no_write_verbs_or_frame_layout(name, small_city, small_catalog):
    assert not hasattr(F2CDataManagement(city=small_city, catalog=small_catalog), name)


def test_the_architecture_module_has_no_run_sharded():
    assert not hasattr(architecture, "run_sharded")


@pytest.mark.parametrize("entry_point", [ShardSupervisor, run_sharded])
def test_worker_faults_take_no_singular_fault(entry_point):
    with pytest.raises(TypeError, match="'fault'"):
        entry_point(workers=1, inline=True, fault=WorkerFault(shard_index=0))


def test_the_deployment_takes_no_frame_layout(small_city, small_catalog):
    with pytest.raises(TypeError, match="'frame_format'"):
        F2CDataManagement(city=small_city, catalog=small_catalog, frame_format="json")


def test_publish_frames_takes_no_frame_layout(small_city, small_catalog):
    pipeline = F2CDataManagement(city=small_city, catalog=small_catalog).api_pipeline
    with pytest.raises(TypeError, match="'frame_format'"):
        pipeline.publish_frames(Broker(), [], frame_format="json")


def test_the_config_takes_no_delivery_mode():
    with pytest.raises(TypeError, match="'batched'"):
        PipelineConfig(transport="broker-csv", batched=False)


def test_attach_broker_takes_no_delivery_mode(small_city, small_catalog):
    pipeline = F2CDataManagement(city=small_city, catalog=small_catalog).api_pipeline
    with pytest.raises(TypeError, match="'batched'"):
        pipeline.attach_broker(Broker(), batched=False)


def test_encode_frame_takes_no_frame_layout():
    with pytest.raises(TypeError, match="'format'"):
        ReadingColumns().encode_frame(format="json")


@pytest.mark.parametrize(
    "owner,name",
    [
        (PipelineConfig, "batched"),
        (PipelineConfig, "resolved_frame_format"),
        (Pipeline, "_broker_handler"),
    ],
)
def test_the_engine_has_no_per_message_broker_entry_or_layout_choice(owner, name):
    assert not hasattr(owner, name)
