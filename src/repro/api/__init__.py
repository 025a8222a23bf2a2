"""repro.api — the typed public facade of the F2C data-management system.

This package is *the* way to use the system:

Write side (one pipeline abstraction, four transports)::

    from repro.api import PipelineConfig, connect

    client = connect(transport="frames-binary-v2")
    client.ingest(readings, now=0.0)
    client.synchronise(now=900.0)

or run a whole declarative seeded workload through any transport —
including the multi-process sharded runtime — in one call::

    from repro.api import run_workload

    client = run_workload(transport="sharded", workers=4)

Read side (the paper's nearest-layer data access)::

    result = client.query(since=0.0, until=900.0, category="energy")
    result.rows_by_tier    # e.g. {"fog_layer_1": 412}
    result.sources         # per-(node, tier) attribution

Operations::

    client.health()        # drops, worker restarts, query counters
    client.summary()       # deployment summary + health

Durability (crash recovery from segment logs)::

    from repro.api import recover, run_workload

    run_workload(transport="sharded", workers=2, durable_dir="state/")
    # ...process killed mid-run; later:
    client = recover(durable_dir="state/")
    client.cloud_digest()  # byte-identical to the uncrashed run

Service mode (long-running: paced ingest + concurrent queries)::

    from repro.api import serve

    with serve(transport="frames-binary-v2", serve_inbox_limit=4096) as handle:
        result = handle.submit_query(category="energy")   # live, any time
        handle.drain()                                    # workload finishes
        handle.health()["serve"]                          # loop counters

:class:`~repro.core.architecture.F2CDataManagement` is the deployment, not
a write surface; code holding one writes through its ``api_pipeline``.
The exported surface below is contract-tested
(``tests/api/test_api_contract.py``): changing it requires updating the
snapshot deliberately.
"""

from repro.api.client import F2CClient, connect, recover, run_workload, serve
from repro.api.config import TRANSPORTS, PipelineConfig
from repro.api.pipeline import IngestSession, Pipeline
from repro.api.query import QueryResult, QueryService, QuerySummary, TierSlice
from repro.api.serving import ServeHandle

__all__ = [
    "F2CClient",
    "IngestSession",
    "Pipeline",
    "PipelineConfig",
    "QueryResult",
    "QueryService",
    "QuerySummary",
    "ServeHandle",
    "TRANSPORTS",
    "TierSlice",
    "connect",
    "recover",
    "run_workload",
    "serve",
]
