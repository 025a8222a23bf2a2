"""Multi-process sharded ingest runtime.

The paper's fog-to-cloud hierarchy is embarrassingly parallel per city
section: each fog layer-1 aggregator owns a disjoint slice of sensors, so
acquisition and layer-1 aggregation can run in worker processes while a
single supervisor drives fog layer 2 → cloud exactly as the in-process
path does.

* :mod:`repro.runtime.shards` — the shard model: deterministic
  section → worker partitioning (CRC-32, like the sensor → section
  spreading), per-shard workload regeneration from the shared seed, and
  the worker main loop.
* :mod:`repro.runtime.ipc` — the worker ↔ supervisor protocol: typed
  messages carried as length-prefixed packed binary column frames over
  ``multiprocessing`` pipes, with ``dropped_ipc_frames`` accounting.
* :mod:`repro.runtime.supervisor` — the orchestrator: spawns workers,
  absorbs their acquired fog layer-1 batches in canonical section order,
  merges edge-traffic accounting and storage statistics, detects worker
  faults and re-runs their sections.
"""

from repro.core.architecture import cloud_contents, cloud_digest
from repro.runtime.shards import ShardedWorkload, WorkerFault, WorkerSpec, shard_of_section
from repro.runtime.supervisor import ShardedRunResult, ShardSupervisor, run_sharded

__all__ = [
    "ShardedWorkload",
    "WorkerFault",
    "WorkerSpec",
    "shard_of_section",
    "ShardedRunResult",
    "ShardSupervisor",
    "cloud_contents",
    "cloud_digest",
    "run_sharded",
]
