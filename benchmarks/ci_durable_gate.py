#!/usr/bin/env python
"""CI gate: durable ingest reproduces the in-memory cloud digest on the city-hour.

A focused A/B for the CI durability leg — runs exactly the two pipelines
it compares (``direct_batch`` and ``direct_batch_durable``, the latter
with the default cloud-only segment log) on the full city-hour workload
``BENCH_ingest.json`` records, and fails if the durable run's cloud
contents diverge from the in-memory run's.  The wall-clock ratio of the
two legs (best-of-N each) is reported and recorded but not gated: the legs
are ~0.06 s each, and a faster memory path can only push the ratio up —
f2cbench's ``compare.py`` owns wall clock.

Writes the measurement to ``benchmarks/results/BENCH_ingest_durable_ci.json``
so the CI run leaves a record (the committed city-hour numbers live in
``BENCH_ingest.json``'s ``"durable"`` section).

Usage: ``PYTHONPATH=src python benchmarks/ci_durable_gate.py``
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_ingest_throughput import (  # noqa: E402
    _best_of,
    build_workload,
    run_direct_batch,
    run_direct_batch_durable,
)
from repro.sensors.catalog import BARCELONA_CATALOG  # noqa: E402

REPETITIONS = 4
OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_ingest_durable_ci.json"


def main() -> int:
    catalog = BARCELONA_CATALOG
    rounds, sensor_section, total = build_workload(
        catalog, devices_per_type=50, duration_s=3600.0, round_s=900.0, seed=7
    )
    direct = _best_of(REPETITIONS, lambda: run_direct_batch(catalog, rounds, sensor_section))
    durable = _best_of(
        REPETITIONS, lambda: run_direct_batch_durable(catalog, rounds, sensor_section)
    )
    overhead = durable["wall_s"] / direct["wall_s"]
    digest_verified = durable["cloud_digest"] == direct["cloud_digest"]
    record = {
        "schema": "bench_ingest_durable_ci/v1",
        "workload": {"total_readings": total, "rounds": len(rounds)},
        "direct_wall_s": direct["wall_s"],
        "durable_wall_s": durable["wall_s"],
        "overhead_vs_direct": overhead,
        "digest_verified": digest_verified,
        "segments": durable["segments"],
        "log_bytes": durable["log_bytes"],
    }
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(
        f"city-hour ({total:,} readings): direct {direct['wall_s']:.3f} s, "
        f"durable {durable['wall_s']:.3f} s -> {overhead:.3f}x, not gated "
        f"({durable['segments']} segments, {durable['log_bytes']:,} log bytes)"
    )
    if not digest_verified:
        print("FAIL: durable cloud digest diverges from the in-memory direct run")
        return 1
    print("gate passed: durable cloud digest equals the in-memory direct run's")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
