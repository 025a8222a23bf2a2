"""Command-line interface for the reproduction.

Usage (after installation)::

    python -m repro table1              # print Table I
    python -m repro fig6                # print the Barcelona deployment summary
    python -m repro fig7 [--category energy]
    python -m repro compare [--no-compression]
    python -m repro simulate [--hours 6] [--scale 0.00005]
    python -m repro ingest [--transport frames-binary-v2] [--workers 4] [--json]
    python -m repro serve [--virtual-clock] [--clients 4] [--inbox-limit 64] [--json]
    python -m repro query --since 0 --until 900 [--category energy] [--json]
    python -m repro scenarios [--select corrupt] [--processes] [--json]

The reproduction subcommands print the same text the benchmark harness
writes under ``benchmarks/results/``; ``simulate`` runs the event-level
pipeline on a sampled sensor population and reports the measured per-layer
traffic next to the analytic estimate.  ``ingest`` and ``query`` drive the
:mod:`repro.api` client: ``ingest`` runs a seeded workload through any
transport (including the multi-process sharded runtime) and reports the
deployment summary + health counters; ``serve`` runs it as a long-running
service (paced rounds + concurrent querier threads, deterministic under
``--virtual-clock``); ``query`` runs the same workload and then answers a
nearest-tier hierarchical query with per-tier attribution.  ``scenarios``
runs the seeded chaos matrix (:mod:`repro.scenarios`) and audits every
run against the invariant registry, exiting non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Optional, Sequence

from repro.api import PipelineConfig, connect, run_workload
from repro.api.config import TRANSPORTS
from repro.core.architecture import F2CDataManagement
from repro.core.baseline import CentralizedCloudDataManagement
from repro.core.comparison import analytic_comparison, measured_comparison
from repro.core.estimation import TrafficEstimator
from repro.sensors.catalog import BARCELONA_CATALOG, SensorCategory
from repro.sensors.generator import ReadingGenerator
from repro.sensors.readings import ReadingBatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICDCS 2017 F2C smart-city data-management evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table1", help="print Table I (redundant data aggregation model)")
    subparsers.add_parser("fig6", help="print the Fig. 6 deployment summary for Barcelona")

    fig7 = subparsers.add_parser("fig7", help="print the Fig. 7 reduction series")
    fig7.add_argument(
        "--category",
        choices=[c.value for c in SensorCategory],
        default=None,
        help="restrict to one category (default: all five panels)",
    )

    compare = subparsers.add_parser("compare", help="print the F2C vs centralized comparison")
    compare.add_argument(
        "--no-compression",
        action="store_true",
        help="report redundancy elimination only (skip the zip factor)",
    )

    simulate = subparsers.add_parser(
        "simulate", help="run the event-level pipeline on a sampled sensor population"
    )
    simulate.add_argument("--hours", type=int, default=6, help="simulated hours (default 6)")
    simulate.add_argument(
        "--scale", type=float, default=0.00005, help="sensor-population scale factor (default 5e-5)"
    )
    simulate.add_argument("--seed", type=int, default=11, help="random seed (default 11)")

    def add_workload_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--transport",
            choices=TRANSPORTS,
            default="direct",
            help="ingest transport (default: direct)",
        )
        subparser.add_argument(
            "--workers", type=int, default=1, help="worker processes (sharded transport only)"
        )
        subparser.add_argument(
            "--inline-workers",
            action="store_true",
            help="sharded: run workers in-process over in-memory channels",
        )
        subparser.add_argument(
            "--devices-per-type", type=int, default=5, help="devices per sensor type (default 5)"
        )
        subparser.add_argument(
            "--rounds", type=int, default=4, help="15-minute measurement rounds (default 4)"
        )
        subparser.add_argument("--seed", type=int, default=2024, help="workload seed (default 2024)")
        subparser.add_argument(
            "--durable-dir",
            default=None,
            metavar="DIR",
            help="write fsync'd segment logs under DIR (crash-recoverable via repro.api.recover)",
        )
        subparser.add_argument("--json", action="store_true", help="machine-readable output")

    ingest = subparsers.add_parser(
        "ingest", help="run a seeded workload through the repro.api ingest pipeline"
    )
    add_workload_arguments(ingest)

    serve = subparsers.add_parser(
        "serve", help="run a seeded workload as a service with concurrent queriers"
    )
    add_workload_arguments(serve)
    serve.add_argument(
        "--virtual-clock",
        action="store_true",
        help="pace rounds on a seeded virtual clock (instant, deterministic digest)",
    )
    serve.add_argument(
        "--tick-interval",
        type=float,
        default=0.0,
        metavar="S",
        help="seconds between ingest rounds (default 0: as fast as possible)",
    )
    serve.add_argument(
        "--inbox-limit",
        type=int,
        default=None,
        metavar="N",
        help="bound broker inboxes at N messages (overflow sheds and is counted)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="concurrent querier threads run against the live service (default 4)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="seconds to wait for the workload to finish (default 120)",
    )

    scenarios = subparsers.add_parser(
        "scenarios",
        help="run the chaos scenario matrix and audit every invariant",
    )
    scenarios.add_argument(
        "--select",
        default=None,
        metavar="SUBSTR",
        help="run only scenarios whose name contains SUBSTR",
    )
    scenarios.add_argument(
        "--processes",
        action="store_true",
        help="run sharded scenarios over real forked workers instead of in-process",
    )
    scenarios.add_argument(
        "--update-digests",
        action="store_true",
        help="rewrite the committed per-scenario digest table from this run",
    )
    scenarios.add_argument("--json", action="store_true", help="machine-readable output")

    query = subparsers.add_parser(
        "query", help="run a seeded workload, then answer a nearest-tier query"
    )
    add_workload_arguments(query)
    query.add_argument("--since", type=float, default=float("-inf"), help="window start (inclusive)")
    query.add_argument("--until", type=float, default=float("inf"), help="window end (exclusive)")
    query.add_argument("--sensor", default=None, help="restrict to one sensor id")
    query.add_argument("--section", default=None, help="restrict to one city section")
    query.add_argument(
        "--category",
        choices=[c.value for c in SensorCategory],
        default=None,
        help="restrict to one Sentilo category",
    )
    query.add_argument(
        "--limit", type=int, default=5, help="sample readings shown in text output (default 5)"
    )
    query.add_argument(
        "--summarize",
        action="store_true",
        help="answer with constant-size per-category sketches instead of rows",
    )
    return parser


def _cmd_table1() -> str:
    return TrafficEstimator(BARCELONA_CATALOG).format_table1()


def _cmd_fig6() -> str:
    summary = F2CDataManagement().summary()
    lines = ["F2C deployment for Barcelona (Fig. 6):"]
    lines.extend(f"  {key}: {value}" for key, value in summary.items())
    return "\n".join(lines)


def _cmd_fig7(category: Optional[str]) -> str:
    estimator = TrafficEstimator(BARCELONA_CATALOG)
    categories = (
        [SensorCategory(category)] if category is not None else list(BARCELONA_CATALOG.categories)
    )
    return "\n".join(estimator.format_fig7(c) for c in categories)


def _cmd_compare(apply_compression: bool) -> str:
    return analytic_comparison(BARCELONA_CATALOG, apply_compression=apply_compression).format()


def _cmd_simulate(hours: int, scale: float, seed: int) -> str:
    if hours <= 0:
        raise SystemExit("--hours must be positive")
    if scale <= 0:
        raise SystemExit("--scale must be positive")
    catalog = BARCELONA_CATALOG.scaled(scale)
    generator = ReadingGenerator(catalog, devices_per_type=3, seed=seed)
    client = connect(
        catalog=catalog,
        config=PipelineConfig(fog1_sync_interval_s=3_600.0, fog2_sync_interval_s=3_600.0),
    )
    centralized = CentralizedCloudDataManagement(catalog=catalog)
    sections = [s.section_id for s in client.system.city.sections]

    total_readings = 0
    for hour in range(hours):
        start = hour * 3_600.0
        batch = ReadingBatch()
        for transaction in generator.transactions(count=4, start=start, interval=900.0):
            batch.extend(transaction)
        total_readings += len(batch)
        client.ingest(batch, now=start, default_section=sections[hour % len(sections)])
        centralized.ingest_readings(batch, now=start)
        client.synchronise(now=start + 3_599.0)

    comparison = measured_comparison(
        workload=f"{hours} simulated hours, {total_readings:,} readings (scale {scale})",
        f2c_traffic_report=client.traffic_report(),
        centralized_traffic_report=centralized.traffic_report(),
    )
    return comparison.format()


def _workload_and_config_from_args(args, **config_overrides):
    """Build the seeded workload + config the ingest/query/serve subcommands share."""
    from repro.runtime.shards import ShardedWorkload

    if args.devices_per_type <= 0:
        raise SystemExit("--devices-per-type must be positive")
    if args.rounds <= 0:
        raise SystemExit("--rounds must be positive")
    if args.workers <= 0:
        raise SystemExit("--workers must be positive")
    transport = args.transport
    if args.workers > 1 and transport != "sharded":
        raise SystemExit("--workers requires --transport sharded")
    if args.inline_workers and transport != "sharded":
        raise SystemExit("--inline-workers requires --transport sharded")
    workload = ShardedWorkload(
        devices_per_type=args.devices_per_type,
        seed=args.seed,
        rounds=args.rounds,
        sync_plan=((args.rounds, args.rounds * 900.0),),
    )
    config = PipelineConfig(
        transport=transport,
        workers=args.workers,
        inline_workers=args.inline_workers,
        durable_dir=args.durable_dir,
        **config_overrides,
    )
    return workload, config


def _run_workload_from_args(args) -> "object":
    """Build and run the seeded workload the ingest/query subcommands share."""
    workload, config = _workload_and_config_from_args(args)
    return run_workload(workload, config)


def _cmd_ingest(args) -> str:
    client = _run_workload_from_args(args)
    summary = client.summary()
    traffic = client.traffic_report()
    if args.json:
        return json.dumps(
            {"transport": args.transport, "summary": summary, "traffic": traffic},
            indent=2,
            sort_keys=True,
        )
    health = summary.pop("health")
    lines = [f"Ingested the seeded workload via transport {args.transport!r}:"]
    lines.extend(f"  {key}: {value}" for key, value in summary.items())
    lines.append("traffic (bytes received per layer):")
    lines.extend(f"  {layer}: {volume:,}" for layer, volume in traffic.items())
    lines.append("health:")
    lines.extend(
        f"  {key}: {value}" for key, value in health.items() if key != "queries"
    )
    return "\n".join(lines)


def _cmd_summarize(args, client) -> str:
    if args.sensor is not None:
        raise SystemExit("--summarize answers per category, not per sensor")
    summary = client.summarize(
        since=args.since,
        until=args.until,
        section_id=args.section,
        category=args.category,
    )
    if args.json:
        def finite_or_none(value: float):
            return value if math.isfinite(value) else None

        return json.dumps(
            {
                "window": {
                    "since": finite_or_none(args.since),
                    "until": finite_or_none(args.until),
                },
                "filters": {"section_id": args.section, "category": args.category},
                "rows": summary.rows,
                "rows_by_tier": summary.rows_by_tier,
                "summary_bytes": summary.size_bytes(),
                "categories": {
                    category: {"distinct_sensors": summary.distinct_sensors(category)}
                    for category in summary.categories()
                },
            },
            indent=2,
            sort_keys=True,
        )
    lines = [
        f"~{summary.rows} readings in [{args.since}, {args.until}) "
        f"summarized in {summary.size_bytes():,} sketch bytes "
        f"(served from {', '.join(summary.tiers()) or 'no tier (empty)'}):"
    ]
    lines.extend(
        f"  {category}: ~{summary.distinct_sensors(category):.0f} distinct sensors"
        for category in summary.categories()
    )
    return "\n".join(lines)


def _cmd_serve(args) -> str:
    import threading
    import time

    from repro.api import serve
    from repro.common.clock import VirtualClock

    if args.clients < 0:
        raise SystemExit("--clients must be non-negative")
    if args.tick_interval < 0:
        raise SystemExit("--tick-interval must be non-negative")
    if args.drain_timeout <= 0:
        raise SystemExit("--drain-timeout must be positive")
    workload, config = _workload_and_config_from_args(
        args,
        serve_tick_interval_s=args.tick_interval,
        serve_inbox_limit=args.inbox_limit,
        serve_drain_timeout_s=args.drain_timeout,
    )
    clock = VirtualClock(seed=args.seed) if args.virtual_clock else None
    handle = serve(workload, config, clock=clock)
    queries_per_client = [0] * args.clients

    def querier(slot: int) -> None:
        while handle.running:
            handle.submit_query()
            queries_per_client[slot] += 1
            time.sleep(0.001)

    threads = [
        threading.Thread(target=querier, args=(slot,), daemon=True)
        for slot in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    drained = handle.drain()
    for thread in threads:
        thread.join()
    stats = handle.shutdown()
    digest = handle.cloud_digest()
    health = handle.health()
    if args.json:
        return json.dumps(
            {
                "transport": args.transport,
                "virtual_clock": args.virtual_clock,
                "drained": drained,
                "cloud_sha256": digest,
                "serve": stats,
                "client_queries": queries_per_client,
                "broker": health["broker"],
                "dropped_payloads": health["conservation"]["dropped_payloads"],
            },
            indent=2,
            sort_keys=True,
        )
    clock_kind = "virtual clock" if args.virtual_clock else "wall clock"
    lines = [
        f"Served the seeded workload via transport {args.transport!r} ({clock_kind}):",
        f"  drained: {drained}",
        f"  cloud sha256: {digest}",
    ]
    lines.extend(f"  {key}: {value}" for key, value in stats.items())
    lines.append(
        f"  client queries: {sum(queries_per_client)} across {args.clients} threads"
    )
    broker = health["broker"]
    if broker["attached"]:
        lines.append(
            f"  broker: published={broker['published']} delivered={broker['delivered']} "
            f"shed={broker['shed_messages']} inbox_limit={broker['inbox_limit']}"
        )
    lines.append(f"  dropped payloads: {health['conservation']['dropped_payloads']}")
    return "\n".join(lines)


def _cmd_query(args) -> str:
    for flag, bound in (("--since", args.since), ("--until", args.until)):
        if math.isnan(bound):
            raise SystemExit(f"{flag} must not be nan")
    client = _run_workload_from_args(args)
    if args.summarize:
        return _cmd_summarize(args, client)
    result = client.query(
        since=args.since,
        until=args.until,
        sensor_id=args.sensor,
        section_id=args.section,
        category=args.category,
    )
    if args.json:
        # Unbounded window ends become null: json.dumps would otherwise emit
        # the non-standard Infinity literal that strict parsers reject.
        def finite_or_none(value: float):
            return value if math.isfinite(value) else None

        return json.dumps(
            {
                "window": {
                    "since": finite_or_none(args.since),
                    "until": finite_or_none(args.until),
                },
                "filters": {
                    "sensor_id": args.sensor,
                    "section_id": args.section,
                    "category": args.category,
                },
                "rows": len(result),
                "rows_by_tier": result.rows_by_tier,
                "sources": [
                    {
                        "node_id": source.node_id,
                        "tier": source.tier,
                        "section_id": source.section_id,
                        "rows": source.rows,
                    }
                    for source in result.sources
                ],
            },
            indent=2,
            sort_keys=True,
        )
    lines = [
        f"{len(result)} readings in [{args.since}, {args.until}) "
        f"served from {', '.join(result.tiers()) or 'no tier (empty)'}:"
    ]
    lines.extend(
        f"  {tier}: {rows:,} rows" for tier, rows in sorted(result.rows_by_tier.items())
    )
    shown = 0
    for reading in result.columns.iter_readings():
        if shown >= max(0, args.limit):
            break
        lines.append(
            f"  [{reading.timestamp:10.1f}] {reading.sensor_id} "
            f"{reading.category}/{reading.sensor_type} = {reading.value}"
        )
        shown += 1
    remaining = len(result) - shown
    if remaining > 0:
        lines.append(f"  ... {remaining:,} more")
    return "\n".join(lines)


def _cmd_scenarios(args) -> tuple:
    """Run the chaos matrix; exit non-zero when any invariant fails."""
    from repro.scenarios import run_matrix

    report = run_matrix(
        select=args.select,
        processes=args.processes,
        update_digests=args.update_digests,
    )
    if args.json:
        output = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    else:
        output = report.render()
    return output, 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        output = _cmd_table1()
    elif args.command == "fig6":
        output = _cmd_fig6()
    elif args.command == "fig7":
        output = _cmd_fig7(args.category)
    elif args.command == "compare":
        output = _cmd_compare(apply_compression=not args.no_compression)
    elif args.command == "simulate":
        output = _cmd_simulate(args.hours, args.scale, args.seed)
    elif args.command == "ingest":
        output = _cmd_ingest(args)
    elif args.command == "serve":
        output = _cmd_serve(args)
    elif args.command == "query":
        output = _cmd_query(args)
    elif args.command == "scenarios":
        output, code = _cmd_scenarios(args)
        print(output)
        return code
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
