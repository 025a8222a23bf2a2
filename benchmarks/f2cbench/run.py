#!/usr/bin/env python3
"""f2cbench — run the benchmark.

One workload (what the benchmark driver calls; prints the contract line)::

    python3 benchmarks/f2cbench/run.py --workload query_tiers --seed 7 --seconds 16 --trace 0

Every workload, each in a fresh subprocess, into one result file::

    python3 benchmarks/f2cbench/run.py --seed 7 --out benchmarks/f2cbench/results/baseline.json
    python3 benchmarks/f2cbench/run.py --seed 7 --trace --out benchmarks/f2cbench/results/trace.json

See README.md beside this file for the workloads, the metrics and the run
protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# The script's own directory must not shadow the standard library
# (``trace``); the package is imported through its parent instead.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from f2cbench import mix, stats, workloads  # noqa: E402 - after the path fix-up
from f2cbench.speed import BURST, REFERENCE_S, Gauge  # noqa: E402
from f2cbench.trace import Tracer, install_layer_spans  # noqa: E402

SCHEMA = "f2cbench/1"
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
E2E = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}

#: Never fewer reps than this: the per-unit median needs a majority.
MIN_REPS = 3


# ---------------------------------------------------------------------- #
# Environment stamp
# ---------------------------------------------------------------------- #
def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, size_label: str) -> Dict[str, Any]:
    try:
        import numpy

        arrays = f"numpy {numpy.__version__}"
    except ImportError:
        arrays = "stdlib-fallback"
    return {
        "python": platform.python_version(),
        "arrays": arrays,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "frame_format": workloads.IPC_FRAME_FORMAT,
        "fsync_policy": workloads.FSYNC_POLICY,
        "seed": seed,
        "size": size_label,
        "load_average_before": list(os.getloadavg()),
    }


def warn_if_loaded(env: Dict[str, Any]) -> None:
    load, cpus = env["load_average_before"][0], env["cpu_count"] or 1
    if load > cpus:
        print(
            f"f2cbench: warning: load average {load:.2f} exceeds {cpus} CPUs; timings will be noisy",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------- #
# Measuring one workload
# ---------------------------------------------------------------------- #
def rep_count(workload, seconds: float) -> int:
    """How many reps a measuring phase of *seconds* gets.

    The workload's own count scaled by ``seconds / run_seconds``, never read
    from the clock: the same ``--seconds`` always runs the same reps, so a
    slower machine measures the same work.
    """
    return max(MIN_REPS, round(workload.reps * seconds / SPEC["run_seconds"]))


def run_reps(workload, tracer, first: int, count: int) -> None:
    for index in range(first, first + count):
        gc.collect()  # free the previous rep's deployment outside any timed region
        tracer.rep = index
        workload.rep(index)


def measure(name: str, seed: int, size, reps: Optional[int], seconds: float, trace: bool) -> Dict[str, Any]:
    env = environment(seed, size.label)
    warn_if_loaded(env)
    tracer = Tracer()
    gauge = Gauge()
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, size, tracer, workdir, gauge)
    try:
        if trace:
            install_layer_spans(tracer)
            tracer.armed = True
        gauge.restart()
        gauge.sample(BURST)
        begin = time.perf_counter()
        with tracer.root("setup"):
            workload.setup()
        once_s = time.perf_counter() - begin
        gauge.sample(BURST)
        once_s *= gauge.speed()
        setup_counts = dict(tracer.counts)
        tracer.counts.clear()
        # The inputs (~300 k reading objects) stay alive for the whole run;
        # frozen, the collector never walks them during a timed region.
        gc.collect()
        gc.freeze()

        if reps is None:
            reps = rep_count(workload, seconds)
        if trace:
            # Untraced reps first (nothing wrapped), then traced ones: their
            # ratio is the tracing overhead of this very run.
            plain, traced = max(reps // 2, 1), max(reps - reps // 2, 1)
            tracer.armed = False
            tracer.uninstall()
            run_reps(workload, tracer, 0, plain)
            install_layer_spans(tracer)
            tracer.armed = True
            run_reps(workload, tracer, plain, traced)
            tracer.armed = False
        else:
            plain, traced = reps, 0
            run_reps(workload, tracer, 0, plain)
        workload.finish(plain)
    finally:
        tracer.uninstall()
        workload.close()

    env["load_average_after"] = list(os.getloadavg())
    env["reps"] = plain + traced
    result: Dict[str, Any] = {
        "schema": SCHEMA,
        "workload": name,
        "why": next(entry["why"] for entry in SPEC["workloads"] if entry["name"] == name),
        "traced": trace,
        "correct": workload.failed == 0,
        "attempted_ops": workload.attempted,
        "failed_ops": workload.failed,
        "env": env,
        "end_to_end": end_to_end(workload, once_s, plain),
        "detail": workload.detail,
        "counts": workload.counts,
        "facts": workload.facts,
        "per_rep": {
            "prep_s": workload.prep_s, "timed_wall_s": workload.timed_s, "speed": workload.speed,
            "setup_once_s": once_s,
        },
        "reference_kernel_s": REFERENCE_S,
    }
    if trace:
        result["per_layer"] = per_layer(workload, tracer, setup_counts, plain, traced)
        result["trace"] = {
            "spans": tracer.span_count(),
            "untraced_reps": plain,
            "traced_reps": traced,
            "rooted_wall_s": tracer.rooted_wall_s,
            "layers": tracer.layers(),
            "setup_layers": tracer.layers(setup=True),
            "edges": tracer.edges(),
        }
    return result


def end_to_end(workload, once_s: float, plain: int) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics, from the untraced reps only.

    Timings are at reference speed (see ``speed.py``), and each unit of
    work counts with its median across reps (see ``stats.typical``).  The
    value of each rep alone is reported beside each as ``per_rep``, the
    throughput as the wall clock had it as ``as_clocked``.
    """
    prep = workload.prep_s[:plain]
    costs = workload.cost_s[:plain]
    latencies = workload.latency_ms[:plain]
    tail_pct = workload.tail_pct
    rates = [workload.work / sum(rep) for rep in costs]
    p50s = [stats.percentile(rep, 50) for rep in latencies]
    tails = [stats.percentile(rep, tail_pct, require_support=False) for rep in latencies]
    if workload.latency_aligned:
        sample = stats.typical(latencies)
        p50 = stats.percentile(sample, 50)
        tail = stats.percentile(sample, tail_pct, require_support=False)
        how = "each unit's median across reps"
    else:
        # Pooled, one stalled rep in three would own the whole tail.
        p50, tail = stats.median(p50s), stats.median(tails)
        how = "median across reps of the rep's own"
    samples = len(latencies[0])
    workloads.gate(
        stats.supported(samples, tail_pct) or workload.size is not workloads.FULL,
        f"{workload.name}: p{tail_pct:g} of {samples} samples has fewer than {stats.MIN_BEYOND} beyond it",
    )
    values = {
        "setup_s": {
            "value": once_s + stats.median(prep),
            "what": "one-off set-up plus the median per-rep preparation",
            "per_rep": [once_s + seconds for seconds in prep],
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "what": "ru_maxrss of the workload process",
        },
        "throughput_per_s": {
            "value": workload.work / sum(stats.typical(costs)),
            "per_rep": rates,
            "as_clocked": workload.work / sum(stats.typical(workload.wall_s[:plain])),
            "what": f"{workload.work_unit} per second of timed region, each unit's median across reps",
        },
        "latency_p50_ms": {
            "value": p50, "per_rep": p50s, "samples": samples,
            "what": f"median {workload.latency_unit}, {how}",
        },
        "latency_tail_ms": {
            "value": tail, "per_rep": tails,
            "samples": samples, "percentile": tail_pct, "supported": stats.supported(samples, tail_pct),
            "what": f"p{tail_pct:g} {workload.latency_unit}, {how}",
        },
        "cloud_bytes_per_reading": {
            "value": workload.cloud_bytes_per_reading,
            "what": "traffic_report()['cloud'] / readings offered (exact count)",
        },
    }
    assert set(values) == set(E2E), "end-to-end metrics out of step with BENCHMARK.json"
    for metric, entry in values.items():
        entry.update({key: E2E[metric][key] for key in ("unit", "better", "bound")})
    return values


def per_layer(workload, tracer, setup_counts, plain: int, traced: int) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of the traced reps, each per rep.

    A layer no call reached on this workload reads 0: the workloads exist
    to bypass layers, and the zero is the measurement.
    """
    layers = tracer.layers()
    setup_layers = tracer.layers(setup=True)
    counts = tracer.counts

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0) / traced

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / traced

    def count(name: str) -> float:
        return counts.get(name, 0.0) / traced

    rows_in = count("acquisition.rows_in")
    timed_s = [sum(costs) for costs in workload.cost_s]  # at reference speed: the core's speed moves between reps
    self_sum = sum(entry["self_s"] for entry in tracer.layers(main_thread_only=True).values())
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "sensors.generate_s": setup_layers.get("sensors.generate", {}).get("self_s", 0.0),
        "sensors.readings": setup_counts.get("sensors.readings", 0.0),
        "pipeline.self_s": self_s("pipeline.ingest"),
        "serialization.encode_s": self_s("serialization.encode"),
        "serialization.encode_calls": calls("serialization.encode"),
        "serialization.encode_bytes": count("serialization.encode_bytes"),
        "serialization.decode_s": self_s("serialization.decode"),
        "serialization.decode_calls": calls("serialization.decode"),
        "broker.publish_s": self_s("broker.publish"),
        "broker.drain_s": self_s("broker.drain"),
        "broker.messages": calls("broker.publish"),
        "acquisition.run_s": self_s("acquisition.run"),
        "acquisition.rows_in": rows_in,
        "acquisition.rows_out": count("acquisition.rows_out"),
        "acquisition.accept_ratio": count("acquisition.rows_out") / rows_in if rows_in else 0.0,
        "tiered.fog1_ingest_s": self_s("tiered.fog1_ingest"),
        "tiered.fog2_ingest_s": self_s("tiered.fog2_ingest"),
        "tiered.cloud_ingest_s": self_s("tiered.cloud_ingest"),
        "tiered.rows_stored": count("tiered.fog1_rows") + count("tiered.fog2_rows") + count("tiered.cloud_rows"),
        "movement.fog1_to_fog2_s": self_s("movement.fog1_to_fog2"),
        "movement.fog2_to_cloud_s": self_s("movement.fog2_to_cloud"),
        "movement.rows_moved": count("tiered.fog2_rows") + count("tiered.cloud_rows"),
        "preservation.run_s": self_s("preservation.run"),
        "retention.enforce_s": self_s("retention.enforce"),
        "retention.evicted_rows": count("retention.evicted_rows"),
        "segments.append_s": self_s("segments.append"),
        "segments.append_bytes": count("segments.append_bytes"),
        "segments.commit_s": self_s("segments.commit"),
        "segments.commit_calls": calls("segments.commit"),
        "segments.replay_s": self_s("segments.replay"),
        "segments.replay_rows": count("segments.replay_rows"),
        "supervisor.absorb_s": self_s("supervisor.absorb"),
        "supervisor.absorb_rows": count("supervisor.absorb_rows"),
        "query.scan_s": self_s("query.scan"),
        "query.scan_calls": calls("query.scan"),
        "query.rows_returned": count("query.rows_returned"),
        "query.self_s": self_s("query.engine"),
        "query.tier_rows.fog1": count("query.tier_rows.fog1"),
        "query.tier_rows.fog2": count("query.tier_rows.fog2"),
        "query.tier_rows.cloud": count("query.tier_rows.cloud"),
        "sketches.fold_s": self_s("sketches.fold"),
        "sketches.rows_folded": count("sketches.rows_folded"),
        "serving.lock_wait_s": self_s("serving.submit"),
        "trace.overhead_ratio": stats.median(timed_s[plain:]) / stats.median(timed_s[:plain]),
        "trace.self_sum_ratio": self_sum / tracer.rooted_wall_s,
    })
    for kind in mix.KINDS:
        samples = tracer.durations(f"op.{kind}")
        if samples:
            values[f"query.{kind}.p50_ms"] = stats.percentile(samples, 50) * 1e3
    own = workload.layer_values(self_s)
    unknown = set(own) - set(PER_LAYER)
    assert not unknown, f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}"
    values.update(own)
    workloads.gate(
        abs(values["trace.self_sum_ratio"] - 1.0) < 0.02,
        f"self times sum to {values['trace.self_sum_ratio']:.4f} of the traced wall",
    )
    return {
        name: {"value": value, "unit": PER_LAYER[name]["unit"]} for name, value in values.items()
    }


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def contract_line(result: Dict[str, Any]) -> str:
    """The one-line JSON object the benchmark driver reads."""
    section = result["per_layer"] if result["traced"] else result["end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted_ops"],
            "failed": result["failed_ops"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in section.items()
            },
        }
    )


def print_metrics(result: Dict[str, Any], out=sys.stdout) -> None:
    print(f"== {result['workload']} (seed {result['env']['seed']}, {result['env']['reps']} reps, "
          f"{result['attempted_ops']} ops attempted, {result['failed_ops']} failed)", file=out)
    for section in ("end_to_end", "detail", "per_layer"):
        for name, entry in result.get(section, {}).items():
            beside = ""
            if "as_clocked" in entry:
                beside = f"  (as clocked {entry['as_clocked']:.6g})"
            print(f"  {section:<10} {name:<34} {entry['value']:>14.6g} {entry['unit']}{beside}", file=out)


def history_line(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": result["env"]["git_sha"],
        "workload": result["workload"],
        "seed": result["env"]["seed"],
        "size": result["env"]["size"],
        "reps": result["env"]["reps"],
        "traced": result["traced"],
        "metrics": {
            name: entry["value"]
            for section in ("end_to_end", "detail")
            for name, entry in result[section].items()
        },
    }


def run_all(args, size) -> int:
    """Every workload in its own fresh subprocess, sequentially."""
    results: Dict[str, Any] = {}
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        part = scratch / f"result-{os.getpid()}-{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)), "--out", str(part),
        ]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0 or not part.exists():
            print(f"{done.stderr}f2cbench: {name} failed (exit {done.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(part.read_text(encoding="utf-8"))
        part.unlink()
        print_metrics(results[name])
    combined = {"schema": SCHEMA, "workloads": results}
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        if not args.smoke:  # the trajectory holds measurements, not schema checks
            with open(RESULTS / "history.jsonl", "a", encoding="utf-8") as history:
                for result in results.values():
                    history.write(json.dumps(history_line(result), sort_keys=True) + "\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="length of the measuring phase; sets the rep count")
    parser.add_argument("--reps", type=int, help="run exactly this many reps instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="2 h of city, 1 rep: schema check, not a measurement")
    parser.add_argument("--out", help="write the full result as JSON to this file")
    args = parser.parse_args(argv)

    size = workloads.SMOKE if args.smoke else workloads.FULL
    if args.smoke and args.reps is None:
        args.reps = 2 if args.trace else 1
    if args.workload is None:
        return run_all(args, size)

    try:
        result = measure(args.workload, args.seed, size, args.reps, args.seconds, bool(args.trace))
    except workloads.GateFailure as failure:
        print(f"f2cbench: correctness gate failed: {failure}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_metrics(result, out=sys.stderr)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
