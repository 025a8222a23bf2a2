"""The smoke size end to end: every workload, the full result schema, the
driver's contract line in both trace modes, and ``BENCHMARK.json`` itself."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]

RUN = [sys.executable, str(BENCH_DIR / "run.py")]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
E2E = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}


def test_benchmark_json_keeps_to_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/f2cbench"]
    assert SPEC["command"] == ["python3", "benchmarks/f2cbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(E2E) <= 16 and 1 <= len(PER_LAYER) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = WORKLOADS + list(E2E) + list(PER_LAYER)
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert unit.match(entry["unit"]) and entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert unit.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert E2E["setup_s"]["unit"] == "s" and E2E["setup_s"]["better"] == "lower"
    assert E2E["setup_s"]["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])


def test_smoke_of_all_five_workloads_has_the_full_schema(tmp_path):
    out = tmp_path / "smoke.json"
    begin = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--seed", "11", "--out", str(out)], capture_output=True, text=True)
    elapsed = time.perf_counter() - begin
    assert done.returncode == 0, done.stderr
    assert elapsed < 15.0, f"smoke took {elapsed:.1f}s"
    combined = json.loads(out.read_text(encoding="utf-8"))
    assert combined["schema"] == "f2cbench/1" and list(combined["workloads"]) == WORKLOADS
    for name, result in combined["workloads"].items():
        assert result["workload"] == name and result["correct"] is True
        assert result["attempted_ops"] >= 1 and result["failed_ops"] == 0
        assert set(result["end_to_end"]) == set(E2E)
        for metric, entry in result["end_to_end"].items():
            assert entry["value"] > 0 and entry["unit"] == E2E[metric]["unit"]
            assert entry["bound"] == E2E[metric]["bound"] and entry["better"] == E2E[metric]["better"]
        env = result["env"]
        for key in ("python", "arrays", "cpu_count", "load_average_before", "load_average_after",
                    "git_sha", "frame_format", "seed", "reps", "fsync_policy", "size"):
            assert key in env
        assert env["seed"] == 11 and env["size"] == "smoke"
        for metric in result["detail"].values():
            assert {"value", "unit", "better", "bound"} <= set(metric)
    detail = {name: set(result["detail"]) for name, result in combined["workloads"].items()}
    assert detail["ingest_frames_durable"] == {"recover_s", "wire_bytes_per_reading", "log_bytes_per_reading"}
    assert detail["ingest_sharded"] == {"wire_bytes_per_reading"}
    assert detail["query_tiers"] == {"query_scatter_p50_ms", "query_scatter_p90_ms", "summarize_p50_ms"}
    assert combined["workloads"]["query_tiers"]["facts"]["cache_hits"] == 0
    assert combined["workloads"]["serve_mixed"]["facts"]["memo_hit_ratio"] > 0


@pytest.mark.parametrize("trace, expected", [(0, E2E), (1, PER_LAYER)])
def test_the_last_stdout_line_is_the_drivers_contract(trace, expected):
    done = subprocess.run(
        RUN + ["--workload", "ingest_frames_durable", "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(expected)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == expected[name]["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        metrics = line["metrics"]
        assert abs(metrics["trace.self_sum_ratio"]["value"] - 1.0) < 0.02
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert metrics["segments.commit_calls"]["value"] > 0 and metrics["broker.messages"]["value"] > 0
        assert metrics["supervisor.absorb_s"]["value"] == 0  # the layer this workload bypasses


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "f2cbench"
    shutil.copytree(BENCH_DIR, target, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "benchmarks/f2cbench/run.py", "--workload", "ingest_direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
