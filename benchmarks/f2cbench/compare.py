#!/usr/bin/env python3
"""Compare two f2cbench results, one row per (metric, workload).

    python3 benchmarks/f2cbench/compare.py A.json B.json

A is the parent (or the first set), B the change (or the second set).
Either file may come from ``run.py --out`` (one run per workload) or from
``steady.py --out`` (several runs per workload, the value being their
median).  A row reads

* ``regressed``  — B is worse than A by more than the metric's bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two sides' runs overlap, so the row says nothing either way;
* ``ok``         — neither.

Exits non-zero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path.insert(0, str(HERE.parent))

from f2cbench import stats  # noqa: E402 - after the path fix-up


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """``workload -> result`` from a combined, steady or single-workload file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def metrics_of(result: Dict[str, Any]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    for section in ("end_to_end", "detail"):
        yield from result.get(section, {}).items()


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first* (negative: better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def runs_overlap(first: List[float], second: List[float]) -> bool:
    """False only when every run of one side reads below every run of the
    other: then the sides are apart whatever their spread."""
    return not (max(second) < min(first) or min(second) > max(first))


def verdict(first: Dict[str, Any], second: Dict[str, Any]) -> Tuple[str, float]:
    better, bound = first["better"], first["bound"]
    delta = worse_by(first["value"], second["value"], better)
    first_runs, second_runs = first.get("runs"), second.get("runs")
    if first_runs and second_runs and len(first_runs) > 1 and len(second_runs) > 1:
        wide = max(stats.spread(first_runs), stats.spread(second_runs)) > bound
        if wide and runs_overlap(first_runs, second_runs):
            return "unresolved", delta
    return ("regressed" if delta > bound else "ok"), delta


def quartile_text(entry: Dict[str, Any]) -> str:
    runs: Optional[List[float]] = entry.get("runs")
    if runs and len(runs) > 1:
        q1, q3 = stats.quartiles(runs)
        return f"[{q1:.5g}, {q3:.5g}]"
    return "-"


def compare(first_path: str, second_path: str, out=sys.stdout) -> int:
    first, second = load(first_path), load(second_path)
    header = (
        f"{'workload':<22} {'metric':<26} {'A':>12} {'A q1,q3':>22} {'B':>12} {'B q1,q3':>22} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    print(header, file=out)
    regressed = 0
    for workload in first:
        if workload not in second:
            print(f"{workload:<22} missing from {second_path}", file=out)
            continue
        theirs = dict(metrics_of(second[workload]))
        for metric, ours in metrics_of(first[workload]):
            if metric not in theirs:
                continue
            status, delta = verdict(ours, theirs[metric])
            regressed += status == "regressed"
            print(
                f"{workload:<22} {metric:<26} {ours['value']:>12.6g} {quartile_text(ours):>22} "
                f"{theirs[metric]['value']:>12.6g} {quartile_text(theirs[metric]):>22} "
                f"{delta:>+9.2%} {ours['bound']:>6.0%}  {status}",
                file=out,
            )
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="result of the parent commit / first set")
    parser.add_argument("second", help="result of the change / second set")
    args = parser.parse_args()
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
