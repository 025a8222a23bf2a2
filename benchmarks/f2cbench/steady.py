#!/usr/bin/env python3
"""Run every workload several times, each with another seed, and report spread.

This is the check the benchmark driver makes before it trusts the
benchmark: for each end-to-end metric, the distance between the first and
third quartile of the runs (``statistics.quantiles(values, n=4)``) as a
share of their median must stay within the metric's bound.  Two sets made
back to back are then compared with ``compare.py``::

    python3 benchmarks/f2cbench/steady.py --out benchmarks/f2cbench/results/set_a.json
    python3 benchmarks/f2cbench/steady.py --out benchmarks/f2cbench/results/set_b.json
    python3 benchmarks/f2cbench/compare.py benchmarks/f2cbench/results/set_a.json \\
        benchmarks/f2cbench/results/set_b.json

The output has the shape of a ``run.py --out`` result (the value of a
metric is the median of its runs), so ``compare.py`` reads either.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path.insert(0, str(HERE.parent))

from f2cbench import stats  # noqa: E402 - after the path fix-up

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"steady: {workload} seed {seed} reported failures: {line}")
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--workload", action="append", help="only these workloads (repeatable)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    names = args.workload or [entry["name"] for entry in SPEC["workloads"]]
    workloads: Dict[str, Any] = {}
    unsteady: List[str] = []
    for name in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        lines = [run_once(name, seed, args.seconds) for seed in seeds]
        end_to_end: Dict[str, Any] = {}
        for metric in SPEC["end_to_end"]:
            values = [line["metrics"][metric["name"]]["value"] for line in lines]
            q1, q3 = stats.quartiles(values)
            spread = stats.spread(values)
            end_to_end[metric["name"]] = {
                "value": stats.median(values), "q1": q1, "q3": q3, "spread": spread,
                "runs": values, "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
            }
            # The driver exempts set-up time from the spread rule (not from the median rule).
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                unsteady.append(f"{name}/{metric['name']}")
                flag = "  UNSTEADY"
            elif metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"{name:<22} {metric['name']:<24} median {stats.median(values):>12.6g} "
                  f"{metric['unit']:<4} spread {spread:7.2%} of bound {metric['bound']:.0%}{flag}", flush=True)
        workloads[name] = {
            "workload": name, "seeds": seeds, "end_to_end": end_to_end, "detail": {},
            "attempted_ops": sum(line["attempted"] for line in lines),
            "failed_ops": sum(line["failed"] for line in lines),
        }
    Path(args.out).write_text(
        json.dumps({"schema": "f2cbench/1", "kind": "steady", "workloads": workloads}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if unsteady:
        print("steady: spread beyond the bound on " + ", ".join(unsteady), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
