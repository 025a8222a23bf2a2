"""Print every reproduced table and figure without pytest.

Usage::

    python benchmarks/run_all.py            # human-readable report
    python benchmarks/run_all.py --json     # machine-readable JSON to stdout
    python benchmarks/run_all.py --json --output results.json

The default mode regenerates Table I, the Fig. 6 topology summary, all five
Fig. 7 panels, the compression-factor measurement and the headline
F2C-vs-cloud comparison, printing them to stdout (the same text the pytest
benchmarks write under ``benchmarks/results/``).

``--json`` emits the same quantities as structured data, so they can be
diffed mechanically.  Speed is measured by ``benchmarks/f2cbench`` alone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core.architecture import F2CDataManagement
from repro.core.comparison import analytic_comparison
from repro.core.estimation import TrafficEstimator
from repro.sensors.catalog import BARCELONA_CATALOG, PAPER_TABLE1_DAILY_TOTALS


def run_text_report() -> None:
    estimator = TrafficEstimator(BARCELONA_CATALOG)

    print("=" * 100)
    print("Table I — redundant data aggregation model")
    print("=" * 100)
    print(estimator.format_table1())
    print()

    print("=" * 100)
    print("Fig. 6 — F2C deployment for Barcelona")
    print("=" * 100)
    system = F2CDataManagement()
    for key, value in system.summary().items():
        print(f"  {key}: {value}")
    print()

    print("=" * 100)
    print("Fig. 7 — per-category reduction at fog layer 1")
    print("=" * 100)
    for category in BARCELONA_CATALOG.categories:
        print("  " + estimator.format_fig7(category))
    print()

    print("=" * 100)
    print("Headline comparison (one day, future Barcelona deployment)")
    print("=" * 100)
    print(analytic_comparison(BARCELONA_CATALOG).format())


def collect_json_results() -> dict:
    """All benchmark quantities as one machine-readable dict."""
    comparison = analytic_comparison(BARCELONA_CATALOG)
    results: dict = {
        "schema": "run_all/v1",
        "table1": {
            "daily_totals_by_category": {
                category.value: {"cloud_bytes": cloud, "f2c_bytes": f2c}
                for category, (cloud, f2c) in PAPER_TABLE1_DAILY_TOTALS.items()
            },
            "total_sensors": BARCELONA_CATALOG.total_sensors(),
            "total_bytes_per_day_cloud": BARCELONA_CATALOG.total_bytes_per_day(),
            "total_bytes_per_day_f2c": BARCELONA_CATALOG.total_bytes_per_day_after_redundancy(),
        },
        "deployment": F2CDataManagement().summary(),
        "comparison": {
            "workload": comparison.workload,
            "centralized": comparison.centralized.as_dict(),
            "f2c": comparison.f2c.as_dict(),
            "backhaul_reduction": comparison.backhaul_reduction,
        },
    }
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Reproduce the paper's tables and figures")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--output", type=pathlib.Path, default=None, help="write JSON here instead of stdout"
    )
    args = parser.parse_args(argv)

    if not args.json:
        if args.output is not None:
            parser.error("--output requires --json")
        run_text_report()
        return
    results = collect_json_results()
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)


if __name__ == "__main__":
    main()
