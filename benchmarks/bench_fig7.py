"""Fig. 7 (a)–(e) — per-category data reduction at fog layer 1.

One benchmark per panel (energy, noise, garbage collection, parking, urban
lab).  Each regenerates the panel's series — daily volume raw, after
redundant-data elimination, and after compression — and checks the reduction
shape against the figures the paper reports (2.5 → 1.2 → 0.27 GB for energy,
and so on).  The paper's own compressed values mix "compression applied to
the aggregated volume" and "compression applied to the raw volume" between
panels (the garbage and parking panels' ~0.07 GB is the raw volume
compressed); both are reported here.
"""

from __future__ import annotations

import pytest

from repro.core.estimation import TrafficEstimator
from repro.sensors.catalog import BARCELONA_CATALOG, SensorCategory

#: (category, paper raw GB, paper aggregated GB, paper compressed GB)
PAPER_FIG7 = {
    SensorCategory.ENERGY: (2.5, 1.2, 0.27),
    SensorCategory.NOISE: (0.64, 0.16, 0.03),
    SensorCategory.GARBAGE: (0.36, 0.11, 0.07),
    SensorCategory.PARKING: (0.32, 0.19, 0.07),
    SensorCategory.URBAN: (4.7, 3.3, 1.03),
}


def _panel_report(category: SensorCategory) -> str:
    estimator = TrafficEstimator(BARCELONA_CATALOG)
    series = estimator.fig7_series(category)
    paper_raw, paper_aggregated, paper_compressed = PAPER_FIG7[category]
    return "\n".join(
        [
            f"Fig. 7 ({category.value}) — daily data volume at fog layer 1:",
            f"  raw (centralized model)              : {series.raw_gb:8.3f} GB   (paper: {paper_raw} GB)",
            f"  after redundant-data elimination     : {series.after_redundancy_gb:8.3f} GB   (paper: {paper_aggregated} GB)",
            f"  after compression (on aggregated)    : {series.after_compression_gb:8.3f} GB   (paper: {paper_compressed} GB)",
            f"  after compression (on raw, no dedup) : {series.compression_on_raw_gb:8.3f} GB",
            f"  redundancy reduction                 : {series.redundancy_reduction:.0%}",
            f"  total reduction (dedup + compression): {series.total_reduction:.0%}",
        ]
    )


def _run_panel(benchmark, report, category: SensorCategory):
    estimator = TrafficEstimator(BARCELONA_CATALOG)
    series = benchmark(estimator.fig7_series, category)
    paper_raw, paper_aggregated, _ = PAPER_FIG7[category]

    # Shape checks: raw and aggregated volumes match the paper; the series is
    # strictly decreasing; the total reduction is substantial.
    assert series.raw_gb == pytest.approx(paper_raw, rel=0.05)
    assert series.after_redundancy_gb == pytest.approx(paper_aggregated, rel=0.10)
    assert series.raw > series.after_redundancy > series.after_compression
    assert series.total_reduction > 0.75

    report(f"fig7_{category.value}", _panel_report(category))


def test_fig7a_energy(benchmark, report):
    _run_panel(benchmark, report, SensorCategory.ENERGY)


def test_fig7b_noise(benchmark, report):
    _run_panel(benchmark, report, SensorCategory.NOISE)


def test_fig7c_garbage(benchmark, report):
    _run_panel(benchmark, report, SensorCategory.GARBAGE)


def test_fig7d_parking(benchmark, report):
    _run_panel(benchmark, report, SensorCategory.PARKING)


def test_fig7e_urban(benchmark, report):
    _run_panel(benchmark, report, SensorCategory.URBAN)


def test_fig7_conclusion_claims(benchmark):
    """Conclusion: dedup reaches 75 % (noise); compression adds up to ~78 %."""
    estimator = TrafficEstimator(BARCELONA_CATALOG)
    noise = benchmark(estimator.fig7_series, SensorCategory.NOISE)
    assert noise.redundancy_reduction == pytest.approx(0.75, abs=0.001)
    assert 1 - estimator.compression_ratio == pytest.approx(0.78, abs=0.01)
