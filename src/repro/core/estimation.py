"""Analytic traffic estimation — the engine behind Table I and Fig. 7.

The paper's evaluation is an estimate built from the sensor catalog: for
each sensor type, (number of sensors) × (message size) × (transactions per
day) gives the daily volume generated at the edge; under the centralized
model all of it crosses the network to the cloud, while under the F2C model
fog layer 1 receives it all, applies redundant-data elimination (the
per-category rates of Section V.B), and only the reduced volume moves to fog
layer 2 and on to the cloud.  Compression at fog layer 1 reduces the
transmitted volume further by the measured zip factor.

:class:`TrafficEstimator` reproduces those numbers exactly from
:data:`repro.sensors.catalog.BARCELONA_CATALOG` (or any other catalog), and
is what the Table I / Fig. 7 benchmark harnesses print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aggregation.compression import PAPER_COMPRESSION_RATIO
from repro.common.units import BYTES_PER_GB
from repro.sensors.catalog import SensorCatalog, SensorCategory, SensorTypeSpec


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I (one sensor type).

    Byte columns mirror the paper's layout: per-transaction and per-day
    volumes under the centralized cloud model and under the F2C model (fog
    layer 1 receives everything; fog layer 2 and the cloud receive the
    volume left after redundant-data elimination at layer 1).
    """

    type_name: str
    category: SensorCategory
    sensor_count: int
    bytes_per_sensor_per_transaction: int
    bytes_per_sensor_per_day: int
    # Per transaction
    cloud_model_per_transaction: int
    f2c_fog1_per_transaction: int
    f2c_fog2_per_transaction: int
    f2c_cloud_per_transaction: int
    # Per day
    cloud_model_per_day: int
    f2c_fog1_per_day: int
    f2c_fog2_per_day: int
    f2c_cloud_per_day: int

    @property
    def redundancy_rate(self) -> float:
        if self.cloud_model_per_day == 0:
            return 0.0
        return 1.0 - self.f2c_fog2_per_day / self.cloud_model_per_day


@dataclass(frozen=True)
class CategoryTraffic:
    """Aggregated daily traffic for one category (a "Total number" row)."""

    category: SensorCategory
    sensor_count: int
    bytes_per_sensor_per_transaction: int
    cloud_model_per_transaction: int
    f2c_fog2_per_transaction: int
    cloud_model_per_day: int
    f2c_fog1_per_day: int
    f2c_fog2_per_day: int
    f2c_cloud_per_day: int

    @property
    def redundancy_rate(self) -> float:
        if self.cloud_model_per_day == 0:
            return 0.0
        return 1.0 - self.f2c_fog2_per_day / self.cloud_model_per_day


@dataclass(frozen=True)
class Fig7Series:
    """The per-category series plotted in Fig. 7 (daily volumes, in bytes).

    ``raw`` is the volume generated by the sensors (what the centralized
    model transmits); ``after_redundancy`` is what leaves fog layer 1 after
    redundant-data elimination; ``after_compression`` additionally applies
    the compression factor to the aggregated volume (the pipeline the text
    describes); ``compression_on_raw`` applies compression to the raw volume
    (no redundancy elimination), which some panels of the paper's Fig. 7
    appear to plot: the garbage and parking panels show ~0.07 GB, which
    compressing their raw 0.36 / 0.32 GB gives and compressing the
    aggregated volume (0.023 / 0.042 GB) does not.
    """

    category: SensorCategory
    raw: int
    after_redundancy: int
    after_compression: int
    compression_on_raw: int

    @property
    def raw_gb(self) -> float:
        return self.raw / BYTES_PER_GB

    @property
    def after_redundancy_gb(self) -> float:
        return self.after_redundancy / BYTES_PER_GB

    @property
    def after_compression_gb(self) -> float:
        return self.after_compression / BYTES_PER_GB

    @property
    def compression_on_raw_gb(self) -> float:
        return self.compression_on_raw / BYTES_PER_GB

    @property
    def redundancy_reduction(self) -> float:
        return 1.0 - self.after_redundancy / self.raw if self.raw else 0.0

    @property
    def total_reduction(self) -> float:
        return 1.0 - self.after_compression / self.raw if self.raw else 0.0


@dataclass
class CitywideEstimate:
    """Grand totals across all categories (the last row of Table I)."""

    total_sensors: int
    bytes_per_sensor_per_transaction: int
    cloud_model_per_transaction: int
    f2c_fog2_per_transaction: int
    cloud_model_per_day: int
    f2c_fog1_per_day: int
    f2c_fog2_per_day: int
    f2c_cloud_per_day: int
    f2c_cloud_per_day_compressed: int
    per_category: Dict[SensorCategory, CategoryTraffic] = field(default_factory=dict)

    @property
    def backhaul_reduction_redundancy(self) -> float:
        """Fraction of daily backhaul traffic removed by redundancy elimination."""
        if self.cloud_model_per_day == 0:
            return 0.0
        return 1.0 - self.f2c_cloud_per_day / self.cloud_model_per_day

    @property
    def backhaul_reduction_total(self) -> float:
        """Fraction removed by redundancy elimination plus compression."""
        if self.cloud_model_per_day == 0:
            return 0.0
        return 1.0 - self.f2c_cloud_per_day_compressed / self.cloud_model_per_day


class TrafficEstimator:
    """Computes Table I rows, category totals and Fig. 7 series from a catalog."""

    def __init__(
        self,
        catalog: SensorCatalog,
        redundancy_override: Optional[Dict[SensorCategory, float]] = None,
        compression_ratio: float = PAPER_COMPRESSION_RATIO,
    ) -> None:
        self.catalog = catalog
        self._redundancy_override = dict(redundancy_override or {})
        if not 0.0 < compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
        self.compression_ratio = compression_ratio

    # ------------------------------------------------------------------ #
    # Per-type rows
    # ------------------------------------------------------------------ #
    def redundancy_rate(self, spec: SensorTypeSpec) -> float:
        return self._redundancy_override.get(spec.category, spec.redundancy_rate)

    def row_for(self, spec: SensorTypeSpec) -> Table1Row:
        """Build the Table I row for one sensor type."""
        keep_fraction = 1.0 - self.redundancy_rate(spec)
        per_transaction = spec.bytes_per_transaction_all_sensors()
        per_day = spec.bytes_per_day_all_sensors()
        reduced_transaction = round(per_transaction * keep_fraction)
        reduced_day = round(per_day * keep_fraction)
        return Table1Row(
            type_name=spec.name,
            category=spec.category,
            sensor_count=spec.sensor_count,
            bytes_per_sensor_per_transaction=spec.message_size_bytes,
            bytes_per_sensor_per_day=spec.daily_bytes_per_sensor,
            cloud_model_per_transaction=per_transaction,
            f2c_fog1_per_transaction=per_transaction,
            f2c_fog2_per_transaction=reduced_transaction,
            f2c_cloud_per_transaction=reduced_transaction,
            cloud_model_per_day=per_day,
            f2c_fog1_per_day=per_day,
            f2c_fog2_per_day=reduced_day,
            f2c_cloud_per_day=reduced_day,
        )

    def table1_rows(self, category: Optional[SensorCategory] = None) -> List[Table1Row]:
        """All Table I rows, optionally restricted to one category."""
        return [
            self.row_for(spec)
            for spec in self.catalog
            if category is None or spec.category == category
        ]

    # ------------------------------------------------------------------ #
    # Category totals and grand totals
    # ------------------------------------------------------------------ #
    def category_traffic(self, category: SensorCategory) -> CategoryTraffic:
        rows = self.table1_rows(category)
        return CategoryTraffic(
            category=category,
            sensor_count=sum(r.sensor_count for r in rows),
            bytes_per_sensor_per_transaction=sum(r.bytes_per_sensor_per_transaction for r in rows),
            cloud_model_per_transaction=sum(r.cloud_model_per_transaction for r in rows),
            f2c_fog2_per_transaction=sum(r.f2c_fog2_per_transaction for r in rows),
            cloud_model_per_day=sum(r.cloud_model_per_day for r in rows),
            f2c_fog1_per_day=sum(r.f2c_fog1_per_day for r in rows),
            f2c_fog2_per_day=sum(r.f2c_fog2_per_day for r in rows),
            f2c_cloud_per_day=sum(r.f2c_cloud_per_day for r in rows),
        )

    def citywide(self) -> CitywideEstimate:
        """Grand totals across the whole catalog (Table I's final row)."""
        per_category = {
            category: self.category_traffic(category) for category in self.catalog.categories
        }
        totals = CitywideEstimate(
            total_sensors=sum(c.sensor_count for c in per_category.values()),
            bytes_per_sensor_per_transaction=sum(
                c.bytes_per_sensor_per_transaction for c in per_category.values()
            ),
            cloud_model_per_transaction=sum(
                c.cloud_model_per_transaction for c in per_category.values()
            ),
            f2c_fog2_per_transaction=sum(c.f2c_fog2_per_transaction for c in per_category.values()),
            cloud_model_per_day=sum(c.cloud_model_per_day for c in per_category.values()),
            f2c_fog1_per_day=sum(c.f2c_fog1_per_day for c in per_category.values()),
            f2c_fog2_per_day=sum(c.f2c_fog2_per_day for c in per_category.values()),
            f2c_cloud_per_day=sum(c.f2c_cloud_per_day for c in per_category.values()),
            f2c_cloud_per_day_compressed=round(
                sum(c.f2c_cloud_per_day for c in per_category.values()) * self.compression_ratio
            ),
            per_category=per_category,
        )
        return totals

    # ------------------------------------------------------------------ #
    # Fig. 7 series
    # ------------------------------------------------------------------ #
    def fig7_series(self, category: SensorCategory) -> Fig7Series:
        traffic = self.category_traffic(category)
        return Fig7Series(
            category=category,
            raw=traffic.cloud_model_per_day,
            after_redundancy=traffic.f2c_fog2_per_day,
            after_compression=round(traffic.f2c_fog2_per_day * self.compression_ratio),
            compression_on_raw=round(traffic.cloud_model_per_day * self.compression_ratio),
        )

    def fig7_all_series(self) -> Dict[SensorCategory, Fig7Series]:
        return {category: self.fig7_series(category) for category in self.catalog.categories}

    # ------------------------------------------------------------------ #
    # Formatting helpers used by the benchmark harnesses
    # ------------------------------------------------------------------ #
    def format_table1(self) -> str:
        """Render Table I as fixed-width text (one line per sensor type)."""
        header = (
            f"{'type':<28} {'category':<8} {'#sensors':>10} {'B/tx':>6} "
            f"{'cloud tx':>14} {'F2C L1 tx':>14} {'F2C L2 tx':>14} "
            f"{'cloud day':>16} {'F2C L2 day':>16}"
        )
        lines = [header, "-" * len(header)]
        for row in self.table1_rows():
            lines.append(
                f"{row.type_name:<28} {row.category.value:<8} {row.sensor_count:>10,} "
                f"{row.bytes_per_sensor_per_transaction:>6,} "
                f"{row.cloud_model_per_transaction:>14,} {row.f2c_fog1_per_transaction:>14,} "
                f"{row.f2c_fog2_per_transaction:>14,} {row.cloud_model_per_day:>16,} "
                f"{row.f2c_fog2_per_day:>16,}"
            )
        totals = self.citywide()
        lines.append("-" * len(header))
        lines.append(
            f"{'TOTAL':<28} {'all':<8} {totals.total_sensors:>10,} "
            f"{totals.bytes_per_sensor_per_transaction:>6,} "
            f"{totals.cloud_model_per_transaction:>14,} {totals.cloud_model_per_transaction:>14,} "
            f"{totals.f2c_fog2_per_transaction:>14,} {totals.cloud_model_per_day:>16,} "
            f"{totals.f2c_fog2_per_day:>16,}"
        )
        return "\n".join(lines)

    def format_fig7(self, category: SensorCategory) -> str:
        """Render one Fig. 7 panel as text (daily GB at each stage)."""
        series = self.fig7_series(category)
        return (
            f"{category.value}: raw={series.raw_gb:.2f} GB, "
            f"after redundancy elimination={series.after_redundancy_gb:.2f} GB, "
            f"after compression={series.after_compression_gb:.2f} GB "
            f"(reduction {series.total_reduction:.0%})"
        )
