"""The Sentilo-like sensor catalog of the future smart city of Barcelona.

Every figure in the paper's evaluation derives from the inventory in
Table I: for each sensor *type*, the number of deployed sensors, the wire
size of one measurement ("sending data by each sensor", bytes), the number
of transactions per day, and — per *category* — the fraction of readings the
authors observed to be redundant on the real Sentilo platform.

The constants in this module reproduce those parameters exactly.  Each
:class:`SensorTypeSpec` also records the daily per-sensor byte volume the
paper prints, because one row of Table I (the first noise type) is not an
integer multiple of its message size; we preserve the paper's printed value
for fidelity and expose the implied (fractional) transaction rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError


class SensorCategory(str, Enum):
    """The five Sentilo information-and-service categories used in the paper."""

    ENERGY = "energy"
    NOISE = "noise"
    GARBAGE = "garbage"
    PARKING = "parking"
    URBAN = "urban"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Fraction of redundant (duplicate) readings per category, as measured by the
#: authors on real Sentilo data (Section V.B): energy ~50 %, noise ~75 %,
#: garbage ~70 %, parking ~40 %, urban ~30 %.
CATEGORY_REDUNDANCY: Dict[SensorCategory, float] = {
    SensorCategory.ENERGY: 0.50,
    SensorCategory.NOISE: 0.75,
    SensorCategory.GARBAGE: 0.70,
    SensorCategory.PARKING: 0.40,
    SensorCategory.URBAN: 0.30,
}


@dataclass(frozen=True)
class SensorTypeSpec:
    """Static description of one sensor type from Table I.

    Attributes
    ----------
    name:
        Machine-friendly type name, e.g. ``"electricity_meter"``.
    category:
        The Sentilo category the type belongs to.
    sensor_count:
        Number of deployed sensors of this type in the future Barcelona.
    message_size_bytes:
        Wire size of one measurement ("sending data by each sensor").
    daily_bytes_per_sensor:
        Bytes one sensor sends per day (the paper's printed figure).
    value_range:
        Plausible (low, high) range for synthetic measurement values.
    value_resolution:
        Quantisation step for synthetic values; coarser resolution produces
        more naturally occurring duplicates.
    """

    name: str
    category: SensorCategory
    sensor_count: int
    message_size_bytes: int
    daily_bytes_per_sensor: int
    value_range: Tuple[float, float] = (0.0, 100.0)
    value_resolution: float = 1.0

    def __post_init__(self) -> None:
        if self.sensor_count <= 0:
            raise ConfigurationError(f"{self.name}: sensor_count must be positive")
        if self.message_size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: message_size_bytes must be positive")
        if self.daily_bytes_per_sensor <= 0:
            raise ConfigurationError(f"{self.name}: daily_bytes_per_sensor must be positive")
        if self.value_range[0] >= self.value_range[1]:
            raise ConfigurationError(f"{self.name}: value_range must be increasing")
        if self.value_resolution <= 0:
            raise ConfigurationError(f"{self.name}: value_resolution must be positive")

    # ------------------------------------------------------------------ #
    # Derived per-type quantities (the cells of Table I).
    # ------------------------------------------------------------------ #
    @property
    def transactions_per_day(self) -> float:
        """Implied number of transactions per day (may be fractional).

        For all types but the first noise type this is a whole number
        (e.g. 96 transactions/day = one every 15 minutes).
        """
        return self.daily_bytes_per_sensor / self.message_size_bytes

    @property
    def sampling_interval_seconds(self) -> float:
        """Average seconds between two transactions of one sensor."""
        return 86_400.0 / self.transactions_per_day

    @property
    def redundancy_rate(self) -> float:
        """Redundant-reading fraction inherited from the type's category."""
        return CATEGORY_REDUNDANCY[self.category]

    def bytes_per_transaction_all_sensors(self) -> int:
        """Total bytes all sensors of this type send in one transaction."""
        return self.sensor_count * self.message_size_bytes

    def bytes_per_day_all_sensors(self) -> int:
        """Total bytes all sensors of this type send in one day."""
        return self.sensor_count * self.daily_bytes_per_sensor

    def bytes_per_transaction_after_redundancy(self) -> int:
        """Per-transaction volume after redundant-data elimination."""
        return round(self.bytes_per_transaction_all_sensors() * (1.0 - self.redundancy_rate))

    def bytes_per_day_after_redundancy(self) -> int:
        """Per-day volume after redundant-data elimination."""
        return round(self.bytes_per_day_all_sensors() * (1.0 - self.redundancy_rate))


class SensorCatalog:
    """An immutable collection of :class:`SensorTypeSpec` with lookups and totals."""

    def __init__(self, types: Iterable[SensorTypeSpec]) -> None:
        self._types: List[SensorTypeSpec] = list(types)
        names = [t.name for t in self._types]
        if len(names) != len(set(names)):
            raise ConfigurationError("duplicate sensor type names in catalog")
        self._by_name: Dict[str, SensorTypeSpec] = {t.name: t for t in self._types}

    # -- collection protocol ------------------------------------------- #
    def __iter__(self) -> Iterator[SensorTypeSpec]:
        return iter(self._types)

    def __len__(self) -> int:
        return len(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> SensorTypeSpec:
        """Look up a type by name, raising ``KeyError`` if unknown."""
        return self._by_name[name]

    @property
    def type_names(self) -> List[str]:
        return [t.name for t in self._types]

    @property
    def categories(self) -> List[SensorCategory]:
        """Categories present in the catalog, in first-appearance order."""
        seen: List[SensorCategory] = []
        for spec in self._types:
            if spec.category not in seen:
                seen.append(spec.category)
        return seen

    def types_in_category(self, category: SensorCategory) -> List[SensorTypeSpec]:
        return [t for t in self._types if t.category == category]

    def subset(self, categories: Iterable[SensorCategory]) -> "SensorCatalog":
        """Return a catalog restricted to the given categories."""
        wanted = set(categories)
        return SensorCatalog(t for t in self._types if t.category in wanted)

    def scaled(self, factor: float) -> "SensorCatalog":
        """Return a catalog with sensor counts scaled by *factor* (min 1 each).

        Used to run full-fidelity event-level simulations on a small fraction
        of the real sensor population and scale the traffic estimates back up.
        """
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        scaled_types = []
        for spec in self._types:
            scaled_count = max(1, round(spec.sensor_count * factor))
            scaled_types.append(
                SensorTypeSpec(
                    name=spec.name,
                    category=spec.category,
                    sensor_count=scaled_count,
                    message_size_bytes=spec.message_size_bytes,
                    daily_bytes_per_sensor=spec.daily_bytes_per_sensor,
                    value_range=spec.value_range,
                    value_resolution=spec.value_resolution,
                )
            )
        return SensorCatalog(scaled_types)

    # -- totals (the "Total number" rows of Table I) -------------------- #
    def total_sensors(self, category: Optional[SensorCategory] = None) -> int:
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.sensor_count for t in types)

    def total_message_bytes_per_sensor(self, category: Optional[SensorCategory] = None) -> int:
        """Sum of message sizes across types ("by each sensor" total row)."""
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.message_size_bytes for t in types)

    def total_bytes_per_transaction(self, category: Optional[SensorCategory] = None) -> int:
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.bytes_per_transaction_all_sensors() for t in types)

    def total_bytes_per_day(self, category: Optional[SensorCategory] = None) -> int:
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.bytes_per_day_all_sensors() for t in types)

    def total_bytes_per_transaction_after_redundancy(
        self, category: Optional[SensorCategory] = None
    ) -> int:
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.bytes_per_transaction_after_redundancy() for t in types)

    def total_bytes_per_day_after_redundancy(
        self, category: Optional[SensorCategory] = None
    ) -> int:
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.bytes_per_day_after_redundancy() for t in types)

    def total_daily_bytes_per_sensor(self, category: Optional[SensorCategory] = None) -> int:
        """Sum of per-sensor daily bytes across types (Table I total row)."""
        types = self._types if category is None else self.types_in_category(category)
        return sum(t.daily_bytes_per_sensor for t in types)


def _energy(name: str, size: int = 22, daily: int = 2_112) -> SensorTypeSpec:
    return SensorTypeSpec(
        name=name,
        category=SensorCategory.ENERGY,
        sensor_count=70_717,
        message_size_bytes=size,
        daily_bytes_per_sensor=daily,
        value_range=(0.0, 500.0),
        value_resolution=1.0,
    )


#: The 21 sensor types of Table I with the paper's exact parameters.
BARCELONA_CATALOG = SensorCatalog(
    [
        # ----------------------- Energy monitoring ----------------------- #
        _energy("electricity_meter"),
        _energy("external_ambient_conditions"),
        _energy("gas_meter"),
        _energy("internal_ambient_conditions"),
        _energy("network_analyzer", size=242, daily=23_232),
        _energy("solar_thermal_installation"),
        _energy("temperature"),
        # ----------------------- Noise monitoring ------------------------ #
        SensorTypeSpec(
            name="noise_level_basic",
            category=SensorCategory.NOISE,
            sensor_count=10_000,
            message_size_bytes=22,
            daily_bytes_per_sensor=768,
            value_range=(30.0, 110.0),
            value_resolution=1.0,
        ),
        SensorTypeSpec(
            name="noise_level_continuous",
            category=SensorCategory.NOISE,
            sensor_count=10_000,
            message_size_bytes=22,
            daily_bytes_per_sensor=31_680,
            value_range=(30.0, 110.0),
            value_resolution=1.0,
        ),
        SensorTypeSpec(
            name="noise_peak_detector",
            category=SensorCategory.NOISE,
            sensor_count=10_000,
            message_size_bytes=22,
            daily_bytes_per_sensor=31_680,
            value_range=(30.0, 120.0),
            value_resolution=1.0,
        ),
        # ----------------------- Garbage collection ---------------------- #
        SensorTypeSpec(
            name="container_glass",
            category=SensorCategory.GARBAGE,
            sensor_count=40_000,
            message_size_bytes=50,
            daily_bytes_per_sensor=1_800,
            value_range=(0.0, 100.0),
            value_resolution=5.0,
        ),
        SensorTypeSpec(
            name="container_organic",
            category=SensorCategory.GARBAGE,
            sensor_count=40_000,
            message_size_bytes=50,
            daily_bytes_per_sensor=1_800,
            value_range=(0.0, 100.0),
            value_resolution=5.0,
        ),
        SensorTypeSpec(
            name="container_paper",
            category=SensorCategory.GARBAGE,
            sensor_count=40_000,
            message_size_bytes=50,
            daily_bytes_per_sensor=1_800,
            value_range=(0.0, 100.0),
            value_resolution=5.0,
        ),
        SensorTypeSpec(
            name="container_plastic",
            category=SensorCategory.GARBAGE,
            sensor_count=40_000,
            message_size_bytes=50,
            daily_bytes_per_sensor=1_800,
            value_range=(0.0, 100.0),
            value_resolution=5.0,
        ),
        SensorTypeSpec(
            name="container_refuse",
            category=SensorCategory.GARBAGE,
            sensor_count=40_000,
            message_size_bytes=50,
            daily_bytes_per_sensor=1_800,
            value_range=(0.0, 100.0),
            value_resolution=5.0,
        ),
        # ----------------------------- Parking --------------------------- #
        SensorTypeSpec(
            name="parking_spot",
            category=SensorCategory.PARKING,
            sensor_count=80_000,
            message_size_bytes=40,
            daily_bytes_per_sensor=4_000,
            value_range=(0.0, 1.0),
            value_resolution=1.0,
        ),
        # --------------------------- Urban Lab ---------------------------- #
        SensorTypeSpec(
            name="air_quality",
            category=SensorCategory.URBAN,
            sensor_count=40_000,
            message_size_bytes=144,
            daily_bytes_per_sensor=13_824,
            value_range=(0.0, 500.0),
            value_resolution=1.0,
        ),
        SensorTypeSpec(
            name="bicycle_flow",
            category=SensorCategory.URBAN,
            sensor_count=40_000,
            message_size_bytes=22,
            daily_bytes_per_sensor=3_168,
            value_range=(0.0, 200.0),
            value_resolution=1.0,
        ),
        SensorTypeSpec(
            name="people_flow",
            category=SensorCategory.URBAN,
            sensor_count=40_000,
            message_size_bytes=22,
            daily_bytes_per_sensor=3_168,
            value_range=(0.0, 1000.0),
            value_resolution=1.0,
        ),
        SensorTypeSpec(
            name="traffic",
            category=SensorCategory.URBAN,
            sensor_count=40_000,
            message_size_bytes=44,
            daily_bytes_per_sensor=63_360,
            value_range=(0.0, 2000.0),
            value_resolution=1.0,
        ),
        SensorTypeSpec(
            name="weather",
            category=SensorCategory.URBAN,
            sensor_count=40_000,
            message_size_bytes=120,
            daily_bytes_per_sensor=34_560,
            value_range=(-10.0, 45.0),
            value_resolution=0.5,
        ),
    ]
)

#: The category totals the paper prints in Table I (bytes per day, cloud model
#: and F2C model).  Used by tests to check exact fidelity.
PAPER_TABLE1_DAILY_TOTALS: Mapping[SensorCategory, Tuple[int, int]] = {
    SensorCategory.ENERGY: (2_539_023_168, 1_269_511_584),
    SensorCategory.NOISE: (641_280_000, 160_320_000),
    SensorCategory.GARBAGE: (360_000_000, 108_000_000),
    SensorCategory.PARKING: (320_000_000, 192_000_000),
    SensorCategory.URBAN: (4_723_200_000, 3_306_240_000),
}

#: Citywide totals printed in the last row of Table I.
PAPER_TABLE1_GRAND_TOTAL_SENSORS = 1_005_019
PAPER_TABLE1_GRAND_TOTAL_DAILY_CLOUD = 8_583_503_168
PAPER_TABLE1_GRAND_TOTAL_DAILY_F2C = 5_036_071_584
PAPER_TABLE1_GRAND_TOTAL_PER_TRANSACTION_CLOUD = 54_388_158
PAPER_TABLE1_GRAND_TOTAL_PER_TRANSACTION_F2C = 28_165_079

#: Compression factor measured by the authors with zip at fog layer 1:
#: 1,360,043,206 bytes compressed down to 295,428,463 bytes (≈78 % reduction).
PAPER_COMPRESSED_BYTES = 295_428_463
PAPER_UNCOMPRESSED_BYTES = 1_360_043_206
PAPER_COMPRESSION_RATIO = PAPER_COMPRESSED_BYTES / PAPER_UNCOMPRESSED_BYTES
