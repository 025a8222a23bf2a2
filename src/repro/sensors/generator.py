"""Bulk synthetic reading-stream generation.

The full Barcelona catalog describes just over a million sensors; generating
every reading of a simulated day object-by-object would be needlessly slow
for tests.  The :class:`ReadingGenerator` produces representative *sampled*
populations (a configurable number of devices per type) whose duplicate
fraction matches the category redundancy rates, plus helpers that generate
one "transaction" (a synchronised round of measurements, which is the unit
Table I accounts in).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional

from repro.common.errors import ConfigurationError
from repro.sensors.catalog import SensorCatalog, SensorCategory, SensorTypeSpec
from repro.sensors.device import Sensor, sample_times
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns


class ReadingGenerator:
    """Generates deterministic synthetic reading streams from a catalog.

    Parameters
    ----------
    catalog:
        The sensor catalog to draw types from.
    devices_per_type:
        Number of simulated devices instantiated per sensor type.  The real
        per-type populations are tens of thousands; event-level simulations
        use a representative sample and scale byte counts back up with
        :meth:`scale_factor`.
    seed:
        Seed for the shared random source.
    duplicate_probability_override:
        When given, every device uses this duplicate probability instead of
        its category's redundancy rate (used by ablation benchmarks).
    """

    def __init__(
        self,
        catalog: SensorCatalog,
        devices_per_type: int = 10,
        seed: int = 7,
        duplicate_probability_override: Optional[float] = None,
    ) -> None:
        if devices_per_type <= 0:
            raise ConfigurationError("devices_per_type must be positive")
        self.catalog = catalog
        self.devices_per_type = devices_per_type
        self._seed = seed
        self._rng = random.Random(seed)
        self._duplicate_override = duplicate_probability_override
        self._devices: Dict[str, List[Sensor]] = {}
        self._build_devices()

    def _build_devices(self) -> None:
        for spec in self.catalog:
            devices = []
            population = min(self.devices_per_type, spec.sensor_count)
            for index in range(population):
                sensor_id = f"{spec.name}-{index:05d}"
                device_rng = random.Random(self._rng.randrange(2**32))
                devices.append(
                    Sensor(
                        sensor_id=sensor_id,
                        spec=spec,
                        duplicate_probability=self._duplicate_override,
                        rng=device_rng,
                    )
                )
            self._devices[spec.name] = devices

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def devices_for(self, type_name: str) -> List[Sensor]:
        """The simulated devices of one sensor type."""
        return list(self._devices[type_name])

    def all_devices(self) -> List[Sensor]:
        return [device for devices in self._devices.values() for device in devices]

    def shard_devices(self, keep) -> List[Sensor]:
        """The devices selected by ``keep(index, device)``, original order.

        The index is the device's position in :meth:`all_devices` (catalog
        order, then per-type construction order) — the order deployment
        helpers use for round-robin section assignment, so shard workers
        can recompute the same assignment without shipping a map.

        Every device owns an independent RNG that was seeded at construction
        (one draw from the shared seed per device, in catalog order), so a
        filtered subset emits exactly the readings those same devices emit
        in a full-population run: per-shard generation from the shared seed
        is deterministic and bit-identical across any partitioning.
        """
        return [
            device
            for index, device in enumerate(self.all_devices())
            if keep(index, device)
        ]

    @staticmethod
    def transaction_for(devices: Iterable[Sensor], timestamp: float) -> ReadingBatch:
        """One synchronised measurement round over an explicit device subset.

        Equivalent to :meth:`transaction` restricted to *devices* (which
        must be passed in canonical order for batch-order equivalence with
        the full-population transaction).  The batch is built column-wise:
        no :class:`Reading` exists until a caller iterates it.
        """
        columns = ReadingColumns()
        for device in devices:
            device.sample_into(columns, timestamp)
        return ReadingBatch.from_columns(columns)

    @staticmethod
    def stream_for(
        devices: Iterable[Sensor], start: float = 0.0, end: float = 86_400.0
    ) -> Iterator[Reading]:
        """Every reading the given devices produce in ``[start, end)``.

        Device-major like :meth:`day_stream`; each device samples at its own
        type's interval.
        """
        for device in devices:
            yield from device.stream(start, end)

    @staticmethod
    def stream_columns_for(
        devices: Iterable[Sensor], start: float = 0.0, end: float = 86_400.0
    ) -> ReadingColumns:
        """:meth:`stream_for` as one column set (device-major, same rows).

        The rows share their immutable cells: devices of one sampling
        interval reuse one timestamp list, and every device's sequence
        numbers are a slice of one int list.  A city-day then holds one
        float per distinct timestamp instead of one per reading.
        """
        if end < start:
            raise ConfigurationError("end must not precede start")
        times: Dict[float, List[float]] = {}
        plan = []
        for device in devices:
            interval = device.spec.sampling_interval_seconds
            timestamps = times.get(interval)
            if timestamps is None:
                timestamps = times[interval] = sample_times(start, end, interval)
            plan.append((device, device.samples_emitted, timestamps))
        first = min((emitted for _, emitted, _ in plan), default=0)
        last = max((emitted + len(timestamps) for _, emitted, timestamps in plan), default=0)
        sequences = list(range(first, last))
        columns = ReadingColumns()
        for device, emitted, timestamps in plan:
            offset = emitted - first
            device._samples_into(columns, timestamps, sequences[offset : offset + len(timestamps)])
        return columns

    def scale_factor(self, spec: SensorTypeSpec) -> float:
        """Ratio between the real population and the simulated sample.

        Multiplying measured byte counts by this factor extrapolates a
        sampled simulation to the full catalog population.
        """
        simulated = len(self._devices[spec.name])
        return spec.sensor_count / simulated

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def transaction(self, timestamp: float, category: Optional[SensorCategory] = None) -> ReadingBatch:
        """One synchronised measurement round across the (sampled) population."""
        return self.transaction_for(
            (
                device
                for spec in self.catalog
                if category is None or spec.category == category
                for device in self._devices[spec.name]
            ),
            timestamp,
        )

    def transactions(
        self,
        count: int,
        start: float = 0.0,
        interval: float = 900.0,
        category: Optional[SensorCategory] = None,
    ) -> Iterator[ReadingBatch]:
        """Yield *count* transaction batches spaced *interval* seconds apart."""
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        for i in range(count):
            yield self.transaction(start + i * interval, category=category)

    def day_stream(
        self,
        category: Optional[SensorCategory] = None,
        day_seconds: float = 86_400.0,
    ) -> Iterator[Reading]:
        """Yield every reading the sampled population produces in one day.

        Each device samples at its own type's interval, so types with faster
        sampling (e.g. traffic, every minute) contribute proportionally more
        readings, exactly as in Table I.
        """
        for spec in self.catalog:
            if category is not None and spec.category != category:
                continue
            for device in self._devices[spec.name]:
                yield from device.stream(0.0, day_seconds)

    def day_batch(
        self,
        category: Optional[SensorCategory] = None,
        day_seconds: float = 86_400.0,
    ) -> ReadingBatch:
        """Collect :meth:`day_stream` into a single batch."""
        return ReadingBatch(self.day_stream(category=category, day_seconds=day_seconds))
