"""Individual simulated sensor devices.

A :class:`Sensor` models one physical device of a catalog type: it has a
location (the fog layer-1 area it falls into), a sampling interval, and emits
:class:`~repro.sensors.readings.Reading` objects whose values follow a simple
random walk quantised to the type's resolution.  Consecutive identical values
are what the redundant-data-elimination aggregation later removes, so the
device can be tuned to produce a target duplicate fraction.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterator, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.sensors.catalog import SensorTypeSpec
from repro.sensors.readings import Reading, ReadingColumns


def sample_times(start: float, end: float, interval: float) -> List[float]:
    """The sample timestamps of ``[start, end)``: *start*, then ``+= interval`` below *end*."""
    timestamps = []
    timestamp = start
    while timestamp < end:
        timestamps.append(timestamp)
        timestamp += interval
    return timestamps


class Sensor:
    """One simulated sensor device.

    Parameters
    ----------
    sensor_id:
        Unique identifier of the device.
    spec:
        The catalog type this device belongs to.
    fog_node_id:
        Identifier of the fog layer-1 node covering the device's location.
    duplicate_probability:
        Probability that a new sample repeats the previous value exactly.
        Defaults to the type's category redundancy rate so a population of
        devices reproduces the duplicate fraction the paper measured.
    rng:
        Random source; pass a seeded ``random.Random`` for reproducibility.
    """

    def __init__(
        self,
        sensor_id: str,
        spec: SensorTypeSpec,
        fog_node_id: Optional[str] = None,
        duplicate_probability: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sensor_id = sensor_id
        self.spec = spec
        self.fog_node_id = fog_node_id
        if duplicate_probability is None:
            duplicate_probability = spec.redundancy_rate
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ConfigurationError("duplicate_probability must be in [0, 1]")
        self.duplicate_probability = duplicate_probability
        # CRC-32 rather than hash(): the builtin string hash is salted per
        # interpreter run, which would make default-seeded devices emit
        # different streams across processes.
        self._rng = rng if rng is not None else random.Random(zlib.crc32(sensor_id.encode("utf-8")))
        self._last_value: Optional[float] = None
        self._sequence = 0

    def _quantise(self, value: float) -> float:
        step = self.spec.value_resolution
        low, high = self.spec.value_range
        clipped = min(max(value, low), high)
        return round(round(clipped / step) * step, 6)

    def _next_value(self) -> float:
        low, high = self.spec.value_range
        if self._last_value is None:
            return self._quantise(self._rng.uniform(low, high))
        if self._rng.random() < self.duplicate_probability:
            return self._last_value
        # Random walk: step is a few resolution units in either direction.
        step = self.spec.value_resolution * self._rng.choice([-3, -2, -1, 1, 2, 3])
        return self._quantise(self._last_value + step)

    def sample_into(self, columns: ReadingColumns, timestamp: float) -> None:
        """Append one sample at *timestamp* to *columns* as a row.

        The columnar twin of :meth:`sample`: the same ``_next_value()`` draw
        and sequence step, so a device emits the same stream whichever way
        it is sampled, but no :class:`Reading` object is built (the row's
        tags column holds ``None``, which materializes as ``{}``).
        """
        value = self._next_value()
        self._last_value = value
        spec = self.spec
        columns.append_row(
            self.sensor_id,
            spec.name,
            spec.category.value,
            value,
            timestamp,
            self.fog_node_id,
            spec.message_size_bytes,
            self._sequence,
            None,
        )
        self._sequence += 1

    def sample(self, timestamp: float) -> Reading:
        """Produce one reading at simulation time *timestamp*."""
        value = self._next_value()
        self._last_value = value
        reading = Reading(
            sensor_id=self.sensor_id,
            sensor_type=self.spec.name,
            category=self.spec.category.value,
            value=value,
            timestamp=timestamp,
            fog_node_id=self.fog_node_id,
            size_bytes=self.spec.message_size_bytes,
            sequence=self._sequence,
        )
        self._sequence += 1
        return reading

    def stream(self, start: float, end: float) -> Iterator[Reading]:
        """Yield readings at the type's sampling interval in ``[start, end)``."""
        if end < start:
            raise ConfigurationError("end must not precede start")
        for timestamp in sample_times(start, end, self.spec.sampling_interval_seconds):
            yield self.sample(timestamp)

    def _samples_into(
        self, columns: ReadingColumns, timestamps: Sequence[float], sequences: Sequence[int]
    ) -> None:
        """Append one sample per timestamp to *columns* (the columnar :meth:`stream`).

        *sequences* are this device's next sequence numbers.  The rows hold
        the given timestamp and sequence objects, so a caller building many
        devices' rows can share one list of each; the constant columns are
        built in bulk.
        """
        values = []
        for _ in timestamps:
            value = self._next_value()
            self._last_value = value
            values.append(value)
        count = len(values)
        spec = self.spec
        columns.extend_arrays(
            [self.sensor_id] * count,
            [spec.name] * count,
            [spec.category.value] * count,
            values,
            timestamps,
            [self.fog_node_id] * count,
            [spec.message_size_bytes] * count,
            sequences,
            [None] * count,
        )
        self._sequence += count

    @property
    def samples_emitted(self) -> int:
        """Number of readings emitted by this device so far."""
        return self._sequence

    def __repr__(self) -> str:
        return (
            f"Sensor(id={self.sensor_id!r}, type={self.spec.name!r}, "
            f"fog_node={self.fog_node_id!r})"
        )
