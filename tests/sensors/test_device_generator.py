"""Tests for simulated sensor devices and the bulk reading generator."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.sensors.catalog import SensorCategory, SensorTypeSpec
from repro.sensors.device import Sensor
from repro.sensors.generator import ReadingGenerator


def temperature_spec(count=10):
    return SensorTypeSpec(
        name="temperature",
        category=SensorCategory.ENERGY,
        sensor_count=count,
        message_size_bytes=22,
        daily_bytes_per_sensor=2_112,
        value_range=(0.0, 50.0),
        value_resolution=0.5,
    )


class TestSensor:
    def test_sample_produces_reading_with_catalog_size(self):
        sensor = Sensor("t-1", temperature_spec(), rng=random.Random(1))
        reading = sensor.sample(timestamp=10.0)
        assert reading.size_bytes == 22
        assert reading.sensor_type == "temperature"
        assert reading.category == "energy"
        assert reading.timestamp == 10.0

    def test_values_respect_range_and_resolution(self):
        sensor = Sensor("t-1", temperature_spec(), rng=random.Random(2))
        for i in range(200):
            reading = sensor.sample(float(i))
            assert 0.0 <= reading.value <= 50.0
            assert (reading.value / 0.5) == pytest.approx(round(reading.value / 0.5))

    def test_sequence_increments(self):
        sensor = Sensor("t-1", temperature_spec(), rng=random.Random(3))
        first = sensor.sample(0.0)
        second = sensor.sample(1.0)
        assert (first.sequence, second.sequence) == (0, 1)
        assert sensor.samples_emitted == 2

    def test_duplicate_probability_one_repeats_forever(self):
        sensor = Sensor("t-1", temperature_spec(), duplicate_probability=1.0, rng=random.Random(4))
        values = {sensor.sample(float(i)).value for i in range(20)}
        assert len(values) == 1

    def test_duplicate_probability_zero_changes_every_sample(self):
        sensor = Sensor("t-1", temperature_spec(), duplicate_probability=0.0, rng=random.Random(5))
        previous = None
        for i in range(50):
            value = sensor.sample(float(i)).value
            if previous is not None:
                assert value != previous
            previous = value

    def test_duplicate_fraction_tracks_category_rate(self):
        spec = temperature_spec()
        sensor = Sensor("t-1", spec, rng=random.Random(6))  # energy => 50 %
        duplicates = 0
        previous = None
        samples = 4_000
        for i in range(samples):
            value = sensor.sample(float(i)).value
            if previous is not None and value == previous:
                duplicates += 1
            previous = value
        observed = duplicates / (samples - 1)
        # Random-walk collisions add a little on top of the configured rate.
        assert observed == pytest.approx(spec.redundancy_rate, abs=0.08)

    def test_stream_respects_interval(self):
        sensor = Sensor("t-1", temperature_spec(), rng=random.Random(7))
        readings = list(sensor.stream(0.0, 3_600.0))
        assert len(readings) == 4  # every 900 s in [0, 3600)
        assert [r.timestamp for r in readings] == [0.0, 900.0, 1800.0, 2700.0]

    def test_invalid_duplicate_probability(self):
        with pytest.raises(ConfigurationError):
            Sensor("t-1", temperature_spec(), duplicate_probability=1.5)

    def test_stream_rejects_reversed_window(self):
        sensor = Sensor("t-1", temperature_spec())
        with pytest.raises(ConfigurationError):
            list(sensor.stream(10.0, 0.0))


class TestReadingGenerator:
    def test_devices_capped_by_population(self, small_catalog):
        generator = ReadingGenerator(small_catalog, devices_per_type=1_000, seed=1)
        assert len(generator.devices_for("temperature")) == 20  # real population is 20
        assert len(generator.devices_for("traffic")) == 10

    def test_transaction_covers_all_devices(self, generator):
        batch = generator.transaction(0.0)
        assert len(batch) == len(generator.all_devices())

    def test_transaction_filtered_by_category(self, generator):
        batch = generator.transaction(0.0, category=SensorCategory.URBAN)
        assert all(r.category == "urban" for r in batch)
        assert len(batch) == 5

    def test_transactions_count_and_spacing(self, generator):
        batches = list(generator.transactions(count=3, start=0.0, interval=100.0))
        assert len(batches) == 3
        assert batches[1][0].timestamp == 100.0

    def test_scale_factor(self, small_catalog):
        generator = ReadingGenerator(small_catalog, devices_per_type=5, seed=1)
        spec = small_catalog.get("temperature")
        assert generator.scale_factor(spec) == pytest.approx(20 / 5)

    def test_day_stream_counts_follow_sampling_rate(self, small_catalog):
        generator = ReadingGenerator(small_catalog, devices_per_type=2, seed=3)
        batch = generator.day_batch()
        per_type = {}
        for reading in batch:
            per_type[reading.sensor_type] = per_type.get(reading.sensor_type, 0) + 1
        # temperature: 96 tx/day * 2 devices; traffic: 1440 tx/day * 2 devices
        assert per_type["temperature"] == 192
        assert per_type["traffic"] == 2_880

    def test_deterministic_given_seed(self, small_catalog):
        a = ReadingGenerator(small_catalog, devices_per_type=3, seed=9).transaction(0.0)
        b = ReadingGenerator(small_catalog, devices_per_type=3, seed=9).transaction(0.0)
        assert [r.value for r in a] == [r.value for r in b]

    def test_different_seeds_differ(self, small_catalog):
        a = ReadingGenerator(small_catalog, devices_per_type=3, seed=1).transaction(0.0)
        b = ReadingGenerator(small_catalog, devices_per_type=3, seed=2).transaction(0.0)
        assert [r.value for r in a] != [r.value for r in b]

    def test_invalid_devices_per_type(self, small_catalog):
        with pytest.raises(ConfigurationError):
            ReadingGenerator(small_catalog, devices_per_type=0)

    def test_duplicate_override_applied(self, small_catalog):
        generator = ReadingGenerator(
            small_catalog, devices_per_type=1, seed=1, duplicate_probability_override=1.0
        )
        device = generator.devices_for("temperature")[0]
        values = {device.sample(float(i)).value for i in range(10)}
        assert len(values) == 1


class TestStreamColumns:
    START, END = 0.1, 20_000.3  # off the interval grid: timestamps accumulate rounding

    @staticmethod
    def _row(reading):
        return (
            reading.sensor_id,
            reading.sensor_type,
            reading.category,
            reading.value,
            reading.timestamp.hex(),
            reading.fog_node_id,
            reading.size_bytes,
            reading.sequence,
            reading.tags,
        )

    def _devices(self, catalog):
        devices = ReadingGenerator(catalog, devices_per_type=3, seed=11).all_devices()
        devices[1].sample(0.0)  # one device whose sequence does not start at 0
        return devices

    def test_rows_equal_each_devices_own_stream(self, small_catalog):
        columns = ReadingGenerator.stream_columns_for(self._devices(small_catalog), self.START, self.END)
        expected = [
            self._row(reading)
            for device in self._devices(small_catalog)
            for reading in device.stream(self.START, self.END)
        ]
        assert [self._row(reading) for reading in columns.to_readings()] == expected

    def test_devices_of_one_interval_share_timestamp_and_sequence_objects(self, small_catalog):
        columns = ReadingGenerator.stream_columns_for(
            [device for device in self._devices(small_catalog) if device.spec.name == "traffic"],
            self.START,
            self.END,
        )
        per_device = len(columns) // 3
        assert per_device > 300  # sequence numbers past the small-int cache
        first, third = slice(0, per_device), slice(2 * per_device, 3 * per_device)
        assert all(a is b for a, b in zip(columns.timestamps[first], columns.timestamps[third]))
        assert all(a is b for a, b in zip(columns.sequences[first], columns.sequences[third]))

    def test_rejects_reversed_window(self, small_catalog):
        with pytest.raises(ConfigurationError):
            ReadingGenerator.stream_columns_for(self._devices(small_catalog), 10.0, 0.0)
