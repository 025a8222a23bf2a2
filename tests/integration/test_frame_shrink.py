"""Wire-size acceptance: binary frames must be ≥1.8x smaller than per-reading CSV.

The comparison is against what stays on the wire without frames: the
same rows published one CSV payload per reading (``Reading.encode``, each
padded or cut to its Table-I size), summed.  Measured on a synthetic
city-round workload (Barcelona catalog, 1,360 rows), at the real publish
granularity — one frame per (section, round), ~2.1x — and on whole
city-round frames, ~11x.  This pins the frame wire's shrink as a
regression test rather than a benchmark-only observation; the binary
bytes themselves are pinned by ``tests/common/data/frame_golden.json``.
"""

from collections import defaultdict

from repro.core.architecture import F2CDataManagement
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator
from repro.sensors.readings import ReadingColumns

SHRINK_FLOOR = 1.8


def _city_round_readings(devices_per_type=20, duration_s=900.0):
    generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=devices_per_type, seed=7)
    readings = []
    for device in generator.all_devices():
        readings.extend(device.stream(0.0, duration_s))
    return readings


def _csv_bytes(columns: ReadingColumns) -> int:
    """What the same rows cost as one CSV payload per reading."""
    return sum(map(len, columns.encode_rows()))


class TestBinaryFrameShrink:
    def test_per_section_frames_shrink_past_the_floor(self):
        readings = _city_round_readings()
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        sections = [s.section_id for s in system.city.sections]
        per_section = defaultdict(list)
        for index, reading in enumerate(readings):
            per_section[sections[index % len(sections)]].append(reading)
        csv_total = binary_total = 0
        for section_readings in per_section.values():
            columns = ReadingColumns.from_reading_list(section_readings)
            csv_total += _csv_bytes(columns)
            binary_total += len(columns.encode_frame())
        shrink = csv_total / binary_total
        assert shrink >= SHRINK_FLOOR, (
            f"per-section binary frames only {shrink:.2f}x smaller than per-reading CSV "
            f"({binary_total} vs {csv_total} bytes)"
        )

    def test_city_round_frame_shrinks_past_the_floor(self):
        columns = ReadingColumns.from_reading_list(_city_round_readings())
        csv_size = _csv_bytes(columns)
        binary_size = len(columns.encode_frame())
        shrink = csv_size / binary_size
        assert shrink >= SHRINK_FLOOR, (
            f"city-round binary frame only {shrink:.2f}x smaller than per-reading CSV "
            f"({binary_size} vs {csv_size} bytes)"
        )
