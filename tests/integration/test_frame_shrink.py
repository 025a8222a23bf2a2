"""Wire-size acceptance: binary frames must be ≥2.5x smaller than JSON.

Measured on a synthetic city-round workload (Barcelona catalog), at the
real publish granularity — one frame per (section, round) — and on whole
city-round frames.  This pins the "binary column frames shrink frames
~3x" claim as a regression test rather than a benchmark-only observation;
the binary bytes themselves are pinned by ``tests/common/data/frame_golden.json``.
"""

from collections import defaultdict

from repro.core.architecture import F2CDataManagement
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator
from repro.sensors.readings import ReadingColumns

SHRINK_FLOOR = 2.5


def _city_round_readings(devices_per_type=20, duration_s=900.0):
    generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=devices_per_type, seed=7)
    readings = []
    for device in generator.all_devices():
        readings.extend(device.stream(0.0, duration_s))
    return readings


class TestBinaryFrameShrink:
    def test_per_section_frames_shrink_past_the_floor(self):
        readings = _city_round_readings()
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        sections = [s.section_id for s in system.city.sections]
        per_section = defaultdict(list)
        for index, reading in enumerate(readings):
            per_section[sections[index % len(sections)]].append(reading)
        json_total = binary_total = 0
        for section_readings in per_section.values():
            columns = ReadingColumns.from_reading_list(section_readings)
            json_total += len(columns.encode_frame(format="json"))
            binary_total += len(columns.encode_frame(format="binary-v2"))
        shrink = json_total / binary_total
        assert shrink >= SHRINK_FLOOR, (
            f"per-section binary frames only {shrink:.2f}x smaller than JSON "
            f"({binary_total} vs {json_total} bytes)"
        )

    def test_city_round_frame_shrinks_past_the_floor(self):
        columns = ReadingColumns.from_reading_list(_city_round_readings())
        json_size = len(columns.encode_frame(format="json"))
        binary_size = len(columns.encode_frame(format="binary-v2"))
        shrink = json_size / binary_size
        assert shrink >= SHRINK_FLOOR, (
            f"city-round binary frame only {shrink:.2f}x smaller than JSON "
            f"({binary_size} vs {json_size} bytes)"
        )
