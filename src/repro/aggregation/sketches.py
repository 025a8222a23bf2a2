"""Sketch-based aggregation summaries.

The distributed-aggregation survey the paper builds on classifies *sketches*
among the decomposable computation approaches: fixed-size probabilistic
summaries that can be merged across nodes.  Two classic sketches are
provided — a count-min sketch for per-key frequency estimation and a
probabilistic distinct counter (a simplified Flajolet–Martin / HyperLogLog
scheme) — plus an :class:`AggregationTechnique` wrapper that replaces a
batch by a constant-size sketch summary.

A key's cells depend only on its ``repr`` and the sketch's shape, so they
are cached per key: its count-min column in each row per ``(width,
depth)`` and its distinct-counter ``(register, rank)`` per ``precision``.
Both caches are LRU-bounded like the digest cache beneath them.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from typing import Hashable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.aggregation.base import AggregationResult, AggregationTechnique
from repro.sensors.readings import Reading, ReadingBatch

_DISTINCT_SEED = 0xC0FFEE  # the distinct counter's digest seed

#: Bound of each per-key cache below (entries, LRU).
_KEY_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_KEY_CACHE_SIZE)  # keyed on the repr digested: 1, 1.0, True stay distinct
def _digest64(text: str, seed: int) -> int:
    """A stable 64-bit hash of *text* mixed with *seed* (hashed once per process)."""
    digest = hashlib.blake2b(
        text.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _cells(text: str, width: int, depth: int) -> Tuple[int, ...]:
    """The count-min column of the key whose repr is *text*, one per row."""
    return tuple(_digest64(text, row) % width for row in range(depth))


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _register_rank(text: str, precision: int) -> Tuple[int, int]:
    """The distinct-counter ``(register, rank)`` of the value whose repr is *text*."""
    hashed = _digest64(text, _DISTINCT_SEED)
    register = hashed & ((1 << precision) - 1)
    remaining = hashed >> precision
    rank = 1
    while remaining & 1 == 0 and rank < 64 - precision:
        rank += 1
        remaining >>= 1
    return register, rank


class CountMinSketch:
    """Count-min sketch: mergeable approximate per-key counters.

    Estimates never under-count; over-counting is bounded by
    ``epsilon * total_count`` with probability ``1 - delta`` for
    ``width = ceil(e / epsilon)`` and ``depth = ceil(ln(1 / delta))``.
    """

    def __init__(self, width: int = 256, depth: int = 4) -> None:
        if width <= 0 or depth <= 0:
            raise ConfigurationError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._table: List[List[int]] = [[0] * width for _ in range(depth)]
        self._total = 0

    @classmethod
    def from_error_bounds(cls, epsilon: float, delta: float) -> "CountMinSketch":
        """Build a sketch sized for the requested error bounds."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ConfigurationError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=max(1, depth))

    def add(self, key: Hashable, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        for cells, column in zip(self._table, _cells(repr(key), self.width, self.depth)):
            cells[column] += count
        self._total += count

    def estimate(self, key: Hashable) -> int:
        """Estimated count of *key* (never below the true count)."""
        columns = _cells(repr(key), self.width, self.depth)
        return min(cells[column] for cells, column in zip(self._table, columns))

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Merge two sketches of identical dimensions (cell-wise sum)."""
        merged = CountMinSketch(width=self.width, depth=self.depth)
        merged.update(self)
        merged.update(other)
        return merged

    def update(self, other: "CountMinSketch") -> None:
        """Fold *other* into this sketch in place (cell-wise sum).

        The merge primitive decomposable aggregation relies on: folding
        another node's sketch into an accumulator costs one bulk pass over
        the table instead of re-adding every row it summarised.  *other* is
        not modified.
        """
        if (self.width, self.depth) != (other.width, other.depth):
            raise ConfigurationError("cannot merge sketches with different dimensions")
        for mine, theirs in zip(self._table, other._table):
            mine[:] = [a + b for a, b in zip(mine, theirs)]
        self._total += other._total

    @property
    def total(self) -> int:
        return self._total

    def size_bytes(self) -> int:
        """Approximate serialised size (4 bytes per cell)."""
        return self.width * self.depth * 4


class DistinctCounter:
    """Probabilistic distinct-value counter (stochastic averaging of max leading zeros).

    A simplified HyperLogLog: values hash into ``2**precision`` registers,
    each remembering the maximum number of leading zero bits seen.  Accuracy
    is roughly ``1.04 / sqrt(2**precision)`` relative error, and two counters
    merge by taking register-wise maxima.
    """

    def __init__(self, precision: int = 10) -> None:
        if not 4 <= precision <= 16:
            raise ConfigurationError("precision must be between 4 and 16")
        self.precision = precision
        self._register_count = 1 << precision
        self._registers = [0] * self._register_count

    def add(self, value: Hashable) -> None:
        register, rank = _register_rank(repr(value), self.precision)
        self._registers[register] = max(self._registers[register], rank)

    def estimate(self) -> float:
        """Estimated number of distinct values added."""
        m = self._register_count
        alpha = 0.7213 / (1.0 + 1.079 / m)
        indicator = sum(2.0 ** (-register) for register in self._registers)
        raw = alpha * m * m / indicator
        zero_registers = self._registers.count(0)
        if raw <= 2.5 * m and zero_registers:
            return m * math.log(m / zero_registers)
        return raw

    def merge(self, other: "DistinctCounter") -> "DistinctCounter":
        merged = DistinctCounter(precision=self.precision)
        merged.update(self)
        merged.update(other)
        return merged

    def update(self, other: "DistinctCounter") -> None:
        """Fold *other* into this counter in place (register-wise maxima)."""
        if self.precision != other.precision:
            raise ConfigurationError("cannot merge counters with different precision")
        self._registers[:] = [
            max(a, b) for a, b in zip(self._registers, other._registers)
        ]

    def size_bytes(self) -> int:
        """Approximate serialised size (1 byte per register)."""
        return self._register_count


class SketchSummaryAggregation(AggregationTechnique):
    """Replaces a batch by a constant-size sketch summary reading.

    The output batch contains one synthetic reading per category whose wire
    size is the serialised sketch size — a drastic (lossy) reduction suitable
    for consumers that only need frequency/distinct statistics upstream.
    """

    name = "sketch_summary"

    def __init__(self, width: int = 256, depth: int = 4, precision: int = 10) -> None:
        self.width = width
        self.depth = depth
        self.precision = precision
        self.last_frequency_sketches: dict[str, CountMinSketch] = {}
        self.last_distinct_counters: dict[str, DistinctCounter] = {}

    def apply(self, batch: ReadingBatch) -> AggregationResult:
        frequency: dict[str, CountMinSketch] = {}
        distinct: dict[str, DistinctCounter] = {}
        latest_timestamp: dict[str, float] = {}
        for reading in batch:
            category = reading.category
            frequency.setdefault(category, CountMinSketch(self.width, self.depth)).add(reading.sensor_id)
            distinct.setdefault(category, DistinctCounter(self.precision)).add(reading.sensor_id)
            latest_timestamp[category] = max(latest_timestamp.get(category, 0.0), reading.timestamp)

        output = ReadingBatch()
        for category in sorted(frequency):
            sketch = frequency[category]
            counter = distinct[category]
            output.append(
                Reading(
                    sensor_id=f"sketch/{category}",
                    sensor_type="sketch_summary",
                    category=category,
                    value=round(counter.estimate(), 2),
                    timestamp=latest_timestamp[category],
                    size_bytes=sketch.size_bytes() + counter.size_bytes(),
                    tags={"total_readings": sketch.total, "technique": self.name},
                )
            )
        self.last_frequency_sketches = frequency
        self.last_distinct_counters = distinct
        return self._result(batch, output, categories=len(frequency))
