"""Traffic accounting.

The :class:`TrafficAccountant` records every transfer performed on the
simulated network: which link carried it, how many bytes and messages, and
when.  The per-layer aggregations it exposes (bytes received at fog layer 1,
fog layer 2, cloud) are exactly the columns of the paper's Table I, and the
hourly series feed the transmission-scheduling benchmarks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, List, Optional, Tuple

from repro.network.topology import LayerName


@dataclass(frozen=True)
class TrafficRecord:
    """One recorded transfer."""

    timestamp: float
    source: str
    target: str
    target_layer: LayerName
    size_bytes: int
    message_count: int = 1
    category: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if self.message_count < 0:
            raise ValueError("message_count must be non-negative")


class TrafficAccountant:
    """Accumulates :class:`TrafficRecord` entries and answers aggregate queries."""

    def __init__(self) -> None:
        self._records: List[TrafficRecord] = []
        self._bytes_by_layer: DefaultDict[LayerName, int] = defaultdict(int)
        self._bytes_by_link: DefaultDict[Tuple[str, str], int] = defaultdict(int)
        self._bytes_by_category_layer: DefaultDict[Tuple[str, LayerName], int] = defaultdict(int)
        self._messages_by_layer: DefaultDict[LayerName, int] = defaultdict(int)

    def record(self, record: TrafficRecord) -> None:
        """Add one transfer record to the ledger."""
        self._records.append(record)
        self._bytes_by_layer[record.target_layer] += record.size_bytes
        self._bytes_by_link[(record.source, record.target)] += record.size_bytes
        self._messages_by_layer[record.target_layer] += record.message_count
        if record.category is not None:
            self._bytes_by_category_layer[(record.category, record.target_layer)] += record.size_bytes

    def record_transfer(
        self,
        timestamp: float,
        source: str,
        target: str,
        target_layer: LayerName,
        size_bytes: int,
        message_count: int = 1,
        category: Optional[str] = None,
    ) -> TrafficRecord:
        """Convenience wrapper building and recording a :class:`TrafficRecord`."""
        record = TrafficRecord(
            timestamp=timestamp,
            source=source,
            target=target,
            target_layer=target_layer,
            size_bytes=size_bytes,
            message_count=message_count,
            category=category,
        )
        self.record(record)
        return record

    # ------------------------------------------------------------------ #
    # Aggregate queries
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[TrafficRecord]:
        return list(self._records)

    def records_since(self, start: int) -> List[TrafficRecord]:
        """The records made after the first *start* ones, without copying the rest."""
        return self._records[start:]

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self._records)

    def bytes_into_layer(self, layer: LayerName) -> int:
        """Total bytes delivered *into* nodes of the given layer."""
        return self._bytes_by_layer[layer]

    def messages_into_layer(self, layer: LayerName) -> int:
        return self._messages_by_layer[layer]

    def bytes_on_link(self, source: str, target: str) -> int:
        return self._bytes_by_link[(source, target)]

    def bytes_by_category(self, layer: Optional[LayerName] = None) -> Dict[str, int]:
        """Bytes per category, optionally restricted to one destination layer."""
        result: Dict[str, int] = {}
        for (category, record_layer), size in self._bytes_by_category_layer.items():
            if layer is not None and record_layer != layer:
                continue
            result[category] = result.get(category, 0) + size
        return result

    def bytes_into_node(self, node_id: str) -> int:
        return sum(size for (_, target), size in self._bytes_by_link.items() if target == node_id)

    def hourly_series(self, layer: Optional[LayerName] = None) -> Dict[int, int]:
        """Bytes per hour-of-day (0..23), optionally per destination layer."""
        series: DefaultDict[int, int] = defaultdict(int)
        for record in self._records:
            if layer is not None and record.target_layer != layer:
                continue
            hour = int(record.timestamp // 3600) % 24
            series[hour] += record.size_bytes
        return dict(series)

    def peak_hour(self, layer: Optional[LayerName] = None) -> Optional[int]:
        """Hour of day with the most bytes, or ``None`` when no traffic."""
        series = self.hourly_series(layer)
        if not series:
            return None
        return max(series.items(), key=lambda item: (item[1], -item[0]))[0]

    def layer_report(self) -> Dict[str, int]:
        """Bytes into each layer; the core comparison of the paper."""
        return {layer.value: self._bytes_by_layer[layer] for layer in LayerName}

    def reset(self) -> None:
        """Discard all accumulated records."""
        self._records.clear()
        self._bytes_by_layer.clear()
        self._bytes_by_link.clear()
        self._bytes_by_category_layer.clear()
        self._messages_by_layer.clear()
