"""Retention policies for fog-layer temporary storage.

The paper leaves "the amount of temporal data that can be stored at this
level" to the smart-city business model (Section IV.B).  Retention policies
encode that business decision: how long, how many readings, or how many bytes
a fog node may keep before old data must be dropped locally (it has already
been propagated upwards by the data-movement scheduler, so dropping it loses
nothing globally).

Enforcement rides on the store's eviction primitives
(:meth:`~repro.storage.timeseries.TimeSeriesStore.remove_older_than` /
``remove_oldest``).  The store keeps one time-ordered partition per
acquiring fog node, so a sweep costs one bisect and one prefix delete per
partition — a fog layer-1 store has one — and the byte/category accounting
sums the evicted prefix's size and category columns in C-level passes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.storage.timeseries import TimeSeriesStore


class RetentionPolicy(ABC):
    """Decides which stored readings a node may discard."""

    @abstractmethod
    def enforce(self, store: TimeSeriesStore, now: float) -> int:
        """Remove readings violating the policy; return how many were removed."""

    def describe(self) -> str:
        """Human-readable policy description (used in reports and examples)."""
        return self.__class__.__name__


class TtlRetention(RetentionPolicy):
    """Keep readings at most *max_age_seconds* old."""

    def __init__(self, max_age_seconds: float) -> None:
        if max_age_seconds <= 0:
            raise ConfigurationError("max_age_seconds must be positive")
        self.max_age_seconds = max_age_seconds

    def enforce(self, store: TimeSeriesStore, now: float) -> int:
        return store.remove_older_than(now - self.max_age_seconds)

    def describe(self) -> str:
        return f"TTL({self.max_age_seconds:.0f}s)"


class CountRetention(RetentionPolicy):
    """Keep at most *max_readings* readings (oldest evicted first)."""

    def __init__(self, max_readings: int) -> None:
        if max_readings <= 0:
            raise ConfigurationError("max_readings must be positive")
        self.max_readings = max_readings

    def enforce(self, store: TimeSeriesStore, now: float) -> int:
        excess = len(store) - self.max_readings
        if excess <= 0:
            return 0
        return len(store.remove_oldest(excess))

    def describe(self) -> str:
        return f"Count({self.max_readings})"


class SizeRetention(RetentionPolicy):
    """Keep at most *max_bytes* of stored readings (oldest evicted first)."""

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive")
        self.max_bytes = max_bytes

    def enforce(self, store: TimeSeriesStore, now: float) -> int:
        removed = 0
        # Evict in small batches until under the cap; each batch removes the
        # globally oldest readings.
        while store.total_bytes > self.max_bytes and len(store) > 0:
            removed += len(store.remove_oldest(max(1, len(store) // 10)))
        return removed

    def describe(self) -> str:
        return f"Size({self.max_bytes}B)"


class CompositeRetention(RetentionPolicy):
    """Apply several policies in order (all of them are enforced)."""

    def __init__(self, policies: Sequence[RetentionPolicy]) -> None:
        if not policies:
            raise ConfigurationError("CompositeRetention requires at least one policy")
        self.policies = list(policies)

    def enforce(self, store: TimeSeriesStore, now: float) -> int:
        return sum(policy.enforce(store, now) for policy in self.policies)

    def describe(self) -> str:
        return " + ".join(policy.describe() for policy in self.policies)


class KeepEverything(RetentionPolicy):
    """The cloud's policy: never discard anything (unless an expiry is set)."""

    def enforce(self, store: TimeSeriesStore, now: float) -> int:
        return 0

    def describe(self) -> str:
        return "KeepEverything"
