"""The cloud's permanent archive.

The data-preservation block of the SCC-DLC model runs mainly at the cloud
layer: data classification (organise and order before storing, with
versioning / lineage / provenance), data archive (short- and long-term
storage), and data dissemination (publish data for public or private access
under the city's protection and privacy policies).  This module implements
the archive and dissemination pieces; classification lives in
:mod:`repro.dlc.preservation` and writes into the archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.common.errors import StorageError, ValidationError
from repro.sensors.readings import ReadingBatch


class AccessLevel(str, Enum):
    """Visibility of an archived dataset (data-dissemination phase)."""

    PUBLIC = "public"
    PRIVATE = "private"
    RESTRICTED = "restricted"


@dataclass(frozen=True)
class DisseminationPolicy:
    """Access policy attached to archived datasets.

    ``allowed_consumers`` only matters for non-public levels; an empty list
    means nobody besides the owning provider can read the dataset.
    """

    access_level: AccessLevel = AccessLevel.PUBLIC
    allowed_consumers: Sequence[str] = field(default_factory=tuple)
    anonymize: bool = False

    def __post_init__(self) -> None:
        # Snapshot the consumer list: a frozen policy holding a
        # caller-owned list is not frozen at all — mutating the list after
        # archive() would silently change access control.
        object.__setattr__(self, "allowed_consumers", tuple(self.allowed_consumers))

    def permits(self, consumer: str) -> bool:
        """May *consumer* read a dataset under this policy?"""
        if self.access_level == AccessLevel.PUBLIC:
            return True
        return consumer in self.allowed_consumers


@dataclass(frozen=True)
class ArchiveEntry:
    """One immutable archived version of a dataset."""

    dataset: str
    version: int
    batch: ReadingBatch
    archived_at: float
    lineage: Sequence[str] = field(default_factory=tuple)
    provenance: Dict[str, str] = field(default_factory=dict)
    policy: DisseminationPolicy = field(default_factory=DisseminationPolicy)
    expiry: Optional[float] = None

    def __post_init__(self) -> None:
        # Same aliasing hazard as DisseminationPolicy: lineage and
        # provenance must not track caller-side mutations of the sequences
        # they were built from.
        object.__setattr__(self, "lineage", tuple(self.lineage))
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def size_bytes(self) -> int:
        return self.batch.total_bytes

    @property
    def reading_count(self) -> int:
        return len(self.batch)

    def expired(self, now: float) -> bool:
        return self.expiry is not None and now >= self.expiry


class CloudArchive:
    """Permanent, versioned dataset storage at the cloud layer.

    Datasets are named (typically ``<category>/<day>``); each call to
    :meth:`archive` creates a new immutable version carrying lineage (the ids
    of the fog nodes the data came through) and provenance metadata.

    Archived batches are stored columnar (see
    :class:`~repro.sensors.readings.ReadingBatch`): archiving snapshots the
    column lists — nine bulk copies, never one object per reading — and
    dissemination materializes readings only when a consumer iterates them.
    """

    def __init__(self, name: str = "cloud-archive") -> None:
        self.name = name
        self._entries: Dict[str, List[ArchiveEntry]] = {}
        self._archived_bytes = 0
        # Per-dataset monotonic version counter.  Deriving the next version
        # from len(versions) reissues live (or previously issued) version
        # numbers once purge_expired has removed entries; this counter only
        # ever grows, surviving purges and whole-dataset removal.
        self._next_version: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def archive(
        self,
        dataset: str,
        batch: ReadingBatch,
        archived_at: float,
        lineage: Sequence[str] = (),
        provenance: Optional[Dict[str, str]] = None,
        policy: Optional[DisseminationPolicy] = None,
        expiry: Optional[float] = None,
    ) -> ArchiveEntry:
        """Store a new version of *dataset*; returns the created entry."""
        if not dataset:
            raise ValidationError("dataset name must be non-empty")
        versions = self._entries.setdefault(dataset, [])
        version = self._next_version.get(dataset, 0) + 1
        self._next_version[dataset] = version
        entry = ArchiveEntry(
            dataset=dataset,
            version=version,
            batch=batch.copy(),
            archived_at=archived_at,
            lineage=tuple(lineage),
            provenance=dict(provenance or {}),
            policy=policy if policy is not None else DisseminationPolicy(),
            expiry=expiry,
        )
        versions.append(entry)
        self._archived_bytes += entry.size_bytes
        return entry

    # ------------------------------------------------------------------ #
    # Reading / dissemination
    # ------------------------------------------------------------------ #
    def datasets(self) -> List[str]:
        return sorted(self._entries.keys())

    def _stored_versions(self, dataset: str) -> List[ArchiveEntry]:
        """The dataset's live version list itself (never empty; do not mutate)."""
        try:
            return self._entries[dataset]
        except KeyError as exc:
            raise StorageError(f"unknown dataset: {dataset!r}") from exc

    def versions(self, dataset: str) -> List[ArchiveEntry]:
        return list(self._stored_versions(dataset))

    def latest(self, dataset: str) -> ArchiveEntry:
        return self._stored_versions(dataset)[-1]

    def get(self, dataset: str, version: int) -> ArchiveEntry:
        matches = [entry for entry in self._stored_versions(dataset) if entry.version == version]
        if len(matches) > 1:
            raise StorageError(
                f"dataset {dataset!r} holds {len(matches)} entries for version "
                f"{version}; the archive index is corrupt"
            )
        if matches:
            return matches[0]
        raise StorageError(f"dataset {dataset!r} has no version {version}")

    def read(self, dataset: str, consumer: str, version: Optional[int] = None) -> ReadingBatch:
        """Dissemination endpoint: read a dataset subject to its access policy."""
        entry = self.latest(dataset) if version is None else self.get(dataset, version)
        if not entry.policy.permits(consumer):
            raise StorageError(
                f"consumer {consumer!r} is not permitted to read dataset {dataset!r} "
                f"(access level {entry.policy.access_level.value})"
            )
        if entry.policy.anonymize:
            # Column-wise anonymization: copy the columns and rewrite only
            # the tag column (equivalent to per-reading ``with_tags``).
            columns = entry.batch.columns.copy()
            columns.tags = [
                {**tags, "anonymized": True} if tags else {"anonymized": True}
                for tags in columns.tags
            ]
            return ReadingBatch.from_columns(columns)
        return entry.batch.copy()

    def lineage_of(self, dataset: str, version: Optional[int] = None) -> Sequence[str]:
        entry = self.latest(dataset) if version is None else self.get(dataset, version)
        return entry.lineage

    # ------------------------------------------------------------------ #
    # Expiry / accounting
    # ------------------------------------------------------------------ #
    def purge_expired(self, now: float) -> int:
        """Remove expired versions (data-destruction step); returns count removed."""
        removed = 0
        for dataset in list(self._entries.keys()):
            kept = []
            for entry in self._entries[dataset]:
                if entry.expired(now):
                    self._archived_bytes -= entry.size_bytes
                    removed += 1
                else:
                    kept.append(entry)
            if kept:
                self._entries[dataset] = kept
            else:
                del self._entries[dataset]
        return removed

    @property
    def archived_bytes(self) -> int:
        return self._archived_bytes

    def total_versions(self) -> int:
        return sum(len(v) for v in self._entries.values())
