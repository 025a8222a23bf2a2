"""Tests for the cloud archive (versioning, lineage, dissemination)."""

import pytest

from repro.common.errors import StorageError, ValidationError
from repro.sensors.readings import ReadingBatch
from repro.storage.archive import AccessLevel, ArchiveEntry, CloudArchive, DisseminationPolicy
from tests.conftest import make_reading


def batch_of(count=3, **kwargs):
    return ReadingBatch([make_reading(sensor_id=f"s{i}", **kwargs) for i in range(count)])


@pytest.fixture()
def archive():
    return CloudArchive()


class TestVersioning:
    def test_versions_increment(self, archive):
        first = archive.archive("energy/day-0", batch_of(), archived_at=0.0)
        second = archive.archive("energy/day-0", batch_of(), archived_at=1.0)
        assert (first.version, second.version) == (1, 2)
        assert archive.latest("energy/day-0").version == 2

    def test_latest_is_the_last_archived_entry_and_survives_purge(self, archive):
        entries = [
            archive.archive("d", batch_of(1), archived_at=float(i), expiry=10.0 if i % 2 else None)
            for i in range(9)
        ]
        for count, entry in enumerate(entries, start=1):
            assert entry.version == count
        assert archive.latest("d") is entries[-1]
        # latest() reads the stored list; versions() still hands out a copy.
        handed_out = archive.versions("d")
        handed_out.clear()
        assert archive.latest("d") is entries[-1]
        assert archive.purge_expired(now=20.0) == 4
        assert archive.latest("d") is entries[-1]
        assert [entry.version for entry in archive.versions("d")] == [1, 3, 5, 7, 9]
        last = archive.archive("d", batch_of(1), archived_at=30.0, expiry=40.0)
        assert archive.latest("d") is last
        archive.purge_expired(now=50.0)
        assert archive.latest("d") is entries[-1]

    def test_get_specific_version(self, archive):
        archive.archive("d", batch_of(1), archived_at=0.0)
        archive.archive("d", batch_of(5), archived_at=1.0)
        assert archive.get("d", 1).reading_count == 1
        with pytest.raises(StorageError):
            archive.get("d", 3)

    def test_unknown_dataset(self, archive):
        with pytest.raises(StorageError):
            archive.versions("missing")

    def test_empty_dataset_name_rejected(self, archive):
        with pytest.raises(ValidationError):
            archive.archive("", batch_of(), archived_at=0.0)

    def test_archived_batch_is_a_copy(self, archive):
        batch = batch_of(2)
        archive.archive("d", batch, archived_at=0.0)
        batch.append(make_reading(sensor_id="late"))
        assert archive.latest("d").reading_count == 2

    def test_datasets_sorted(self, archive):
        archive.archive("b", batch_of(), archived_at=0.0)
        archive.archive("a", batch_of(), archived_at=0.0)
        assert archive.datasets() == ["a", "b"]

    def test_accounting(self, archive):
        archive.archive("d", batch_of(2, size_bytes=10), archived_at=0.0)
        archive.archive("d", batch_of(3, size_bytes=10), archived_at=1.0)
        assert archive.archived_bytes == 50
        assert archive.total_versions() == 2


class TestLineageAndProvenance:
    def test_lineage_recorded(self, archive):
        archive.archive("d", batch_of(), archived_at=0.0, lineage=("fog2/district-01",))
        assert archive.lineage_of("d") == ("fog2/district-01",)

    def test_provenance_stored(self, archive):
        entry = archive.archive("d", batch_of(), archived_at=0.0, provenance={"source": "sentilo"})
        assert entry.provenance["source"] == "sentilo"


class TestDissemination:
    def test_public_readable_by_anyone(self, archive):
        archive.archive("d", batch_of(), archived_at=0.0)
        assert len(archive.read("d", consumer="random-citizen")) == 3

    def test_private_requires_allowlist(self, archive):
        policy = DisseminationPolicy(access_level=AccessLevel.PRIVATE, allowed_consumers=("police",))
        archive.archive("d", batch_of(), archived_at=0.0, policy=policy)
        assert len(archive.read("d", consumer="police")) == 3
        with pytest.raises(StorageError):
            archive.read("d", consumer="random-citizen")

    def test_anonymised_read_tags_readings(self, archive):
        policy = DisseminationPolicy(access_level=AccessLevel.PUBLIC, anonymize=True)
        archive.archive("d", batch_of(), archived_at=0.0, policy=policy)
        batch = archive.read("d", consumer="anyone")
        assert all(reading.tags.get("anonymized") for reading in batch)

    def test_read_specific_version(self, archive):
        archive.archive("d", batch_of(1), archived_at=0.0)
        archive.archive("d", batch_of(4), archived_at=1.0)
        assert len(archive.read("d", consumer="x", version=1)) == 1


class TestExpiry:
    def test_purge_expired_versions(self, archive):
        archive.archive("short-lived", batch_of(), archived_at=0.0, expiry=10.0)
        archive.archive("permanent", batch_of(), archived_at=0.0)
        removed = archive.purge_expired(now=20.0)
        assert removed == 1
        assert archive.datasets() == ["permanent"]

    def test_not_yet_expired_kept(self, archive):
        archive.archive("d", batch_of(), archived_at=0.0, expiry=100.0)
        assert archive.purge_expired(now=50.0) == 0
        assert archive.datasets() == ["d"]


class TestVersionCounterSurvivesPurge:
    """Regression: ``version = len(versions) + 1`` reissued version numbers
    after ``purge_expired`` removed entries, so two distinct archived
    batches could share a version id (and ``get`` silently returned the
    older one)."""

    def test_purged_versions_are_never_reissued(self, archive):
        archive.archive("d", batch_of(1), archived_at=0.0, expiry=10.0)
        survivor = archive.archive("d", batch_of(2), archived_at=1.0)
        assert survivor.version == 2
        assert archive.purge_expired(now=20.0) == 1
        third = archive.archive("d", batch_of(3), archived_at=30.0)
        assert third.version == 3  # not a second "version 2"
        assert [entry.version for entry in archive.versions("d")] == [2, 3]
        assert archive.get("d", 2).reading_count == 2
        assert archive.get("d", 3).reading_count == 3

    def test_counter_survives_whole_dataset_purge(self, archive):
        archive.archive("d", batch_of(1), archived_at=0.0, expiry=10.0)
        archive.archive("d", batch_of(2), archived_at=1.0, expiry=10.0)
        archive.purge_expired(now=20.0)
        assert "d" not in archive.datasets()
        revived = archive.archive("d", batch_of(3), archived_at=30.0)
        assert revived.version == 3
        with pytest.raises(StorageError):
            archive.get("d", 1)  # the purged version is gone, not reissued

    def test_get_rejects_a_corrupt_duplicate_index(self, archive):
        entry = archive.archive("d", batch_of(1), archived_at=0.0)
        # Simulate index corruption (e.g. a restored snapshot merged twice).
        archive._entries["d"].append(entry)
        with pytest.raises(StorageError, match="corrupt"):
            archive.get("d", 1)


class TestAliasingIsolation:
    """Regression: frozen policy/entry dataclasses aliased caller-owned
    mutables, so mutating the original list or dict after ``archive()``
    silently rewrote access control and lineage."""

    def test_policy_snapshots_the_consumer_list(self, archive):
        consumers = ["police"]
        policy = DisseminationPolicy(
            access_level=AccessLevel.PRIVATE, allowed_consumers=consumers
        )
        archive.archive("d", batch_of(), archived_at=0.0, policy=policy)
        consumers.append("random-citizen")  # must not widen access
        assert isinstance(policy.allowed_consumers, tuple)
        assert policy.allowed_consumers == ("police",)
        assert len(archive.read("d", consumer="police")) == 3
        with pytest.raises(StorageError):
            archive.read("d", consumer="random-citizen")

    def test_entry_snapshots_lineage_and_provenance(self):
        lineage = ["fog2/district-01"]
        provenance = {"source": "sentilo"}
        entry = ArchiveEntry(
            dataset="d",
            version=1,
            batch=batch_of(1),
            archived_at=0.0,
            lineage=lineage,
            provenance=provenance,
        )
        lineage.append("fog2/district-02")
        provenance["source"] = "tampered"
        assert entry.lineage == ("fog2/district-01",)
        assert entry.provenance == {"source": "sentilo"}

    def test_archive_call_isolates_caller_mutables_too(self, archive):
        lineage = ["fog2/district-01"]
        provenance = {"source": "sentilo"}
        archive.archive(
            "d", batch_of(), archived_at=0.0, lineage=lineage, provenance=provenance
        )
        lineage.clear()
        provenance.clear()
        assert archive.lineage_of("d") == ("fog2/district-01",)
        assert archive.latest("d").provenance == {"source": "sentilo"}


class TestExpiryAccountingEdges:
    def test_archived_bytes_through_interleaved_archive_and_purge(self, archive):
        archive.archive("a", batch_of(2, size_bytes=10), archived_at=0.0, expiry=10.0)
        archive.archive("a", batch_of(3, size_bytes=10), archived_at=1.0)
        archive.archive("b", batch_of(1, size_bytes=10), archived_at=2.0, expiry=5.0)
        assert archive.archived_bytes == 60
        assert archive.purge_expired(now=20.0) == 2
        assert archive.archived_bytes == 30
        archive.archive("b", batch_of(4, size_bytes=10), archived_at=30.0, expiry=40.0)
        assert archive.archived_bytes == 70
        assert archive.purge_expired(now=50.0) == 1
        assert archive.archived_bytes == 30
        assert archive.total_versions() == 1

    def test_expired_but_unpurged_version_is_still_readable(self, archive):
        """Expiry is enforced by the purge pass (data destruction), not at
        read time — an expired version stays readable until purged."""
        archive.archive("d", batch_of(2), archived_at=0.0, expiry=10.0)
        assert len(archive.read("d", consumer="x", version=1)) == 2
        assert archive.get("d", 1).expired(now=20.0)
        archive.purge_expired(now=20.0)
        with pytest.raises(StorageError):
            archive.read("d", consumer="x", version=1)

    def test_anonymized_read_does_not_mutate_stored_tags(self, archive):
        policy = DisseminationPolicy(access_level=AccessLevel.PUBLIC, anonymize=True)
        batch = ReadingBatch(
            [make_reading(sensor_id="s0", tags={"section": "s-01"}), make_reading(sensor_id="s1")]
        )
        archive.archive("d", batch, archived_at=0.0, policy=policy)
        disseminated = archive.read("d", consumer="anyone")
        assert all(reading.tags.get("anonymized") for reading in disseminated)
        # The archived copy's tag dicts are untouched — and not the same
        # objects the consumer received.
        stored = archive.latest("d").batch
        assert "anonymized" not in (stored.columns.tags[0] or {})
        assert stored.columns.tags[1] in (None, {})
        for stored_tags, out_tags in zip(stored.columns.tags, disseminated.columns.tags):
            assert stored_tags is not out_tags
