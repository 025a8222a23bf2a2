"""The data-acquisition block (runs mainly at fog layer 1).

Phases, in the order Fig. 2 prescribes:

1. **Data collection** — pull readings in from the local sources (sensors in
   the fog node's area, or messages arriving over the broker).
2. **Data filtering** — apply aggregation optimisations (redundant-data
   elimination, and optionally more) to reduce the managed volume.
3. **Data quality** — score readings and drop those below the policy's bar.
4. **Data description** — tag readings with timing, location, authoring and
   privacy metadata according to the city's business model.
"""

from __future__ import annotations

from collections import Counter
from operator import le
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.aggregation.redundancy import RedundantDataElimination
from repro.dlc.model import BlockResult, LifeCycleBlock, Phase, PhaseResult
from repro.dlc.quality import QualityAssessor, QualityPolicy, QualityReport
from repro.sensors.catalog import SensorCatalog
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns


#: Value range of a sensor type the catalog does not know: never checked.
_UNBOUNDED = (float("-inf"), float("inf"))


class DataCollectionPhase(Phase):
    """Gathers readings from registered sources into a single batch.

    Sources are callables returning an iterable of readings (e.g. "drain the
    broker inbox", "poll the local sensors").  When the phase is run as part
    of a block over an externally supplied batch, the sourced readings are
    appended to it, so both push and pull ingestion styles are supported.
    """

    name = "data_collection"

    def __init__(self, sources: Optional[Sequence[Callable[[], Iterable[Reading]]]] = None) -> None:
        self._sources = list(sources) if sources is not None else []
        self.collected_total = 0

    def add_source(self, source: Callable[[], Iterable[Reading]]) -> None:
        self._sources.append(source)

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, PhaseResult]:
        if not self._sources:
            # Nothing to pull: pass the batch through without copying it.
            return batch, self._result(batch, batch, pulled_from_sources=0, source_count=0)
        output = batch.copy()
        pulled = 0
        for source in self._sources:
            for reading in source():
                output.append(reading)
                pulled += 1
        self.collected_total += pulled
        result = self._result(batch, output, pulled_from_sources=pulled, source_count=len(self._sources))
        return output, result


class DataFilteringPhase(Phase):
    """Applies aggregation techniques to reduce the volume of managed data.

    The phase delegates to an aggregation pipeline (see
    :mod:`repro.aggregation`); by default it performs no reduction, which
    lets the acquisition block model the paper's *centralized* baseline where
    raw data flows straight to the cloud.
    """

    name = "data_filtering"

    def __init__(self, aggregator: Optional[object] = None) -> None:
        # ``aggregator`` is anything exposing ``apply(batch) -> AggregationResult``
        # (an AggregationTechnique or AggregationPipeline).  Typed loosely to
        # avoid a circular import between dlc and aggregation.
        self.aggregator = aggregator

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, PhaseResult]:
        if self.aggregator is None:
            return batch, self._result(batch, batch, technique="none")
        aggregation_result = self.aggregator.apply(batch)
        output = aggregation_result.batch
        result = self._result(
            batch,
            output,
            technique=aggregation_result.technique,
            bytes_after_encoding=aggregation_result.encoded_bytes,
        )
        return output, result


class DataQualityPhase(Phase):
    """Scores readings and admits only those above the quality policy's bar."""

    name = "data_quality"

    def __init__(
        self,
        policy: Optional[QualityPolicy] = None,
        catalog: Optional[SensorCatalog] = None,
    ) -> None:
        self.assessor = QualityAssessor(policy=policy, catalog=catalog)
        self.last_report: Optional[QualityReport] = None

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, PhaseResult]:
        report = QualityReport()
        output = ReadingBatch()
        for reading in batch:
            score, reason = self.assessor.score(reading, now)
            report.assessed += 1
            report.scores.append(score)
            if reason is None:
                report.admitted += 1
                output.append(reading.with_tags(quality_score=round(score, 3)))
            else:
                report.record_rejection(reason)
        self.last_report = report
        result = self._result(
            batch,
            output,
            admitted=report.admitted,
            rejected=report.rejected,
            mean_score=round(report.mean_score, 3),
            rejection_reasons=dict(report.rejection_reasons),
        )
        return output, result


class DataDescriptionPhase(Phase):
    """Tags readings with business-model metadata.

    The paper lists timing information, location positioning, authoring and
    privacy as examples; the phase adds those tags plus any static tags the
    city configures (e.g. licence, provider).
    """

    name = "data_description"

    def __init__(
        self,
        city_name: str = "barcelona",
        static_tags: Optional[Dict[str, object]] = None,
        fog_node_id: Optional[str] = None,
    ) -> None:
        self.city_name = city_name
        self.static_tags = dict(static_tags or {})
        #: Fog node assigned to readings that arrive unassigned (a fog
        #: layer-1 node's own id); ``None`` leaves them unassigned.
        self.fog_node_id = fog_node_id

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, PhaseResult]:
        output = ReadingBatch()
        for reading in batch:
            tags: Dict[str, object] = {
                "collected_at": now,
                "city": self.city_name,
                "category": reading.category,
                **self.static_tags,
            }
            if reading.fog_node_id is None and self.fog_node_id is not None:
                reading = reading.with_fog_node(self.fog_node_id)
            if reading.fog_node_id is not None:
                tags["fog_node"] = reading.fog_node_id
            output.append(reading.with_tags(**tags))
        result = self._result(batch, output, tagged=len(output))
        return output, result


class AcquisitionBlock(LifeCycleBlock):
    """The complete acquisition block: collection → filtering → quality → description.

    A block in the default configuration (:meth:`_acquires_by_round`) is
    acquired by :func:`acquire_round` — on a one-node round when
    :meth:`run` is called on the block itself — which reproduces the
    sequential phases without a ``Reading`` per row and scores a flawed row
    alone.  Any other block runs its phases one after the other
    (:meth:`LifeCycleBlock.run`), the reference the round path is tested
    against.  The block's configuration picks the path, never its rows.
    """

    def __init__(
        self,
        collection: Optional[DataCollectionPhase] = None,
        filtering: Optional[DataFilteringPhase] = None,
        quality: Optional[DataQualityPhase] = None,
        description: Optional[DataDescriptionPhase] = None,
    ) -> None:
        self.collection = collection or DataCollectionPhase()
        self.filtering = filtering or DataFilteringPhase()
        self.quality = quality or DataQualityPhase()
        self.description = description or DataDescriptionPhase()
        super().__init__(
            name="data_acquisition",
            phases=[self.collection, self.filtering, self.quality, self.description],
        )

    def _acquires_by_round(self) -> bool:
        """Whether :func:`acquire_round` may stand in for the phases here.

        The default configuration: nothing subclassed (block, phases or
        quality assessor), no collection sources, and either no filter or
        the paper's batch-scope redundant-data elimination.
        """
        aggregator = self.filtering.aggregator
        return (
            type(self) is AcquisitionBlock
            and type(self.collection) is DataCollectionPhase
            and not self.collection._sources
            and type(self.filtering) is DataFilteringPhase
            and (
                aggregator is None
                or (type(aggregator) is RedundantDataElimination and aggregator.scope == "batch")
            )
            and type(self.quality) is DataQualityPhase
            and type(self.quality.assessor) is QualityAssessor
            and type(self.description) is DataDescriptionPhase
        )

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, BlockResult]:
        if not self._acquires_by_round():
            return super().run(batch, now)
        columns = batch.columns
        return acquire_round([self], columns, [0] * len(columns), [now])[0]


#: The verdict of a row that passed the all-clean test.
_ADMITTED = (1.0, None)


def _row_tags(
    description: DataDescriptionPhase,
    row_tags: Optional[Dict[str, object]],
    quality_score: float,
    category: str,
    fog_node_id: Optional[str],
    now: float,
) -> Dict[str, object]:
    """An admitted row's tags, key by key in the order the phases merge them.

    The row's own tags, ``quality_score`` (the quality phase), then
    ``collected_at``, ``city``, ``category``, the static tags and
    ``fog_node`` (the description phase).  A repeated key keeps its first
    position and takes its last value, as the phases' dict merges do, so a
    static tag named like a built-in one overrides it in place.
    """
    tags = {
        **(row_tags or {}),
        "quality_score": quality_score,
        "collected_at": now,
        "city": description.city_name,
        "category": category,
        **description.static_tags,
    }
    if fog_node_id is not None:
        tags["fog_node"] = fog_node_id
    return tags


def _describe_clean_rows(
    description: DataDescriptionPhase, out: ReadingColumns, now: float
) -> None:
    """Assign fog nodes and tags to *out*, whose rows all arrived untagged and
    unassigned and scored 1.0: the block's fog node, one tag dict per category."""
    fog_node_id = description.fog_node_id
    out.fog_node_ids = [fog_node_id] * len(out)
    tags_of = {
        category: _row_tags(description, None, 1.0, category, fog_node_id, now)
        for category in set(out.categories)
    }
    out.tags = list(map(tags_of.__getitem__, out.categories))


def _describe_rows(
    description: DataDescriptionPhase, out: ReadingColumns, scores: List[float], now: float
) -> None:
    """Assign fog nodes and tags to *out*, whose rows scored *scores*.

    A row without a fog node takes the block's.  Untagged rows share one tag
    dict per (quality score, category, fog node); a tagged row gets its own.
    """
    shared: Dict[tuple, Dict[str, object]] = {}
    fog_node_ids = []
    tags_column = []
    rows = zip(scores, out.categories, out.fog_node_ids, out.tags)
    for score, category, fog_node_id, row_tags in rows:
        if fog_node_id is None:
            fog_node_id = description.fog_node_id
        quality_score = round(score, 3)
        if row_tags:
            tags = _row_tags(description, row_tags, quality_score, category, fog_node_id, now)
        else:
            key = (quality_score, category, fog_node_id)
            tags = shared.get(key)
            if tags is None:
                tags = shared[key] = _row_tags(description, None, *key, now)
        fog_node_ids.append(fog_node_id)
        tags_column.append(tags)
    out.fog_node_ids = fog_node_ids
    out.tags = tags_column


def _flawed_rows(
    blocks: Sequence[AcquisitionBlock],
    columns: ReadingColumns,
    ranks: Sequence[int],
    nows: Sequence[float],
) -> Set[int]:
    """The rows of a round that the all-clean test cannot admit unscored.

    A row is clean when it provably scores exactly 1.0 and needs no tags of
    its own: its value is exactly a ``float`` inside its type's catalog
    range (a NaN is inside no range), id and type are non-empty, it carries
    no tags and no fog node yet, and its timestamp is finite, not past its
    block's ``now + max_future_skew_s`` and not older than ``max_age_s``.
    The test is made once for the whole round first, a C-level pass per
    column; only a round that fails it is tested row by row.  Blocks that
    do not share one quality policy and catalog have every row scored.
    """
    count = len(columns)
    assessor = blocks[0].quality.assessor
    policy, catalog = assessor.policy, assessor.catalog
    for block in blocks:
        other = block.quality.assessor
        if other.catalog is not catalog or other.policy != policy:
            return set(range(count))
    sensor_ids, sensor_types, values = columns.sensor_ids, columns.sensor_types, columns.values
    timestamps, tags, fog_node_ids = columns.timestamps, columns.tags, columns.fog_node_ids
    low_of: Dict[str, float] = {}
    high_of: Dict[str, float] = {}
    for sensor_type in set(sensor_types):
        low_of[sensor_type], high_of[sensor_type] = (
            catalog.get(sensor_type).value_range
            if catalog is not None and sensor_type in catalog
            else _UNBOUNDED
        )
    max_future_skew_s, max_age_s = policy.max_future_skew_s, policy.max_age_s
    # min()/max() are order-dependent around a NaN; a sum is NaN if any term is.
    timestamp_sum = sum(timestamps)
    if (
        set(map(type, values)) == {float}
        and all(sensor_ids)
        and all(sensor_types)
        and not any(tags)
        and fog_node_ids.count(None) == count
        and timestamp_sum == timestamp_sum
        and max(timestamps) <= min(nows) + max_future_skew_s
        and max(nows) - min(timestamps) <= max_age_s
        and all(map(le, map(low_of.__getitem__, sensor_types), values))
        and all(map(le, values, map(high_of.__getitem__, sensor_types)))
    ):
        return set()
    rows = enumerate(zip(sensor_ids, sensor_types, values, timestamps, tags, fog_node_ids, ranks))
    return {
        row
        for row, (sensor_id, sensor_type, value, timestamp, row_tags, fog_node_id, rank) in rows
        if not (
            type(value) is float
            and low_of[sensor_type] <= value <= high_of[sensor_type]
            and sensor_id
            and sensor_type
            and not row_tags
            and fog_node_id is None
            and timestamp <= nows[rank] + max_future_skew_s
            and nows[rank] - timestamp <= max_age_s
        )
    }


def _block_result(
    block: AcquisitionBlock,
    offered: int,
    offered_bytes: int,
    kept: int,
    kept_bytes: int,
    out: ReadingColumns,
    report: QualityReport,
) -> BlockResult:
    """The phase results the sequential phases give one block of a round.

    *offered* rows entered the block, *kept* left the filter for the
    quality phase, *out* holds the admitted, tagged ones.
    """
    admitted, admitted_bytes = len(out), out.total_bytes
    aggregator = block.filtering.aggregator
    if aggregator is None:
        filtering_details: Dict[str, object] = {"technique": "none"}
    else:
        filtering_details = {"technique": aggregator.name, "bytes_after_encoding": None}
    quality_details = {
        "admitted": report.admitted,
        "rejected": report.rejected,
        "mean_score": round(report.mean_score, 3),
        "rejection_reasons": dict(report.rejection_reasons),
    }
    collection_details = {"pulled_from_sources": 0, "source_count": 0}
    return BlockResult(
        block.name,
        [
            PhaseResult(
                block.collection.name,
                offered,
                offered,
                offered_bytes,
                offered_bytes,
                collection_details,
            ),
            PhaseResult(
                block.filtering.name, offered, kept, offered_bytes, kept_bytes, filtering_details
            ),
            PhaseResult(
                block.quality.name, kept, admitted, kept_bytes, admitted_bytes, quality_details
            ),
            PhaseResult(
                block.description.name,
                admitted,
                admitted,
                admitted_bytes,
                admitted_bytes,
                {"tagged": admitted},
            ),
        ],
    )


def acquire_round(
    blocks: Sequence[AcquisitionBlock],
    columns: ReadingColumns,
    ranks: Sequence[int],
    nows: Sequence[float],
) -> List[Tuple[ReadingBatch, BlockResult]]:
    """Acquire one routed round for all its fog nodes at once.

    Row *i* of *columns* belongs to ``blocks[ranks[i]]``, which acquires it
    at ``nows[ranks[i]]``; every block is in the default configuration
    (:meth:`AcquisitionBlock._acquires_by_round`).  Returns, per block,
    what its sequential phases (:meth:`LifeCycleBlock.run`) return for that
    block's rows in their original order — the same rows, tag contents and
    key order, phase results and ``quality.last_report``.

    Redundant-data elimination keys on ``(rank, sensor id, type, value)``,
    so duplicates are dropped per node.  In a round that passes the
    all-clean test (:func:`_flawed_rows`) every row scores 1.0 without a
    per-row step; otherwise only the rows that fail it are scored, by
    :meth:`QualityAssessor.score_fields`, and merged back in row order.
    Untagged admitted rows share one tag dict per (node, quality score,
    category, fog node); a row that arrives tagged gets a dict of its own.

    *columns* is only read: the survivors are gathered into new columns.
    """
    if not blocks:
        return []
    count = len(columns)
    sensor_ids, sensor_types, values = columns.sensor_ids, columns.sensor_types, columns.values
    node_major = sorted(range(count), key=ranks.__getitem__)
    dedups = [block.filtering.aggregator is not None for block in blocks]
    kept = range(count)
    if any(dedups):
        # Zipping the keys in reverse leaves each key mapped to its first row.
        keys = zip(reversed(ranks), reversed(sensor_ids), reversed(sensor_types), reversed(values))
        kept = set(dict(zip(keys, reversed(range(count)))).values())
        if not all(dedups):
            kept.update(row for row in range(count) if not dedups[ranks[row]])
    survivors = list(filter(kept.__contains__, node_major))
    timestamps = columns.timestamps
    scored = {
        row: blocks[ranks[row]].quality.assessor.score_fields(
            sensor_ids[row], sensor_types[row], values[row], timestamps[row], nows[ranks[row]]
        )
        for row in _flawed_rows(blocks, columns, ranks, nows)
        if row in kept
    }
    flawed_ranks = set(map(ranks.__getitem__, scored))

    offered_rows = Counter(ranks)
    kept_rows = admitted_rows = Counter(map(ranks.__getitem__, survivors))
    admitted = survivors
    if scored:
        admitted = [row for row in survivors if scored.get(row, _ADMITTED)[1] is None]
        admitted_rows = Counter(map(ranks.__getitem__, admitted))
    offered_sizes = list(map(columns.sizes.__getitem__, node_major))
    outs = columns.gather(admitted).split(admitted_rows[rank] for rank in range(len(blocks)))
    outcomes = []
    offered_start = kept_start = 0
    for rank, (block, now, out) in enumerate(zip(blocks, nows, outs)):
        offered, deduplicated = offered_rows[rank], kept_rows[rank]
        offered_bytes = sum(offered_sizes[offered_start:offered_start + offered])
        offered_start += offered
        kept_start += deduplicated
        if rank in flawed_ranks:
            block_survivors = survivors[kept_start - deduplicated:kept_start]
            report = QualityReport(assessed=deduplicated)
            admitted_scores = []
            for row in block_survivors:
                score, reason = scored.get(row, _ADMITTED)
                report.scores.append(score)
                if reason is None:
                    admitted_scores.append(score)
                else:
                    report.record_rejection(reason)
            report.admitted = len(admitted_scores)
            _describe_rows(block.description, out, admitted_scores, now)
            deduplicated_bytes = sum(map(columns.sizes.__getitem__, block_survivors))
        else:
            scores = [1.0] * deduplicated
            report = QualityReport(assessed=deduplicated, admitted=deduplicated, scores=scores)
            _describe_clean_rows(block.description, out, now)
            deduplicated_bytes = out.total_bytes
        block.quality.last_report = report
        result = _block_result(
            block, offered, offered_bytes, deduplicated, deduplicated_bytes, out, report
        )
        outcomes.append((ReadingBatch.from_columns(out), result))
    return outcomes
