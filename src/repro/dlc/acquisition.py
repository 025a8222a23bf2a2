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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.aggregation.redundancy import RedundantDataElimination
from repro.dlc.model import BlockResult, LifeCycleBlock, Phase, PhaseResult
from repro.dlc.quality import QualityAssessor, QualityPolicy, QualityReport
from repro.sensors.catalog import SensorCatalog
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns


#: Tag keys the fused paths assign themselves; a static tag of the same name
#: must win, which the copy-then-assign tag template cannot express.
_TEMPLATE_KEYS = frozenset(("quality_score", "collected_at", "city", "category"))

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
        fog_node_resolver: Optional[Callable[[Reading], Optional[str]]] = None,
        fog_node_id: Optional[str] = None,
    ) -> None:
        self.city_name = city_name
        self.static_tags = dict(static_tags or {})
        self._fog_node_resolver = fog_node_resolver
        #: Constant fog node to assign to readings that arrive unassigned.
        #: Fog layer-1 nodes use this instead of a resolver callable: a
        #: constant lets the fused columnar path tag whole batches without
        #: materializing a ``Reading`` per row for the callback.
        self.fog_node_id = fog_node_id

    def _resolve_fog_node(self, reading: Reading) -> Optional[str]:
        if self.fog_node_id is not None:
            return self.fog_node_id
        if self._fog_node_resolver is not None:
            return self._fog_node_resolver(reading)
        return None

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, PhaseResult]:
        output = ReadingBatch()
        for reading in batch:
            tags: Dict[str, object] = {
                "collected_at": now,
                "city": self.city_name,
                "category": reading.category,
                **self.static_tags,
            }
            if reading.fog_node_id is None:
                fog_node = self._resolve_fog_node(reading)
                if fog_node is not None:
                    reading = reading.with_fog_node(fog_node)
            if reading.fog_node_id is not None:
                tags["fog_node"] = reading.fog_node_id
            output.append(reading.with_tags(**tags))
        result = self._result(batch, output, tagged=len(output))
        return output, result


class AcquisitionBlock(LifeCycleBlock):
    """The complete acquisition block: collection → filtering → quality → description.

    The hot path is *fused and columnar*: one loop over the batch's columns
    performs redundant-data elimination (when the filter is the paper's
    default batch-scope technique), scores each row with the inlined quality
    checks, builds its final tag dict once, and writes admitted rows straight
    into the output columns — no per-reading ``Reading`` objects are created
    anywhere in the block.  The fusion is behaviour-preserving — the
    per-phase results, tag contents/order and the quality report are
    identical to running the phases sequentially — and is bypassed
    automatically when a phase (or the quality assessor) has been
    subclassed or a non-default aggregator is configured.

    :meth:`run` is the one general path (penalties, rejections, custom
    phases, assessors and resolvers).  :func:`acquire_round` acquires a
    whole multi-node round at once when the round is *clean* — every
    involved block in the default configuration and every row provably
    scoring 1.0 — with outcomes identical to calling :meth:`run` per node;
    which of the two runs is decided by the round's own content, never by
    an option.
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

    def _fuses_dedup(self) -> bool:
        """Whether the filter is the paper's default batch-scope redundant-data
        elimination, which fuses into the quality/description pass."""
        aggregator = self.filtering.aggregator
        return (
            type(self.filtering) is DataFilteringPhase
            and type(aggregator) is RedundantDataElimination
            and aggregator.scope == "batch"
        )

    def _fuses_whole_rounds(self) -> bool:
        """Whether :func:`acquire_round` may stand in for :meth:`run` here.

        The default fog layer-1 configuration exactly: nothing subclassed,
        no collection sources, the fused batch-scope dedup, a constant fog
        node and static tags the tag template can carry.
        """
        description = self.description
        return (
            type(self) is AcquisitionBlock
            and type(self.collection) is DataCollectionPhase
            and not self.collection._sources
            and self._fuses_dedup()
            and type(self.quality) is DataQualityPhase
            and type(self.quality.assessor) is QualityAssessor
            and type(description) is DataDescriptionPhase
            and description.fog_node_id is not None
            and _TEMPLATE_KEYS.isdisjoint(description.static_tags)
        )

    def run(self, batch: ReadingBatch, now: float) -> tuple[ReadingBatch, BlockResult]:
        if type(self.quality) is not DataQualityPhase or type(self.description) is not DataDescriptionPhase:
            return super().run(batch, now)
        result = BlockResult(block_name=self.name)
        current, phase_result = self.collection.run(batch, now)
        result.phase_results.append(phase_result)
        # The paper's default fog layer-1 filter — batch-scope redundant
        # data elimination — fuses into the quality/description loop as an
        # inline dedup-key check, so the batch is traversed once instead of
        # twice and no intermediate column set is built.  Any other
        # aggregator (pipelines, other techniques, subclasses) runs through
        # its own phase unchanged.
        if self._fuses_dedup():
            output, filter_result, quality_result, description_result = self._run_fused(
                current, now, dedup=True
            )
            result.phase_results.append(filter_result)
        else:
            current, phase_result = self.filtering.run(current, now)
            result.phase_results.append(phase_result)
            output, _, quality_result, description_result = self._run_fused(current, now, dedup=False)
        result.phase_results.append(quality_result)
        result.phase_results.append(description_result)
        return output, result

    def _tag_template(self, now: float) -> Optional[Dict[str, object]]:
        """The tag dict shared by rows that arrive without tags and score 1.0.

        Key order matches the sequential phases: quality_score,
        collected_at, city, category, static tags (``fog_node`` is assigned
        after the copy).  ``None`` when a static tag shadows a built-in key:
        assign-after-copy would win where the sequential phases let the
        static tag win, so such blocks build every row's tags key by key.
        """
        static_tags = self.description.static_tags
        if not _TEMPLATE_KEYS.isdisjoint(static_tags):
            return None
        template: Dict[str, object] = {
            "quality_score": 1.0,
            "collected_at": now,
            "city": self.description.city_name,
            "category": None,
        }
        template.update(static_tags)
        return template

    def _fused_results(
        self,
        offered: int,
        offered_bytes: int,
        deduplicated: int,
        deduplicated_bytes: int,
        admitted: int,
        admitted_bytes: int,
        report: QualityReport,
    ) -> tuple[PhaseResult, PhaseResult, PhaseResult]:
        """The filter / quality / description results of one fused pass.

        *offered* rows entered the filter, *deduplicated* left it for the
        quality phase, *admitted* passed quality and were tagged.
        """
        filter_result = PhaseResult(
            self.filtering.name,
            offered,
            deduplicated,
            offered_bytes,
            deduplicated_bytes,
            {"technique": "redundant_data_elimination", "bytes_after_encoding": None},
        )
        quality_result = PhaseResult(
            self.quality.name,
            deduplicated,
            admitted,
            deduplicated_bytes,
            admitted_bytes,
            {
                "admitted": report.admitted,
                "rejected": report.rejected,
                "mean_score": round(report.mean_score, 3),
                "rejection_reasons": dict(report.rejection_reasons),
            },
        )
        description_result = PhaseResult(
            self.description.name, admitted, admitted, admitted_bytes, admitted_bytes, {"tagged": admitted}
        )
        return filter_result, quality_result, description_result

    def _run_fused(
        self, batch: ReadingBatch, now: float, dedup: bool
    ) -> tuple[ReadingBatch, Optional[PhaseResult], PhaseResult, PhaseResult]:
        quality = self.quality
        description = self.description
        assessor = quality.assessor
        resolver = description._fog_node_resolver
        constant_fog = description.fog_node_id
        static_tags = description.static_tags
        city_name = description.city_name
        seen: set = set()
        seen_add = seen.add
        dedup_removed = 0
        dedup_removed_bytes = 0
        # Tag template for rows that arrive without tags (the norm for raw
        # sensor streams): one dict copy + three assignments per row instead
        # of building the dict key by key.
        tag_template = self._tag_template(now)
        # Tag-dict memo for template-eligible rows: all rows of a batch that
        # share (score, category, fog node) get the *same* tag dict object —
        # one dict build per distinct combination per batch instead of one
        # per admitted row.  Sharing is safe for the same reason the store's
        # scalar interning is: tags are written once here and treated as
        # immutable downstream (mutating a materialized reading's tag dict
        # in place was never supported — ``Reading.with_tags`` copies).
        shared_tags: Dict[tuple, Dict[str, object]] = {}
        shared_tags_get = shared_tags.get
        report = QualityReport()
        scores_append = report.scores.append
        record_rejection = report.record_rejection
        # Scoring state bound once per batch.  The loop below inlines
        # QualityAssessor.score_fields with the exact same checks and float
        # expressions (the assessor method stays the reference
        # implementation for per-reading callers and custom phases).
        policy = assessor.policy
        reject_non_numeric = policy.reject_non_numeric
        max_future_skew_s = policy.max_future_skew_s
        max_age_s = policy.max_age_s
        minimum_score = policy.minimum_score
        catalog = assessor.catalog
        # A subclassed assessor may override score(); honour it by scoring a
        # materialized reading per row instead of the inlined checks.
        custom_score = None if type(assessor) is QualityAssessor else assessor.score
        # sensor_type -> (low, high, low - span, high + span), or None when
        # the type is not in the catalog.
        range_cache: Dict[str, Optional[tuple]] = {}
        # Column-wise fused loop: score each row from its columns, build its
        # final tag dict once, and emit the admitted row straight into the
        # output columns — no per-reading frozen-dataclass copies at all.
        columns = batch.columns
        out = ReadingColumns()
        # Bound column appends: the loop writes each admitted row straight
        # into the output columns without a per-row method call.
        out_ids = out.sensor_ids.append
        out_types = out.sensor_types.append
        out_cats = out.categories.append
        out_values = out.values.append
        out_tss = out.timestamps.append
        out_fogs = out.fog_node_ids.append
        out_sizes = out.sizes.append
        out_seqs = out.sequences.append
        out_tags = out.tags.append
        admitted_bytes_total = 0
        assessed = 0
        for sensor_id, sensor_type, category, value, timestamp, fog_node_id, size, sequence, row_tags in zip(
            columns.sensor_ids,
            columns.sensor_types,
            columns.categories,
            columns.values,
            columns.timestamps,
            columns.fog_node_ids,
            columns.sizes,
            columns.sequences,
            columns.tags,
        ):
            if dedup:
                key = (sensor_id, sensor_type, value)
                if key in seen:
                    dedup_removed += 1
                    dedup_removed_bytes += size
                    continue
                seen_add(key)
            if custom_score is not None:
                score, reason = custom_score(
                    Reading(
                        sensor_id=sensor_id,
                        sensor_type=sensor_type,
                        category=category,
                        value=value,
                        timestamp=timestamp,
                        fog_node_id=fog_node_id,
                        size_bytes=size,
                        sequence=sequence,
                        tags=row_tags if row_tags is not None else {},
                    ),
                    now,
                )
            else:
                # --- inlined QualityAssessor.score_fields --------------- #
                score = 1.0
                reason = None
                value_is_numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not value_is_numeric:
                    if reject_non_numeric:
                        score, reason = 0.0, "non_numeric_value"
                    else:
                        score -= 0.4
                if reason is None:
                    if timestamp - timestamp != 0:  # NaN or ±inf
                        score, reason = 0.0, "non_finite_timestamp"
                    elif timestamp > now + max_future_skew_s:
                        score, reason = 0.0, "timestamp_in_future"
                    else:
                        if now - timestamp > max_age_s:
                            score -= 0.3
                        if not sensor_id or not sensor_type:
                            score, reason = 0.0, "missing_identity"
                        elif catalog is not None and value_is_numeric:
                            bounds = range_cache.get(sensor_type, range_cache)
                            if bounds is range_cache:  # cache miss sentinel
                                if sensor_type in catalog:
                                    low, high = catalog.get(sensor_type).value_range
                                    span = high - low
                                    bounds = (low, high, low - span, high + span)
                                else:
                                    bounds = None
                                range_cache[sensor_type] = bounds
                            if bounds is not None:
                                low, high, hard_low, hard_high = bounds
                                float_value = float(value)
                                if float_value < hard_low or float_value > hard_high:
                                    score, reason = 0.0, "value_out_of_range"
                                elif not low <= float_value <= high:
                                    score -= 0.3
                        if reason is None:
                            score = max(0.0, min(1.0, score))
                            if score < minimum_score:
                                reason = "below_minimum_score"
                # -------------------------------------------------------- #
            assessed += 1
            scores_append(score)
            if reason is not None:
                record_rejection(reason)
                continue
            if fog_node_id is None:
                if constant_fog is not None:
                    fog_node_id = constant_fog
                elif resolver is not None:
                    # Compatibility path for callable resolvers: materialize
                    # this row so the callback sees a real Reading.
                    fog_node_id = resolver(
                        Reading(
                            sensor_id=sensor_id,
                            sensor_type=sensor_type,
                            category=category,
                            value=value,
                            timestamp=timestamp,
                            fog_node_id=None,
                            size_bytes=size,
                            sequence=sequence,
                            tags=row_tags if row_tags is not None else {},
                        )
                    )
            # Tag insertion order matches the sequential phases exactly:
            # original tags, quality_score, then the description tags.
            quality_score = 1.0 if score == 1.0 else round(score, 3)
            if not row_tags and tag_template is not None:
                memo_key = (quality_score, category, fog_node_id)
                tags = shared_tags_get(memo_key)
                if tags is None:
                    tags = dict(tag_template)
                    if quality_score != 1.0:
                        tags["quality_score"] = quality_score
                    tags["category"] = category
                    if fog_node_id is not None:
                        tags["fog_node"] = fog_node_id
                    shared_tags[memo_key] = tags
            else:
                tags = dict(row_tags) if row_tags else {}
                tags["quality_score"] = quality_score
                tags["collected_at"] = now
                tags["city"] = city_name
                tags["category"] = category
                if static_tags:
                    tags.update(static_tags)
                if fog_node_id is not None:
                    tags["fog_node"] = fog_node_id
            out_ids(sensor_id)
            out_types(sensor_type)
            out_cats(category)
            out_values(value)
            out_tss(timestamp)
            out_fogs(fog_node_id)
            out_sizes(size)
            out_seqs(sequence)
            out_tags(tags)
            admitted_bytes_total += size
        out._total_bytes = admitted_bytes_total
        report.assessed = assessed
        report.admitted = len(out)
        output = ReadingBatch.from_columns(out)
        quality.last_report = report
        filter_result, quality_result, description_result = self._fused_results(
            len(batch),
            batch.total_bytes,
            len(batch) - dedup_removed,
            batch.total_bytes - dedup_removed_bytes,
            len(output),
            output.total_bytes,
            report,
        )
        return output, filter_result if dedup else None, quality_result, description_result


def acquire_round(
    blocks: Sequence[AcquisitionBlock],
    columns: ReadingColumns,
    ranks: Sequence[int],
    now: float,
) -> Optional[List[Tuple[ReadingBatch, BlockResult]]]:
    """Acquire one routed round for all its fog nodes at once, if it is *clean*.

    Row *i* of *columns* belongs to ``blocks[ranks[i]]``; all rows of one
    sensor id must share a rank (true of anything routed by sensor id), so
    that round-wide first occurrence of a dedup key is its first occurrence
    at its node.  Returns, per block, exactly the ``(acquired, result)`` that
    ``block.run`` returns for that block's rows in their original order —
    same rows, tag dict contents, key order and sharing (one dict per node
    and category), phase results and ``quality.last_report`` — or ``None``,
    having touched nothing, when the round is not clean and the caller must
    run each block's row loop instead.

    A round is clean when every block is the default fused configuration
    (:meth:`AcquisitionBlock._fuses_whole_rounds`) with one shared quality
    policy and catalog, and every row scores exactly 1.0 on the template-tag
    path: the value is exactly a ``float`` inside its type's catalog range
    (a NaN is inside no range), id and type are non-empty, the row carries
    no tags and no fog node yet, and its timestamp is finite, not past
    ``now + max_future_skew_s`` and not older than ``max_age_s``.  Every test is
    a C-level pass over a column.  Penalised, rejected or pre-tagged rows
    are what the row loop is for.

    *columns* is only read: the survivors are gathered into new columns.
    """
    if not blocks:
        return []
    if not all(block._fuses_whole_rounds() for block in blocks):
        return None
    assessor = blocks[0].quality.assessor
    policy, catalog = assessor.policy, assessor.catalog
    for block in blocks:
        other = block.quality.assessor
        if other.catalog is not catalog or other.policy != policy:
            return None

    count = len(columns)
    sensor_ids, sensor_types, values = columns.sensor_ids, columns.sensor_types, columns.values
    timestamps = columns.timestamps
    if (
        set(map(type, values)) != {float}
        or not all(sensor_ids)
        or not all(sensor_types)
        or any(columns.tags)
        or columns.fog_node_ids.count(None) != count
    ):
        return None
    # min()/max() are order-dependent around a NaN; a sum is NaN if any term is.
    timestamp_sum = sum(timestamps)
    if (
        timestamp_sum != timestamp_sum
        or max(timestamps) > now + policy.max_future_skew_s
        or now - min(timestamps) > policy.max_age_s
    ):
        return None
    if catalog is not None:
        low_of: Dict[str, float] = {}
        high_of: Dict[str, float] = {}
        for sensor_type in set(sensor_types):
            low_of[sensor_type], high_of[sensor_type] = (
                catalog.get(sensor_type).value_range if sensor_type in catalog else _UNBOUNDED
            )
        if not (
            all(map(le, map(low_of.__getitem__, sensor_types), values))
            and all(map(le, values, map(high_of.__getitem__, sensor_types)))
        ):
            return None

    # Batch-scope dedup for the whole round: zipping the keys in reverse
    # leaves each key mapped to its first row.
    keys = zip(reversed(sensor_ids), reversed(sensor_types), reversed(values))
    first_row = dict(zip(keys, reversed(range(count))))
    node_major = sorted(range(count), key=ranks.__getitem__)
    survivors = list(filter(set(first_row.values()).__contains__, node_major))
    offered_rows = Counter(ranks)
    offered_sizes = list(map(columns.sizes.__getitem__, node_major))
    kept_rows = Counter(map(ranks.__getitem__, survivors))
    kept = columns.gather(survivors).split(kept_rows[rank] for rank in range(len(blocks)))

    outcomes = []
    offered_start = 0
    for rank, (block, out) in enumerate(zip(blocks, kept)):
        offered = offered_rows[rank]
        offered_bytes = sum(offered_sizes[offered_start:offered_start + offered])
        offered_start += offered
        admitted = len(out)
        node_id = block.description.fog_node_id
        out.fog_node_ids = [node_id] * admitted
        template = block._tag_template(now)
        tags_of = {}
        for category in set(out.categories):
            tags = tags_of[category] = dict(template)
            tags["category"] = category
            tags["fog_node"] = node_id
        out.tags = list(map(tags_of.__getitem__, out.categories))
        admitted_bytes = out.total_bytes
        report = QualityReport(assessed=admitted, admitted=admitted, scores=[1.0] * admitted)
        block.quality.last_report = report
        collection_result = PhaseResult(
            block.collection.name,
            offered,
            offered,
            offered_bytes,
            offered_bytes,
            {"pulled_from_sources": 0, "source_count": 0},
        )
        fused_results = block._fused_results(
            offered, offered_bytes, admitted, admitted_bytes, admitted, admitted_bytes, report
        )
        result = BlockResult(block.name, [collection_result, *fused_results])
        outcomes.append((ReadingBatch.from_columns(out), result))
    return outcomes
