"""Tests for the data-acquisition block and the quality phase."""

import pytest

from repro.aggregation.redundancy import RedundantDataElimination
from repro.dlc.acquisition import (
    AcquisitionBlock,
    DataCollectionPhase,
    DataDescriptionPhase,
    DataFilteringPhase,
    DataQualityPhase,
)
from repro.dlc.model import LifeCycleBlock
from repro.dlc.quality import QualityAssessor, QualityPolicy
from repro.sensors.readings import ReadingBatch
from tests.conftest import make_reading


def batch_of(*readings):
    return ReadingBatch(readings)


class TestDataCollectionPhase:
    def test_pulls_from_sources(self):
        source = lambda: [make_reading(sensor_id="pulled")]  # noqa: E731
        phase = DataCollectionPhase(sources=[source])
        output, result = phase.run(ReadingBatch(), now=0.0)
        assert len(output) == 1
        assert result.details["pulled_from_sources"] == 1
        assert phase.collected_total == 1

    def test_appends_to_pushed_batch(self):
        phase = DataCollectionPhase(sources=[lambda: [make_reading(sensor_id="pulled")]])
        output, _ = phase.run(batch_of(make_reading(sensor_id="pushed")), now=0.0)
        assert {r.sensor_id for r in output} == {"pushed", "pulled"}

    def test_add_source(self):
        phase = DataCollectionPhase()
        phase.add_source(lambda: [make_reading()])
        output, _ = phase.run(ReadingBatch(), now=0.0)
        assert len(output) == 1


class TestDataFilteringPhase:
    def test_no_aggregator_passthrough(self):
        phase = DataFilteringPhase()
        batch = batch_of(make_reading())
        output, result = phase.run(batch, now=0.0)
        assert output is batch
        assert result.details["technique"] == "none"

    def test_with_redundancy_elimination(self):
        phase = DataFilteringPhase(aggregator=RedundantDataElimination())
        batch = batch_of(
            make_reading(sensor_id="s1", value=10.0),
            make_reading(sensor_id="s1", value=10.0),
            make_reading(sensor_id="s1", value=11.0),
        )
        output, result = phase.run(batch, now=0.0)
        assert len(output) == 2
        assert result.reduction_ratio > 0


class TestDataQualityPhase:
    def test_rejects_future_and_non_numeric(self):
        phase = DataQualityPhase()
        batch = batch_of(
            make_reading(sensor_id="ok", value=20.0, timestamp=10.0),
            make_reading(sensor_id="future", value=20.0, timestamp=10_000.0),
            make_reading(sensor_id="text", value="broken", timestamp=10.0),
        )
        output, result = phase.run(batch, now=20.0)
        assert {r.sensor_id for r in output} == {"ok"}
        assert result.details["rejected"] == 2
        assert phase.last_report.rejection_reasons["timestamp_in_future"] == 1

    @pytest.mark.parametrize("timestamp", [float("nan"), float("-inf"), float("inf")], ids=repr)
    def test_rejects_non_finite_timestamps(self, timestamp):
        phase = DataQualityPhase()
        batch = batch_of(
            make_reading(sensor_id="ok", value=20.0, timestamp=10.0),
            make_reading(sensor_id="broken", value=20.0, timestamp=timestamp),
        )
        output, _ = phase.run(batch, now=20.0)
        assert [r.sensor_id for r in output] == ["ok"]
        assert phase.last_report.rejection_reasons == {"non_finite_timestamp": 1}

    def test_admitted_readings_tagged_with_score(self):
        phase = DataQualityPhase()
        output, _ = phase.run(batch_of(make_reading(value=20.0)), now=10.0)
        assert 0.0 < output[0].tags["quality_score"] <= 1.0

    def test_catalog_range_check(self, small_catalog):
        phase = DataQualityPhase(catalog=small_catalog)
        batch = batch_of(
            make_reading(sensor_type="temperature", value=25.0, timestamp=5.0),
            make_reading(sensor_type="temperature", value=9_999.0, timestamp=5.0),
        )
        output, _ = phase.run(batch, now=10.0)
        assert len(output) == 1


class TestQualityAssessor:
    def test_score_penalises_out_of_range_but_plausible(self, small_catalog):
        assessor = QualityAssessor(catalog=small_catalog)
        # Slightly above the configured range: penalised but not hard-rejected.
        score, reason = assessor.score(
            make_reading(sensor_type="temperature", value=60.0, timestamp=0.0), now=1.0
        )
        assert reason is None or reason == "below_minimum_score"
        assert score < 1.0

    def test_missing_identity_rejected(self):
        assessor = QualityAssessor()
        score, reason = assessor.score(make_reading(sensor_id=""), now=0.0)
        assert reason == "missing_identity"
        assert score == 0.0

    def test_stale_reading_penalised(self):
        assessor = QualityAssessor(policy=QualityPolicy(max_age_s=100.0, minimum_score=0.8))
        score, reason = assessor.score(make_reading(timestamp=0.0, value=1.0), now=1_000.0)
        assert reason == "below_minimum_score"
        assert score < 0.8

    def test_policy_validation(self):
        with pytest.raises(Exception):
            QualityPolicy(minimum_score=1.5)


class TestDataDescriptionPhase:
    def test_tags_added(self):
        phase = DataDescriptionPhase(city_name="barcelona", static_tags={"licence": "ODbL"})
        output, _ = phase.run(batch_of(make_reading()), now=42.0)
        tags = output[0].tags
        assert tags["city"] == "barcelona"
        assert tags["collected_at"] == 42.0
        assert tags["licence"] == "ODbL"

    def test_fog_node_assignment(self):
        phase = DataDescriptionPhase(fog_node_id="fog1/somewhere")
        output, _ = phase.run(batch_of(make_reading()), now=0.0)
        assert output[0].fog_node_id == "fog1/somewhere"
        assert output[0].tags["fog_node"] == "fog1/somewhere"


class TestAcquisitionBlock:
    def test_full_block_order_and_reduction(self, small_catalog):
        block = AcquisitionBlock(
            filtering=DataFilteringPhase(aggregator=RedundantDataElimination()),
            quality=DataQualityPhase(catalog=small_catalog),
        )
        assert block.phase_names() == [
            "data_collection",
            "data_filtering",
            "data_quality",
            "data_description",
        ]
        batch = batch_of(
            make_reading(sensor_id="a", sensor_type="temperature", value=20.0, timestamp=1.0),
            make_reading(sensor_id="a", sensor_type="temperature", value=20.0, timestamp=2.0),
            make_reading(sensor_id="b", sensor_type="temperature", value=21.0, timestamp=1.0),
        )
        output, result = block.run(batch, now=5.0)
        assert len(output) == 2  # duplicate removed, both survivors pass quality
        assert result.total_reduction_ratio > 0
        assert all("collected_at" in r.tags for r in output)


class TestFusedQualityDescription:
    """A default block's round acquisition must be indistinguishable from
    running its phases sequentially."""

    @staticmethod
    def _mixed_batch():
        return ReadingBatch(
            [
                make_reading(sensor_id="good-1", value=20.0, timestamp=0.0),
                make_reading(sensor_id="bad-value", value="broken", timestamp=0.0),
                make_reading(sensor_id="good-2", value=21.0, timestamp=5.0,
                             tags={"origin": "test"}),
                make_reading(sensor_id="future", value=22.0, timestamp=10_000.0),
            ]
        )

    @staticmethod
    def _make_block():
        return AcquisitionBlock(
            quality=DataQualityPhase(policy=QualityPolicy(minimum_score=0.5)),
            description=DataDescriptionPhase(
                city_name="toyville",
                static_tags={"section": "d-01/s-01"},
                fog_node_id="fog1/d-01/s-01",
            ),
        )

    def test_fused_output_matches_sequential_phases(self):
        block = self._make_block()
        fused_output, fused_result = block.run(self._mixed_batch(), now=10.0)

        # Reference: run the same phases strictly in sequence.
        reference = self._make_block()
        current = self._mixed_batch()
        for phase in reference.phases:
            current, _ = phase.run(current, now=10.0)

        assert len(fused_output) == len(current)
        for fused, sequential in zip(fused_output, current):
            assert fused == sequential
            assert list(fused.tags.items()) == list(sequential.tags.items())

        names = [r.phase_name for r in fused_result.phase_results]
        assert names == ["data_collection", "data_filtering", "data_quality", "data_description"]

    def test_fused_phase_results_match_sequential(self):
        block = self._make_block()
        _, fused_result = block.run(self._mixed_batch(), now=10.0)

        reference = self._make_block()
        current = self._mixed_batch()
        sequential_results = []
        for phase in reference.phases:
            current, phase_result = phase.run(current, now=10.0)
            sequential_results.append(phase_result)

        for fused, sequential in zip(fused_result.phase_results, sequential_results):
            assert fused.phase_name == sequential.phase_name
            assert fused.input_readings == sequential.input_readings
            assert fused.output_readings == sequential.output_readings
            assert fused.input_bytes == sequential.input_bytes
            assert fused.output_bytes == sequential.output_bytes
            assert fused.details == sequential.details

    def test_fused_updates_quality_report(self):
        block = self._make_block()
        block.run(self._mixed_batch(), now=10.0)
        report = block.quality.last_report
        assert report is not None
        assert report.assessed == 4
        assert report.admitted == 2
        assert report.rejected == 2
        assert set(report.rejection_reasons) == {"non_numeric_value", "timestamp_in_future"}

    def test_subclassed_phase_disables_fusion(self):
        class LoudQuality(DataQualityPhase):
            def run(self, batch, now):
                self.ran = True
                return super().run(batch, now)

        quality = LoudQuality()
        block = AcquisitionBlock(quality=quality)
        block.run(ReadingBatch([make_reading()]), now=0.0)
        assert quality.ran  # the generic chain invoked the subclass's run()

    @staticmethod
    def _every_scoring_branch(small_catalog):
        """One reading per branch of the quality checks (drift guard).

        The round path admits clean rows without scoring them; this corpus
        exercises every branch of the checks so any row it admits that
        ``QualityAssessor.score_fields`` would not fails the
        sequential-equivalence assertions.
        """
        return [
            make_reading(sensor_id="clean", value=20.0, timestamp=9.0),
            make_reading(sensor_id="non-numeric", value="text", timestamp=9.0),
            make_reading(sensor_id="bool-value", value=True, timestamp=9.0),
            make_reading(sensor_id="future", value=20.0, timestamp=10.0 + 120.0),
            make_reading(sensor_id="stale", value=20.0, timestamp=-100_000.0),
            make_reading(sensor_id="nan-time", value=20.0, timestamp=float("nan")),
            make_reading(sensor_id="minus-inf-time", value=20.0, timestamp=float("-inf")),
            make_reading(sensor_id="plus-inf-time", value=20.0, timestamp=float("inf")),
            make_reading(sensor_id="", value=20.0, timestamp=9.0),
            make_reading(sensor_id="soft-range", value=55.0, timestamp=9.0),  # outside [0,50]
            make_reading(sensor_id="hard-range", value=500.0, timestamp=9.0),  # beyond span
            make_reading(sensor_id="unknown-type", sensor_type="exotic", value=1.0, timestamp=9.0),
            make_reading(sensor_id="stale-and-soft", value=55.0, timestamp=-100_000.0),
        ]

    @pytest.mark.parametrize("reject_non_numeric", [True, False])
    def test_round_scoring_matches_score_fields_on_every_branch(
        self, small_catalog, reject_non_numeric
    ):
        policy = QualityPolicy(minimum_score=0.5, reject_non_numeric=reject_non_numeric)

        def build():
            return AcquisitionBlock(
                quality=DataQualityPhase(policy=policy, catalog=small_catalog),
                description=DataDescriptionPhase(city_name="toyville", fog_node_id="fog1/x"),
            )

        corpus = self._every_scoring_branch(small_catalog)
        fused_block = build()
        fused_output, fused_result = fused_block.run(ReadingBatch(corpus), now=10.0)

        reference = build()
        current = ReadingBatch(corpus)
        sequential_results = []
        for phase in reference.phases:
            current, phase_result = phase.run(current, now=10.0)
            sequential_results.append(phase_result)

        assert list(fused_output) == list(current)
        assert fused_block.quality.last_report.scores == reference.quality.last_report.scores
        assert (
            fused_block.quality.last_report.rejection_reasons
            == reference.quality.last_report.rejection_reasons
        )
        for fused, sequential in zip(fused_result.phase_results, sequential_results):
            assert fused == sequential

    def test_fused_dedup_matches_sequential_filtering(self, small_catalog):
        """Default batch-scope RDE fuses into the loop; results must match
        running the filtering phase separately."""
        readings = [
            make_reading(sensor_id="dup", value=20.0, timestamp=1.0),
            make_reading(sensor_id="dup", value=20.0, timestamp=2.0),  # redundant
            make_reading(sensor_id="dup", value=21.0, timestamp=3.0),
            make_reading(sensor_id="other", value=20.0, timestamp=4.0),
            make_reading(sensor_id="other", value="bad", timestamp=5.0),
        ]

        fused_block = AcquisitionBlock(
            filtering=DataFilteringPhase(aggregator=RedundantDataElimination(scope="batch")),
            quality=DataQualityPhase(catalog=small_catalog),
            description=DataDescriptionPhase(city_name="toyville"),
        )
        fused_output, fused_result = fused_block.run(ReadingBatch(readings), now=10.0)

        sequential_block = AcquisitionBlock(
            filtering=DataFilteringPhase(aggregator=RedundantDataElimination(scope="batch")),
            quality=DataQualityPhase(catalog=small_catalog),
            description=DataDescriptionPhase(city_name="toyville"),
        )
        current = ReadingBatch(readings)
        sequential_results = []
        for phase in sequential_block.phases:
            current, phase_result = phase.run(current, now=10.0)
            sequential_results.append(phase_result)

        assert list(fused_output) == list(current)
        for fused, sequential in zip(fused_result.phase_results, sequential_results):
            assert fused == sequential

    @staticmethod
    def _tagged_and_untagged_batch():
        return ReadingBatch(
            [
                make_reading(sensor_id="a", value=20.0, timestamp=9.0),
                make_reading(sensor_id="b", value=20.0, timestamp=9.0),
                make_reading(sensor_id="c", value=20.0, timestamp=9.0, category="urban"),
                make_reading(sensor_id="stale-1", value=20.0, timestamp=-100_000.0),
                make_reading(sensor_id="stale-2", value=21.0, timestamp=-100_000.0),
                make_reading(sensor_id="placed", value=20.0, timestamp=9.0, fog_node_id="fog1/y"),
                make_reading(sensor_id="tagged-1", value=20.0, timestamp=9.0, tags={"origin": "kit"}),
                make_reading(sensor_id="tagged-2", value=20.0, timestamp=9.0, tags={"origin": "kit"}),
                make_reading(sensor_id="", value=20.0, timestamp=9.0),
            ]
        )

    @pytest.mark.parametrize(
        "static_tags",
        [{}, {"section": "d-01/s-01"}, {"city": "static", "quality_score": "static", "fog_node": "static"}],
        ids=["none", "section", "shadowing"],
    )
    @pytest.mark.parametrize("fog_node_id", [None, "fog1/x"])
    @pytest.mark.parametrize("aggregator", [None, RedundantDataElimination], ids=["no-filter", "dedup"])
    def test_every_default_configuration_matches_the_sequential_phases(
        self, small_catalog, static_tags, fog_node_id, aggregator
    ):
        def build():
            return AcquisitionBlock(
                filtering=DataFilteringPhase(aggregator=aggregator() if aggregator else None),
                quality=DataQualityPhase(catalog=small_catalog),
                description=DataDescriptionPhase(
                    city_name="toyville", static_tags=static_tags, fog_node_id=fog_node_id
                ),
            )

        block, reference = build(), build()
        assert block._acquires_by_round()
        output, result = block.run(self._tagged_and_untagged_batch(), now=10.0)
        expected, expected_result = LifeCycleBlock.run(reference, self._tagged_and_untagged_batch(), 10.0)
        assert repr(list(output)) == repr(list(expected))
        assert result == expected_result
        assert repr(block.quality.last_report) == repr(reference.quality.last_report)

    def test_untagged_rows_share_one_tag_dict_per_score_category_and_fog_node(self, small_catalog):
        block = AcquisitionBlock(
            quality=DataQualityPhase(catalog=small_catalog),
            description=DataDescriptionPhase(fog_node_id="fog1/x"),
        )
        output, _ = block.run(self._tagged_and_untagged_batch(), now=10.0)
        tags = dict(zip(output.columns.sensor_ids, output.columns.tags))
        assert tags["a"] is tags["b"]  # 1.0, energy, fog1/x
        assert tags["stale-1"] is tags["stale-2"]  # 0.7, energy, fog1/x
        distinct = [tags[sensor_id] for sensor_id in ("a", "c", "stale-1", "placed", "tagged-1", "tagged-2")]
        assert len({id(row_tags) for row_tags in distinct}) == len(distinct)

    def test_subclassed_assessor_runs_the_sequential_phases(self):
        class StrictAssessor(QualityAssessor):
            def score(self, reading, now):
                return 0.0, "strict"

        block = AcquisitionBlock()
        block.quality.assessor = StrictAssessor()
        assert not block._acquires_by_round()
        output, _ = block.run(ReadingBatch([make_reading()]), now=0.0)
        assert len(output) == 0
        assert block.quality.last_report.rejection_reasons == {"strict": 1}
