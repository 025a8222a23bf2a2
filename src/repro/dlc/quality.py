"""Data-quality assessment.

The data-quality phase of the acquisition block "appraises the quality level
of collected data" and guarantees that data reaching the processing and
preservation blocks has already been checked (the paper notes those blocks
therefore need no quality phase of their own).

Quality is expressed as a score in ``[0, 1]`` built from simple, explainable
checks: structural validity, value inside the catalog's plausible range,
timestamp plausibility, and completeness of required fields.  A policy sets
the minimum score a reading needs to be admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sensors.catalog import SensorCatalog
from repro.sensors.readings import Reading


@dataclass(frozen=True)
class QualityPolicy:
    """Thresholds governing the quality phase."""

    minimum_score: float = 0.5
    max_future_skew_s: float = 60.0
    max_age_s: float = 86_400.0
    reject_non_numeric: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.minimum_score <= 1.0:
            raise ConfigurationError("minimum_score must be in [0, 1]")
        if self.max_future_skew_s < 0 or self.max_age_s <= 0:
            raise ConfigurationError("time bounds must be positive")


@dataclass
class QualityReport:
    """Per-batch summary produced by the quality phase."""

    assessed: int = 0
    admitted: int = 0
    rejected: int = 0
    scores: List[float] = field(default_factory=list)
    rejection_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_score(self) -> float:
        return sum(self.scores) / len(self.scores) if self.scores else 0.0

    def record_rejection(self, reason: str) -> None:
        self.rejected += 1
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1


class QualityAssessor:
    """Scores individual readings against a catalog and a policy."""

    def __init__(self, policy: Optional[QualityPolicy] = None, catalog: Optional[SensorCatalog] = None) -> None:
        self.policy = policy or QualityPolicy()
        self.catalog = catalog

    def score(self, reading: Reading, now: float) -> Tuple[float, Optional[str]]:
        """Return ``(score, rejection_reason)``; reason is ``None`` when admitted."""
        return self.score_fields(
            reading.sensor_id, reading.sensor_type, reading.value, reading.timestamp, now
        )

    def score_fields(
        self,
        sensor_id: str,
        sensor_type: str,
        value: object,
        timestamp: float,
        now: float,
    ) -> Tuple[float, Optional[str]]:
        """Score one observation given its fields (the columnar hot path).

        Identical checks to :meth:`score` without requiring a ``Reading``
        object: the score starts at 1.0 and loses weight for each failed
        check; a hard failure (non-numeric value when required, non-finite
        or absurd timestamp) returns a reason immediately.
        """
        policy = self.policy
        score = 1.0

        value_is_numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not value_is_numeric:
            if policy.reject_non_numeric:
                return 0.0, "non_numeric_value"
            score -= 0.4

        # NaN fails every comparison below and -inf only takes the age
        # penalty, but neither can be placed on the cloud's day axis: x - x
        # is 0 exactly when x is finite.
        if timestamp - timestamp != 0:
            return 0.0, "non_finite_timestamp"
        if timestamp > now + policy.max_future_skew_s:
            return 0.0, "timestamp_in_future"
        if now - timestamp > policy.max_age_s:
            score -= 0.3

        if not sensor_id or not sensor_type:
            return 0.0, "missing_identity"

        if self.catalog is not None and sensor_type in self.catalog and value_is_numeric:
            spec = self.catalog.get(sensor_type)
            low, high = spec.value_range
            span = high - low
            value = float(value)
            if value < low - span or value > high + span:
                return 0.0, "value_out_of_range"
            if not low <= value <= high:
                score -= 0.3

        score = max(0.0, min(1.0, score))
        if score < policy.minimum_score:
            return score, "below_minimum_score"
        return score, None
