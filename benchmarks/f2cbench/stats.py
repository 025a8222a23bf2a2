"""Order statistics the benchmark reports: medians, quartiles, percentiles.

Timings are reported from each unit of work's median across reps
(:func:`typical`); a latency distribution as its median plus a named
percentile.  A percentile is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it — below that the number is one or
two outliers, not a tail.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``.

    One value is its own quartiles (``quantiles`` needs two points).
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(mid)


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie strictly beyond the *pct* percentile."""
    return count - _rank(count, pct)


def supported(count: int, pct: float) -> bool:
    """Whether *count* samples leave at least :data:`MIN_BEYOND` beyond *pct*."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def _rank(count: int, pct: float) -> int:
    """Nearest-rank position (1-based) of the *pct* percentile."""
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return max(1, math.ceil(count * pct / 100.0))


def percentile(samples: Sequence[float], pct: float, *, require_support: bool = True) -> float:
    """Nearest-rank *pct* percentile of *samples*.

    Raises when fewer than :data:`MIN_BEYOND` samples lie beyond it, unless
    *require_support* is false (smoke-sized runs report the number anyway
    and flag it as unsupported themselves).
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if require_support and pct > 50 and not supported(len(samples), pct):
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples has only "
            f"{samples_beyond(len(samples), pct)} beyond it (need {MIN_BEYOND})"
        )
    ordered = sorted(samples)
    return float(ordered[_rank(len(ordered), pct) - 1])


def typical(reps: Sequence[Sequence[float]]) -> List[float]:
    """Per unit of work, its median cost across reps.

    *reps* holds one sequence per rep, unit *k* being the same work in
    every rep.  One rep's hiccup on a unit (a collector pass, a neighbour's
    burst) is voted out by the other reps before any sum or percentile is
    taken, which a percentile over pooled samples cannot do.
    """
    if not reps:
        raise ValueError("typical() of no reps")
    if len({len(rep) for rep in reps}) != 1:
        raise ValueError("typical() needs the same units in every rep")
    return [statistics.median(unit) for unit in zip(*reps)]
