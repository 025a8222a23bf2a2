import statistics

import pytest

from f2cbench import stats


def test_median_and_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_one_value_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.spread([2.5]) == 0.0


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile([7.0], 50) == 7.0


@pytest.mark.parametrize(
    "count, pct, beyond",
    [(100, 90, 10), (99, 90, 9), (1000, 99, 10), (999, 99, 9), (96, 85, 14), (96, 90, 9)],
)
def test_samples_beyond_a_percentile(count, pct, beyond):
    assert stats.samples_beyond(count, pct) == beyond
    assert stats.supported(count, pct) == (beyond >= stats.MIN_BEYOND)


def test_an_unsupported_tail_percentile_is_refused():
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.percentile(list(range(99)), 90)
    # ... unless the caller says it will flag the number itself.
    assert stats.percentile(list(range(99)), 90, require_support=False) == 89
    # The median needs no support.
    assert stats.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_typical_keeps_each_units_median_across_reps():
    reps = [[1.0, 5.0, 3.0], [2.0, 4.0, 2.5], [1.5, 60.0, 3.5]]
    assert stats.typical(reps) == [1.5, 5.0, 3.0]
    assert stats.typical(reps[:2]) == [1.5, 4.5, 2.75]
    with pytest.raises(ValueError):
        stats.typical([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.typical([])
