import pytest

from f2cbench.speed import REFERENCE_S, Gauge


def test_speed_is_the_reference_over_the_median_kernel_time():
    gauge = Gauge()
    # A core half as fast as the reference; one interrupted sample changes nothing.
    gauge.samples = [REFERENCE_S * 2] * 6 + [REFERENCE_S * 50]
    assert gauge.speed() == pytest.approx(0.5)


def test_the_kernel_is_timed_and_restart_forgets():
    gauge = Gauge()
    gauge.sample(3)
    assert len(gauge.samples) == 3 and all(seconds > 0 for seconds in gauge.samples)
    gauge.restart()
    assert gauge.samples == []
