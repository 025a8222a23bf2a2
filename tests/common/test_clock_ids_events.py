"""Tests for the clock and id generation utilities."""

import pytest

from repro.common.clock import SimulatedClock, VirtualClock, WallClock
from repro.common.ids import IdGenerator


class TestSimulatedClock:
    def test_starts_at_given_time(self):
        assert SimulatedClock(10.0).now() == 10.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_advance_to(self):
        clock = SimulatedClock()
        clock.advance_to(100.0)
        assert clock.now() == 100.0

    def test_cannot_go_backwards(self):
        clock = SimulatedClock(50.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance_to(49.0)

    def test_advance_returns_new_time(self):
        clock = SimulatedClock()
        assert clock.advance(3.0) == 3.0


class TestWallClock:
    def test_monotone_enough(self):
        clock = WallClock()
        first = clock.now()
        second = clock.now()
        assert second >= first


class TestVirtualClock:
    def test_sleep_advances_instantly(self):
        clock = VirtualClock(start=10.0)
        assert clock.sleep(5.0) == 15.0
        assert clock.now() == 15.0
        assert clock.sleeps == 1

    def test_zero_sleep_still_counts_a_tick(self):
        clock = VirtualClock()
        clock.sleep(0.0)
        assert clock.now() == 0.0
        assert clock.sleeps == 1

    def test_jitter_is_seeded_and_deterministic(self):
        a = VirtualClock(seed=7, jitter_s=1.0)
        b = VirtualClock(seed=7, jitter_s=1.0)
        times_a = [a.sleep(10.0) for _ in range(5)]
        times_b = [b.sleep(10.0) for _ in range(5)]
        assert times_a == times_b
        # Jitter only ever overshoots: each sleep is >= the nominal interval.
        previous = 0.0
        for timestamp in times_a:
            assert timestamp - previous >= 10.0
            previous = timestamp

    def test_different_seeds_diverge(self):
        a = VirtualClock(seed=1, jitter_s=1.0)
        b = VirtualClock(seed=2, jitter_s=1.0)
        assert [a.sleep(1.0) for _ in range(3)] != [b.sleep(1.0) for _ in range(3)]

    def test_no_jitter_is_exact(self):
        clock = VirtualClock(seed=99)
        assert [clock.sleep(1.5) for _ in range(3)] == [1.5, 3.0, 4.5]

    def test_advance_like_simulated_clock(self):
        clock = VirtualClock(start=5.0)
        assert clock.advance(2.0) == 7.0
        assert clock.advance_to(10.0) == 10.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            VirtualClock(jitter_s=-1.0)
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.sleep(-1.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance_to(-1.0)


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        gen = IdGenerator()
        assert gen.next("sensor") == "sensor-000000"
        assert gen.next("sensor") == "sensor-000001"
        assert gen.next("reading") == "reading-000000"

    def test_issued_counts(self):
        gen = IdGenerator()
        gen.next("a")
        gen.next("a")
        assert gen.issued("a") == 2
        assert gen.issued("b") == 0

    def test_reset_single_prefix(self):
        gen = IdGenerator()
        gen.next("a")
        gen.reset("a")
        assert gen.next("a") == "a-000000"

    def test_reset_all(self):
        gen = IdGenerator()
        gen.next("a")
        gen.next("b")
        gen.reset()
        assert gen.issued("a") == 0 and gen.issued("b") == 0

    def test_custom_width(self):
        gen = IdGenerator(width=3)
        assert gen.next("x") == "x-000"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            IdGenerator(width=0)
        with pytest.raises(ValueError):
            IdGenerator().next("")
