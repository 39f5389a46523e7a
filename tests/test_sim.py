"""Unit tests for the simulation kernel (clock, crash injection)."""

import pytest

from repro.errors import CrashError
from repro.sim.clock import SimClock
from repro.sim.crash import CrashInjector, CrashPoint


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.now_us == 0.0

    def test_custom_start(self):
        clock = SimClock(start_us=100.0)
        assert clock.now_us == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start_us=-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(5.5)
        assert clock.now_us == pytest.approx(15.5)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_reset(self):
        clock = SimClock()
        clock.advance(42.0)
        clock.reset()
        assert clock.now_us == 0.0


class TestCrashInjector:
    def test_unarmed_never_fires(self):
        injector = CrashInjector()
        for _ in range(100):
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        assert not injector.fired

    def test_fires_immediately_when_armed_at_zero(self):
        injector = CrashInjector()
        injector.arm(after_events=0)
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        assert injector.fired

    def test_countdown(self):
        injector = CrashInjector()
        injector.arm(after_events=2)
        injector.tick(CrashPoint.AFTER_DATA_WRITE)
        injector.tick(CrashPoint.AFTER_DATA_WRITE)
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.AFTER_DATA_WRITE)

    def test_point_filter(self):
        injector = CrashInjector()
        injector.arm(after_events=0, at=CrashPoint.AFTER_LOG_FLUSH)
        injector.tick(CrashPoint.AFTER_DATA_WRITE)  # ignored: wrong point
        assert not injector.fired
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.AFTER_LOG_FLUSH)

    def test_fires_only_once(self):
        injector = CrashInjector()
        injector.arm(after_events=0)
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.BEFORE_DATA_WRITE)
        injector.tick(CrashPoint.BEFORE_DATA_WRITE)  # disarmed now
        assert injector.fired

    def test_disarm(self):
        injector = CrashInjector()
        injector.arm(after_events=0)
        injector.disarm()
        injector.tick(CrashPoint.AFTER_CHECKPOINT)
        assert not injector.fired

    def test_negative_countdown_rejected(self):
        injector = CrashInjector()
        with pytest.raises(ValueError):
            injector.arm(after_events=-1)
