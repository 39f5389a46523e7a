"""Event scheduler and structured-completion unit tests."""

import pytest

from repro.sim import (
    Completion,
    DeviceOp,
    EventScheduler,
    OpRecorder,
    SimClock,
)


class TestSimClock:
    def test_advance_to_moves_forward(self):
        clock = SimClock()
        assert clock.advance_to(25.0) == 25.0
        assert clock.now_us == 25.0

    def test_advance_to_rejects_backwards(self):
        clock = SimClock(start_us=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestEventScheduler:
    def test_pops_in_time_order_and_advances_clock(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(30.0, "late")
        scheduler.schedule_at(10.0, "early")
        scheduler.schedule_at(20.0, "middle")
        assert [scheduler.pop().payload for _ in range(3)] == [
            "early", "middle", "late",
        ]
        assert scheduler.clock.now_us == 30.0

    def test_ties_break_by_schedule_order(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(5.0, "first")
        scheduler.schedule_at(5.0, "second")
        assert scheduler.pop().payload == "first"
        assert scheduler.pop().payload == "second"

    def test_rejects_past_times(self):
        scheduler = EventScheduler(SimClock(start_us=100.0))
        with pytest.raises(ValueError):
            scheduler.schedule_at(99.0)

    def test_pop_when_idle_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()


class TestOpRecorder:
    def test_inactive_recorder_drops_ops(self):
        recorder = OpRecorder()
        recorder.record("disk", "read", 100.0)
        recorder.begin()
        assert recorder.end() == ()

    def test_capture_brackets_ops(self):
        recorder = OpRecorder()
        recorder.begin()
        recorder.record("disk", "read", 100.0)
        recorder.record("plane:0", "page_write", 200.0)
        ops = recorder.end()
        assert [op.resource for op in ops] == ["disk", "plane:0"]
        assert not recorder.active

    def test_begin_while_active_raises(self):
        recorder = OpRecorder()
        recorder.begin()
        recorder.record("disk", "read", 1.0)
        with pytest.raises(RuntimeError):
            recorder.begin()
        # The open capture is untouched by the refused begin().
        assert [op.duration_us for op in recorder.end()] == [1.0]

    def test_unbalanced_end_raises(self):
        with pytest.raises(RuntimeError):
            OpRecorder().end()


class TestCompletion:
    def test_behaves_as_float(self):
        completion = Completion(150.0)
        assert completion == 150.0
        assert completion + 50.0 == 200.0
        assert sorted([Completion(3.0), Completion(1.0)])[0] == 1.0

    def test_breakdown_properties(self):
        ops = (
            DeviceOp("plane:0", "page_read", 25.0),
            DeviceOp("disk", "read", 2000.0),
        )
        completion = Completion(2075.0, ops, hit=False)
        assert float(completion) == 2075.0
        assert completion.disk_us == 2000.0
        assert completion.flash_us == 25.0
        assert completion.hit is False
