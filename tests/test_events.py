"""Event scheduler and structured-completion unit tests."""

import pytest

from repro.sim import (
    Completion,
    DeviceOp,
    EventScheduler,
    OpRecorder,
)


class TestEventScheduler:
    def test_starts_idle_at_time_zero(self):
        scheduler = EventScheduler()
        assert scheduler.now_us == 0.0
        assert len(scheduler) == 0

    def test_scheduling_does_not_advance_now(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(40.0)
        scheduler.schedule_at(15.0)
        assert scheduler.now_us == 0.0
        assert scheduler.pop() == 15.0
        # Only a pop moves time; an earlier pending event is still legal.
        scheduler.schedule_at(20.0)
        assert scheduler.now_us == 15.0
        assert [scheduler.pop(), scheduler.pop()] == [20.0, 40.0]

    def test_pops_in_time_order_and_advances_now(self):
        scheduler = EventScheduler()
        for time_us in (30.0, 10.0, 20.0):
            assert scheduler.schedule_at(time_us) is None
        popped = []
        for _ in range(3):
            popped.append(scheduler.pop())
            assert scheduler.now_us == popped[-1]
        assert popped == [10.0, 20.0, 30.0]
        assert len(scheduler) == 0

    def test_equal_times_both_pop(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(5.0)
        scheduler.schedule_at(5.0)
        assert len(scheduler) == 2
        assert [scheduler.pop(), scheduler.pop()] == [5.0, 5.0]
        assert scheduler.now_us == 5.0

    def test_rejects_past_times(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(100.0)
        assert scheduler.pop() == 100.0
        with pytest.raises(ValueError):
            scheduler.schedule_at(99.0)
        assert len(scheduler) == 0
        scheduler.schedule_at(100.0)  # the present is not the past
        assert scheduler.pop() == 100.0

    def test_pop_when_idle_raises(self):
        with pytest.raises(IndexError):
            EventScheduler().pop()


class TestOpRecorder:
    def test_inactive_recorder_drops_ops(self):
        recorder = OpRecorder()
        recorder.record(DeviceOp("disk", "read", 100.0))
        recorder.begin()
        assert recorder.end() == ()

    def test_capture_brackets_ops(self):
        recorder = OpRecorder()
        recorder.begin()
        recorder.record(DeviceOp("disk", "read", 100.0))
        recorder.record(DeviceOp("plane:0", "page_write", 200.0))
        ops = recorder.end()
        assert [op.resource for op in ops] == ["disk", "plane:0"]
        assert not recorder.active

    def test_begin_while_active_raises(self):
        recorder = OpRecorder()
        recorder.begin()
        recorder.record(DeviceOp("disk", "read", 1.0))
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

    def test_carries_ops_and_hit(self):
        ops = (
            DeviceOp("plane:0", "page_read", 25.0),
            DeviceOp("disk", "read", 2000.0),
        )
        completion = Completion(2075.0, ops, hit=False)
        assert float(completion) == 2075.0
        assert completion.ops is ops
        assert completion.hit is False
