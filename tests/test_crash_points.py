"""Each CrashPoint fires through a real device path.

These are the unit-level guarantees under the crash-state explorer:
arming the injector at any of the four durability boundaries interrupts
the corresponding device operation, the device transitions into the
crashed state by itself, and recovery lands in the contractually right
place (e.g. a write whose log flush completed must survive; one whose
mapping commit was lost must not).
"""

import pytest

from repro.errors import CrashError, NotPresentError, RecoveryError
from repro.sim.crash import CrashInjector, CrashPoint
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy


def make_ssc(small_geometry, **overrides):
    config = SSCConfig(policy=EvictionPolicy.UTIL, **overrides)
    ssc = SolidStateCache(small_geometry, config=config)
    injector = CrashInjector()
    ssc.attach_injector(injector)
    return ssc, injector


class TestEachPointFires:
    def test_before_data_write(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        injector.arm(at=CrashPoint.BEFORE_DATA_WRITE)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "v1")
        assert injector.fired
        assert injector.fired_point is CrashPoint.BEFORE_DATA_WRITE
        # Nothing reached flash: the block must be absent after recovery.
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(3)

    def test_after_data_write(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        injector.arm(at=CrashPoint.AFTER_DATA_WRITE)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "v1")
        assert injector.fired_point is CrashPoint.AFTER_DATA_WRITE
        # Data page durable but its mapping commit was lost with the
        # buffer: the orphan page must not surface.
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(3)

    def test_after_log_flush(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        injector.arm(at=CrashPoint.AFTER_LOG_FLUSH)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "v1")
        assert injector.fired_point is CrashPoint.AFTER_LOG_FLUSH
        # write-dirty's synchronous commit completed before the crash:
        # the block MUST survive, still dirty, with the written value.
        ssc.recover()
        value, _completion = ssc.read(3)
        assert value == "v1"
        assert ssc.is_dirty(3)

    def test_after_checkpoint(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "v1")
        injector.arm(at=CrashPoint.AFTER_CHECKPOINT)
        with pytest.raises(CrashError):
            ssc.checkpoint_now()
        assert injector.fired_point is CrashPoint.AFTER_CHECKPOINT
        ssc.recover()
        value, _completion = ssc.read(3)
        assert value == "v1"
        assert ssc.is_dirty(3)


class TestCrashedStateTransition:
    def test_device_refuses_ops_until_recovered(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        injector.arm(at=CrashPoint.AFTER_DATA_WRITE)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "v1")
        # The device transitioned into the crashed state on its own.
        with pytest.raises(RecoveryError):
            ssc.read(3)
        with pytest.raises(RecoveryError):
            ssc.write_dirty(4, "v2")
        ssc.recover()
        ssc.write_dirty(4, "v2")  # usable again

    @pytest.mark.parametrize("op", [
        lambda ssc: ssc.write_dirty(4, "v2"),
        lambda ssc: ssc.write_clean(4, "v2"),
        lambda ssc: ssc.evict(3),
        lambda ssc: ssc.clean(3),
    ], ids=["write_dirty", "write_clean", "evict", "clean"])
    def test_every_mutating_op_powers_off_on_crash(self, small_geometry, op):
        # group_commit_ops=1 makes even clean's buffered record flush, so
        # every operation reaches a durability boundary.
        ssc, injector = make_ssc(
            small_geometry, clean_durability="sync", group_commit_ops=1)
        ssc.write_dirty(3, "v1")
        injector.arm()
        with pytest.raises(CrashError):
            op(ssc)
        with pytest.raises(RecoveryError):
            ssc.read(3)
        ssc.recover()

    def test_buffered_records_lost_at_crash(self, small_geometry):
        ssc, injector = make_ssc(small_geometry, clean_durability="buffered")
        ssc.write_clean(3, "v1")  # buffered: records volatile
        assert ssc.oplog.pending() > 0
        injector.arm(at=CrashPoint.BEFORE_DATA_WRITE)
        with pytest.raises(CrashError):
            ssc.write_clean(4, "v2")
        assert ssc.oplog.pending() == 0  # buffer lost with power
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(3)


class TestTickEnumeration:
    def test_every_boundary_counted(self, small_geometry):
        """Unarmed ticks enumerate the workload's durability boundaries."""
        ssc, injector = make_ssc(small_geometry)
        for lbn in range(6):
            ssc.write_dirty(lbn, f"v{lbn}")
        ssc.checkpoint_now()
        counts = injector.point_counts
        # Each write programs one page (BEFORE + AFTER) and sync-flushes.
        assert counts[CrashPoint.BEFORE_DATA_WRITE] == 6
        assert counts[CrashPoint.AFTER_DATA_WRITE] == 6
        assert counts[CrashPoint.AFTER_LOG_FLUSH] >= 6
        # At least the explicit checkpoint; the log-ratio policy may add more.
        assert counts[CrashPoint.AFTER_CHECKPOINT] >= 1
        assert injector.ticks == sum(counts.values())
        assert not injector.fired

    def test_countdown_selects_boundary(self, small_geometry):
        """after_events=k crashes at the (k+1)-th boundary exactly."""
        ssc, injector = make_ssc(small_geometry)
        injector.arm(after_events=2)  # boundary 3 = AFTER_LOG_FLUSH of write 1
        with pytest.raises(CrashError):
            for lbn in range(6):
                ssc.write_dirty(lbn, f"v{lbn}")
        assert injector.ticks == 3
        assert injector.fired_point is CrashPoint.AFTER_LOG_FLUSH
        ssc.recover()
        value, _completion = ssc.read(0)
        assert value == "v0"
