"""Tests for the device's checkpoint scheduling policy (§6.4)."""

import pytest

from repro.flash.geometry import FlashGeometry
from repro.ssc import device
from repro.ssc.device import CHECKPOINT_LOG_RATIO, SolidStateCache, SSCConfig
from repro.ssc.log import RECORD_BYTES


@pytest.fixture
def geometry():
    return FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)


class TestCheckpointTriggers:
    def test_log_growth_triggers_checkpoint(self, geometry, monkeypatch):
        """Checkpoint when the log exceeds the set fraction of the
        checkpoint size."""
        monkeypatch.setattr(device, "CHECKPOINT_LOG_RATIO", 0.5)
        ssc = SolidStateCache(
            geometry, config=SSCConfig(checkpoint_interval_writes=10**9)
        )
        for i in range(2000):
            ssc.write_dirty(i % 600, i)
        assert ssc.checkpoints.writes > 0
        # The durable log stays bounded relative to the checkpoint.
        latest = ssc.checkpoints.latest()
        assert latest is not None
        log_bytes = len(ssc.oplog.flushed) * RECORD_BYTES
        assert log_bytes <= 0.5 * latest.size_bytes() + 8192

    def test_write_count_triggers_checkpoint(self, geometry, monkeypatch):
        monkeypatch.setattr(device, "CHECKPOINT_LOG_RATIO", 10.0)  # rarely by size
        ssc = SolidStateCache(
            geometry, config=SSCConfig(checkpoint_interval_writes=500)
        )
        for i in range(1600):
            ssc.write_dirty(i % 600, i)
        assert ssc.checkpoints.writes >= 3

    def test_checkpoint_truncates_log(self, geometry):
        ssc = SolidStateCache.ssc(geometry)
        for i in range(300):
            ssc.write_dirty(i, i)
        ssc.checkpoint_now()
        assert not ssc.oplog.flushed
        assert ssc.oplog.pending() == 0

    def test_no_consistency_never_checkpoints(self, geometry):
        ssc = SolidStateCache(geometry, config=SSCConfig(consistency=False))
        for i in range(500):
            ssc.write_dirty(i % 300, i)
        assert ssc.checkpoints.writes == 0
        assert ssc.checkpoint_now() == 0.0

    def test_checkpoint_cost_charged_to_write(self, geometry, monkeypatch):
        """The write that trips a checkpoint pays for it."""
        monkeypatch.setattr(device, "CHECKPOINT_LOG_RATIO", 10.0)
        ssc = SolidStateCache(
            geometry, config=SSCConfig(checkpoint_interval_writes=100)
        )
        costs = [ssc.write_dirty(i % 300, i) for i in range(150)]
        # At least one write carries a visibly larger (checkpoint) cost.
        assert max(costs) > 3 * min(costs)

    def test_recovery_cost_bounded_by_policy(self, geometry):
        """§4.2.2's purpose: checkpoints keep "the log size less than a
        fixed fraction of the size of the checkpoint", so recovery cost
        is bounded regardless of how long the device has been running."""
        ratio = CHECKPOINT_LOG_RATIO
        ssc = SolidStateCache(geometry)
        read_cost = ssc.chip.timing.read_cost()
        page_size = geometry.page_size
        for i in range(5000):
            ssc.write_dirty(i % 700, i)
            if i % 500 == 499:
                # Crash at arbitrary points: the replay bound must hold.
                ssc.crash()
                cost = ssc.recover()
                checkpoint = ssc.checkpoints.latest()
                ckpt_pages = (
                    -(-checkpoint.size_bytes() // page_size) if checkpoint else 0
                )
                # Bound: checkpoint read + ratio-bounded log tail, plus
                # one page of slack for the flush that tripped the limit.
                max_log_pages = -(-int(
                    ratio * (checkpoint.size_bytes() if checkpoint else 4096)
                ) // page_size) + 2
                assert cost <= (ckpt_pages + max_log_pages) * read_cost
