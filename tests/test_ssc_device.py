"""Unit tests for the SSC device's six-operation interface."""


import pytest

from repro.errors import ConfigError, NotPresentError, RecoveryError
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy


class TestConfig:
    def test_presets(self, medium_geometry):
        assert SolidStateCache.ssc(medium_geometry).config.policy is EvictionPolicy.UTIL
        assert SolidStateCache.ssc_r(medium_geometry).config.policy is EvictionPolicy.MERGE

    def test_bad_clean_durability(self):
        with pytest.raises(ConfigError):
            SSCConfig(clean_durability="whatever")

    @pytest.mark.parametrize("field,value", [
        ("group_commit_ops", 0),
        ("checkpoint_interval_writes", 0),
    ])
    def test_bad_numeric_config(self, field, value):
        with pytest.raises(ConfigError):
            SSCConfig(**{field: value})


class TestReadWrite:
    def test_read_absent_raises_not_present(self, ssc):
        with pytest.raises(NotPresentError) as exc:
            ssc.read(123)
        assert exc.value.lbn == 123

    def test_write_clean_then_read(self, ssc):
        ssc.write_clean(7, "clean-data")
        data, cost = ssc.read(7)
        assert data == "clean-data"
        assert cost > 0

    def test_write_dirty_then_read(self, ssc):
        ssc.write_dirty(7, "dirty-data")
        data, _ = ssc.read(7)
        assert data == "dirty-data"
        assert ssc.is_dirty(7)

    def test_write_clean_is_not_dirty(self, ssc):
        ssc.write_clean(7, "x")
        assert not ssc.is_dirty(7)

    def test_overwrite_dirty_with_clean(self, ssc):
        ssc.write_dirty(7, "old")
        ssc.write_clean(7, "new")
        data, _ = ssc.read(7)
        assert data == "new"
        assert not ssc.is_dirty(7)

    def test_sparse_addresses_accepted(self, ssc):
        """The unified address space: disk addresses far beyond the
        flash capacity are legal keys (§4.1)."""
        huge = 10**12
        ssc.write_clean(huge, "far")
        data, _ = ssc.read(huge)
        assert data == "far"

    def test_contains_and_cached_blocks(self, ssc):
        assert not ssc.contains(5)
        ssc.write_clean(5, "x")
        assert ssc.contains(5)
        assert ssc.cached_blocks() == 1

    def test_write_dirty_flushes_synchronously(self, ssc):
        ssc.write_dirty(1, "x")
        assert ssc.oplog.pending() == 0
        assert ssc.oplog.sync_flushes >= 1

    def test_new_write_clean_is_buffered(self, ssc):
        ssc.write_clean(1, "x")
        assert ssc.oplog.pending() > 0

    def test_replacing_write_clean_is_durable(self, ssc):
        ssc.write_clean(1, "old")
        ssc.write_clean(1, "new")
        # Replacement at the same address must persist the remap (§4.2.1).
        assert ssc.oplog.pending() == 0


class TestEvict:
    def test_read_after_evict_raises(self, ssc):
        """Guarantee 3: a read following an eviction returns not-present."""
        ssc.write_dirty(9, "x")
        ssc.evict(9)
        with pytest.raises(NotPresentError):
            ssc.read(9)

    def test_evict_absent_is_noop(self, ssc):
        ssc.evict(12345)  # must not raise

    def test_evict_is_durable(self, ssc):
        ssc.write_dirty(9, "x")
        ssc.evict(9)
        assert ssc.oplog.pending() == 0

    def test_evicted_block_can_be_rewritten(self, ssc):
        ssc.write_clean(9, "a")
        ssc.evict(9)
        ssc.write_clean(9, "b")
        data, _ = ssc.read(9)
        assert data == "b"


class TestClean:
    def test_clean_clears_dirty(self, ssc):
        ssc.write_dirty(3, "x")
        ssc.clean(3)
        assert not ssc.is_dirty(3)
        data, _ = ssc.read(3)  # data stays readable (§4.2.1)
        assert data == "x"

    def test_clean_absent_is_noop(self, ssc):
        ssc.clean(999)

    def test_clean_is_asynchronous(self, ssc):
        ssc.write_dirty(3, "x")
        ssc.clean(3)
        assert ssc.oplog.pending() > 0  # CLEAN record buffered


class TestExists:
    def test_reports_only_dirty_blocks(self, ssc):
        ssc.write_dirty(10, "a")
        ssc.write_clean(20, "b")
        ssc.write_dirty(30, "c")
        ssc.clean(30)
        dirty, cost = ssc.exists(0, 1000)
        assert dirty == [10]
        assert cost == pytest.approx(ssc.chip.timing.control_delay_us)

    def test_range_filtering(self, ssc):
        for lbn in (5, 15, 25):
            ssc.write_dirty(lbn, "x")
        dirty, _ = ssc.exists(10, 20)
        assert dirty == [15]

    def test_exists_after_eviction(self, ssc):
        ssc.write_dirty(5, "x")
        ssc.evict(5)
        dirty, _ = ssc.exists(0, 100)
        assert dirty == []


class TestGroupCommit:
    def test_buffer_flushes_at_threshold(self, medium_geometry):
        ssc = SolidStateCache(
            medium_geometry,
            config=SSCConfig(group_commit_ops=50, clean_durability="buffered"),
        )
        for i in range(49):
            ssc.write_clean(i * 1000, i)  # distinct addresses: no replaces
        assert ssc.oplog.pending() > 0
        ssc.write_clean(10**9, "tip-over")
        assert ssc.oplog.pending() == 0
        assert ssc.oplog.async_flushes >= 1


class TestCrashGate:
    def test_operations_rejected_while_crashed(self, ssc):
        ssc.write_dirty(1, "x")
        ssc.crash()
        with pytest.raises(RecoveryError):
            ssc.read(1)
        with pytest.raises(RecoveryError):
            ssc.write_clean(2, "y")
        ssc.recover()
        data, _ = ssc.read(1)
        assert data == "x"

    def test_no_consistency_device_cannot_recover(self, ssc_no_consistency):
        ssc_no_consistency.write_dirty(1, "x")
        ssc_no_consistency.crash()
        with pytest.raises(RecoveryError):
            ssc_no_consistency.recover()
