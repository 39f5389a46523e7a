"""Unit tests for the FlashTier write-through and write-back managers."""

import random

from repro.core.config import SystemConfig
from repro.disk.model import Disk
from repro.flash.geometry import FlashGeometry
from repro.manager.dirty_table import DirtyBlockTable, ENTRY_BYTES
from repro.manager.writeback import FlashTierWBManager
from repro.manager.writethrough import FlashTierWTManager
from repro.ssc.device import SolidStateCache


def make_wt(disk_blocks=100_000):
    geometry = FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)
    ssc = SolidStateCache.ssc(geometry)
    disk = Disk(disk_blocks)
    return FlashTierWTManager(ssc, disk), ssc, disk


def make_wb(disk_blocks=100_000, **config):
    geometry = FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)
    ssc = SolidStateCache.ssc(geometry)
    disk = Disk(disk_blocks)
    return FlashTierWBManager(ssc, disk, SystemConfig(**config)), ssc, disk


class TestDirtyTable:
    def test_add_remove(self):
        table = DirtyBlockTable()
        table.add(5, "data")
        assert 5 in table
        assert table.remove(5)
        assert not table.remove(5)

    def test_lru_order(self):
        table = DirtyBlockTable()
        for lbn in (1, 2, 3):
            table.add(lbn)
        table.touch(1)
        assert table.lru_block() == 2

    def test_contiguous_run(self):
        table = DirtyBlockTable()
        for lbn in (9, 10, 11, 13):
            table.add(lbn)
        assert table.contiguous_run(10) == [9, 10, 11]

    def test_contiguous_run_limit(self):
        table = DirtyBlockTable()
        for lbn in range(100):
            table.add(lbn)
        assert len(table.contiguous_run(50, limit=8)) == 8

    def test_memory_formula(self):
        table = DirtyBlockTable()
        for lbn in range(10):
            table.add(lbn)
        assert table.memory_bytes() == 10 * ENTRY_BYTES


class TestWriteThrough:
    def test_write_populates_both_tiers(self):
        manager, ssc, disk = make_wt()
        manager.write(5, "x")
        assert disk.peek(5) == "x"
        assert ssc.contains(5)

    def test_read_miss_fetches_and_caches(self):
        manager, ssc, disk = make_wt()
        disk.write(9, "cold")
        data, _ = manager.read(9)
        assert data == "cold"
        assert manager.stats.read_misses == 1
        assert ssc.contains(9)

    def test_all_data_clean(self):
        manager, ssc, _disk = make_wt()
        for lbn in range(100):
            manager.write(lbn, lbn)
        dirty, _ = ssc.exists(0, 1000)
        assert dirty == []

    def test_zero_host_memory(self):
        manager, _ssc, _disk = make_wt()
        for lbn in range(100):
            manager.write(lbn, lbn)
        assert manager.host_memory_bytes() == 0

    def test_recover_is_instant(self):
        manager, _ssc, _disk = make_wt()
        assert manager.recover_us() == 0.0

    def test_integrity_under_churn(self):
        manager, _ssc, disk = make_wt()
        rng = random.Random(1)
        shadow = {}
        for i in range(5000):
            lbn = rng.randrange(40_000)
            if rng.random() < 0.5:
                shadow[lbn] = ("v", i)
                manager.write(lbn, shadow[lbn])
            else:
                data, _ = manager.read(lbn)
                assert data == shadow.get(lbn)


class TestWriteBack:
    def test_write_stays_in_cache(self):
        manager, ssc, disk = make_wb()
        manager.write(5, "dirty")
        assert disk.peek(5) is None
        data, _ = manager.read(5)
        assert data == "dirty"
        assert 5 in manager.dirty_table

    def test_cleaned_data_still_readable(self):
        manager, ssc, disk = make_wb()
        manager.write(5, "keep-me")
        manager.flush_dirty()
        assert disk.peek(5) == "keep-me"
        data, _ = manager.read(5)  # still cached (clean) until evicted
        assert data == "keep-me"

    def test_clean_mode_keeps_blocks_warm(self):
        """Write-back issues clean, not evict: every written-back block
        stays readable from the cache until the SSC evicts it."""
        manager, ssc, _disk = make_wb(dirty_threshold=0.05)
        rng = random.Random(4)
        lbns = [rng.randrange(1000) for _ in range(1200)]
        for i, lbn in enumerate(lbns):
            manager.write(lbn, ("clean", i))
        assert manager.stats.writebacks > 0
        assert manager.stats.evictions == 0
        assert ssc.stats.silent_evictions == 0
        for lbn in set(lbns):
            manager.read(lbn)
        assert manager.stats.read_misses == 0
        assert manager.stats.read_hits == len(set(lbns))

    def test_host_memory_tracks_dirty_only(self):
        manager, _ssc, _disk = make_wb()
        for lbn in range(50):
            manager.write(lbn, lbn)
        dirty_memory = manager.host_memory_bytes()
        assert dirty_memory == len(manager.dirty_table) * ENTRY_BYTES
        manager.flush_dirty()
        assert manager.host_memory_bytes() == 0

    def test_recover_rebuilds_dirty_table(self):
        manager, ssc, disk = make_wb()
        for lbn in range(40):
            manager.write(lbn, ("d", lbn))
        ssc.crash()
        ssc.recover()
        manager.dirty_table.clear()
        manager.recover_us(disk.capacity_blocks)
        dirty, _ = ssc.exists(0, disk.capacity_blocks)
        assert sorted(manager.dirty_table.iter_lru()) == sorted(dirty)
        assert len(dirty) == 40

    def test_integrity_with_writeback_cycles(self):
        manager, _ssc, disk = make_wb(dirty_threshold=0.10)
        rng = random.Random(3)
        shadow = {}
        for i in range(6000):
            lbn = rng.randrange(20_000)
            if rng.random() < 0.6:
                shadow[lbn] = ("v", i)
                manager.write(lbn, shadow[lbn])
            else:
                data, _ = manager.read(lbn)
                assert data == shadow.get(lbn)

    def test_miss_after_silent_eviction_falls_to_disk(self):
        manager, ssc, disk = make_wb()
        rng = random.Random(4)
        shadow = {}
        for i in range(8000):
            lbn = rng.randrange(60_000)
            shadow[lbn] = ("v", i)
            manager.write(lbn, shadow[lbn])
        assert ssc.stats.silent_evictions > 0
        for lbn, expected in list(shadow.items())[:300]:
            data, _ = manager.read(lbn)
            assert data == expected
