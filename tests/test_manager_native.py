"""Unit tests for the native (FlashCache-style) cache manager."""

import random

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.disk.model import Disk
from repro.engine.replay import ReplayEngine
from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.ftl.ssd import SSD
from repro.manager.native import (
    HOST_ENTRY_BYTES,
    SET_SIZE,
    NativeCacheManager,
)
from repro.traces.record import Trace


def make_native(mode="wb", consistency=True, disk_blocks=100_000, **kwargs):
    geometry = FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)
    ssd = SSD(geometry=geometry)
    disk = Disk(disk_blocks)
    config = SystemConfig(kind=SystemKind.NATIVE, mode=CacheMode(mode),
                          consistency=consistency, **kwargs)
    return NativeCacheManager(ssd, disk, config), ssd, disk


class TestConfig:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            SystemConfig(kind=SystemKind.NATIVE, mode="weird")

    def test_kind_must_be_a_system_kind(self):
        # The string value is not the member: it would otherwise build
        # a FlashTier write-back system on an SSC.
        with pytest.raises(ConfigError, match="kind must be a SystemKind"):
            SystemConfig(kind="native")

    def test_bad_thresholds(self):
        for threshold in (0.0, 1.5):
            with pytest.raises(ConfigError):
                SystemConfig(kind=SystemKind.NATIVE, dirty_threshold=threshold)


class TestWriteBack:
    def test_read_miss_populates_cache(self):
        manager, ssd, disk = make_native()
        disk.write(42, "on-disk")
        data, _ = manager.read(42)
        assert data == "on-disk"
        assert manager.stats.read_misses == 1
        data, _ = manager.read(42)
        assert data == "on-disk"
        assert manager.stats.read_hits == 1

    def test_write_goes_to_ssd_only(self):
        manager, ssd, disk = make_native()
        manager.write(42, "dirty")
        assert disk.peek(42) is None  # not written back yet
        data, _ = manager.read(42)
        assert data == "dirty"

    def test_dirty_block_written_back_on_eviction(self):
        manager, ssd, disk = make_native()
        rng = random.Random(1)
        shadow = {}
        for i in range(5000):
            lbn = rng.randrange(50_000)
            shadow[lbn] = ("w", lbn, i)
            manager.write(lbn, shadow[lbn])
        # Every block must be readable with its newest value, from
        # wherever it now lives.
        for lbn, expected in list(shadow.items())[:500]:
            data, _ = manager.read(lbn)
            assert data == expected

    def test_dirty_limit_is_a_share_of_the_data_slots(self):
        manager, _ssd, _disk = make_native(dirty_threshold=0.05)
        assert manager.stats.dirty_limit == int(0.05 * manager.data_pages)

    def test_metadata_writes_happen_with_consistency(self):
        manager, _ssd, _disk = make_native(consistency=True)
        for lbn in range(50):
            manager.write(lbn, lbn)
        assert manager.stats.metadata_writes > 0

    def test_no_metadata_without_consistency(self):
        manager, _ssd, _disk = make_native(consistency=False)
        for lbn in range(50):
            manager.write(lbn, lbn)
        assert manager.stats.metadata_writes == 0

    def test_consistency_costs_time(self):
        with_c, _, _ = make_native(consistency=True)
        without_c, _, _ = make_native(consistency=False)
        rng = random.Random(3)
        sequence = [rng.randrange(10_000) for _ in range(1500)]
        cost_with = sum(with_c.write(lbn, 1) for lbn in sequence)
        cost_without = sum(without_c.write(lbn, 1) for lbn in sequence)
        assert cost_with > cost_without


class TestDurability:
    """Native-D is durable only if every write that makes a block dirty
    has a programmed metadata page holding that state by the time the
    write completes: each such write programs a journal page itself."""

    @staticmethod
    def _dirtying_writes_without_a_page(manager, requests):
        """Serve ``requests`` (``(is_write, lbn)`` pairs) and return the
        lbns of writes that made a block dirty (a new mapping, or a
        clean block turned dirty) without programming a metadata page."""
        unpaid = []
        serve_write = manager.write

        def write(lbn, data):
            dirties = lbn not in manager.dirty_table
            pages_before = manager.stats.metadata_writes
            completion = serve_write(lbn, data)
            if dirties and manager.stats.metadata_writes == pages_before:
                unpaid.append(lbn)
            return completion

        manager.write = write
        trace = Trace()
        for is_write, lbn in requests:
            trace.add_run(is_write, lbn)
        ReplayEngine(manager, queue_depth=1).run(trace)
        return unpaid

    def test_every_write_of_a_sequential_run_pays_a_page(self):
        manager, _ssd, _disk = make_native()
        requests = [(True, lbn) for lbn in range(1000, 1064)]
        assert self._dirtying_writes_without_a_page(manager, requests) == []
        assert manager.stats.metadata_writes >= 64

    def test_every_dirtying_write_of_a_random_replay_pays_a_page(self):
        manager, _ssd, _disk = make_native()
        rng = random.Random(6)
        requests = []
        while len(requests) < 4000:
            # Runs of consecutive blocks, as file writes make, mixed
            # with reads that insert clean blocks a later write dirties.
            first = rng.randrange(6000)
            is_write = rng.random() < 0.7
            requests += [(is_write, first + k) for k in range(rng.randint(1, 24))]
        assert self._dirtying_writes_without_a_page(manager, requests) == []
        assert manager.stats.evictions > 0
        assert manager.stats.writebacks > 0


class TestWriteThrough:
    def test_write_hits_disk_and_cache(self):
        manager, ssd, disk = make_native(mode="wt")
        manager.write(42, "both")
        assert disk.peek(42) == "both"
        data, _ = manager.read(42)
        assert data == "both"
        assert manager.stats.read_hits == 1

    def test_wt_never_persists_metadata(self):
        manager, _ssd, _disk = make_native(mode="wt")
        for lbn in range(100):
            manager.write(lbn, lbn)
        assert manager.stats.metadata_writes == 0

    def test_wt_has_no_dirty_blocks(self):
        manager, _ssd, _disk = make_native(mode="wt")
        for lbn in range(100):
            manager.write(lbn, lbn)
        assert len(manager.dirty_table) == 0


class TestMemoryAndRecovery:
    def test_host_memory_formula(self):
        manager, _ssd, _disk = make_native()
        for lbn in range(100):
            manager.write(lbn, lbn)
        assert manager.host_memory_bytes() == manager.cached_blocks() * HOST_ENTRY_BYTES

    def test_recover_manager_scales_with_cache(self):
        small, _, _ = make_native()
        for lbn in range(50):
            small.write(lbn, lbn)
        large, _, _ = make_native()
        for lbn in range(1500):
            large.write(lbn, lbn)
        assert large.recover_manager_us() > small.recover_manager_us()

    def test_device_oob_scan_slowest(self):
        """Fig. 5's ordering: OOB device scan >> manager metadata read."""
        manager, ssd, _disk = make_native()
        for lbn in range(500):
            manager.write(lbn, lbn)
        assert ssd.oob_recovery_scan_us() > manager.recover_manager_us()


class TestIntegrity:
    def test_mixed_workload_integrity(self):
        manager, _ssd, disk = make_native()
        rng = random.Random(4)
        shadow = {}
        for i in range(6000):
            lbn = rng.randrange(30_000)
            if rng.random() < 0.7:
                shadow[lbn] = ("v", i)
                manager.write(lbn, shadow[lbn])
            else:
                data, _ = manager.read(lbn)
                assert data == shadow.get(lbn)


class TestSetReplacement:
    def test_full_set_evicts_least_recently_touched(self):
        manager, _ssd, disk = make_native(mode="wt")
        target = manager._set_of_lbn(0)
        capacity = len(manager._free_slots[target])
        same_set = [lbn for lbn in range(10_000)
                    if manager._set_of_lbn(lbn) == target][:capacity + 1]
        for lbn in same_set:
            disk.write(lbn, ("disk", lbn))
        for lbn in same_set[:capacity]:
            manager.read(lbn)
        # A read hit refreshes the oldest block, so the second is evicted.
        manager.read(same_set[0])
        assert manager.stats.read_hits == 1
        manager.read(same_set[capacity])
        assert manager.stats.evictions == 1
        assert same_set[0] in manager._map
        assert same_set[1] not in manager._map
        assert manager.cached_blocks() == capacity

    def test_mapped_slot_lies_in_the_lbns_set(self):
        """Hits and re-writes find a mapped lbn's set from its slot, so
        every mapped slot must lie in the set its lbn hashes to."""
        manager, _ssd, _disk = make_native(mode="wb")
        rng = random.Random(5)
        for i in range(6000):
            lbn = rng.randrange(3000)
            if rng.random() < 0.6:
                manager.write(lbn, ("v", i))
            else:
                manager.read(lbn)
        assert manager.stats.evictions > 0
        assert manager.stats.read_hits > 0
        for lbn, slot in manager._map.items():
            set_index = manager._set_of_lbn(lbn)
            assert manager._set_of_slot(slot) == set_index
            assert lbn in manager._set_lru[set_index]


class TestSetLayout:
    def test_metadata_region_and_set_count(self):
        manager, ssd, _disk = make_native()
        assert ssd.capacity_pages == 1792
        assert manager._meta_pages == 35  # META_FRACTION of the SSD
        assert manager.data_pages == 1792 - 35
        assert manager.num_sets == 1757 // SET_SIZE

    def test_every_data_slot_lies_in_one_full_set(self):
        manager, _ssd, _disk = make_native()
        slots = [slot for free in manager._free_slots for slot in free]
        assert sorted(slots) == list(range(manager.num_sets * SET_SIZE))
        assert all(len(free) == SET_SIZE for free in manager._free_slots)
        for set_index, free in enumerate(manager._free_slots):
            assert all(manager._set_of_slot(slot) == set_index for slot in free)

    def test_small_ssd_is_one_set(self):
        ssd = SSD(geometry=FlashGeometry(planes=1, blocks_per_plane=16,
                                         pages_per_block=4))
        manager = NativeCacheManager(ssd, Disk(1000))
        assert manager.data_pages < SET_SIZE
        assert manager.num_sets == 1
        assert len(manager._free_slots[0]) == manager.data_pages
        for lbn in range(3 * manager.data_pages):
            manager.write(lbn, ("v", lbn))
        assert manager.cached_blocks() == manager.data_pages
        assert manager.stats.evictions > 0
