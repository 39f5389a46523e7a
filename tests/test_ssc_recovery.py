"""Crash-recovery tests: the paper's §3.5 guarantees after power failure.

1. A read following a write of dirty data returns that data.
2. A read following a write of clean data returns that data or
   not-present — never anything older.
3. A read following an eviction returns not-present.
"""

import random

import pytest

from repro.errors import NotPresentError, RecoveryError
from repro.flash.geometry import FlashGeometry
from repro.ssc.device import SolidStateCache
from repro.ssc.recovery import replay
from repro.ssc.log import LogRecord, RecordKind


class TestGuaranteeOne:
    """Dirty data is durable."""

    def test_dirty_survives_immediate_crash(self, ssc):
        ssc.write_dirty(5, "must-survive")
        ssc.crash()
        ssc.recover()
        data, _ = ssc.read(5)
        assert data == "must-survive"

    def test_many_dirty_blocks_survive(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        rng = random.Random(11)
        dirty = {}
        base = 10_000
        for i in range(800):
            lbn = base + rng.randrange(1200)  # clustered: fits the cache
            dirty[lbn] = ("d", lbn, i)
            ssc.write_dirty(lbn, dirty[lbn])
        ssc.crash()
        ssc.recover()
        for lbn, expected in dirty.items():
            data, _ = ssc.read(lbn)
            assert data == expected

    def test_dirty_survives_gc_then_crash(self, medium_geometry):
        """Dirty data that has been moved by merges must still recover."""
        ssc = SolidStateCache.ssc(medium_geometry)
        rng = random.Random(12)
        dirty = {}
        for i in range(600):
            lbn = rng.randrange(600)
            dirty[lbn] = ("d", lbn, i)
            ssc.write_dirty(lbn, dirty[lbn])
        # Clean churn to force merges and eviction around the dirty set.
        for i in range(2000):
            ssc.write_clean(5000 + rng.randrange(50_000), i)
        ssc.crash()
        ssc.recover()
        for lbn, expected in dirty.items():
            data, _ = ssc.read(lbn)
            assert data == expected

    def test_overwritten_dirty_returns_newest(self, ssc):
        ssc.write_dirty(5, "old")
        ssc.write_dirty(5, "new")
        ssc.crash()
        ssc.recover()
        data, _ = ssc.read(5)
        assert data == "new"


class TestGuaranteeTwo:
    """Clean data: newest version or not-present, never stale."""

    def test_flushed_clean_data_survives(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        ssc.write_clean(5, "clean")
        ssc.checkpoint_now()
        ssc.crash()
        ssc.recover()
        data, _ = ssc.read(5)
        assert data == "clean"

    def test_buffered_clean_write_may_vanish_but_never_stale(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        ssc.write_clean(5, "will-be-buffered")
        lost = ssc.crash()
        ssc.recover()
        try:
            data, _ = ssc.read(5)
            assert data == "will-be-buffered"
        except NotPresentError:
            pass  # "as if silently evicted" — allowed by the contract

    def test_replaced_clean_never_reverts(self, medium_geometry):
        """After overwriting clean data, a crash must never expose the
        old version (the replace-sync rule of §4.2.1)."""
        ssc = SolidStateCache.ssc(medium_geometry)
        ssc.write_clean(5, "version-1")
        ssc.checkpoint_now()
        ssc.write_clean(5, "version-2")
        ssc.crash()
        ssc.recover()
        try:
            data, _ = ssc.read(5)
            assert data == "version-2"
        except NotPresentError:
            pass

    def test_clean_command_may_revert_dirty_state_only(self, ssc):
        """§4.2.1: "after a crash cleaned blocks may return to their
        dirty state" — the data itself is never lost."""
        ssc.write_dirty(5, "x")
        ssc.clean(5)  # asynchronous: may be lost
        ssc.crash()
        ssc.recover()
        data, _ = ssc.read(5)
        assert data == "x"
        # Dirty state may have reverted; exists() must still be sane.
        dirty, _ = ssc.exists(0, 100)
        assert dirty in ([], [5])


class TestGuaranteeThree:
    """Reads after evictions fail, even across crashes."""

    def test_eviction_survives_crash(self, ssc):
        ssc.write_dirty(5, "x")
        ssc.evict(5)
        ssc.crash()
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(5)

    def test_silent_eviction_not_resurrected(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        rng = random.Random(13)
        shadow = {}
        for i in range(5000):
            lbn = rng.randrange(100_000)
            shadow[lbn] = ("c", lbn, i)
            ssc.write_clean(lbn, shadow[lbn])
        assert ssc.stats.silent_evictions > 0
        ssc.crash()
        ssc.recover()
        # Every readable block must hold its newest version.
        for lbn, expected in shadow.items():
            try:
                data, _ = ssc.read(lbn)
            except NotPresentError:
                continue
            assert data == expected


class TestRecoveryMechanics:
    def test_recovery_time_positive_and_grows(self, medium_geometry):
        """With a fresh checkpoint, recovery time tracks mapping size."""
        small = SolidStateCache.ssc(medium_geometry)
        for i in range(50):
            small.write_dirty(i, i)
        small.checkpoint_now()
        small.crash()
        t_small = small.recover()

        big_geometry = FlashGeometry(planes=8, blocks_per_plane=64, pages_per_block=16)
        large = SolidStateCache.ssc(big_geometry)
        for i in range(6000):
            large.write_dirty(i, i)
        large.checkpoint_now()
        large.crash()
        t_large = large.recover()
        assert t_small > 0
        assert t_large > t_small

    def test_device_operable_after_recovery(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        rng = random.Random(14)
        for i in range(2000):
            ssc.write_clean(rng.randrange(20_000), i)
        ssc.crash()
        ssc.recover()
        shadow = {}
        for i in range(2000):
            lbn = rng.randrange(20_000)
            shadow[lbn] = ("post", i)
            ssc.write_clean(lbn, shadow[lbn])
        hits = 0
        for lbn, expected in shadow.items():
            try:
                data, _ = ssc.read(lbn)
            except NotPresentError:
                continue
            assert data == expected
            hits += 1
        assert hits > 0

    def test_lookups_go_to_the_rebuilt_maps(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        for lbn in range(300):
            ssc.write_dirty(lbn, ("d", lbn))
        engine = ssc.engine
        before = (engine.log_map.inner, engine.data_map.inner)
        ssc.crash()
        ssc.recover()
        rebuilt = (engine.log_map.inner, engine.data_map.inner)
        assert not set(map(id, rebuilt)) & set(map(id, before))
        stale = [inner.total_lookups for inner in before]
        counted = [inner.total_lookups for inner in rebuilt]
        for lbn in range(300):
            assert ssc.read(lbn)[0] == ("d", lbn)
        assert [inner.total_lookups for inner in before] == stale
        assert all(
            inner.total_lookups > count for inner, count in zip(rebuilt, counted)
        )
        for logged in (engine.log_map, engine.data_map):
            assert logged.lookup.__self__ is logged.inner

    def test_double_crash_recover(self, ssc):
        ssc.write_dirty(1, "a")
        ssc.crash()
        ssc.recover()
        ssc.write_dirty(2, "b")
        ssc.crash()
        ssc.recover()
        assert ssc.read(1)[0] == "a"
        assert ssc.read(2)[0] == "b"

    def test_recovery_without_checkpoint(self, ssc):
        """Log-only recovery (no checkpoint written yet)."""
        ssc.write_dirty(1, "x")
        assert ssc.checkpoints.latest() is None or True
        ssc.crash()
        ssc.recover()
        assert ssc.read(1)[0] == "x"

    def test_recovery_after_checkpoint_truncation(self, medium_geometry):
        ssc = SolidStateCache.ssc(medium_geometry)
        for i in range(200):
            ssc.write_dirty(i, ("pre", i))
        ssc.checkpoint_now()
        for i in range(100):
            ssc.write_dirty(1000 + i, ("post", i))
        ssc.crash()
        ssc.recover()
        assert ssc.read(5)[0] == ("pre", 5)
        assert ssc.read(1050)[0] == ("post", 50)


class TestReplayUnit:
    def test_out_of_order_records_rejected(self):
        records = [
            LogRecord(5, RecordKind.INSERT_PAGE, 1, 2),
            LogRecord(3, RecordKind.INSERT_PAGE, 1, 2),
        ]
        with pytest.raises(RecoveryError):
            replay(None, records, pages_per_block=8)

    def test_insert_then_remove_page(self):
        records = [
            LogRecord(1, RecordKind.INSERT_PAGE, 10, 99, extra=1),
            LogRecord(2, RecordKind.REMOVE_PAGE, 10, 99),
        ]
        state = replay(None, records, pages_per_block=8)
        assert 10 not in state.page_entries

    def test_stale_remove_ignored(self):
        records = [
            LogRecord(1, RecordKind.INSERT_PAGE, 10, 99),
            LogRecord(2, RecordKind.INSERT_PAGE, 10, 77),
            LogRecord(3, RecordKind.REMOVE_PAGE, 10, 99),  # stale ppn
        ]
        state = replay(None, records, pages_per_block=8)
        assert state.page_entries[10] == (77, False)

    def test_clean_record_clears_dirty(self):
        records = [
            LogRecord(1, RecordKind.INSERT_PAGE, 10, 99, extra=1),
            LogRecord(2, RecordKind.CLEAN, 10),
        ]
        state = replay(None, records, pages_per_block=8)
        assert state.page_entries[10] == (99, False)

    def test_invalidate_clears_block_bits(self):
        valid = 0b111
        records = [
            LogRecord(1, RecordKind.INSERT_BLOCK, 2, 5, extra=(valid << 64) | 0b001),
            LogRecord(2, RecordKind.INVALIDATE_PAGE, 16, 40),  # group 2, offset 0
        ]
        state = replay(None, records, pages_per_block=8)
        entry = state.block_entries[2]
        assert entry.valid_bitmap == 0b110
        assert entry.dirty_bitmap == 0b000


def test_bit_rot_before_a_full_merge_is_never_recovered(medium_geometry):
    """A page damaged before a merge copies it stays damaged: recovery
    must not map it, and no read may return its payload."""
    ssc = SolidStateCache.ssc(medium_geometry)
    engine = ssc.engine
    group = 1
    lbns = [group * medium_geometry.pages_per_block + i for i in range(4)]
    for lbn in lbns:
        ssc.write_dirty(lbn, ("d", lbn))
    rotten = lbns[1]
    pbn, offset, _ppn = engine.current_location(rotten)
    block = ssc.chip.block(pbn)
    block.data[offset] = ("<bitrot>", block.data[offset])  # as flip_page_data

    merges = engine.stats.full_merges
    engine._full_merge_group(group)
    assert engine.stats.full_merges == merges + 1
    assert engine.current_location(rotten)[0] != pbn  # the merge moved it
    ssc.write_dirty(10_000, "sync")  # its flush makes the merge durable
    ssc.crash()
    ssc.recover()

    assert not ssc.contains(rotten)
    with pytest.raises(NotPresentError):
        ssc.read(rotten)
    for lbn in lbns:
        if lbn != rotten:
            assert ssc.read(lbn)[0] == ("d", lbn)
