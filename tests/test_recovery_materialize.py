"""Unit tests for recovery materialization (the chip-reconciliation pass)."""

import pytest

from repro.check.oracle import _check_structure
from repro.flash.block import BlockKind
from repro.flash.geometry import FlashGeometry
from repro.ssc import recovery
from repro.ssc.device import SolidStateCache


@pytest.fixture
def ssc():
    return SolidStateCache.ssc(
        FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
    )


class TestMaterialization:
    def test_orphan_pages_invalidated(self, ssc):
        """Pages whose mapping records were lost with the buffer become
        INVALID, not resurrected garbage."""
        ssc.write_clean(100, "buffered")  # mapping record sits in the buffer
        location = ssc.engine.current_location(100)
        assert location is not None
        _pbn, _offset, ppn = location
        lost = ssc.crash()
        assert lost >= 1
        ssc.recover()
        block, offset = ssc.chip.locate(ppn)
        assert block.written >> offset & 1 and not block.valid >> offset & 1

    def test_mapped_pages_stay_valid(self, ssc):
        ssc.write_dirty(100, "durable")
        location = ssc.engine.current_location(100)
        _pbn, _offset, ppn = location
        ssc.crash()
        ssc.recover()
        block, offset = ssc.chip.locate(ppn)
        assert block.valid >> offset & 1
        assert block.dirty >> offset & 1

    def test_unwritten_allocated_block_returns_to_free_pool(self, ssc):
        """A log block opened but never programmed before the crash must
        rejoin the free list."""
        ssc.write_dirty(1, "x")  # opens the first log block
        free_before = ssc.engine.chip.free_total
        ssc.crash()
        ssc.recover()
        assert ssc.engine.chip.free_total >= free_before

    def test_log_block_fifo_order_by_write_sequence(self, ssc):
        """Recovered log blocks are re-queued oldest-first so the merge
        victim policy (FIFO) keeps its meaning."""
        # Fill several log blocks with dirty data (sync-flushed).
        for i in range(40):
            ssc.write_dirty(i * 100, i)
        ssc.crash()
        ssc.recover()
        queue = list(ssc.engine._log_blocks)
        assert len(queue) >= 2
        oldest_seq = []
        for pbn in queue:
            block = ssc.chip.block(pbn)
            seqs = [
                seq for offset, seq in enumerate(block.seqs)
                if block.written >> offset & 1
            ]
            oldest_seq.append(min(seqs))
        assert oldest_seq == sorted(oldest_seq)

    def test_block_kinds_rebuilt(self, ssc):
        """After recovery, every block's kind matches its contents."""
        for i in range(600):
            ssc.write_dirty(i % 180, i)  # forces merges -> data blocks
        ssc.crash()
        ssc.recover()
        reverse = ssc.engine.data_map.reverse
        for plane in ssc.chip.planes:
            for block in plane.blocks.values():
                if block.pbn in reverse:
                    assert block.kind is BlockKind.DATA
                elif block.kind is BlockKind.DATA:
                    pytest.fail(f"unmapped DATA block {block.pbn}")

    def test_counts_consistent_after_recovery(self, ssc):
        for i in range(500):
            ssc.write_dirty(i % 150, i)
        ssc.crash()
        ssc.recover()
        for plane in ssc.chip.planes:
            for block in plane.blocks.values():
                valid = sum(
                    block.valid >> offset & 1 for offset in range(block.num_pages)
                )
                dirty = sum(
                    block.valid >> offset & block.dirty >> offset & 1
                    for offset in range(block.num_pages)
                )
                assert block.valid_count == valid, block
                assert block.dirty_count == dirty, block

    def test_reverse_map_rebuilt(self, ssc):
        for i in range(600):
            ssc.write_dirty(i % 180, i)
        ssc.crash()
        ssc.recover()
        for group, pbn in ssc.engine.data_map.items():
            assert ssc.engine.data_map.group_of(pbn) == group

    def test_lost_clean_of_block_mapped_page_reverts_to_dirty(self, ssc):
        """A data block's dirty flags come from the recovered block-map
        entry, so a CLEAN record lost with the log buffer rolls the page
        back to dirty even though the flash copy was marked clean."""
        # Block 7 leads into a sequential run over group 1 (blocks 8-15),
        # which becomes group 1's data block when full.
        for lbn in range(7, 16):
            ssc.write_dirty(lbn, lbn)
        assert ssc.engine.data_map.lookup(1) is not None
        ssc.clean(11)  # asynchronous: the CLEAN record stays buffered
        assert not ssc.is_dirty(11)
        assert ssc.crash() >= 1
        ssc.recover()
        dirty, _cost = ssc.exists(7, 16)
        assert dirty == list(range(7, 16))


class TestUncorroboratedBlockEntries:
    """A block-map entry no page corroborates (its block erased, and
    perhaps reused, after the entry was logged) is dropped, and its
    block is reconciled as an unmapped block."""

    STALE_GROUP = 9

    def recover_with_extra_entry(
        self, ssc, monkeypatch, pbn, valid_bitmap=0xFF, stale_first=False
    ):
        for lbn in range(32):  # groups 1-3 become data blocks
            ssc.write_dirty(lbn, ("v", lbn))
        if callable(pbn):
            pbn = pbn(ssc)
        real_replay = recovery.replay

        def replay_with_stale_entry(checkpoint, records, pages_per_block):
            state = real_replay(checkpoint, records, pages_per_block)
            stale = recovery._BlockEntry(
                pbn=pbn, dirty_bitmap=valid_bitmap, valid_bitmap=valid_bitmap,
            )
            if stale_first:
                state.block_entries = {
                    self.STALE_GROUP: stale, **state.block_entries
                }
            else:
                state.block_entries[self.STALE_GROUP] = stale
            return state

        monkeypatch.setattr(recovery, "replay", replay_with_stale_entry)
        ssc.crash()
        ssc.recover()

    def assert_rest_intact(self, ssc):
        assert _check_structure(ssc, "t") == []
        dirty, _cost = ssc.exists(0, 32)
        assert dirty == list(range(32))
        for lbn in range(32):
            assert ssc.read(lbn)[0] == ("v", lbn)

    def test_entry_into_an_erased_block_is_dropped(self, ssc, monkeypatch):
        free_pbn = 5
        assert ssc.chip.planes[0].is_free(free_pbn)
        self.recover_with_extra_entry(ssc, monkeypatch, free_pbn)
        assert ssc.engine.data_map.lookup(self.STALE_GROUP) is None
        assert ssc.chip.block(free_pbn).kind is BlockKind.FREE
        assert ssc.chip.planes[0].is_free(free_pbn)
        self.assert_rest_intact(ssc)

    def test_entry_into_a_reused_log_block_is_dropped(self, ssc, monkeypatch):
        ssc.write_dirty(0, ("v", 0))
        log_pbn = ssc.engine.current_location(0)[0]
        self.recover_with_extra_entry(ssc, monkeypatch, log_pbn)
        assert ssc.engine.data_map.lookup(self.STALE_GROUP) is None
        assert ssc.chip.block(log_pbn).kind is BlockKind.LOG
        assert ssc.engine.current_location(0)[0] == log_pbn
        self.assert_rest_intact(ssc)

    def test_entry_whose_valid_bitmap_covers_no_page_is_dropped(
        self, ssc, monkeypatch
    ):
        # Group 9's own page sits page-mapped in a log block; an entry
        # naming that block with an empty valid bitmap corroborates
        # nothing, so the page stays reachable through the page map only.
        ssc.write_dirty(72, ("v", 72))
        log_pbn = ssc.engine.current_location(72)[0]
        self.recover_with_extra_entry(ssc, monkeypatch, log_pbn, valid_bitmap=0)
        assert ssc.engine.data_map.lookup(self.STALE_GROUP) is None
        assert ssc.chip.block(log_pbn).kind is BlockKind.LOG
        assert ssc.read(72)[0] == ("v", 72)
        assert ssc.is_dirty(72)
        self.assert_rest_intact(ssc)

    @pytest.mark.parametrize("stale_first", [False, True])
    def test_entry_into_another_groups_data_block_is_dropped(
        self, ssc, monkeypatch, stale_first
    ):
        # Whichever entry replay yields last, the block stays group 1's:
        # its pages corroborate group 1 and none of group 9's.
        data_pbns = []

        def group_1_block(ssc):
            data_pbns.append(ssc.engine.data_map.lookup(1))
            return data_pbns[0]

        self.recover_with_extra_entry(
            ssc, monkeypatch, group_1_block, stale_first=stale_first
        )
        data_pbn, = data_pbns
        assert data_pbn is not None
        assert ssc.engine.data_map.lookup(self.STALE_GROUP) is None
        assert ssc.engine.data_map.lookup(1) == data_pbn
        assert ssc.chip.block(data_pbn).kind is BlockKind.DATA
        self.assert_rest_intact(ssc)
