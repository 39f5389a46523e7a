"""Unit tests for SSC checkpoints."""


from repro.flash.timing import TimingModel
from repro.ssc.checkpoint import (
    BLOCK_ENTRY_BYTES,
    Checkpoint,
    CheckpointStore,
    HEADER_BYTES,
    PAGE_ENTRY_BYTES,
)


def make_checkpoint(seq=10, pages=3, blocks=2):
    return Checkpoint(
        seq=seq,
        page_entries=[(i, i + 100, bool(i % 2)) for i in range(pages)],
        block_entries=[(i, i + 50, 0b101, 0b111) for i in range(blocks)],
    )


class TestCheckpoint:
    def test_checksum_computed_on_creation(self):
        checkpoint = make_checkpoint()
        assert checkpoint.checksum != 0
        assert checkpoint.is_intact()

    def test_tamper_detected(self):
        checkpoint = make_checkpoint()
        checkpoint.page_entries.append((99, 999, False))
        assert not checkpoint.is_intact()

    def test_bitmap_tamper_detected(self):
        checkpoint = make_checkpoint()
        group, pbn, dirty, valid = checkpoint.block_entries[0]
        checkpoint.block_entries[0] = (group, pbn, dirty ^ 1, valid)
        assert not checkpoint.is_intact()

    def test_page_dirty_flag_tamper_detected(self):
        # A dirty page restored as clean could be silently evicted while
        # it holds the only copy of its data.
        checkpoint = make_checkpoint()
        lbn, ppn, dirty = checkpoint.page_entries[1]
        checkpoint.page_entries[1] = (lbn, ppn, not dirty)
        assert not checkpoint.is_intact()

    def test_paired_group_and_bitmap_flip_detected(self):
        # group and dirty_bm bit 0 flipped together keep their XOR.
        checkpoint = make_checkpoint()
        group, pbn, dirty, valid = checkpoint.block_entries[0]
        checkpoint.block_entries[0] = (group ^ 1, pbn, dirty ^ 1, valid)
        assert not checkpoint.is_intact()

    def test_size_formula(self):
        checkpoint = make_checkpoint(pages=3, blocks=2)
        assert checkpoint.size_bytes() == (
            HEADER_BYTES + 3 * PAGE_ENTRY_BYTES + 2 * BLOCK_ENTRY_BYTES
        )


class TestCheckpointChecksum:
    def test_deterministic(self):
        assert make_checkpoint().checksum == make_checkpoint().checksum

    def test_sensitive_to_values(self):
        checkpoint = make_checkpoint()
        lbn, ppn, dirty = checkpoint.page_entries[0]
        checkpoint.page_entries[0] = (lbn, ppn + 1, dirty)
        assert checkpoint.compute_checksum() != make_checkpoint().checksum

    def test_sensitive_to_order(self):
        checkpoint = make_checkpoint()
        checkpoint.page_entries.reverse()
        assert checkpoint.compute_checksum() != make_checkpoint().checksum

    def test_empty_checkpoint_covers_seq(self):
        assert (make_checkpoint(seq=1, pages=0, blocks=0).checksum
                != make_checkpoint(seq=2, pages=0, blocks=0).checksum)

    def test_entry_kinds_not_interchangeable(self):
        # Same leading fields: the field count tells the kinds apart.
        pages = Checkpoint(seq=1, page_entries=[(1, 2, 3)], block_entries=[])
        blocks = Checkpoint(seq=1, page_entries=[], block_entries=[(1, 2, 3, 0)])
        assert pages.checksum != blocks.checksum


class TestCheckpointStore:
    def make_store(self):
        return CheckpointStore(TimingModel())

    def test_empty_store(self):
        assert self.make_store().latest() is None

    def test_write_and_read_back(self):
        store = self.make_store()
        checkpoint = make_checkpoint(seq=5)
        cost = store.write(checkpoint)
        assert cost > 0
        assert store.latest() is checkpoint

    def test_alternating_slots_keep_previous(self):
        store = self.make_store()
        first = make_checkpoint(seq=5)
        second = make_checkpoint(seq=9)
        store.write(first)
        store.write(second)
        assert store.latest() is second
        # Corrupt the newest: the store must fall back to the older one.
        # In-place entry mutation must drop the memoized entry CRC (the
        # contract every fault injector follows).
        second.page_entries.append((1, 2, True))
        second.invalidate_checksum_memo()
        assert store.latest() is first

    def test_torn_checksum_detected_without_memo_invalidation(self):
        # The torn-write path flips only the STORED checksum field; the
        # memoized entry CRC stays valid and the mismatch is detected
        # with no invalidation call.
        store = self.make_store()
        checkpoint = make_checkpoint(seq=5)
        store.write(checkpoint)
        assert store.latest() is checkpoint
        checkpoint.checksum ^= 0x1
        assert store.latest() is None

    def test_latest_picks_highest_seq(self):
        store = self.make_store()
        store.write(make_checkpoint(seq=9))
        store.write(make_checkpoint(seq=5))
        assert store.latest().seq == 9

    def test_equal_seq_returns_slot_zero(self):
        store = self.make_store()
        first, second = make_checkpoint(seq=7), make_checkpoint(seq=7)
        store.write(first)   # slot 1
        store.write(second)  # slot 0
        assert store.latest() is second
        store.write(make_checkpoint(seq=7))  # slot 1 again
        assert store.latest() is second

    def test_one_torn_slot_falls_back_to_the_other(self):
        store = self.make_store()
        older, newer = make_checkpoint(seq=5), make_checkpoint(seq=9)
        store.write(older)
        store.write(newer)
        newer.checksum ^= 0x1
        assert store.latest() is older
        newer.checksum ^= 0x1
        older.checksum ^= 0x1
        assert store.latest() is newer

    def test_both_torn_returns_none(self):
        store = self.make_store()
        checkpoints = [make_checkpoint(seq=5), make_checkpoint(seq=9)]
        for checkpoint in checkpoints:
            store.write(checkpoint)
            checkpoint.checksum ^= 0x1
        assert store.latest() is None

    def test_read_cost_scales_with_size(self):
        store = self.make_store()
        small = make_checkpoint(pages=10)
        large = make_checkpoint(pages=10_000)
        assert store.read_cost(large) > store.read_cost(small)

    def test_write_cost_scales_with_size(self):
        store = self.make_store()
        assert store.write(make_checkpoint(pages=10_000)) > store.write(
            make_checkpoint(pages=10)
        )
