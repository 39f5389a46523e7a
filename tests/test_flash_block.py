"""Unit tests for erase blocks and their page columns (NAND constraints)."""

import random

import pytest

from repro.errors import WriteToNonErasedPageError
from repro.flash.block import BlockKind, EraseBlock


def assert_free(block, offset):
    """Page ``offset`` is erased: no payload, no OOB record, no state bits."""
    bit = 1 << offset
    assert not (block.written | block.valid | block.dirty) & bit
    assert block.data[offset] is None
    assert block.lbns[offset] is None
    assert block.seqs[offset] == 0
    assert block.checksums[offset] is None


class TestPage:
    def test_fresh_page_is_free(self):
        block = EraseBlock(0, 4)
        for offset in range(4):
            assert_free(block, offset)

    def test_reset(self):
        block = EraseBlock(0, 4)
        block.program(0, "x", 1, dirty=True, seq=5, checksum=9)
        block.erase()
        assert_free(block, 0)


class TestProgram:
    def make_block(self, pages=8):
        return EraseBlock(pbn=0, pages_per_block=pages)

    def test_sequential_program(self):
        block = self.make_block()
        for offset in range(8):
            block.program(offset, ("d", offset), offset)
        assert block.is_full
        assert block.valid_count == 8

    def test_program_below_write_pointer_rejected(self):
        block = self.make_block()
        block.program(0, "a", 0)
        with pytest.raises(WriteToNonErasedPageError):
            block.program(0, "b", 0)

    def test_skip_forward_allowed_leaves_holes(self):
        block = self.make_block()
        block.program(0, "a", 0)
        block.program(3, "b", 3)
        assert block.write_pointer == 4
        assert_free(block, 1)
        assert_free(block, 2)
        assert block.valid_count == 2

    def test_skip_breaks_sequentiality(self):
        block = self.make_block()
        block.program(0, "a", 0)
        block.program(2, "b", 2)
        assert not block.sequential

    def test_free_pages(self):
        block = self.make_block()
        assert block.free_pages == 8
        block.program(0, "a", 0)
        assert block.free_pages == 7


class TestSequentialDetection:
    def test_sequential_run_detected(self):
        block = EraseBlock(0, 4)
        for offset in range(4):
            block.program(offset, "d", 100 + offset)
        assert block.sequential
        assert block.first_lbn == 100

    def test_non_sequential_lbns(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", 100)
        block.program(1, "d", 50)
        assert not block.sequential

    def test_missing_lbn_breaks_sequentiality(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", None)
        assert not block.sequential


class TestInvalidateAndDirty:
    def test_invalidate_decrements_counts(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", 0, dirty=True)
        assert block.dirty_count == 1
        block.invalidate(0)
        assert block.valid_count == 0
        assert block.dirty_count == 0
        assert block.written & 1 and not block.valid & 1

    def test_invalidate_idempotent(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", 0)
        block.invalidate(0)
        block.invalidate(0)
        assert block.valid_count == 0

    def test_mark_clean_and_dirty(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", 0, dirty=True)
        block.mark_clean(0)
        assert block.dirty_count == 0
        assert not block.dirty & 1
        block.mark_dirty(0)
        assert block.dirty_count == 1

    def test_mark_clean_idempotent(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", 0, dirty=False)
        block.mark_clean(0)
        assert block.dirty_count == 0

    def test_utilization(self):
        block = EraseBlock(0, 4)
        assert block.utilization() == 0.0
        block.program(0, "d", 0)
        block.program(1, "d", 1)
        assert block.utilization() == pytest.approx(0.5)

    def test_valid_offsets(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", 0)
        block.program(1, "d", 1)
        block.invalidate(0)
        assert block.valid_offsets() == [1]


class TestErase:
    def test_erase_resets_everything(self):
        block = EraseBlock(0, 4)
        block.kind = BlockKind.LOG
        for offset in range(4):
            block.program(offset, "d", offset, dirty=True)
        block.erase()
        assert block.erase_count == 1
        assert block.write_pointer == 0
        assert block.valid_count == 0
        assert block.dirty_count == 0
        assert block.kind is BlockKind.FREE
        assert block.sequential
        for offset in range(4):
            assert_free(block, offset)

    def test_wear_accumulates(self):
        block = EraseBlock(0, 4)
        for _ in range(5):
            block.erase()
        assert block.erase_count == 5

    def test_programmable_after_erase(self):
        block = EraseBlock(0, 4)
        block.program(0, "a", 0)
        block.erase()
        block.program(0, "b", 1)
        assert block.data[0] == "b"
        assert block.lbns[0] == 1


def _random_block(seed, pages=16):
    """A block with a seeded mix of clean, dirty, stale and free pages."""
    rng = random.Random(seed)
    block = EraseBlock(0, pages)
    for offset in range(pages):
        if rng.random() < 0.2:
            continue  # a hole stays FREE
        block.program(offset, ("d", offset), offset, dirty=rng.random() < 0.5)
        if rng.random() < 0.3:
            block.invalidate(offset)
        elif rng.random() < 0.2:
            block.mark_clean(offset)
    return block


def _bitmap_state(block):
    return (block.valid, block.valid_count, block.dirty, block.dirty_count,
            block.written)


class TestInvalidateAll:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_offset_invalidate_loop(self, seed):
        looped, whole = _random_block(seed), _random_block(seed)
        for offset in looped.valid_offsets():
            looped.invalidate(offset)
        whole.invalidate_all()
        assert _bitmap_state(whole) == _bitmap_state(looped)
        assert whole.valid == whole.valid_count == whole.dirty_count == 0

    def test_empty_block(self):
        block = EraseBlock(0, 4)
        block.invalidate_all()
        assert _bitmap_state(block) == (0, 0, 0, 0, 0)
