"""Unit tests for planes and the flash chip (timing, wear, free lists)."""

import random

import pytest

from repro.errors import InvalidAddressError, WriteToNonErasedPageError
from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig
from repro.ftl.wear import WearConfig, WearLeveler


@pytest.fixture
def tiny_chip():
    return FlashChip(FlashGeometry(planes=2, blocks_per_plane=4, pages_per_block=4))


class TestPlane:
    def test_all_blocks_start_free(self, tiny_chip):
        for plane in tiny_chip.planes:
            assert plane.free_count == plane.num_blocks

    def test_allocate_assigns_kind(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.LOG)
        assert block.kind is BlockKind.LOG
        assert plane.free_count == plane.num_blocks - 1
        assert not plane.is_free(block.pbn)

    def test_allocate_exhaustion(self, tiny_chip):
        plane = tiny_chip.planes[0]
        for _ in range(plane.num_blocks):
            plane.allocate(BlockKind.DATA)
        with pytest.raises(IndexError):
            plane.allocate(BlockKind.DATA)

    def test_release_requires_erased(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        with pytest.raises(ValueError):
            plane.release(block)

    def test_release_foreign_block_rejected(self, tiny_chip):
        plane0, plane1 = tiny_chip.planes
        block = plane1.allocate(BlockKind.DATA)
        block.erase()
        with pytest.raises(InvalidAddressError):
            plane0.release(block)

    def test_blocks_of_kind(self, tiny_chip):
        plane = tiny_chip.planes[0]
        plane.allocate(BlockKind.LOG)
        plane.allocate(BlockKind.DATA)
        kinds = [block.kind for block in plane.blocks.values()]
        assert kinds.count(BlockKind.LOG) == 1
        assert kinds.count(BlockKind.DATA) == 1


class TestFreePool:
    """The free pool is O(blocks per plane): one insertion-ordered set
    plus a wear heap that never outgrows the plane."""

    @pytest.mark.parametrize("dynamic", [True, False])
    def test_bounded_after_many_erase_cycles(self, dynamic):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=7,
                                       pages_per_block=4))
        leveler = WearLeveler(chip, WearConfig(dynamic=dynamic))
        rng = random.Random(3)
        held = []
        for cycle in range(2000):
            plane = chip.planes[cycle % 2]
            if plane.free_count > 2:
                held.append(leveler.pick_block(
                    plane, BlockKind.DATA, hottest=rng.random() < 0.2).pbn)
            if held and (plane.free_count <= 2 or rng.random() < 0.6):
                chip.erase_block(held.pop(rng.randrange(len(held))))
        assert chip.stats.block_erases > 1000
        for plane in chip.planes:
            assert len(plane._free) == plane.free_count <= plane.num_blocks
            assert len(plane._wear_heap) <= plane.num_blocks

    @pytest.mark.parametrize("seed", range(6))
    def test_wear_extremes_match_brute_force(self, seed):
        chip = FlashChip(FlashGeometry(planes=1, blocks_per_plane=9,
                                       pages_per_block=4))
        plane, rng, held = chip.planes[0], random.Random(seed), []
        for _ in range(600):
            action = rng.random()
            if action < 0.2 and plane.free_count:
                held.append(plane.allocate(BlockKind.DATA).pbn)
            elif action < 0.5 and plane.free_count:
                pbn = rng.choice([p for p in plane.blocks if plane.is_free(p)])
                held.append(plane.allocate_specific(pbn, BlockKind.LOG).pbn)
            elif action < 0.9 and held:
                chip.erase_block(held.pop(rng.randrange(len(held))))
            else:
                free = [block for block in plane.blocks.values()
                        if plane.is_free(block.pbn)]
                if free:
                    plane.release(rng.choice(free))
            keys = [(plane.blocks[pbn].erase_count, pbn)
                    for pbn in plane.blocks if plane.is_free(pbn)]
            assert plane.least_worn_free() == (min(keys)[1] if keys else None)
            assert plane.most_worn_free() == (max(keys)[1] if keys else None)

    def test_fifo_allocation_follows_release_order(self, tiny_chip):
        plane = tiny_chip.planes[0]
        blocks = [plane.allocate(BlockKind.DATA) for _ in range(plane.num_blocks)]
        assert [block.pbn for block in blocks] == sorted(plane.blocks)
        for pbn in (2, 0, 3):
            tiny_chip.erase_block(pbn)
        tiny_chip.erase_block(2)  # re-erasing a free block keeps its place
        assert [plane.allocate(BlockKind.DATA).pbn for _ in range(3)] == [2, 0, 3]


class TestChipOperations:
    def test_program_and_read_round_trip(self, tiny_chip):
        cost_w = tiny_chip.program_page(0, "payload", 42, dirty=True, seq=1)
        data, cost_r = tiny_chip.read_page(0)
        assert data == "payload"
        assert tiny_chip.scan_oob(0)[:3] == (42, True, 1)
        assert cost_w == pytest.approx(tiny_chip.timing.write_cost())
        assert cost_r == pytest.approx(tiny_chip.timing.read_cost())

    def test_program_enforces_nand_order(self, tiny_chip):
        tiny_chip.program_page(0, "a", 0)
        with pytest.raises(WriteToNonErasedPageError):
            tiny_chip.program_page(0, "b", 0)

    def test_erase_returns_block_to_free_list(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.LOG)
        ppn = tiny_chip.geometry.make_ppn(block.pbn, 0)
        tiny_chip.program_page(ppn, "x", 0)
        free_before = plane.free_count
        cost = tiny_chip.erase_block(block.pbn)
        assert cost == pytest.approx(tiny_chip.timing.erase_cost())
        assert plane.free_count == free_before + 1
        block, offset = tiny_chip.locate(ppn)
        assert not block.written >> offset & 1
        assert block.data[offset] is None

    def test_stats_accumulate(self, tiny_chip):
        tiny_chip.program_page(0, "x", 0)
        tiny_chip.read_page(0)
        tiny_chip.scan_oob(0)
        assert tiny_chip.stats.page_writes == 1
        assert tiny_chip.stats.page_reads == 1
        assert tiny_chip.stats.oob_scans == 1
        assert tiny_chip.stats.busy_us > 0

    def test_seq_monotonic(self, tiny_chip):
        values = [tiny_chip.next_seq() for _ in range(10)]
        assert values == sorted(values)
        assert len(set(values)) == 10


class TestWearAccounting:
    def test_total_erases(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        tiny_chip.erase_block(block.pbn)
        block2 = plane.allocate(BlockKind.DATA)
        tiny_chip.erase_block(block2.pbn)
        assert tiny_chip.stats.block_erases == 2
        assert sum(block.erase_count for block in tiny_chip.blocks) == 2

    def test_wear_differential(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        for _ in range(3):
            tiny_chip.erase_block(block.pbn)
            # Re-allocate the same block: FIFO allocation would bring it
            # back eventually; take it directly for the test.
            plane.allocate_specific(block.pbn, BlockKind.DATA)
        assert tiny_chip.wear_differential() == 3

    def test_free_blocks_total(self, tiny_chip):
        total = tiny_chip.geometry.total_blocks
        assert tiny_chip.free_total == total
        tiny_chip.planes[0].allocate(BlockKind.DATA)
        assert tiny_chip.free_total == total - 1


class TestFreeCounts:
    """``Plane.free_count`` and ``FlashChip.free_total`` are
    kept counts; they must track the free sets through every path."""

    @pytest.mark.parametrize("seed", range(8))
    def test_counts_track_free_sets(self, seed):
        ftl = HybridFTL(
            FlashChip(FlashGeometry(planes=3, blocks_per_plane=6, pages_per_block=4)),
            HybridFTLConfig(),
        )
        chip, rng = ftl.chip, random.Random(seed)
        used = []
        for _ in range(300):
            action = rng.random()
            plane = rng.choice(chip.planes)
            if action < 0.3 and plane.free_count:
                used.append(plane.allocate(BlockKind.DATA).pbn)
            elif action < 0.5 and plane.free_count:
                pbn = rng.choice(sorted(plane._free))
                used.append(plane.allocate_specific(pbn, BlockKind.LOG).pbn)
            elif action < 0.8 and used:
                chip.erase_block(used.pop(rng.randrange(len(used))))
            else:
                # Re-release a block that is already free.
                free = [block for block in plane.blocks.values()
                        if plane.is_free(block.pbn)]
                if free:
                    plane.release(rng.choice(free))
            for each in chip.planes:
                assert each.free_count == len(each._free)
            assert chip.free_total == sum(
                len(each._free) for each in chip.planes)
            expected = max(chip.planes, key=lambda each: len(each._free))
            assert ftl._plane_with_most_free() is expected
