"""Unit tests for the FAST-style hybrid FTL (the SSD's internals)."""

import random

import pytest

from repro.errors import ConfigError, InvalidAddressError
from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import LOG_FRACTION, SPARE_BLOCKS, HybridFTL, HybridFTLConfig


def make_ftl(planes=4, blocks=16, pages=8, **config):
    chip = FlashChip(FlashGeometry(planes=planes, blocks_per_plane=blocks,
                                   pages_per_block=pages))
    return HybridFTL(chip, HybridFTLConfig(**config))


class TestLayout:
    def test_capacity_excludes_overprovisioning(self):
        ftl = make_ftl()
        total = ftl.chip.geometry.total_blocks
        assert ftl.logical_groups == total - ftl.log_blocks_target - SPARE_BLOCKS
        assert ftl.logical_pages == ftl.logical_groups * 8

    def test_log_fraction(self):
        ftl = make_ftl(planes=4, blocks=64)
        assert ftl.log_blocks_target == int(256 * LOG_FRACTION)

    def test_too_small_chip_rejected(self):
        with pytest.raises(ConfigError):
            make_ftl(planes=1, blocks=4, pages=8)

    def test_tiny_chip_keeps_one_log_block(self):
        ftl = make_ftl(planes=1, blocks=14)  # 14 * LOG_FRACTION rounds to 0
        assert ftl.log_blocks_target == 1
        assert ftl.logical_groups == 14 - 1 - SPARE_BLOCKS

    def test_log_pool_never_exceeds_target(self):
        ftl = make_ftl()
        rng = random.Random(11)
        peak = 0
        for i in range(3000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
            peak = max(peak, len(ftl._log_blocks))
        assert peak == ftl.log_blocks_target


class TestReadWrite:
    def test_unwritten_reads_none(self):
        ftl = make_ftl()
        data, cost = ftl.read(0)
        assert data is None
        assert cost == pytest.approx(ftl.chip.timing.control_delay_us)

    def test_write_read_round_trip(self):
        ftl = make_ftl()
        ftl.write(10, "hello")
        data, _cost = ftl.read(10)
        assert data == "hello"

    def test_overwrite_returns_newest(self):
        ftl = make_ftl()
        for version in range(20):
            ftl.write(10, ("v", version))
        data, _ = ftl.read(10)
        assert data == ("v", 19)

    def test_out_of_range_rejected(self):
        ftl = make_ftl()
        with pytest.raises(InvalidAddressError):
            ftl.write(ftl.logical_pages, "x")
        with pytest.raises(InvalidAddressError):
            ftl.read(-1)

    def test_is_mapped(self):
        ftl = make_ftl()
        assert not ftl.is_mapped(3)
        ftl.write(3, "x")
        assert ftl.is_mapped(3)

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write(3, "x")
        ftl.trim(3)
        assert not ftl.is_mapped(3)
        data, _ = ftl.read(3)
        assert data is None

    def test_dirty_flag_round_trip(self):
        ftl = make_ftl()
        ftl.write(3, "x", dirty=True)
        location = ftl.log_map.lookup(3)
        block, offset = ftl.chip.locate(location)
        assert block.dirty >> offset & 1
        ftl.set_page_dirty(3, False)
        assert not block.dirty >> offset & 1


class TestGarbageCollection:
    def test_sustained_random_writes_never_corrupt(self):
        ftl = make_ftl()
        rng = random.Random(99)
        shadow = {}
        for i in range(6000):
            lpn = rng.randrange(ftl.logical_pages)
            shadow[lpn] = ("w", lpn, i)
            ftl.write(lpn, shadow[lpn])
        for lpn, expected in shadow.items():
            data, _ = ftl.read(lpn)
            assert data == expected

    def test_merges_happen_and_are_counted(self):
        ftl = make_ftl()
        rng = random.Random(4)
        for i in range(3000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
        assert ftl.stats.full_merges > 0
        assert ftl.chip.stats.block_erases > 0
        assert ftl.stats.write_amplification() > 0

    def test_free_pool_never_exhausted(self):
        ftl = make_ftl()
        rng = random.Random(5)
        for i in range(5000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
            assert ftl.chip.free_total >= 1

    def test_sequential_writes_use_switch_merges(self):
        ftl = make_ftl()
        span = ftl.pages_per_block * 8
        for _round in range(3):
            for lpn in range(span):
                ftl.write(lpn, ("s", _round, lpn))
        assert ftl.stats.switch_merges > 0
        for lpn in range(span):
            data, _ = ftl.read(lpn)
            assert data == ("s", 2, lpn)

    def test_switch_merge_cheaper_than_full(self):
        """Sequential overwrites must amplify less than random ones."""
        seq = make_ftl()
        span = seq.pages_per_block * 8
        for _round in range(4):
            for lpn in range(span):
                seq.write(lpn, 1)
        rnd = make_ftl()
        rng = random.Random(6)
        for _ in range(4 * span):
            rnd.write(rng.randrange(span), 1)
        assert seq.stats.write_amplification() < rnd.stats.write_amplification()

    def test_gc_preserves_dirty_flags(self):
        ftl = make_ftl()
        rng = random.Random(7)
        dirty_set = set()
        for i in range(3000):
            lpn = rng.randrange(ftl.logical_pages // 4)  # force overwrites
            dirty = bool(rng.getrandbits(1))
            ftl.write(lpn, i, dirty=dirty)
            if dirty:
                dirty_set.add(lpn)
            else:
                dirty_set.discard(lpn)
        for lpn in list(dirty_set)[:200]:
            pbn_offset = None
            ppn = ftl.log_map.lookup(lpn)
            if ppn is None:
                pbn = ftl.data_map.lookup(lpn // ftl.pages_per_block)
                ppn = ftl.chip.geometry.make_ppn(pbn, lpn % ftl.pages_per_block)
            block, offset = ftl.chip.locate(ppn)
            assert block.dirty >> offset & 1, lpn

    def test_device_memory_accounting(self):
        ftl = make_ftl()
        expected = (
            ftl.data_map.memory_bytes() + ftl.log_map.memory_bytes()
        )
        assert ftl.device_memory_bytes() == expected
        assert expected > 0


class TestAllocation:
    @pytest.mark.parametrize("seed", range(20))
    def test_plane_with_most_free_takes_first_maximum(self, seed):
        ftl = make_ftl()
        rng = random.Random(seed)
        planes = ftl.chip.planes
        for plane in planes:
            for _ in range(rng.choice((0, 2, 2, 5))):  # frequent ties
                plane.allocate(BlockKind.DATA)
        expected = max(planes, key=lambda plane: plane.free_count)
        assert ftl._plane_with_most_free() is expected
