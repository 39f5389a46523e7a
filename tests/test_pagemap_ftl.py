"""Unit and property tests for the page-mapped (DFTL-style) FTL."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, InvalidAddressError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.pagemap import GC_THRESHOLD, OVERPROVISION, PageMapFTL
from repro.ftl.ssd import SSD
from repro.ftl.mapping import ENTRY_BYTES


def make_ftl(planes=2, blocks=16, pages=8):
    chip = FlashChip(FlashGeometry(planes=planes, blocks_per_plane=blocks,
                                   pages_per_block=pages))
    return PageMapFTL(chip)


class TestLayout:
    def test_overprovisioning_reserved(self):
        ftl = make_ftl()
        total_pages = ftl.chip.geometry.total_pages
        assert ftl.logical_pages < total_pages

    @pytest.mark.parametrize("planes, blocks, logical_blocks", [
        (2, 16, 32 - GC_THRESHOLD),          # the GC floor dominates
        (4, 64, 256 - int(256 * OVERPROVISION)),
    ])
    def test_reserve_is_gc_floor_or_overprovision(self, planes, blocks,
                                                   logical_blocks):
        ftl = make_ftl(planes=planes, blocks=blocks)
        assert ftl.logical_pages == logical_blocks * 8

    def test_too_small_chip_rejected(self):
        with pytest.raises(ConfigError):
            make_ftl(planes=1, blocks=GC_THRESHOLD)

    def test_out_of_range(self):
        ftl = make_ftl()
        with pytest.raises(InvalidAddressError):
            ftl.write(ftl.logical_pages, "x")


class TestReadWrite:
    def test_round_trip(self):
        ftl = make_ftl()
        ftl.write(5, "data")
        assert ftl.read(5)[0] == "data"
        assert ftl.is_mapped(5)

    def test_unwritten_is_none(self):
        ftl = make_ftl()
        assert ftl.read(5)[0] is None

    def test_trim(self):
        ftl = make_ftl()
        ftl.write(5, "data")
        ftl.trim(5)
        assert not ftl.is_mapped(5)

    def test_overwrite_chain(self):
        ftl = make_ftl()
        for version in range(50):
            ftl.write(3, version)
        assert ftl.read(3)[0] == 49

    def test_dirty_flag(self):
        ftl = make_ftl()
        ftl.write(3, "x", dirty=True)
        ppn = ftl.page_map.lookup(3)
        block, offset = ftl.chip.locate(ppn)
        assert block.dirty >> offset & 1
        ftl.set_page_dirty(3, False)
        assert not block.dirty >> offset & 1


class TestGarbageCollection:
    def test_sustained_writes_never_corrupt(self):
        ftl = make_ftl()
        rng = random.Random(1)
        shadow = {}
        for i in range(8000):
            lpn = rng.randrange(ftl.logical_pages)
            shadow[lpn] = ("v", i)
            ftl.write(lpn, shadow[lpn])
        for lpn, expected in shadow.items():
            assert ftl.read(lpn)[0] == expected

    def test_no_merges_only_copies(self):
        """Page mapping needs no merges: GC is pure copy-forward."""
        ftl = make_ftl()
        rng = random.Random(2)
        for i in range(5000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
        assert ftl.stats.full_merges == 0
        assert ftl.stats.switch_merges == 0
        assert ftl.stats.gc_page_writes > 0

    def test_free_pool_never_exhausted(self):
        ftl = make_ftl()
        rng = random.Random(3)
        for i in range(6000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
            assert ftl.chip.free_total >= 1

    def test_hot_cold_amplification_lower_than_hybrid(self):
        """On skewed random overwrites, page mapping amplifies less than
        the hybrid layout (DFTL's headline result, which the SSC's
        page-mapped log region inherits)."""
        from repro.ftl.hybrid import HybridFTL, HybridFTLConfig

        geometry = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
        page = PageMapFTL(FlashChip(geometry))
        hybrid = HybridFTL(FlashChip(geometry), HybridFTLConfig())
        span = min(page.logical_pages, hybrid.logical_pages) // 2
        rng = random.Random(4)
        sequence = [rng.randrange(span) for _ in range(6000)]
        for lpn in sequence:
            page.write(lpn, 1)
        for lpn in sequence:
            hybrid.write(lpn, 1)
        assert page.stats.write_amplification() < hybrid.stats.write_amplification()


class TestMemory:
    def test_page_table_dominates(self):
        """The full page table costs far more than the hybrid mapping —
        the memory argument behind hybrid FTLs and the SSC (Table 4)."""
        geometry = FlashGeometry(planes=2, blocks_per_plane=32, pages_per_block=16)
        page_ssd = SSD(geometry=geometry, mapping="page")
        hybrid_ssd = SSD(geometry=geometry, mapping="hybrid")
        assert page_ssd.device_memory_bytes() > 3 * hybrid_ssd.device_memory_bytes()

    def test_memory_formula(self):
        ftl = make_ftl()
        assert ftl.device_memory_bytes() == ftl.logical_pages * ENTRY_BYTES


class TestSSDIntegration:
    def test_ssd_accepts_page_mapping(self):
        ssd = SSD(mapping="page",
                  geometry=FlashGeometry(planes=2, blocks_per_plane=8,
                                         pages_per_block=8))
        ssd.write(3, "x")
        assert ssd.read(3)[0] == "x"

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ConfigError):
            SSD(mapping="magic")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=250))
def test_property_dict_equivalence(operations):
    ftl = make_ftl()
    shadow = {}
    for index, (is_trim, seed) in enumerate(operations):
        lpn = seed % ftl.logical_pages
        if is_trim:
            ftl.trim(lpn)
            shadow.pop(lpn, None)
        else:
            ftl.write(lpn, index)
            shadow[lpn] = index
    for lpn in {seed % ftl.logical_pages for _t, seed in operations}:
        assert ftl.read(lpn)[0] == shadow.get(lpn)
