"""Unit tests for the SSD device wrapper."""

import random

import pytest

from repro.flash.geometry import FlashGeometry
from repro.ftl.ssd import SSD


class TestInterface:
    def test_capacity_properties(self, ssd):
        assert ssd.capacity_pages == ssd.ftl.logical_pages
        assert ssd.capacity_bytes == ssd.capacity_pages * 4096

    def test_read_write_trim(self, ssd):
        ssd.write(5, "data")
        assert ssd.is_mapped(5)
        data, _ = ssd.read(5)
        assert data == "data"
        ssd.trim(5)
        assert not ssd.is_mapped(5)

    def test_stats_exposed(self, ssd):
        ssd.write(1, "x")
        assert ssd.stats.user_writes == 1

    def test_dirty_flag_passthrough(self, ssd):
        ssd.write(1, "x", dirty=True)
        ssd.set_page_dirty(1, False)
        ppn = ssd.ftl.log_map.lookup(1)
        block, offset = ssd.chip.locate(ppn)
        assert not block.dirty >> offset & 1


class TestRecoveryAccounting:
    def test_oob_scan_proportional_to_mapping(self):
        small = SSD(FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8))
        large = SSD(FlashGeometry(planes=2, blocks_per_plane=64, pages_per_block=8))
        assert large.oob_recovery_scan_us() > small.oob_recovery_scan_us()

    def test_oob_scan_formula(self, ssd):
        oob = ssd.chip.geometry.oob_bytes
        table = ssd.device_memory_bytes()
        reads = -(-table // oob)
        assert ssd.oob_recovery_scan_us() == pytest.approx(
            reads * ssd.chip.timing.oob_read_cost()
        )

    def test_device_memory_independent_of_contents(self, ssd):
        before = ssd.device_memory_bytes()
        rng = random.Random(1)
        for i in range(500):
            ssd.write(rng.randrange(ssd.capacity_pages), i)
        assert ssd.device_memory_bytes() == before
