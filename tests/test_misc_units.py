"""Assorted unit coverage: report formatting, plane edge cases,
geometry options, and the dense/sparse memory contrast."""

import pytest

from repro.errors import InvalidAddressError
from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.stats.report import format_ratio, format_table


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("col")
        assert lines[2].startswith("a")
        # All rows align the second column at the same offset.
        assert lines[2].index("1") == lines[3].index("2")

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table

    def test_title_underline(self):
        table = format_table(["a"], [], title="Results")
        lines = table.splitlines()
        assert lines[0] == "Results"
        assert lines[1] == "=" * len("Results")

    def test_ratio(self):
        assert format_ratio(50, 200) == "25%"


class TestPlaneEdges:
    def test_allocate_specific_not_free(self):
        chip = FlashChip(FlashGeometry(planes=1, blocks_per_plane=4,
                                       pages_per_block=4))
        plane = chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        with pytest.raises(InvalidAddressError):
            plane.allocate_specific(block.pbn, BlockKind.DATA)

    def test_free_pbns_order(self):
        chip = FlashChip(FlashGeometry(planes=1, blocks_per_plane=4,
                                       pages_per_block=4))
        plane = chip.planes[0]
        assert list(plane._free) == [0, 1, 2, 3]
        plane.allocate(BlockKind.DATA)
        assert list(plane._free) == [1, 2, 3]


class TestGeometryOptions:
    def test_for_capacity_honours_page_geometry(self):
        geometry = FlashGeometry.for_capacity(
            1 << 20, planes=2, pages_per_block=8, page_size=2048, oob_bytes=16
        )
        assert geometry.planes == 2
        assert geometry.pages_per_block == 8
        assert geometry.page_size == 2048
        assert geometry.oob_bytes == 16
        assert geometry.capacity_bytes >= 1 << 20


class TestMemoryContrast:
    def test_sparse_beats_dense_on_sparse_occupancy(self):
        """The core Table 4 claim at unit level: for sparsely cached
        data, the SSC's sparse structures cost far less than a dense
        table over the same address range would."""
        from repro.ftl.mapping import DenseMap
        from repro.ssc.sparse_map import SparseHashMap

        address_range = 10**6
        cached = 5_000
        dense = DenseMap(address_range)
        sparse = SparseHashMap()
        for i in range(cached):
            key = (i * 7919) % address_range
            dense.insert(key, i)
            sparse.insert(key, i)
        assert sparse.memory_bytes() < dense.memory_bytes() / 50
