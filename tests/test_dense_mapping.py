"""Unit tests for the SSD's dense mapping table."""

import pytest

from repro.errors import InvalidAddressError
from repro.ftl.mapping import DenseMap, ENTRY_BYTES


class TestDenseMap:
    def test_lookup_missing(self):
        table = DenseMap(100)
        assert table.lookup(5) is None

    def test_insert_and_lookup(self):
        table = DenseMap(100)
        assert table.insert(5, 42) is None
        assert table.lookup(5) == 42
        assert 5 in table

    def test_insert_returns_previous(self):
        table = DenseMap(100)
        table.insert(5, 42)
        assert table.insert(5, 43) == 42
        assert table.lookup(5) == 43

    def test_remove(self):
        table = DenseMap(100)
        table.insert(5, 42)
        assert table.remove(5) == 42
        assert table.remove(5) is None
        assert 5 not in table

    def test_len_and_items(self):
        table = DenseMap(100)
        table.insert(1, 10)
        table.insert(2, 20)
        assert len(table) == 2
        assert dict(table.items()) == {1: 10, 2: 20}

    def test_memory_is_capacity_proportional(self):
        # The defining property of a dense table: memory does not depend
        # on occupancy (§2: "an SSD should optimize for a dense space").
        table = DenseMap(1000)
        empty_bytes = table.memory_bytes()
        table.insert(1, 1)
        assert table.memory_bytes() == empty_bytes == 1000 * ENTRY_BYTES

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidAddressError):
            DenseMap(-1)


class TestDenseMapByGroup:
    def test_insert_lookup_remove(self):
        table = DenseMap(10)
        assert table.insert(3, 7) is None
        assert table.lookup(3) == 7
        assert table.insert(3, 8) == 7
        assert table.remove(3) == 8
        assert table.lookup(3) is None

    def test_memory_is_capacity_proportional(self):
        table = DenseMap(50)
        assert table.memory_bytes() == 50 * ENTRY_BYTES
