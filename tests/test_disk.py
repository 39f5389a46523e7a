"""Unit tests for the disk model."""

import pytest

from repro.disk.model import Disk, DiskTimingModel
from repro.errors import ConfigError, InvalidAddressError


class TestBasics:
    def test_unwritten_reads_none(self):
        disk = Disk(100)
        data, _cost = disk.read(5)
        assert data is None

    def test_write_read_round_trip(self):
        disk = Disk(100)
        disk.write(7, "payload")
        data, _cost = disk.read(7)
        assert data == "payload"

    def test_overwrite(self):
        disk = Disk(100)
        disk.write(7, "old")
        disk.write(7, "new")
        assert disk.peek(7) == "new"

    def test_capacity_enforced(self):
        disk = Disk(10)
        with pytest.raises(InvalidAddressError):
            disk.read(10)
        with pytest.raises(InvalidAddressError):
            disk.write(-1, "x")

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Disk(0)

    def test_occupied_blocks(self):
        disk = Disk(100)
        disk.write(1, "a")
        disk.write(2, "b")
        disk.write(1, "c")
        assert len(disk._data) == 2


class TestTiming:
    def test_random_access_pays_seek(self):
        disk = Disk(1000)
        _, cost = disk.read(500)
        assert cost == pytest.approx(disk.timing.random_cost())

    def test_sequential_run_is_cheap(self):
        disk = Disk(1000)
        disk.write(100, "a")  # position the head
        cost = disk.write(101, "b")
        assert cost == pytest.approx(disk.timing.sequential_cost())
        assert disk.stats.sequential_hits == 1

    def test_backward_access_is_random(self):
        disk = Disk(1000)
        disk.write(100, "a")
        cost = disk.write(99, "b")
        assert cost == pytest.approx(disk.timing.random_cost())

    def test_stats_accumulate(self):
        disk = Disk(1000)
        disk.write(1, "a")
        disk.read(1)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 1

    def test_custom_timing(self):
        timing = DiskTimingModel(seek_us=10, rotation_us=5, transfer_us=1)
        disk = Disk(10, timing=timing)
        _, cost = disk.read(3)
        assert cost == pytest.approx(16)
