"""Checksum tests: the CRC primitives, the per-page OOB payload binding,
and the write-back manager's dirty-block verification (all the places a
checksum guards data integrity)."""

import pytest

from repro.core.sharding import ShardedSSC
from repro.disk.model import Disk
from repro.errors import ChecksumError
from repro.flash.geometry import FlashGeometry
from repro.manager.dirty_table import DirtyBlockTable
from repro.manager.writeback import FlashTierWBManager
from repro.ssc.device import SolidStateCache
from repro.util.checksum import crc32_of, crc32_of_payload


class TestCrc32Of:
    def test_deterministic(self):
        assert crc32_of(1, "a", b"x") == crc32_of(1, "a", b"x")

    def test_order_sensitive(self):
        assert crc32_of(1, 2) != crc32_of(2, 1)

    def test_type_tagged(self):
        # The int 1 and the string "1" must not collide.
        assert crc32_of(1) != crc32_of("1")

    def test_none_distinct_from_empty(self):
        assert crc32_of(None) != crc32_of("")
        assert crc32_of(None) != crc32_of(b"")

    def test_fits_32_bits(self):
        assert 0 <= crc32_of("anything", 42) < 2**32


class TestCrc32OfPayload:
    def test_deterministic(self):
        assert crc32_of_payload(5, ("data", 1)) == crc32_of_payload(5, ("data", 1))

    def test_binds_lbn_to_payload(self):
        # The same payload under a different logical address must differ,
        # so a misdirected write is detectable at recovery.
        assert crc32_of_payload(5, "x") != crc32_of_payload(6, "x")

    def test_sensitive_to_payload(self):
        assert crc32_of_payload(5, "x") != crc32_of_payload(5, "y")

    def test_none_lbn_supported(self):
        assert 0 <= crc32_of_payload(None, "x") < 2**32


class TestOOBChecksumStamping:
    """Every programmed page carries a verifiable payload checksum."""

    def test_program_stamps_checksum(self, small_geometry):
        ssc = SolidStateCache.ssc(small_geometry)
        ssc.write_dirty(7, ("payload", 7))
        location = ssc.engine.current_location(7)
        block, offset = ssc.chip.locate(location[2])
        assert block.checksums[offset] == crc32_of_payload(7, ("payload", 7))

    def test_corruption_breaks_checksum(self, small_geometry):
        ssc = SolidStateCache.ssc(small_geometry)
        ssc.write_dirty(7, ("payload", 7))
        location = ssc.engine.current_location(7)
        block, offset = ssc.chip.locate(location[2])
        block.data[offset] = ("CORRUPT",)
        assert block.checksums[offset] != crc32_of_payload(
            block.lbns[offset], block.data[offset]
        )


def corrupt(ssc, lbn):
    """Overwrite the cached page of ``lbn`` behind the device's back."""
    location = ssc.engine.current_location(lbn)
    block, offset = ssc.chip.locate(location[2])
    block.data[offset] = ("CORRUPT",)


def make_manager():
    ssc = SolidStateCache.ssc(
        FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
    )
    disk = Disk(10_000)
    return FlashTierWBManager(ssc, disk), ssc, disk


class TestDirtyTableChecksums:
    def test_matching_data_passes(self):
        table = DirtyBlockTable()
        table.add(5, ("payload", 1))
        assert table.checksum_matches(5, ("payload", 1))

    def test_mismatch_detected(self):
        table = DirtyBlockTable()
        table.add(5, ("payload", 1))
        assert not table.checksum_matches(5, ("payload", 2))

    def test_untracked_block_passes(self):
        table = DirtyBlockTable()
        assert table.checksum_matches(99, "anything")

    def test_re_adding_with_data_makes_a_block_verifiable(self):
        table = DirtyBlockTable()
        table.add(5)
        table.add(5, ("payload", 1))
        assert not table.checksum_matches(5, ("payload", 2))
        assert table.checksum_matches(5, ("payload", 1))

    def test_block_added_without_data_is_unverifiable(self):
        table = DirtyBlockTable()
        table.add(5)
        assert 5 in table
        assert table.checksum_matches(5, ("payload", 1))
        assert table.remove(5)
        assert 5 not in table


class TestWritebackVerification:
    def test_clean_path_verifies_ok(self):
        manager, _ssc, disk = make_manager()
        manager.write(5, ("good", 5))
        manager.flush_dirty()
        assert disk.peek(5) == ("good", 5)

    def test_corruption_blocks_writeback(self):
        manager, ssc, disk = make_manager()
        manager.write(5, ("good", 5))
        # Simulate device-side corruption of the cached page.
        location = ssc.engine.current_location(5)
        block, offset = ssc.chip.locate(location[2])
        block.data[offset] = ("CORRUPT",)
        with pytest.raises(ChecksumError) as exc:
            manager.flush_dirty()
        assert exc.value.lbn == 5
        assert disk.peek(5) is None  # corruption never reached disk

    def test_corruption_blocks_threshold_cleaning(self):
        manager, ssc, disk = make_manager()
        manager.write(5, ("good", 5))
        corrupt(ssc, 5)
        with pytest.raises(ChecksumError) as exc:
            for lbn in range(100, 100 + ssc.capacity_pages):
                manager.write(lbn, ("fill", lbn))  # 5 is the LRU dirty block
        assert exc.value.lbn == 5
        assert disk.peek(5) is None

    def test_corruption_in_an_array_member_blocks_writeback(self):
        array = ShardedSSC([
            SolidStateCache.ssc(
                FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
            )
            for _ in range(2)
        ])
        disk = Disk(10_000)
        manager = FlashTierWBManager(array, disk)
        for lbn in range(16):
            manager.write(lbn, ("good", lbn))
        corrupt(array.shard_of(9), 9)
        with pytest.raises(ChecksumError) as exc:
            manager.flush_dirty()
        assert exc.value.lbn == 9
        assert disk.peek(9) is None
        assert disk.peek(0) == ("good", 0)  # earlier blocks were written back

    def test_recovered_dirty_blocks_flush_with_verification(self):
        # Recovery re-adds dirty blocks from exists() without their data;
        # they carry no recorded checksum, so write-back must not reject
        # their intact contents.
        manager, ssc, disk = make_manager()
        for lbn in range(10):
            manager.write(lbn, ("data", lbn))
        ssc.crash()
        ssc.recover()
        manager.recover_us(10_000)
        assert len(manager.dirty_table) == 10
        manager.flush_dirty()
        assert [disk.peek(lbn) for lbn in range(10)] == [
            ("data", lbn) for lbn in range(10)
        ]

    def test_recovered_block_rewritten_is_verified_again(self):
        manager, ssc, disk = make_manager()
        manager.write(5, ("old", 5))
        ssc.crash()
        ssc.recover()
        manager.recover_us(10_000)
        manager.write(5, ("new", 5))
        location = ssc.engine.current_location(5)
        block, offset = ssc.chip.locate(location[2])
        block.data[offset] = ("CORRUPT",)
        with pytest.raises(ChecksumError):
            manager.flush_dirty()
