"""Torn-write and bit-flip fault injection.

A power cut can interrupt a page program, a log flush or a checkpoint
mid-write; flash cells can also rot after a successful program.  In
every case the damage is checksum-detectable, and recovery must
*discard* the damaged state — never surface it as data or replay it as
a mapping.
"""

import random

import pytest

from repro.check import faults
from repro.errors import CrashError, NotPresentError
from repro.flash.block import TORN_PAGE
from repro.sim.crash import CrashInjector, CrashPoint
from repro.ssc import device
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy


def make_ssc(small_geometry, **overrides):
    config = SSCConfig(policy=EvictionPolicy.UTIL, **overrides)
    ssc = SolidStateCache(small_geometry, config=config)
    injector = CrashInjector()
    ssc.attach_injector(injector)
    return ssc, injector


class TestTornDataPage:
    def test_torn_page_left_on_flash_but_never_surfaced(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        injector.arm(at=CrashPoint.BEFORE_DATA_WRITE, torn=True)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "v1")
        # The partial program left detectable garbage on flash...
        torn_pages = [
            (block, offset)
            for plane in ssc.chip.planes
            for block in plane.blocks.values()
            for offset, data in enumerate(block.data)
            if data == TORN_PAGE
        ]
        assert len(torn_pages) == 1
        block, offset = torn_pages[0]
        assert block.lbns[offset] is None
        assert block.checksums[offset] == 0  # can never verify
        # ...but recovery discards it: the block is absent and the torn
        # page is not part of any mapping.
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(3)
        assert block.written >> offset & 1 and not block.valid >> offset & 1

    def test_torn_page_advances_write_pointer(self, small_geometry):
        """NAND cannot reprogram a torn page without an erase; the device
        must keep working after recovery without tripping over it."""
        ssc, injector = make_ssc(small_geometry)
        injector.arm(at=CrashPoint.BEFORE_DATA_WRITE, torn=True)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "v1")
        ssc.recover()
        for lbn in range(8):
            ssc.write_dirty(lbn, f"after{lbn}")
        for lbn in range(8):
            value, _completion = ssc.read(lbn)
            assert value == f"after{lbn}"


class TestTornLogFlush:
    def test_damaged_tail_discarded_not_replayed(self, small_geometry):
        ssc, injector = make_ssc(small_geometry, clean_durability="buffered")
        for lbn in range(3):
            ssc.write_clean(lbn, f"c{lbn}")  # buffered, volatile
        injector.arm(at=CrashPoint.AFTER_LOG_FLUSH, torn=True)
        with pytest.raises(CrashError):
            ssc.write_dirty(9, "d9")  # sync commit tears mid-flush
        # The sub-page flush tore: its only durable remnant is a record
        # that fails its CRC, which recovery must count and discard.
        assert len(ssc.oplog.flushed) == 1
        assert not ssc.oplog.flushed[0].is_intact()
        ssc.recover()
        assert ssc.last_recovery_discarded == 1
        # Nothing from the torn flush may have been replayed.
        for lbn in (0, 1, 2, 9):
            with pytest.raises(NotPresentError):
                ssc.read(lbn)

    def test_sub_page_flush_is_atomic(self, small_geometry):
        """A torn flush smaller than one log page is all-or-nothing, so a
        replace can never persist its removal without its insert."""
        ssc, injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "old")  # durably committed
        injector.arm(at=CrashPoint.AFTER_LOG_FLUSH, torn=True)
        with pytest.raises(CrashError):
            ssc.write_dirty(3, "new")  # replace tears mid-commit
        ssc.recover()
        # Either version is legal; losing the block entirely is not.
        value, _completion = ssc.read(3)
        assert value in ("old", "new")
        assert ssc.is_dirty(3)


class TestTornCheckpoint:
    def test_falls_back_to_previous_slot(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "v1")
        ssc.checkpoint_now()  # intact checkpoint in slot A
        first = ssc.checkpoints.latest()
        ssc.write_dirty(4, "v2")
        injector.arm(at=CrashPoint.AFTER_CHECKPOINT, torn=True)
        with pytest.raises(CrashError):
            ssc.checkpoint_now()  # slot B torn mid-write
        assert ssc.checkpoints.latest() is first  # B cannot verify
        ssc.recover()
        for lbn, expected in ((3, "v1"), (4, "v2")):
            value, _completion = ssc.read(lbn)
            assert value == expected
            assert ssc.is_dirty(lbn)

    def test_torn_first_checkpoint_recovers_from_log_alone(self, small_geometry):
        ssc, injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "v1")
        injector.arm(at=CrashPoint.AFTER_CHECKPOINT, torn=True)
        with pytest.raises(CrashError):
            ssc.checkpoint_now()
        assert ssc.checkpoints.latest() is None
        ssc.recover()
        value, _completion = ssc.read(3)
        assert value == "v1"


class TestBitFlips:
    """Damage to already-durable state: detected, discarded, never served."""

    def test_flipped_log_record_truncates_tail(self, small_geometry, monkeypatch):
        # Slacken the log-ratio checkpoint policy so the flushed records
        # are still in the log (not folded into a checkpoint) at rot time.
        monkeypatch.setattr(device, "CHECKPOINT_LOG_RATIO", 10.0)
        ssc, _injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "v1")
        ssc.write_dirty(4, "v2")
        ssc.crash()
        # Rot the first flushed record; everything after it is untrusted.
        record = ssc.oplog.flushed[0]
        assert faults.flip_log_record(ssc, random.Random(0))
        ssc.recover()
        assert ssc.last_recovery_discarded >= 1
        # No read may return garbage; blocks are either gone or exact.
        for lbn, expected in ((3, "v1"), (4, "v2")):
            try:
                value, _completion = ssc.read(lbn)
            except NotPresentError:
                continue
            assert value == expected
        assert record.is_intact()  # original untouched (replaced copy rotted)

    def test_flipped_page_payload_not_served(self, small_geometry):
        ssc, _injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "v1")
        ssc.crash()
        location = ssc.engine.current_location(3)
        block, offset = ssc.chip.locate(location[2])
        block.data[offset] = ("<bitrot>", block.data[offset])  # checksum now stale
        ssc.recover()
        # The damaged page must not be mapped; absence is the only
        # correct answer (the cache has no redundant copy).
        with pytest.raises(NotPresentError):
            ssc.read(3)

    def test_flipped_data_block_payload_not_served(self, small_geometry):
        ssc, _injector = make_ssc(small_geometry)
        # Block 7 leads into a sequential run that becomes group 1's
        # (blocks 8-15) data block, so block 11 is block-mapped.
        for lbn in range(7, 16):
            ssc.write_dirty(lbn, f"v{lbn}")
        assert ssc.engine.data_map.lookup(1) is not None
        ssc.crash()
        block, offset = ssc.chip.locate(ssc.engine.current_location(11)[2])
        block.data[offset] = ("<bitrot>", block.data[offset])
        ssc.recover()
        with pytest.raises(NotPresentError):
            ssc.read(11)
        for lbn in (7, 8, 10, 12, 15):
            assert ssc.read(lbn)[0] == f"v{lbn}"

    def test_flip_page_data_damages_one_valid_page(self, small_geometry):
        ssc, _injector = make_ssc(small_geometry)
        for lbn in range(3):
            ssc.write_dirty(lbn, f"v{lbn}")
        ssc.crash()
        assert faults.flip_page_data(ssc, random.Random(0))
        ssc.recover()
        served = []
        for lbn in range(3):
            try:
                value, _completion = ssc.read(lbn)
            except NotPresentError:
                continue
            assert value == f"v{lbn}"
            served.append(lbn)
        assert len(served) == 2

    def test_flip_checkpoint_reaches_every_field(self, small_geometry):
        ssc, _injector = make_ssc(small_geometry)
        # lbns 7-15 make group 1 block-mapped; 40 stays page-mapped.
        for lbn in (*range(7, 16), 40):
            ssc.write_dirty(lbn, f"v{lbn}")
        ssc.checkpoint_now()
        checkpoint = ssc.checkpoints.latest()
        pages = list(checkpoint.page_entries)
        blocks = list(checkpoint.block_entries)
        assert pages and blocks
        damaged = set()
        for seed in range(100):
            assert faults.flip_checkpoint(ssc, random.Random(seed))
            assert ssc.checkpoints.latest() is not checkpoint
            changed = [
                (kind, field)
                for kind, before, after in (
                    ("page", pages, checkpoint.page_entries),
                    ("block", blocks, checkpoint.block_entries))
                for old, new in zip(before, after)
                for field, (a, b) in enumerate(zip(old, new)) if a != b
            ]
            assert len(changed) == 1
            damaged.update(changed)
            checkpoint.page_entries[:] = pages
            checkpoint.block_entries[:] = blocks
            checkpoint.invalidate_checksum_memo()
            assert ssc.checkpoints.latest() is checkpoint
        assert damaged == {("page", field) for field in range(3)} | {
            ("block", field) for field in range(4)}

    def test_flipped_checkpoint_falls_back(self, small_geometry):
        ssc, _injector = make_ssc(small_geometry)
        ssc.write_dirty(3, "v1")
        ssc.checkpoint_now()
        ssc.write_dirty(4, "v2")
        ssc.crash()
        assert faults.flip_checkpoint(ssc, random.Random(0))
        assert ssc.checkpoints.latest() is None  # only slot is damaged
        ssc.recover()
        # Post-checkpoint records are still intact in the log; anything
        # readable must be a value the host actually wrote.
        for lbn, expected in ((3, "v1"), (4, "v2")):
            try:
                value, _completion = ssc.read(lbn)
            except NotPresentError:
                continue
            assert value == expected
