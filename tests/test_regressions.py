"""Regression tests for specific bugs found during development.

Each test pins the exact scenario that once corrupted data or leaked
resources, so the failure mode stays dead.
"""

import random

import pytest

from repro.core.sharding import ShardedSSC
from repro.errors import CacheFullError
from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig
from repro.ftl.pagemap import PageMapFTL
from repro.ftl.ssd import SSD
from repro.ssc import device
from repro.ssc.device import SolidStateCache
from repro.ssc.log import RecordKind
from repro.stats.counters import LatencyStats
from repro.stats.report import format_table


class TestSeqLogSupersededPages:
    """A full merge can invalidate pages *inside* the open sequential
    log block.  Retiring that block as a whole data block then orphaned
    the newest copies of the untouched offsets in the old data block,
    which retire erased — silent data loss (found via a hot/cold mixed
    workload; fixed by demoting such blocks to the random log pool)."""

    def test_cold_data_survives_hot_neighbours(self):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = HybridFTL(chip, HybridFTLConfig())
        cold_span = ftl.logical_pages // 4
        for lpn in range(cold_span):
            ftl.write(lpn, ("cold", lpn))
        rng = random.Random(1)
        # Hot window overlaps the tail of the cold region's groups.
        for i in range(6000):
            lpn = cold_span + rng.randrange(ftl.logical_pages // 8)
            ftl.write(lpn, ("hot", i))
        for lpn in range(cold_span):
            data, _ = ftl.read(lpn)
            assert data == ("cold", lpn), f"cold block {lpn} lost"

    def test_demoted_seq_block_pages_stay_readable(self):
        """Directly construct the hazard: open a seq run, supersede part
        of it through the random log, then force the retire."""
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = HybridFTL(chip, HybridFTLConfig())
        # Sequential run that fills 7 of 8 pages of group 0.
        for lpn in range(2):  # prime _last_lpn so a run can start at 8
            ftl.write(6 + lpn, ("prime", lpn))
        for lpn in range(8, 15):
            ftl.write(lpn, ("run", lpn))
        assert ftl._seq_log is not None
        # Supersede two run pages via the random path (non-consecutive).
        ftl.write(9, ("newer", 9))
        ftl.write(12, ("newer", 12))
        # Force retire by starting a different sequential run.
        ftl.write(15, ("bridge", 15))
        for lpn in range(16, 24):
            ftl.write(lpn, ("run2", lpn))
        # Every version must be the newest one written.
        assert ftl.read(8)[0] == ("run", 8)
        assert ftl.read(9)[0] == ("newer", 9)
        assert ftl.read(12)[0] == ("newer", 12)
        assert ftl.read(14)[0] == ("run", 14)


class TestMergeVictimLeak:
    """A CacheFullError raised mid-merge once leaked the victim log
    block out of the log pool; every manager retry leaked another until
    the device was a pile of orphaned LOG blocks."""

    def test_failed_merges_do_not_leak_log_blocks(self):
        geometry = FlashGeometry(planes=2, blocks_per_plane=10, pages_per_block=8)
        ssc = SolidStateCache.ssc(geometry)
        failures = 0
        for i in range(4000):
            try:
                # Sparse dirty writes: guaranteed to jam eventually.
                ssc.write_dirty(i * 64, ("d", i))
            except CacheFullError:
                failures += 1
                if failures > 20:
                    break
        # Invariant: every LOG-kind block is tracked by the engine.
        tracked = set(ssc.engine._log_blocks)
        if ssc.engine._seq_log is not None:
            tracked.add(ssc.engine._seq_log.pbn)
        if ssc.engine._active_log is not None:
            tracked.add(ssc.engine._active_log.pbn)
        for plane in ssc.chip.planes:
            for block in plane.blocks.values():
                if block.kind is BlockKind.LOG:
                    assert block.pbn in tracked, f"leaked log block {block.pbn}"


class TestPageMapActiveLeak:
    """Page-map GC opens a fresh append block mid-collection; the write
    path then allocated *another*, abandoning the partial one.  Repeated
    under pressure this drained the free pool to zero."""

    def test_no_partial_block_accumulation(self):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = PageMapFTL(chip)
        rng = random.Random(3)
        for i in range(8000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
            partial = [
                block
                for plane in chip.planes
                for block in plane.blocks.values()
                if block.kind is BlockKind.DATA
                and 0 < block.write_pointer < block.num_pages
                and block is not ftl._active
            ]
            assert len(partial) == 0, f"leaked partial blocks {partial}"
            assert ftl.chip.free_total >= 1


class TestPageMapFullyValidVictims:
    """Greedy GC once collected 100 %-valid blocks, recycling space at
    exactly zero net gain until the progress guard tripped."""

    def test_dense_fill_then_overwrite(self):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = PageMapFTL(chip)
        # Fill the entire logical space (zero invalid pages anywhere).
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn, ("fill", lpn))
        # Then overwrite a narrow window, forcing GC with most blocks
        # fully valid.
        for i in range(3000):
            lpn = i % 16
            ftl.write(lpn, ("over", i))
        for lpn in range(16, ftl.logical_pages, 11):
            assert ftl.read(lpn)[0] == ("fill", lpn)


class TestFormatTableRaggedRows:
    """format_table indexed ``widths`` by cell position, so a row with
    more cells than the header list raised IndexError — first hit by the
    per-shard recovery table, whose rows carry an extra ratio column."""

    def test_rows_wider_than_headers(self):
        table = format_table(
            ["shard", "us"],
            [["shard0", 120.0, "78%"], ["shard1", 154.0, "100%"]],
            title="Recovery",
        )
        lines = table.splitlines()
        assert lines[0] == "Recovery"
        # Every row renders, extra cells included and aligned.
        assert "78%" in table and "100%" in table
        assert lines[-1].startswith("shard1")

    def test_extra_column_width_tracks_widest_cell(self):
        table = format_table(["a"], [["x", "wide-cell"], ["y", "z"]])
        rows = table.splitlines()[2:]
        assert rows[0] == "x  wide-cell"
        assert rows[1] == "y  z"

    def test_header_only_and_ragged_mix(self):
        # Mixed widths across rows: widths list grows monotonically.
        table = format_table([], [["a"], ["b", "c", "d"], ["e", "f"]])
        assert [len(line.split()) for line in table.splitlines()[2:]] == [1, 3, 2]


class TestSingleSamplePercentiles:
    """Nearest-rank percentile with one sample computes rank
    ceil(1 * pct / 100), which is 0 for pct=0 — an index-out-of-range
    unless clamped.  The degenerate input must answer, not raise."""

    def test_one_sample_answers_every_percentile(self):
        latency = LatencyStats(keep_samples=True)
        latency.record(312.0)
        for pct in (0.0, 50.0, 99.0, 100.0):
            assert latency.percentile(pct) == 312.0


class TestWideBlockDirtyRecovery:
    """Block-map records and checkpoints pack a block's dirty and valid
    bitmaps into one integer.  The split was fixed at 64 bits, so on a
    geometry with more pages per block the valid bitmap overlapped the
    dirty one and crash recovery dropped dirty blocks."""

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["log", "checkpoint"])
    @pytest.mark.parametrize("pages_per_block", [128, 256])
    def test_dirty_groups_survive_crash(self, pages_per_block, checkpoint, monkeypatch):
        # A slack log-ratio policy keeps the block inserts in the log, so
        # the "log" case replays them rather than a checkpoint.
        monkeypatch.setattr(device, "CHECKPOINT_LOG_RATIO", 10.0)
        ssc = SolidStateCache(
            FlashGeometry(planes=2, blocks_per_plane=32, pages_per_block=pages_per_block),
        )
        blocks = 3 * pages_per_block
        for lbn in range(blocks):
            ssc.write_dirty(lbn, ("v", lbn))
        assert len(ssc.engine.data_map) >= 2  # block-mapped groups
        if checkpoint:
            ssc.checkpoint_now()
        else:
            assert ssc.checkpoints.latest() is None
            assert any(
                record.kind is RecordKind.INSERT_BLOCK for record in ssc.oplog.flushed
            )
        ssc.crash()
        ssc.recover()
        dirty, _cost = ssc.exists(0, blocks)
        assert dirty == list(range(blocks))
        for lbn in range(blocks):
            assert ssc.read(lbn)[0] == ("v", lbn)


class TestFtlRepr:
    """CacheFTL inherited HybridFTL.__repr__, which reads the
    ``logical_groups`` a cache engine does not have."""

    def test_every_ftl_and_array_has_a_repr(self):
        geometry = FlashGeometry(planes=2, blocks_per_plane=32, pages_per_block=16)
        ssc = SolidStateCache(geometry)
        ssc.write_dirty(3, "x")
        assert repr(ssc.engine).startswith("CacheFTL(log_target=")
        array = ShardedSSC([SolidStateCache(geometry) for _ in range(2)])
        assert repr(array).startswith("ShardedSSC(shards=2,")
        assert repr(SSD(geometry=geometry).ftl).startswith("HybridFTL(groups=")


class TestCheckpointOfTruncatedLog:
    """A checkpoint taken right after another one, with the log already
    truncated, was stamped seq 0."""

    def test_back_to_back_checkpoints_keep_their_seq(self):
        ssc = SolidStateCache(
            FlashGeometry(planes=2, blocks_per_plane=32, pages_per_block=16))
        for lbn in range(100):
            if lbn % 3:
                ssc.write_dirty(lbn, ("d", lbn))
            else:
                ssc.write_clean(lbn, ("c", lbn))
        cached = set(ssc.engine.iter_cached_lbns())
        dirty, _cost = ssc.exists(0, 100)
        ssc.checkpoint_now()
        ssc.shutdown()
        slots = ssc.checkpoints._slots
        assert all(slot.is_intact() for slot in slots)
        assert [slot.seq for slot in slots] == [ssc.oplog.last_seq] * 2
        assert ssc.oplog.last_seq > 0
        ssc.crash()
        ssc.recover()
        assert set(ssc.engine.iter_cached_lbns()) == cached
        assert ssc.exists(0, 100)[0] == dirty
