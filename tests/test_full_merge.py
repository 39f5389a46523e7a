"""Full merges: what a merge retires, and the counters it must balance.

A full merge copies a group's live pages from two kinds of source: log
pages (mapped one by one in the page map) and the group's old data
block.  Each log-resident source is retired on its own — its page
invalidated, its page-map entry removed (journaled as REMOVE_PAGE on
the SSC) — while the old data block is retired whole by its erase.
"""

import pytest

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.ftl.hybrid import HybridFTL
from repro.ssc.engine import CacheFTL
from repro.ssc.log import OperationLog, RecordKind
from repro.traces.synthetic import PROFILES, generate_trace

PAGES = 8
GROUP = 2
BASE = GROUP * PAGES
#: Offsets the group's old data block holds; OVERWRITTEN of them are
#: rewritten through the log (in reverse offset order) before the merge.
WRITTEN = range(6)
OVERWRITTEN = (3, 1)


def make_chip():
    return FlashChip(FlashGeometry(planes=4, blocks_per_plane=16,
                                   pages_per_block=PAGES))


def stage_merge(ftl):
    """Give GROUP an old data block plus newer log copies of some of
    its pages; returns (old data block pbn, {lpn: log ppn})."""
    for offset in WRITTEN:
        ftl.write(BASE + offset, ("v1", offset), dirty=True)
    ftl._full_merge_group(GROUP)
    old_pbn = ftl.data_map.lookup(GROUP)
    for offset in OVERWRITTEN:
        ftl.write(BASE + offset, ("v2", offset), dirty=True)
    log_sources = {
        BASE + offset: ftl.log_map.lookup(BASE + offset) for offset in OVERWRITTEN
    }
    assert None not in log_sources.values()
    old = ftl.chip.block(old_pbn)
    assert old.valid_offsets() == sorted(set(WRITTEN) - set(OVERWRITTEN))
    return old_pbn, log_sources


def assert_merged(ftl, old_pbn, log_sources):
    chip = ftl.chip
    old = chip.block(old_pbn)
    assert old.written == 0 and old.valid == 0 and old.erase_count == 1
    plane = chip.planes[old_pbn // chip.geometry.blocks_per_plane]
    assert plane.is_free(old_pbn)
    for ppn in log_sources.values():
        block, offset = chip.locate(ppn)
        assert not block.valid >> offset & 1
    assert all(BASE + offset not in ftl.log_map for offset in range(PAGES))
    new_pbn = ftl.data_map.lookup(GROUP)
    assert new_pbn not in (None, old_pbn)
    new = chip.block(new_pbn)
    assert new.valid_offsets() == list(WRITTEN)
    for offset in WRITTEN:
        version = "v2" if offset in OVERWRITTEN else "v1"
        assert ftl.read(BASE + offset)[0] == (version, offset)


def test_cache_ftl_full_merge_journals_only_log_resident_sources():
    oplog = OperationLog(TimingModel(), pages_per_block=PAGES)
    ftl = CacheFTL(make_chip(), oplog)
    old_pbn, log_sources = stage_merge(ftl)
    mark = oplog.last_seq

    ftl._full_merge_group(GROUP)

    records = [
        (record.kind, record.lbn, record.ppn)
        for record in oplog.flushed + oplog.buffer
        if record.seq > mark
    ]
    new_pbn = ftl.data_map.lookup(GROUP)
    assert records == [
        (RecordKind.REMOVE_PAGE, lpn, log_sources[lpn]) for lpn in sorted(log_sources)
    ] + [(RecordKind.INSERT_BLOCK, GROUP, new_pbn)]
    assert_merged(ftl, old_pbn, log_sources)


def test_hybrid_ftl_full_merge_retires_every_source():
    ftl = HybridFTL(make_chip())
    old_pbn, log_sources = stage_merge(ftl)
    ftl._full_merge_group(GROUP)
    assert_merged(ftl, old_pbn, log_sources)


# Each page the chip reads or programs is a user page or a merge copy;
# metadata (log, checkpoints) is accounted apart from the chip.
@pytest.mark.parametrize("profile, kind, mode, shards, queue_depth", [
    ("homes", "native", "wb", 1, 8),
    ("usr", "ssc", "wt", 1, 1),
    ("mail", "ssc-r", "wb", 4, 8),
])
def test_chip_counters_equal_user_plus_merge_pages(
    profile, kind, mode, shards, queue_depth
):
    workload = PROFILES[profile].scaled(0.02)
    system = build_system(SystemConfig(
        kind=SystemKind(kind), mode=CacheMode(mode),
        cache_blocks=workload.cache_blocks(),
        disk_blocks=workload.address_range_blocks, shards=shards,
    ))
    system.replay(generate_trace(workload, seed=3).records,
                  warmup_fraction=0.15, queue_depth=queue_depth)
    chip, ftl = system.device.chip.stats, system.device.stats
    assert ftl.full_merges > 0
    assert chip.page_writes == ftl.user_writes + ftl.gc_page_writes
    assert chip.page_reads == ftl.user_reads + ftl.gc_page_reads
