"""Counter identities: every counted quantity has one owner, and what
can be derived from the owner agrees with it.

Three small write-back replays (a bare SSC, a 2-shard SSC-R array at
queue depth 4 and the native SSD) check, per chip and over the array:

* ``flash.block_erases`` is the sum of the blocks' erase counts (the
  chip's erase is the only path that erases a block);
* ``chip.free_total`` is the number of blocks in the planes' free pools;
* the replay's request counts are the manager's over the measured
  window: ``ops == reads + writes`` equals the latency sample count, and
  ``read_hits + read_misses == reads``;
* metadata pages are counted once, by the operation log and the
  checkpoint store, and ``collect()`` reports nothing that disagrees
  with them, also after ``shutdown()``.

The checkpoint trigger weighs the durable log as ``len(flushed) *
RECORD_BYTES``; a replay driven op by op checks it fires exactly when
that size outgrows its share of the latest checkpoint.
"""

from dataclasses import replace

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.flash.geometry import FlashGeometry
from repro.obs import collect
from repro.ssc.checkpoint import checkpoint_bytes
from repro.ssc.device import CHECKPOINT_LOG_RATIO, SolidStateCache, SSCConfig
from repro.ssc.log import RECORD_BYTES
from repro.traces.synthetic import PROFILES, generate_trace

#: name -> (system config, queue depth).
CASES = {
    "ssc_wb": (SystemConfig(kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
                            cache_blocks=256), 1),
    "ssc_r_wb_2shards_qd4": (SystemConfig(kind=SystemKind.SSC_R,
                                          mode=CacheMode.WRITE_BACK,
                                          cache_blocks=512, shards=2), 4),
    "native_wb": (SystemConfig(kind=SystemKind.NATIVE,
                               mode=CacheMode.WRITE_BACK,
                               cache_blocks=256), 1),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def replayed(request):
    """``(system, replay stats)`` of one case, replayed once per module."""
    config, queue_depth = CASES[request.param]
    profile = PROFILES["homes"].scaled(0.01)
    records = generate_trace(profile, seed=42).records
    system = build_system(replace(config, disk_blocks=profile.address_range_blocks))
    stats = system.replay(records, warmup_fraction=0.25, queue_depth=queue_depth)
    return system, stats


def chips(system):
    return [member.chip for member in getattr(system.device, "shards", [system.device])]


def metadata_pages(system) -> int:
    """Log and checkpoint pages, read from their owners on every member."""
    if system.ssc is None:
        return 0
    return sum(
        member.oplog.pages_written + member.checkpoints.pages_written
        for member in getattr(system.ssc, "shards", [system.ssc])
    )


def test_block_erases_sum_the_blocks_erase_counts(replayed):
    system, _ = replayed
    for chip in chips(system):
        assert chip.stats.block_erases == sum(block.erase_count for block in chip.blocks)
    assert system.device.chip.stats.block_erases == sum(
        block.erase_count for chip in chips(system) for block in chip.blocks)
    assert system.device.chip.stats.block_erases > 0


def test_free_total_is_the_plane_pools(replayed):
    system, _ = replayed
    for chip in chips(system):
        assert chip.free_total == sum(
            plane.is_free(pbn) for plane in chip.planes for pbn in plane.blocks)


def test_request_counts_agree(replayed):
    _, stats = replayed
    assert stats.ops == stats.reads + stats.writes == stats.latency.count
    assert stats.read_hits + stats.read_misses == stats.reads
    assert stats.reads > 0 and stats.writes > 0


def assert_metadata_pages_counted_once(system, stats):
    counters = collect(system, stats).counters
    pages = metadata_pages(system)
    assert counters["log.pages_written"] + counters["checkpoint.pages_written"] == pages
    disagreeing = {
        name: value for name, value in counters.items()
        if "meta_page" in name and value != pages
    }
    assert disagreeing == {}


def test_collect_reports_metadata_pages_once(replayed):
    system, stats = replayed
    assert_metadata_pages_counted_once(system, stats)
    if system.ssc is not None:
        # A clean shutdown writes a checkpoint outside any request.
        before = metadata_pages(system)
        system.ssc.shutdown()
        assert metadata_pages(system) > before
        assert_metadata_pages_counted_once(system, stats)


def test_log_size_drives_the_checkpoint_trigger():
    """A checkpoint fires in an operation exactly when the durable log
    has outgrown :data:`CHECKPOINT_LOG_RATIO` of the latest checkpoint
    (of the maps, before the first), and never stays outgrown past it."""
    ssc = SolidStateCache(
        FlashGeometry(planes=4, blocks_per_plane=64, pages_per_block=16),
        config=SSCConfig(checkpoint_interval_writes=10**9),
    )

    def trigger() -> float:
        latest = ssc.checkpoints.latest()
        if latest is not None:
            return CHECKPOINT_LOG_RATIO * latest.size_bytes()
        return CHECKPOINT_LOG_RATIO * checkpoint_bytes(
            len(ssc.engine.log_map), len(ssc.engine.data_map))

    fired = []
    checkpoint_now = ssc.checkpoint_now

    def recording_checkpoint():
        fired.append(len(ssc.oplog.flushed) * RECORD_BYTES > trigger())
        return checkpoint_now()

    ssc.checkpoint_now = recording_checkpoint
    records = generate_trace(PROFILES["mail"].scaled(0.01), seed=3).records
    for record in records:
        if record.is_write:
            # Dirty, then cleaned, so the cache never fills with dirty data.
            ssc.write_dirty(record.lbn, record.lbn)
            ssc.clean(record.lbn)
        elif ssc.contains(record.lbn):
            ssc.read(record.lbn)
        else:
            ssc.write_clean(record.lbn, record.lbn)
        assert len(ssc.oplog.flushed) * RECORD_BYTES <= trigger()
    assert fired and all(fired)
