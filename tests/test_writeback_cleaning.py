"""The one write-back cleaning loop (§4.4), run by both write-back
managers: past the dirty limit, clean LRU dirty blocks together with
the contiguous run around each; ``flush_dirty`` cleans the whole
table.  FlashTier's forced-clean ratchet is counted in ``collect()``.
"""

import random

import pytest

from repro.core.config import SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.disk.model import Disk
from repro.flash.geometry import FlashGeometry
from repro.ftl.ssd import SSD
from repro.manager.native import NativeCacheManager
from repro.manager.writeback import FlashTierWBManager
from repro.obs.catalog import collect
from repro.ssc.device import SolidStateCache

GEOMETRY = FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16)

#: Longest contiguous run the loop cleans at once
#: (``DirtyBlockTable.contiguous_run``'s default limit).
RUN = 32


def flashtier(threshold):
    return FlashTierWBManager(
        SolidStateCache.ssc(GEOMETRY), Disk(100_000),
        SystemConfig(dirty_threshold=threshold),
    )


def native(threshold):
    return NativeCacheManager(
        SSD(geometry=GEOMETRY), Disk(100_000),
        SystemConfig(kind=SystemKind.NATIVE, dirty_threshold=threshold),
    )


write_back_managers = pytest.mark.parametrize(
    "make", [flashtier, native], ids=["flashtier", "native"]
)


def record_disk_writes(manager):
    """The lbns ``manager`` writes to disk, in order."""
    written = []
    disk_write = manager.disk.write

    def write(lbn, data):
        written.append(lbn)
        return disk_write(lbn, data)

    manager.disk.write = write
    return written


@write_back_managers
def test_write_burst_stays_within_the_limit(make):
    manager = make(0.05)
    limit = manager.stats.dirty_limit
    rng = random.Random(2)
    for i in range(3000):
        manager.write(rng.randrange(20_000), i)
        # The loop stops as soon as the count is back at the limit, so
        # the overshoot one write makes is gone before it completes.
        assert len(manager.dirty_table) <= limit
    assert manager.stats.writebacks > 0
    assert manager.stats.dirty_limit == limit


@write_back_managers
def test_adjacent_dirty_blocks_written_back_as_one_ordered_run(make):
    manager = make(0.05)
    limit = manager.stats.dirty_limit
    run = list(range(200, 200 + RUN))
    for lbn in random.Random(6).sample(run, len(run)):
        manager.write(lbn, ("run", lbn))
    written = record_disk_writes(manager)
    # Non-adjacent blocks push the count past the limit; the run holds
    # the LRU block, so it is cleaned first, whole and in lbn order.
    lbn = 10_000
    while not written:
        manager.write(lbn, ("scattered", lbn))
        lbn += 2
    assert len(manager.dirty_table) <= limit
    assert written[:RUN] == run
    assert not any(block in manager.dirty_table for block in run)


@write_back_managers
def test_flush_dirty_writes_every_block_back(make):
    manager = make(0.20)
    rng = random.Random(7)
    lbns = list(range(40, 60)) + rng.sample(range(1000, 20_000), 40)
    for lbn in lbns:
        manager.write(lbn, ("d", lbn))
    assert len(manager.dirty_table) == len(lbns)
    manager.flush_dirty()
    assert len(manager.dirty_table) == 0
    for lbn in lbns:
        assert manager.disk.peek(lbn) == ("d", lbn)


def test_forced_clean_lowers_the_limit_and_is_counted():
    """A full SSC makes the FlashTier manager clean every dirty block
    and lower its dirty limit to 75%, for good."""
    system = build_system(SystemConfig(
        cache_blocks=256, disk_blocks=100_000, dirty_threshold=1.0,
    ))
    manager = system.manager
    old = manager.stats.dirty_limit
    assert old == system.ssc.capacity_pages
    rng = random.Random(1)
    for i in range(5000):
        manager.write(rng.randrange(100_000), i)
        if manager.stats.forced_cleans:
            break
    assert manager.stats.forced_cleans == 1
    assert manager.stats.dirty_limit == max(16, int(0.75 * old))
    snapshot = collect(system)
    assert snapshot.counters["manager.forced_cleans"] == 1
    assert snapshot.gauges["manager.dirty_limit"] == manager.stats.dirty_limit
