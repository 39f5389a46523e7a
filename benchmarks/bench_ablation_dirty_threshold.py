"""Ablation — write-back dirty threshold.

§6.3 configures the FlashTier write-back manager "with a dirty
percentage threshold of 20 % of the cache size (above this threshold
the cache manager will clean blocks)".  This sweep shows the trade the
threshold controls: a low threshold cleans eagerly (more disk
write-back traffic, smaller dirty table, more evictable cache), a high
one absorbs more overwrites in flash but risks device back-pressure.
"""

from repro import CacheMode, SystemKind
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.manager.writeback import FlashTierWBManager, WriteBackConfig
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.report import format_table

from benchmarks.common import WARMUP_FRACTION, get_trace, once, system_config

THRESHOLDS = (0.05, 0.10, 0.20, 0.40)


def run_sweep():
    trace = get_trace("homes")
    config = system_config(trace, SystemKind.SSC, CacheMode.WRITE_BACK)
    geometry = cache_geometry(config)
    rows = []
    for threshold in THRESHOLDS:
        ssc = SolidStateCache(
            geometry, config=SSCConfig(policy=EvictionPolicy.UTIL)
        )
        disk = Disk(config.disk_blocks)
        manager = FlashTierWBManager(
            ssc, disk, WriteBackConfig(dirty_threshold=threshold)
        )
        stats = replay_trace(manager, trace.records,
                             warmup_fraction=WARMUP_FRACTION)
        rows.append({
            "threshold": threshold,
            "iops": stats.iops(),
            "writebacks": manager.stats.writebacks,
            "disk_writes": disk.stats.writes,
            "host_kib": manager.host_memory_bytes() / 1024,
            "dirty": len(manager.dirty_table),
        })
    return rows


def test_ablation_dirty_threshold(benchmark):
    rows = once(benchmark, run_sweep)
    print()
    print(
        format_table(
            ["dirty threshold", "IOPS", "writebacks", "disk writes",
             "host KiB", "dirty blocks"],
            [
                [f"{r['threshold']:.0%}", f"{r['iops']:.0f}",
                 r["writebacks"], r["disk_writes"],
                 f"{r['host_kib']:.1f}", r["dirty"]]
                for r in rows
            ],
            title="Ablation: write-back dirty threshold (homes)",
        )
    )
    # Eager cleaning writes back more and keeps the dirty table smaller.
    assert rows[0]["writebacks"] >= rows[-1]["writebacks"]
    assert rows[0]["dirty"] <= rows[-1]["dirty"] or rows[-1]["dirty"] <= 64
