"""Ablation — group-commit threshold sweep.

§6.4 configures "group commit to flush the log buffer every 10,000
write operations or when a synchronous operation occurs".  This sweep
varies the threshold on the write-heavy mail workload and reports the
throughput cost and the crash-recovery time, exposing the
durability-granularity / performance trade-off.
"""

from repro import CacheMode, SystemKind
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.manager.writeback import FlashTierWBManager
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.report import format_table

from benchmarks.common import WARMUP_FRACTION, get_trace, once, system_config

THRESHOLDS = (1, 10, 100, 1000, 10_000)


def run_sweep():
    trace = get_trace("mail")
    config = system_config(trace, SystemKind.SSC, CacheMode.WRITE_BACK)
    geometry = cache_geometry(config)
    rows = []
    for threshold in THRESHOLDS:
        ssc = SolidStateCache(
            geometry,
            config=SSCConfig(
                policy=EvictionPolicy.UTIL, group_commit_ops=threshold
            ),
        )
        manager = FlashTierWBManager(ssc, Disk(config.disk_blocks))
        stats = replay_trace(manager, trace.records, warmup_fraction=WARMUP_FRACTION)
        ssc.crash()
        recovery_us = ssc.recover()
        rows.append(
            {
                "threshold": threshold,
                "iops": stats.iops(),
                "sync_flushes": ssc.oplog.sync_flushes,
                "async_flushes": ssc.oplog.async_flushes,
                "log_pages": ssc.oplog.pages_written,
                "recovery_ms": recovery_us / 1000,
            }
        )
    return rows


def test_ablation_group_commit(benchmark):
    rows = once(benchmark, run_sweep)
    print()
    print(
        format_table(
            ["commit every", "IOPS", "sync flushes", "group flushes",
             "log pages", "recovery ms"],
            [
                [r["threshold"], f"{r['iops']:.0f}", r["sync_flushes"],
                 r["async_flushes"], r["log_pages"], f"{r['recovery_ms']:.2f}"]
                for r in rows
            ],
            title="Ablation: group-commit threshold (mail, WB)",
        )
    )
    # Aggressive flushing writes at least as many log pages.
    assert rows[0]["log_pages"] >= rows[-1]["log_pages"]
