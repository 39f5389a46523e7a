"""Ablation — mapping granularity: hybrid vs page-mapped SSD.

The hybrid FTL exists because a full page map costs too much device
memory (the argument behind §4.1 and Table 4); a page map exists
because hybrid merges cost performance.  This ablation quantifies both
sides on the write-heavy homes workload, framing where the SSC lands:
SSC performance beats both (eviction instead of copying) at hybrid-like
memory cost.
"""

from repro import CacheMode, SystemKind
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.ftl.ssd import SSD
from repro.manager.native import NativeCacheManager
from repro.stats.report import format_table

from benchmarks.common import (
    WARMUP_FRACTION,
    get_trace,
    once,
    run_workload,
    system_config,
)


def run_ablation():
    trace = get_trace("homes")
    config = system_config(trace, SystemKind.NATIVE, CacheMode.WRITE_BACK,
                           consistency=False)
    geometry = cache_geometry(config)
    rows = []
    for mapping in ("hybrid", "page"):
        ssd = SSD(geometry=geometry, mapping=mapping)
        manager = NativeCacheManager(ssd, Disk(config.disk_blocks), config)
        stats = replay_trace(manager, trace.records, warmup_fraction=WARMUP_FRACTION)
        rows.append({
            "mapping": mapping,
            "iops": stats.iops(),
            "write_amp": ssd.stats.write_amplification(),
            "erases": ssd.chip.stats.block_erases,
            "memory_kib": ssd.device_memory_bytes() / 1024,
        })
    ssc_system, ssc_stats = run_workload(
        trace, SystemKind.SSC, CacheMode.WRITE_BACK, consistency=False
    )
    rows.append({
        "mapping": "ssc (sparse hybrid + eviction)",
        "iops": ssc_stats.iops(),
        "write_amp": ssc_system.device.stats.write_amplification(),
        "erases": ssc_system.device.chip.stats.block_erases,
        "memory_kib": ssc_system.device.device_memory_bytes() / 1024,
    })
    return rows


def test_ablation_mapping_granularity(benchmark):
    rows = once(benchmark, run_ablation)
    print()
    print(
        format_table(
            ["FTL mapping", "IOPS", "write amp", "erases", "device KiB"],
            [
                [r["mapping"], f"{r['iops']:.0f}", f"{r['write_amp']:.2f}",
                 r["erases"], f"{r['memory_kib']:.0f}"]
                for r in rows
            ],
            title="Ablation: mapping granularity (homes, WB, no consistency)",
        )
    )
    hybrid, page, ssc = rows
    # The page map buys lower write amplification with much more memory.
    assert page["write_amp"] <= hybrid["write_amp"] + 0.05
    assert page["memory_kib"] > 3 * hybrid["memory_kib"]
    # The SSC beats the hybrid SSD without the page map's memory bill.
    assert ssc["iops"] > hybrid["iops"]
    assert ssc["memory_kib"] < page["memory_kib"]
