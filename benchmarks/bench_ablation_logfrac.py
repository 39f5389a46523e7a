"""Ablation — SE-Merge log-block fraction sweep.

§5: "we fix log blocks at 7 % of capacity for SSC and allow the
fraction to range from 0-20 % for SSC-R."  This sweep quantifies the
design choice: more log blocks defer merges (higher performance, lower
write amplification) but cost provisioned device memory for page-level
mappings (the Table 4 trade-off).
"""

from repro import CacheMode, SystemKind
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.manager.writethrough import FlashTierWTManager
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.report import format_table

from benchmarks.common import WARMUP_FRACTION, get_trace, once, system_config

FRACTIONS = (0.07, 0.10, 0.15, 0.20, 0.30)


def run_sweep():
    trace = get_trace("homes")
    config = system_config(
        trace, SystemKind.SSC_R, CacheMode.WRITE_THROUGH, consistency=False
    )
    geometry = cache_geometry(config)
    rows = []
    for fraction in FRACTIONS:
        ssc = SolidStateCache(
            geometry,
            config=SSCConfig(
                policy=EvictionPolicy.MERGE,
                consistency=False,
                max_log_fraction=fraction,
            ),
        )
        manager = FlashTierWTManager(ssc, Disk(config.disk_blocks))
        stats = replay_trace(manager, trace.records, warmup_fraction=WARMUP_FRACTION)
        rows.append(
            {
                "fraction": fraction,
                "iops": stats.iops(),
                "write_amp": ssc.stats.write_amplification(),
                "erases": ssc.chip.stats.block_erases,
                "memory_kib": ssc.device_memory_bytes() / 1024,
                "miss": stats.miss_rate(),
            }
        )
    return rows


def test_ablation_log_fraction(benchmark):
    rows = once(benchmark, run_sweep)
    print()
    print(
        format_table(
            ["max log frac", "IOPS", "write amp", "erases", "dev KiB", "miss %"],
            [
                [f"{r['fraction']:.0%}", f"{r['iops']:.0f}",
                 f"{r['write_amp']:.2f}", r["erases"],
                 f"{r['memory_kib']:.0f}", f"{r['miss']:.1f}"]
                for r in rows
            ],
            title="Ablation: SE-Merge log-block fraction (homes, WT)",
        )
    )
    # Memory must grow monotonically with provisioned log fraction.
    memories = [r["memory_kib"] for r in rows]
    assert memories == sorted(memories)
    # Write amplification should not increase with more log blocks.
    assert rows[-1]["write_amp"] <= rows[0]["write_amp"] + 0.05
