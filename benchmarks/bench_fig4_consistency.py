"""Figure 4 — Consistency cost.

Paper: write-back throughput normalized to a no-consistency system
(mapping never persisted).  Lines: Native-D (persists metadata for
dirty blocks), FlashTier-D (buffers write-clean records), and
FlashTier-C/D (synchronous logging for clean and dirty).

Expected shape: on write-heavy homes/mail the native system loses
18-29 %; FlashTier-D loses 8-15 % and FlashTier-C/D 11-16 %.  On
read-heavy usr/proj every system loses <= ~7 %.
"""

from repro import CacheMode, SystemKind
from repro.ssc.device import SSCConfig, SolidStateCache
from repro.ssc.engine import EvictionPolicy
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.manager.writeback import FlashTierWBManager
from repro.stats.report import format_table

from benchmarks.common import (
    WARMUP_FRACTION,
    WORKLOADS,
    get_trace,
    once,
    run_workload,
    system_config,
)


def flashtier_variant(trace, clean_durability, consistency=True):
    """A write-back FlashTier system with a specific durability mode."""
    config = system_config(trace, SystemKind.SSC, CacheMode.WRITE_BACK)
    geometry = cache_geometry(config)
    ssc = SolidStateCache(
        geometry,
        config=SSCConfig(
            policy=EvictionPolicy.UTIL,
            consistency=consistency,
            clean_durability=clean_durability,
        ),
    )
    disk = Disk(config.disk_blocks)
    manager = FlashTierWBManager(ssc, disk)
    return replay_trace(
        manager, trace.records, warmup_fraction=WARMUP_FRACTION
    ).iops()


def run_figure4():
    results = {}
    for name in WORKLOADS:
        trace = get_trace(name)
        _sys, native_nc = run_workload(
            trace, SystemKind.NATIVE, CacheMode.WRITE_BACK, consistency=False
        )
        _sys, native_d = run_workload(
            trace, SystemKind.NATIVE, CacheMode.WRITE_BACK, consistency=True
        )
        flashtier_nc = flashtier_variant(trace, "buffered", consistency=False)
        flashtier_d = flashtier_variant(trace, "buffered")
        flashtier_cd = flashtier_variant(trace, "sync")
        results[name] = {
            "Native-D": 100 * native_d.iops() / native_nc.iops(),
            "FlashTier-D": 100 * flashtier_d / flashtier_nc,
            "FlashTier-C/D": 100 * flashtier_cd / flashtier_nc,
        }
    return results


def test_fig4_consistency_cost(benchmark):
    results = once(benchmark, run_figure4)
    rows = [
        [name, f"{v['Native-D']:.0f}%", f"{v['FlashTier-D']:.0f}%",
         f"{v['FlashTier-C/D']:.0f}%"]
        for name, v in results.items()
    ]
    print()
    print(
        format_table(
            ["workload", "Native-D", "FlashTier-D", "FlashTier-C/D"],
            rows,
            title="Figure 4: throughput vs no-consistency baseline",
        )
    )
    print(
        "\npaper shape: homes/mail Native-D 71-82%, FlashTier-D 85-92%, "
        "FlashTier-C/D 84-89%; usr/proj all >=93%"
    )
    for name in ("homes", "mail"):
        v = results[name]
        # FlashTier's consistency must not cost meaningfully more than
        # the native system's.  (Tolerance: at QD 1 each FlashTier
        # write-dirty pays a log page of its own, which costs mail more
        # than the paper measured — see EXPERIMENTS.md deviation 4.)
        assert v["FlashTier-D"] > v["Native-D"] - 8.0, name
        # Relaxing clean-block durability must not cost more than full sync.
        assert v["FlashTier-D"] >= v["FlashTier-C/D"] - 3.0, name
    for name in ("usr", "proj"):
        # Read-heavy: consistency is cheap for every system (paper: >=93%).
        v = results[name]
        assert min(v.values()) > 85.0, name
