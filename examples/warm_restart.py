#!/usr/bin/env python3
"""Warm restarts: persistent caching across shutdowns and power cuts.

§2's motivating arithmetic: "filling a 100 GB cache from a 500 IOPS
disk system takes over 14 hours", so a cache that survives restarts is
worth real money.  This example measures three restart paths:

1. cold start — the cache is reset and re-warmed from disk;
2. clean shutdown + warm restart — checkpoint, reload;
3. power failure + crash recovery — checkpoint + log replay;

and shows the NVRAM configuration where consistency costs nothing.

Run:  python examples/warm_restart.py
"""

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.ssc.device import SSCConfig, SolidStateCache
from repro.core.flashtier import cache_geometry, replay_trace
from repro.disk.model import Disk
from repro.manager.writethrough import FlashTierWTManager
from repro.traces import USR, generate_trace


def main() -> None:
    profile = USR.scaled(0.08)
    trace = generate_trace(profile, seed=5)
    config = SystemConfig(
        kind=SystemKind.SSC, mode=CacheMode.WRITE_THROUGH,
        cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks,
    )
    system = build_system(config)
    ssc, manager = system.ssc, system.manager

    print("warming the cache...")
    warm_stats = system.replay(trace.records)
    print(f"  cold replay: {warm_stats.iops():,.0f} IOPS "
          f"({warm_stats.miss_rate():.1f}% misses), "
          f"{ssc.cached_blocks():,} blocks cached")

    # Re-replay on the warm cache: this is the prize.
    hot_stats = system.replay(trace.records)
    print(f"  warm replay: {hot_stats.iops():,.0f} IOPS "
          f"({hot_stats.miss_rate():.1f}% misses)")

    # Path 2: clean shutdown, then restart.
    shutdown_us = ssc.shutdown()
    ssc.crash()  # power off
    restart_us = ssc.recover()
    print(f"\nclean shutdown cost {shutdown_us / 1000:.2f} ms; "
          f"warm restart in {restart_us / 1000:.2f} ms")
    post = system.replay(trace.records)
    print(f"  post-restart replay: {post.iops():,.0f} IOPS "
          f"({post.miss_rate():.1f}% misses) — still warm")

    # Path 3: power failure mid-operation.
    ssc.crash()
    crash_recovery_us = ssc.recover()
    print(f"\ncrash recovery (no clean shutdown): "
          f"{crash_recovery_us / 1000:.2f} ms")

    # NVRAM variant: consistency without the logging cost (§6.4).
    geometry = cache_geometry(config)
    nvram = SolidStateCache(geometry, config=SSCConfig(nvram=True))
    nvram_manager = FlashTierWTManager(nvram, Disk(config.disk_blocks))
    nvram_stats = replay_trace(nvram_manager, trace.records)
    flash_logged = warm_stats.iops()
    print(f"\nNVRAM-backed log: {nvram_stats.iops():,.0f} IOPS on the cold "
          f"replay vs {flash_logged:,.0f} with flash logging")
    print("(paper §6.4: with non-volatile memory, consistency imposes no "
          "performance cost)")


if __name__ == "__main__":
    main()
