#!/usr/bin/env python3
"""Quickstart: cache a write-heavy workload on an SSC.

Builds a complete FlashTier system (write-back cache manager + SSC-R
device + disk), replays a synthetic file-server workload through it,
and prints the numbers the paper's evaluation is built from: IOPS, miss
rate, write amplification, erases, and memory footprints.

Run:  python examples/quickstart.py
"""

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.traces import HOMES, analyze, generate_trace


def main() -> None:
    # A scaled-down version of the paper's "homes" file-server workload
    # (Table 3): 96 % writes, sparse addresses, hot-file skew.
    profile = HOMES.scaled(0.10)
    trace = generate_trace(profile, seed=42)
    shape = analyze(trace.records, region_blocks=profile.region_blocks)
    print(f"workload: {profile.name}, {len(trace)} requests, "
          f"{shape.write_fraction:.0%} writes, "
          f"{shape.unique_blocks} unique blocks")

    # Cache sized for the top 25 % most-accessed blocks (§6.1).
    config = SystemConfig(
        kind=SystemKind.SSC_R,           # SE-Merge silent eviction
        mode=CacheMode.WRITE_BACK,
        cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks,
    )
    system = build_system(config)

    # Warm the cache on the first 15 % of the trace, then measure.
    stats = system.replay(trace.records, warmup_fraction=0.15)

    device = system.device.stats
    print(f"\n{'IOPS':>24}: {stats.iops():,.0f}")
    print(f"{'read miss rate':>24}: {stats.miss_rate():.1f} %")
    print(f"{'mean latency':>24}: {stats.latency.mean_us:.0f} us")
    print(f"{'write amplification':>24}: {device.write_amplification():.2f} extra writes/write")
    print(f"{'erase operations':>24}: {system.device.chip.stats.block_erases:,}")
    print(f"{'silent evictions':>24}: {device.silent_evictions:,} blocks")
    print(f"{'device memory':>24}: {system.device.device_memory_bytes() / 1024:.0f} KiB")
    print(f"{'host memory':>24}: {system.manager.host_memory_bytes() / 1024:.1f} KiB "
          f"(dirty-block table only)")


if __name__ == "__main__":
    main()
