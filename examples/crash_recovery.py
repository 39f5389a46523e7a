#!/usr/bin/env python3
"""Crash recovery walkthrough: the cache survives a power failure.

Populates a write-back FlashTier cache with dirty data, yanks the
power, recovers, and verifies the paper's §3.5 guarantees:

1. every dirty block is still readable with its newest contents;
2. no read ever returns stale data;
3. evicted blocks stay evicted.

Also prints the Figure 5 comparison: FlashTier's checkpoint+log replay
vs what the native system would need (manager-metadata reload and a
full SSD OOB scan).

Run:  python examples/crash_recovery.py
"""

import random

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.errors import NotPresentError
from repro.traces import HOMES, generate_trace


def main() -> None:
    profile = HOMES.scaled(0.08)
    trace = generate_trace(profile, seed=3)
    config = SystemConfig(
        kind=SystemKind.SSC,
        mode=CacheMode.WRITE_BACK,
        cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks,
    )
    system = build_system(config)
    ssc, manager = system.ssc, system.manager

    print("replaying workload to populate the cache...")
    system.replay(trace.records)
    dirty_before, _ = ssc.exists(0, profile.address_range_blocks)
    contents = {}
    rng = random.Random(1)
    for lbn in rng.sample(dirty_before, min(200, len(dirty_before))):
        contents[lbn], _ = ssc.read(lbn)
    print(f"cache holds {ssc.cached_blocks():,} blocks, "
          f"{len(dirty_before):,} dirty")

    print("\n*** simulated power failure ***")
    lost = ssc.crash()
    print(f"volatile state lost ({lost} buffered log records)")

    recovery_us = ssc.recover()
    print(f"device recovery (checkpoint + log replay): "
          f"{recovery_us / 1000:.2f} ms of simulated time")

    # Guarantee 1: all dirty data survived with its newest contents.
    for lbn, expected in contents.items():
        data, _ = ssc.read(lbn)
        assert data == expected, f"dirty block {lbn} corrupted!"
    print(f"verified: all {len(contents)} sampled dirty blocks intact")

    # The manager's dirty-block table is rebuilt with exists() and can
    # overlap normal traffic (§4.4).
    scan_us = manager.recover_us(profile.address_range_blocks)
    dirty_after, _ = ssc.exists(0, profile.address_range_blocks)
    assert set(dirty_after) >= set(dirty_before), "dirty blocks lost!"
    print(f"manager dirty-table rebuild via exists(): "
          f"{scan_us / 1000:.3f} ms (overlappable)")

    # Guarantee 3: eviction is durable across crashes.
    victim = dirty_after[0]
    ssc.evict(victim)
    ssc.crash()
    ssc.recover()
    try:
        ssc.read(victim)
        raise AssertionError("evicted block came back from the dead!")
    except NotPresentError:
        print(f"verified: block {victim} evicted before the second crash "
              f"stayed evicted")

    # Figure 5 comparison against the native system's recovery paths.
    native = build_system(SystemConfig(
        kind=SystemKind.NATIVE, mode=CacheMode.WRITE_BACK,
        cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks,
    ))
    native.replay(trace.records)
    print("\nFigure 5 view (this cache size):")
    print(f"  FlashTier recovery:      {recovery_us / 1000:8.2f} ms")
    print(f"  Native-FC (manager):     {native.manager.recover_manager_us() / 1000:8.2f} ms")
    print(f"  Native-SSD (OOB scan):   {native.device.oob_recovery_scan_us() / 1000:8.2f} ms")


if __name__ == "__main__":
    main()
