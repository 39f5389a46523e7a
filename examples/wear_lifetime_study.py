#!/usr/bin/env python3
"""Flash lifetime study: how silent eviction stretches device endurance.

MLC flash endures ~10,000 erase cycles per block (Table 1).  This
example replays the same write-heavy workload on an SSD cache and on an
SSC, converts erase counts into projected device lifetime, and shows
the wear-leveling picture (Table 5's wear differential).

Run:  python examples/wear_lifetime_study.py
"""

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.stats.report import format_table
from repro.traces import MAIL, generate_trace

ERASE_ENDURANCE = 10_000  # MLC cycles per block (Table 1)


def main() -> None:
    profile = MAIL.scaled(0.08)
    trace = generate_trace(profile, seed=11)
    writes = sum(1 for record in trace.records if record.is_write)
    print(f"workload: mail x{len(trace)} requests ({writes:,} writes)\n")

    rows = []
    lifetimes = {}
    for kind in (SystemKind.NATIVE, SystemKind.SSC, SystemKind.SSC_R):
        system = build_system(SystemConfig(
            kind=kind, mode=CacheMode.WRITE_THROUGH,
            cache_blocks=profile.cache_blocks(),
            disk_blocks=profile.address_range_blocks,
            consistency=False,
        ))
        system.replay(trace.records, warmup_fraction=0.15)
        chip = system.device.chip
        total_blocks = chip.geometry.total_blocks
        erases = chip.stats.block_erases
        # Mean erases per block per million user writes -> projected
        # writes until the endurance budget is spent.
        erase_rate = erases / total_blocks / writes
        projected_writes = ERASE_ENDURANCE / erase_rate if erase_rate else float("inf")
        lifetimes[kind] = projected_writes
        rows.append([
            kind.value,
            f"{erases:,}",
            f"{chip.wear_differential()}",
            f"{system.device.stats.write_amplification():.2f}",
            f"{projected_writes / 1e6:,.0f} M writes",
        ])

    print(format_table(
        ["device", "erases", "wear diff", "write amp", "projected lifetime"],
        rows,
        title="Endurance on the mail workload (10k cycles/block budget)",
    ))
    gain = lifetimes[SystemKind.SSC_R] / lifetimes[SystemKind.NATIVE]
    print(f"\nSSC-R stretches projected device lifetime {gain:.1f}x over the "
          f"SSD cache:\nsilent eviction drops clean blocks instead of "
          f"copying them, so garbage\ncollection erases far less "
          f"(paper §6.5: 26-35% fewer erases).")


if __name__ == "__main__":
    main()
