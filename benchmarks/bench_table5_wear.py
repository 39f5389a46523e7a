"""Table 5 — Wear distribution.

Paper columns, per workload and device (SSD / SSC / SSC-R): total erase
operations, maximum wear difference between any two blocks, write
amplification, and cache miss rate.  Methodology as Figure 6
(write-through, logging disabled, 15 % warm-up).

Expected shape (write-heavy homes/mail): erases SSD > SSC > SSC-R
(SSC ~26 % and SSC-R ~35 % fewer on average); write amplification
SSD > SSC > SSC-R; miss rate rises by only a few points for SSC/SSC-R.
Read-heavy usr/proj: all three close.
"""

from repro import CacheMode, SystemKind
from repro.stats.report import format_table

from benchmarks.common import WORKLOADS, get_trace, once, run_workload

DEVICES = (SystemKind.NATIVE, SystemKind.SSC, SystemKind.SSC_R)
LABELS = {SystemKind.NATIVE: "SSD", SystemKind.SSC: "SSC", SystemKind.SSC_R: "SSC-R"}


def run_table5():
    results = {}
    for name in WORKLOADS:
        trace = get_trace(name)
        per_device = {}
        for kind in DEVICES:
            system, stats = run_workload(
                trace, kind, CacheMode.WRITE_THROUGH, consistency=False
            )
            chip = system.device.chip
            per_device[kind] = {
                "erases": chip.stats.block_erases,
                "wear_diff": chip.wear_differential(),
                "write_amp": system.device.stats.write_amplification(),
                "miss_rate": stats.miss_rate(),
            }
        results[name] = per_device
    return results


def test_table5_wear_distribution(benchmark):
    results = once(benchmark, run_table5)
    rows = []
    for name, per_device in results.items():
        for kind in DEVICES:
            entry = per_device[kind]
            rows.append(
                [
                    name,
                    LABELS[kind],
                    entry["erases"],
                    entry["wear_diff"],
                    f"{entry['write_amp']:.2f}",
                    f"{entry['miss_rate']:.1f}",
                ]
            )
    print()
    print(
        format_table(
            ["workload", "device", "erases", "wear diff", "write amp", "miss %"],
            rows,
            title="Table 5: wear distribution (WT, no logging)",
        )
    )
    print(
        "\npaper shape: on homes/mail, erases and write amp fall "
        "SSD > SSC > SSC-R; miss rate rises only a few points"
    )
    for name in ("homes", "mail"):
        ssd = results[name][SystemKind.NATIVE]
        ssc = results[name][SystemKind.SSC]
        ssc_r = results[name][SystemKind.SSC_R]
        assert ssc["write_amp"] < ssd["write_amp"], name
        assert ssc_r["write_amp"] < ssc["write_amp"] + 0.05, name
        assert ssc_r["erases"] < ssd["erases"], name
