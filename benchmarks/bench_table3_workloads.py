"""Table 3 — Workload characteristics.

Paper columns: address range, unique blocks, total ops, % writes.
This regenerates the table for the synthetic traces so every other
benchmark's inputs are on the record.
"""

from repro.stats.report import format_table
from repro.traces.analyze import analyze

from benchmarks.common import WORKLOADS, get_trace, once

# Paper's Table 3 for reference (full-scale production traces).
PAPER = {
    "homes": ("532 GB", "1,684,407", "17,836,701", 95.9),
    "mail": ("277 GB", "15,136,141", "462,082,021", 88.5),
    "usr": ("530 GB", "99,450,142", "116,060,427", 5.9),
    "proj": ("816 GB", "107,509,907", "311,253,714", 14.2),
}


def workload_rows():
    rows = []
    for name in WORKLOADS:
        trace = get_trace(name)
        profile = trace.profile
        stats = analyze(trace.records, region_blocks=profile.region_blocks)
        range_gb = profile.address_range_blocks * 4096 / 1e9
        rows.append(
            [
                name,
                f"{range_gb:.1f} GB",
                stats.unique_blocks,
                len(trace),
                f"{100 * stats.write_fraction:.1f}",
                f"{PAPER[name][3]:.1f}",
            ]
        )
    return rows


def test_table3_workload_characteristics(benchmark):
    rows = once(benchmark, workload_rows)
    print()
    print(
        format_table(
            ["workload", "range", "unique blocks", "total ops",
             "% writes", "paper % writes"],
            rows,
            title="Table 3: workload characteristics (synthetic, scaled)",
        )
    )
    for row in rows:
        measured, paper = float(row[4]), float(row[5])
        assert abs(measured - paper) < 5.0, row[0]
