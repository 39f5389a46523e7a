"""Trace analysis: the statistics behind Table 3 and Figure 1.

Given any request sequence — synthetic or converted from a real trace —
this computes the characteristics the paper uses to motivate the SSC
design: write fraction, address-space sparseness (region densities),
overwrite skew, sequentiality, and hot-set concentration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.traces.record import Trace, TraceRecord


@dataclass
class TraceStats:
    """Aggregate characteristics of one trace."""

    ops: int = 0
    reads: int = 0
    writes: int = 0
    unique_blocks: int = 0
    unique_written: int = 0
    min_lbn: int = 0
    max_lbn: int = 0
    overwrite_ratio: float = 0.0      # mean writes per written block
    sequential_fraction: float = 0.0  # requests continuing a +1 run
    hot_quarter_share: float = 0.0    # traffic share of the hottest 25%
    region_blocks: int = 1000
    region_densities: List[float] = field(default_factory=list)

    @property
    def write_fraction(self) -> float:
        return self.writes / self.ops if self.ops else 0.0

    @property
    def address_range_blocks(self) -> int:
        return self.max_lbn - self.min_lbn + 1 if self.ops else 0

    @property
    def footprint_bytes(self) -> int:
        """Bytes of unique data touched (4 KB blocks)."""
        return self.unique_blocks * 4096

    def sparse_region_fraction(self, threshold: float = 0.01) -> float:
        """Fraction of occupied regions below ``threshold`` density
        (Fig. 1's headline: >55 % of regions under 1 %)."""
        if not self.region_densities:
            return 0.0
        below = sum(1 for d in self.region_densities if d < threshold)
        return below / len(self.region_densities)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"requests:            {self.ops:,} "
            f"({self.write_fraction:.1%} writes)",
            f"unique blocks:       {self.unique_blocks:,} "
            f"({self.footprint_bytes / (1 << 20):,.1f} MiB footprint)",
            f"address range:       blocks {self.min_lbn:,}..{self.max_lbn:,}",
            f"overwrite ratio:     {self.overwrite_ratio:.2f} writes/written block",
            f"sequentiality:       {self.sequential_fraction:.1%} of requests",
            f"hot 25% of blocks:   {self.hot_quarter_share:.1%} of traffic",
            f"regions <1% dense:   {self.sparse_region_fraction():.1%} "
            f"(of {len(self.region_densities)} occupied "
            f"{self.region_blocks}-block regions)",
        ]
        return "\n".join(lines)


def analyze(records: Sequence[TraceRecord], region_blocks: int = 1000) -> TraceStats:
    """Compute :class:`TraceStats` over ``records`` (a
    :class:`~repro.traces.record.Trace` or any sequence of records)."""
    stats = TraceStats(region_blocks=region_blocks)
    trace = Trace.of(records)
    if not trace:
        return stats

    access_counts: Counter = Counter()
    write_counts: Counter = Counter()
    regions: Dict[int, set] = {}
    sequential = 0
    previous_lbn = None
    min_lbn = max_lbn = trace.lbns[0]

    for is_write, lbn in zip(trace.writes, trace.lbns):
        stats.ops += 1
        if is_write:
            stats.writes += 1
            write_counts[lbn] += 1
        else:
            stats.reads += 1
        access_counts[lbn] += 1
        regions.setdefault(lbn // region_blocks, set()).add(lbn)
        if previous_lbn is not None and lbn == previous_lbn + 1:
            sequential += 1
        previous_lbn = lbn
        if lbn < min_lbn:
            min_lbn = lbn
        if lbn > max_lbn:
            max_lbn = lbn

    stats.unique_blocks = len(access_counts)
    stats.unique_written = len(write_counts)
    stats.min_lbn = min_lbn
    stats.max_lbn = max_lbn
    stats.overwrite_ratio = (
        stats.writes / stats.unique_written if stats.unique_written else 0.0
    )
    stats.sequential_fraction = sequential / stats.ops
    ranked = sorted(access_counts.values(), reverse=True)
    top = ranked[: max(1, len(ranked) // 4)]
    stats.hot_quarter_share = sum(top) / stats.ops
    stats.region_densities = [
        len(blocks) / region_blocks for blocks in regions.values()
    ]
    return stats
