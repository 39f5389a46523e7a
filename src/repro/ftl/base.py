"""Shared FTL statistics and accounting.

Table 5 of the paper reports, per device: total erases, the wear
differential between blocks, write amplification, and cache miss rate.
The first three come from this statistics object (miss rate comes from
the cache manager).  Write amplification follows the paper's phrasing —
"the native system writes each block an *additional* 2.3 times due to
garbage collection" — i.e. ``gc_page_writes / user_page_writes``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.counters import Counters, counter


@dataclass
class FTLStats(Counters):
    """Cumulative FTL-level activity counters."""

    user_reads: int = counter(
        "Page reads performed on behalf of user requests.")
    user_writes: int = counter(
        "Page programs performed on behalf of user requests.")
    gc_page_reads: int = counter(
        "Page reads garbage-collection merges performed.")
    gc_page_writes: int = counter(
        "Page programs garbage-collection merges performed; "
        "gc_page_writes / user_writes is the write amplification of "
        "Table 5.")
    full_merges: int = counter(
        "Full merges: every live page of the erase group copied.")
    switch_merges: int = counter(
        "Switch merges: a sequentially written log block promoted in "
        "place, zero copies.")
    partial_merges: int = counter(
        "Partial merges: the sequential log block's tail completed before "
        "promotion.")
    silent_evictions: int = counter(
        "Erase blocks the SSC reclaimed by dropping clean data instead of "
        "copying it (SE-Util / SE-Merge).")
    evicted_valid_pages: int = counter(
        "Live (clean) pages discarded by silent eviction.")

    def write_amplification(self) -> float:
        """Extra flash writes per user write caused by garbage collection."""
        if self.user_writes == 0:
            return 0.0
        return self.gc_page_writes / self.user_writes
