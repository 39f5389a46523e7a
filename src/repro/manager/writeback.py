"""FlashTier write-back cache manager.

Paper §4.4: "On a write, the cache manager uses write-dirty to write the
data to the SSC only.  The cache manager maintains an in-memory table
of cached dirty blocks.  Using its table, the manager can detect when
the percentage of dirty blocks within the SSC exceeds a set threshold,
and if so issues clean commands for LRU blocks.  Within the set of LRU
blocks, the cache manager prioritizes cleaning of contiguous dirty
blocks, which can be merged together for writing to disk."

Recovery (§4.4): "a write-back cache manager can also start using the
cache immediately, but must eventually repopulate the dirty-block table
...  The cache manager scans the entire disk address space with exists.
This operation can overlap normal activity and thus does not delay
recovery."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.disk.model import Disk
from repro.errors import (
    CacheFullError,
    ChecksumError,
    ConfigError,
    NotPresentError,
)
from repro.manager.base import CacheManager
from repro.manager.dirty_table import DirtyBlockTable
from repro.ssc.device import SolidStateCache


@dataclass(frozen=True)
class WriteBackConfig:
    """Write-back manager tunables."""

    dirty_threshold: float = 0.20  # of the SSC's raw page capacity

    def __post_init__(self):
        if not 0.0 < self.dirty_threshold <= 1.0:
            raise ConfigError("dirty_threshold must be in (0, 1]")


class FlashTierWBManager(CacheManager):
    """Write-back caching on an SSC: host state for dirty blocks only."""

    def __init__(
        self,
        ssc: SolidStateCache,
        disk: Disk,
        config: WriteBackConfig = WriteBackConfig(),
    ):
        super().__init__()
        self.ssc = ssc
        self.disk = disk
        self.config = config
        self.dirty_table = DirtyBlockTable()
        self._dirty_limit = int(config.dirty_threshold * ssc.capacity_pages)
        self._attach_devices(ssc.chip, disk)

    def _read_impl(self, lbn: int) -> Tuple[Any, float, bool]:
        self.stats.reads += 1
        try:
            data, cost = self.ssc.read(lbn)
            self.stats.read_hits += 1
            self.dirty_table.touch(lbn)
            return data, cost, True
        except NotPresentError:
            pass
        self.stats.read_misses += 1
        data, cost = self.disk.read(lbn)
        cost += self._insert_clean(lbn, data)
        return data, cost, False

    def _write_impl(self, lbn: int, data: Any) -> float:
        self.stats.writes += 1
        try:
            cost = self.ssc.write_dirty(lbn, data)
        except CacheFullError:
            # Device back-pressure: too much of the cache is dirty at
            # erase-block granularity.  Clean aggressively and retry —
            # "the cache manager must actively manage the contents of
            # the cache to ensure there is space for new data" (§3.1).
            cost = self._force_clean()
            cost += self.ssc.write_dirty(lbn, data)
        self.dirty_table.add(lbn, data)
        cost += self._enforce_dirty_threshold()
        return cost

    def _insert_clean(self, lbn: int, data: Any) -> float:
        try:
            return self.ssc.write_clean(lbn, data)
        except CacheFullError:
            cost = self._force_clean()
            return cost + self.ssc.write_clean(lbn, data)

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------

    def _enforce_dirty_threshold(self) -> float:
        cost = 0.0
        while len(self.dirty_table) > self._dirty_limit:
            lbn = self.dirty_table.lru_block()
            if lbn is None:
                break
            run = self.dirty_table.contiguous_run(lbn)
            for run_lbn in run:
                cost += self._clean_block(run_lbn)
        return cost

    def _force_clean(self) -> float:
        """Clean the whole dirty table to relieve device back-pressure.

        At erase-block granularity, scattered dirty pages can pin far
        more flash than the dirty *count* suggests; cleaning everything
        guarantees the device regains eviction candidates.  The dirty
        limit is also lowered so the steady-state threshold cleaning
        prevents a repeat.
        """
        cost = self.flush_dirty()
        self._dirty_limit = max(16, int(self._dirty_limit * 0.75))
        return cost

    def _clean_block(self, lbn: int) -> float:
        """Write ``lbn`` back to disk and tell the SSC it is clean.

        The data is first checked against the checksum recorded when it
        was written dirty.  The manager then removes the block's state
        from its table; the data stays cached and readable until the SSC
        decides to silently evict it.
        """
        if lbn not in self.dirty_table:
            return 0.0
        try:
            data, cost = self.ssc.read(lbn)
        except NotPresentError:
            # Unreachable for dirty blocks (the SSC never drops dirty
            # data), but a clean-crash-recovered table may be stale.
            self.dirty_table.remove(lbn)
            return 0.0
        if not self.dirty_table.checksum_matches(lbn, data):
            # Never propagate corrupted cache contents to the disk tier.
            raise ChecksumError(lbn)
        cost += self.disk.write(lbn, data)
        cost += self.ssc.clean(lbn)
        self.stats.cleans += 1
        self.dirty_table.remove(lbn)
        self.stats.writebacks += 1
        return cost

    def flush_dirty(self) -> float:
        """Write back every dirty block (clean shutdown)."""
        cost = 0.0
        for lbn in self.dirty_table.iter_lru():
            cost += self._clean_block(lbn)
        return cost

    # ------------------------------------------------------------------
    # Memory and recovery
    # ------------------------------------------------------------------

    def host_memory_bytes(self) -> int:
        """State for dirty blocks only — the 89 % reduction of §6.3."""
        return self.dirty_table.memory_bytes()

    def recover_us(self, disk_capacity_blocks: int) -> float:
        """Repopulate the dirty-block table via ``exists``.

        Returns the scan's device time.  Per §4.4 this overlaps normal
        activity — the cache itself is usable as soon as the *device*
        recovery completes — so Figure 5 does not include it in the
        recovery latency; we expose it for completeness.
        """
        self.dirty_table.clear()
        dirty, cost = self.ssc.exists(0, disk_capacity_blocks)
        for lbn in dirty:
            self.dirty_table.add(lbn)
        return cost
