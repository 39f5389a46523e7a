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

from typing import Any, Callable, Tuple

from repro.core.config import SystemConfig
from repro.disk.model import Disk
from repro.errors import CacheFullError, ChecksumError, NotPresentError
from repro.manager.base import CacheManager
from repro.ssc.device import SolidStateCache


class FlashTierWBManager(CacheManager):
    """Write-back caching on an SSC: host state for dirty blocks only.
    The dirty limit starts at ``config.dirty_threshold`` of the SSC's
    raw pages."""

    def __init__(
        self,
        ssc: SolidStateCache,
        disk: Disk,
        config: SystemConfig = SystemConfig(),
    ):
        super().__init__(int(config.dirty_threshold * ssc.capacity_pages))
        self.ssc = ssc
        self.disk = disk
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
        cost += self._store(self.ssc.write_clean, lbn, data)
        return data, cost, False

    def _write_impl(self, lbn: int, data: Any) -> float:
        self.stats.writes += 1
        cost = self._store(self.ssc.write_dirty, lbn, data)
        self.dirty_table.add(lbn, data)
        cost += self._enforce_dirty_threshold()
        return cost

    def _store(self, write: Callable[[int, Any], float], lbn: int, data: Any) -> float:
        """``write(lbn, data)`` to the SSC, retried once after a forced
        clean if the device refuses it as full."""
        try:
            return write(lbn, data)
        except CacheFullError:
            cost = self._force_clean()
            return cost + write(lbn, data)

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------

    def _force_clean(self) -> float:
        """Clean the whole dirty table to relieve device back-pressure.

        At erase-block granularity, scattered dirty pages can pin far
        more flash than the dirty *count* suggests; "the cache manager
        must actively manage the contents of the cache to ensure there
        is space for new data" (§3.1).  Cleaning everything guarantees
        the device regains eviction candidates.  The dirty limit is also
        lowered to 75% (at least 16), for good, so the steady-state
        cleaning prevents a repeat; ``forced_cleans`` counts this.
        """
        cost = self.flush_dirty()
        stats = self.stats
        stats.forced_cleans += 1
        stats.dirty_limit = max(16, int(stats.dirty_limit * 0.75))
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
