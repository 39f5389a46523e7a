"""FlashTier write-through cache manager.

Paper §4.4: "The write-through policy consults the cache on every read.
...  The cache manager fetches the data from the disk on a miss and
writes it to the SSC with write-clean.  Similarly, the cache manager
sends new data from writes both to the disk and to the SSC with
write-clean.  As all data is clean, the manager never sends any clean
requests.  We optimize the design for memory consumption assuming a
high hit rate: the manager stores no data about cached blocks, and
consults the cache on every request."
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.disk.model import Disk
from repro.errors import NotPresentError
from repro.manager.base import CacheManager
from repro.ssc.device import SolidStateCache


class FlashTierWTManager(CacheManager):
    """Write-through caching on an SSC: zero host-side block state."""

    def __init__(self, ssc: SolidStateCache, disk: Disk):
        super().__init__()
        self.ssc = ssc
        self.disk = disk
        self._attach_devices(ssc.chip, disk)

    def _read_impl(self, lbn: int) -> Tuple[Any, float, bool]:
        self.stats.reads += 1
        try:
            data, cost = self.ssc.read(lbn)
            self.stats.read_hits += 1
            return data, cost, True
        except NotPresentError:
            pass
        self.stats.read_misses += 1
        data, cost = self.disk.read(lbn)
        cost += self.ssc.write_clean(lbn, data)
        return data, cost, False

    def _write_impl(self, lbn: int, data: Any) -> float:
        self.stats.writes += 1
        cost = self.disk.write(lbn, data)
        cost += self.ssc.write_clean(lbn, data)
        return cost

    def host_memory_bytes(self) -> int:
        """Zero per-block state (§6.3: "its memory usage is effectively
        zero")."""
        return 0

    def recover_us(self) -> float:
        """A write-through manager keeps no transient state: after the
        SSC itself recovers, the cache is immediately usable (§4.4)."""
        return 0.0
