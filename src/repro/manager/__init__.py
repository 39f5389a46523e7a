"""Cache managers: the OS block-layer software above the cache device.

Three managers mirror the paper's evaluation systems:

* :class:`NativeCacheManager` — the baseline, modeled on Facebook's
  FlashCache: caches on a conventional SSD, keeps its own host-side
  mapping table (disk LBN -> SSD block), and persists per-block metadata
  to the SSD so a write-back cache can survive crashes.
* :class:`FlashTierWTManager` — FlashTier write-through on an SSC: no
  host-side state at all; every read consults the SSC.
* :class:`FlashTierWBManager` — FlashTier write-back on an SSC: keeps
  only a dirty-block table and recovers it with ``exists``.

Both write-back systems share one cleaning loop, held by
:class:`CacheManager`: past the dirty limit it cleans LRU dirty blocks,
each with its contiguous run, and ``flush_dirty`` writes back the whole
table.  Each manager supplies only ``_clean_block`` and the limit's
base: the SSC's raw pages for FlashTier, the data slots for native.
When the SSC refuses a write as full, FlashTier cleans every dirty
block and lowers its limit to 75%, for good; the ``manager.forced_cleans``
counter and the ``manager.dirty_limit`` gauge show this ratchet.
"""

from repro.manager.base import CacheManager, ManagerStats
from repro.manager.dirty_table import DirtyBlockTable
from repro.manager.native import NativeCacheManager
from repro.manager.writethrough import FlashTierWTManager
from repro.manager.writeback import FlashTierWBManager

__all__ = [
    "CacheManager",
    "ManagerStats",
    "DirtyBlockTable",
    "NativeCacheManager",
    "FlashTierWTManager",
    "FlashTierWBManager",
]
