"""The native baseline: a FlashCache-style manager on a plain SSD.

This is the system FlashTier is measured against (§5, §6.1): the
unmodified-architecture cache manager caching on a conventional SSD.
Because the SSD exposes its own dense address space, the manager must:

* keep a host-side mapping table from disk LBN to SSD block — 22 bytes
  per cached block (disk block number, checksum, LRU indexes, state);
* run its own set-associative replacement to allocate SSD blocks;
* persist its metadata to the SSD so a write-back cache survives
  crashes (Native-D in Fig. 4): every dirty-state or mapping change for
  a dirty block is written synchronously to a metadata journal region
  on the SSD, one page program per update, while metadata for clean
  blocks added on misses is batched ("the native system does not incur
  any synchronous metadata updates when adding clean pages from a
  miss").  Dirty updates are never batched, sequential or not: a
  batched entry would reach flash after its write was acknowledged.

In write-through mode the native manager provides no durability (the
paper notes it "cannot" recover after a crash) and writes no metadata.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Tuple

from repro.core.config import CacheMode, SystemConfig
from repro.disk.model import Disk
from repro.errors import ConfigError
from repro.ftl.ssd import SSD
from repro.manager.base import CacheManager
from repro.util.hashing import mix64

#: Host bytes per cached block (paper §6.3: "22 bytes/block for a disk
#: block number, checksum, LRU indexes and block state").
HOST_ENTRY_BYTES = 22

#: Clean-insert metadata updates batched into one journal page write.
CLEAN_META_BATCH = 32

#: SSD blocks per associativity set.  As FlashCache rounds its size
#: down to a multiple of the associativity, the ``data_pages % SET_SIZE``
#: leftover slots stay unused; a device smaller than one set gets one
#: set covering everything.
SET_SIZE = 64

#: Share of the SSD's logical space reserved for the metadata journal.
META_FRACTION = 0.02


class NativeCacheManager(CacheManager):
    """Set-associative SSD cache manager (the FlashCache baseline).

    Reads ``mode``, ``dirty_threshold`` and ``consistency`` from
    ``config``; the dirty limit is ``dirty_threshold`` of the data
    slots.
    """

    def __init__(self, ssd: SSD, disk: Disk, config: SystemConfig = SystemConfig()):
        meta_pages = max(4, int(ssd.capacity_pages * META_FRACTION))
        meta_pages = min(meta_pages, max(1, ssd.capacity_pages // 4))
        self.data_pages = ssd.capacity_pages - meta_pages
        if self.data_pages < 1:
            raise ConfigError("SSD too small to hold any cached data")
        super().__init__(int(config.dirty_threshold * self.data_pages))
        self.ssd = ssd
        self.disk = disk
        self._write_through = config.mode is CacheMode.WRITE_THROUGH
        # Write-through mode and no-consistency configurations skip
        # metadata persistence entirely.
        self._persist_meta = config.consistency and not self._write_through
        self._set_size = min(SET_SIZE, self.data_pages)
        self.num_sets = self.data_pages // self._set_size
        self._meta_base = self.data_pages
        self._meta_pages = meta_pages
        self._meta_cursor = 0
        self._pending_clean_meta = 0

        self._attach_devices(ssd.chip, disk)

        # Host-side state: the full mapping table plus per-set LRU
        # order (cached lbns, least recently used first).
        self._map: Dict[int, int] = {}        # disk lbn -> ssd slot
        self._set_lru: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        size = self._set_size
        self._free_slots: List[List[int]] = [
            list(range(first, first + size))
            for first in range(0, self.num_sets * size, size)
        ]

    # ------------------------------------------------------------------
    # Set geometry
    # ------------------------------------------------------------------

    def _set_of_slot(self, slot: int) -> int:
        return slot // self._set_size

    def _set_of_lbn(self, lbn: int) -> int:
        """The set a new ``lbn`` is placed in.  A mapped lbn's slot was
        allocated from that set, so the hot paths take a mapped lbn's
        set from its slot (:meth:`_set_of_slot`) instead of hashing."""
        return mix64(lbn) % self.num_sets

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def _read_impl(self, lbn: int) -> Tuple[Any, float, bool]:
        self.stats.reads += 1
        slot = self._map.get(lbn)
        if slot is not None:
            self.stats.read_hits += 1
            data, cost = self.ssd.read(slot)
            self._set_lru[self._set_of_slot(slot)].move_to_end(lbn)
            self.dirty_table.touch(lbn)
            return data, cost, True
        self.stats.read_misses += 1
        data, cost = self.disk.read(lbn)
        cost += self._insert(lbn, data, dirty=False)
        return data, cost, False

    def _write_impl(self, lbn: int, data: Any) -> float:
        self.stats.writes += 1
        if self._write_through:
            cost = self.disk.write(lbn, data)
            cost += self._insert(lbn, data, dirty=False)
            return cost
        cost = self._insert(lbn, data, dirty=True)
        cost += self._enforce_dirty_threshold()
        return cost

    # ------------------------------------------------------------------
    # Insertion / replacement
    # ------------------------------------------------------------------

    def _insert(self, lbn: int, data: Any, dirty: bool) -> float:
        cost = 0.0
        slot = self._map.get(lbn)
        if slot is None:
            set_index = self._set_of_lbn(lbn)
            slot, cost = self._allocate_slot(set_index)
            self._map[lbn] = slot
            cost += self._meta_update(sync=dirty)
        else:
            set_index = self._set_of_slot(slot)
            was_dirty = lbn in self.dirty_table
            if was_dirty != dirty:
                cost += self._meta_update(sync=dirty)
        cost += self.ssd.write(slot, data, dirty=dirty)
        lru = self._set_lru[set_index]
        lru[lbn] = None
        lru.move_to_end(lbn)
        if dirty:
            self.dirty_table.add(lbn)
        else:
            self.dirty_table.remove(lbn)
        return cost

    def _allocate_slot(self, set_index: int) -> Tuple[int, float]:
        free = self._free_slots[set_index]
        if free:
            return free.pop(), 0.0
        lru = self._set_lru[set_index]
        if not lru:
            raise ConfigError("associativity set has neither free slots nor victims")
        victim, _ = lru.popitem(last=False)
        return self._evict(victim)

    def _evict(self, victim_lbn: int) -> Tuple[int, float]:
        """Evict ``victim_lbn``; returns (freed slot, cost).

        Evicting a dirty block persists the state change synchronously;
        a clean victim costs only a batched update — Native-D "only
        saves metadata for dirty blocks at runtime" (§6.4).
        """
        cost = 0.0
        slot = self._map.pop(victim_lbn)
        was_dirty = self.dirty_table.remove(victim_lbn)
        if was_dirty:
            data, read_cost = self.ssd.read(slot)
            cost += read_cost
            cost += self.disk.write(victim_lbn, data)
            self.stats.writebacks += 1
        cost += self.ssd.trim(slot)
        cost += self._meta_update(sync=was_dirty)
        self.stats.evictions += 1
        return slot, cost

    # ------------------------------------------------------------------
    # Dirty-block cleaning (write-back)
    # ------------------------------------------------------------------

    def _clean_block(self, lbn: int) -> float:
        """Write ``lbn`` back to disk and mark its SSD copy clean."""
        slot = self._map.get(lbn)
        if slot is None or not self.dirty_table.remove(lbn):
            return 0.0
        data, cost = self.ssd.read(slot)
        cost += self.disk.write(lbn, data)
        self.ssd.set_page_dirty(slot, False)
        cost += self._meta_update(sync=True)
        self.stats.writebacks += 1
        return cost

    # ------------------------------------------------------------------
    # Metadata persistence
    # ------------------------------------------------------------------

    def _meta_update(self, sync: bool) -> float:
        """Persist a metadata change to the SSD journal region.

        A synchronous update (anything involving dirty state) costs one
        journal page program of its own, issued before the request
        completes.  Clean-insert updates batch :data:`CLEAN_META_BATCH`
        entries per page.  Write-through mode and no-consistency
        configurations skip persistence entirely.
        """
        if not self._persist_meta:
            return 0.0
        if not sync:
            self._pending_clean_meta += 1
            if self._pending_clean_meta < CLEAN_META_BATCH:
                return 0.0
            self._pending_clean_meta = 0
        self.stats.metadata_writes += 1
        lpn = self._meta_base + self._meta_cursor
        self._meta_cursor = (self._meta_cursor + 1) % self._meta_pages
        return self.ssd.write(lpn, ("meta", self.stats.metadata_writes))

    # ------------------------------------------------------------------
    # Memory and recovery accounting
    # ------------------------------------------------------------------

    def cached_blocks(self) -> int:
        return len(self._map)

    def host_memory_bytes(self) -> int:
        """22 bytes for every cached block, clean or dirty (§6.3)."""
        return len(self._map) * HOST_ENTRY_BYTES

    def recover_manager_us(self) -> float:
        """Time to reload the manager's metadata from the SSD (Fig. 5
        "Native-FC"): a sequential read of the journal region sized by
        the mapping table."""
        table_bytes = self.host_memory_bytes()
        page_size = self.ssd.chip.geometry.page_size
        pages = -(-table_bytes // page_size)  # ceil
        return pages * self.ssd.chip.timing.read_cost()
