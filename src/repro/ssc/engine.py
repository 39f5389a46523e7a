"""The SSC's flash translation engine.

``CacheFTL`` specializes the conventional hybrid FTL for caching
(paper §4):

* the mapping is keyed by *disk* logical block numbers — a sparse,
  effectively unbounded address space — using sparse hash maps instead
  of dense tables (unified address space, §4.1);
* mapping mutations are recorded in the operation log via the
  ``Logged*Map`` wrappers, so the mapping is recoverable (§4.2.2);
* garbage collection integrates **silent eviction** (§4.3): when free
  blocks run low the engine drops clean cached blocks instead of
  copying live data, falling back to copy-based merges only when no
  clean victim exists.

Two policies configure eviction and log provisioning:

* ``EvictionPolicy.UTIL`` (the paper's *SSC* configuration, SE-Util):
  the log-block pool is fixed at ``log_fraction`` of capacity; evicted
  blocks become data blocks only.
* ``EvictionPolicy.MERGE`` (the paper's *SSC-R*, SE-Merge): the log
  pool may grow up to ``max_log_fraction``, deferring merges and
  enabling more switch merges, at the cost of provisioning device
  memory for the larger page-mapped region.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import CacheFullError, ConfigError, InvalidAddressError
from repro.flash.block import BlockKind, EraseBlock
from repro.flash.chip import FlashChip
from repro.ftl.hybrid import HybridFTL
from repro.ftl.base import FTLStats
from repro.ftl.wear import WearConfig, WearLeveler
from repro.ssc.log import OperationLog, RecordKind, bitmap_shift
from repro.ssc.sparse_map import SparseHashMap


class EvictionPolicy(Enum):
    """Silent-eviction / log-provisioning policy (paper §4.3)."""

    UTIL = auto()    # SE-Util: fixed log pool, utilization-based eviction
    MERGE = auto()   # SE-Merge: growable log pool, switch-merge friendly


@dataclass(frozen=True)
class CacheFTLConfig:
    """Tunables for the cache engine.

    Field names ``spare_blocks`` / ``sequential_log`` intentionally match
    :class:`~repro.ftl.hybrid.HybridFTLConfig`, since the merge machinery
    is inherited.
    """

    policy: EvictionPolicy = EvictionPolicy.UTIL
    log_fraction: float = 0.07
    max_log_fraction: float = 0.20
    spare_blocks: int = 8
    sequential_log: bool = True
    evict_batch: int = 4
    wear: WearConfig = WearConfig()

    def __post_init__(self):
        if not 0.0 < self.log_fraction < 0.5:
            raise ConfigError("log_fraction must be in (0, 0.5)")
        if not self.log_fraction <= self.max_log_fraction < 0.5:
            raise ConfigError("max_log_fraction must be in [log_fraction, 0.5)")
        if self.spare_blocks < 4:
            raise ConfigError("spare_blocks must be >= 4")
        if self.evict_batch < 1:
            raise ConfigError("evict_batch must be >= 1")


class LoggedPageMap:
    """Sparse lbn->ppn map that journals every mutation.

    The dirty flag carried on insert records is read from the just-
    programmed page's OOB dirty bit, which the engine always writes
    first.
    """

    def __init__(self, chip: FlashChip, oplog: OperationLog):
        self.inner = SparseHashMap()
        self._chip = chip
        self._log = oplog

    def lookup(self, lbn: int) -> Optional[int]:
        return self.inner.lookup(lbn)

    def insert(self, lbn: int, ppn: int) -> Optional[int]:
        block, offset = self._chip.locate(ppn)
        self._log.append(RecordKind.INSERT_PAGE, lbn, ppn, extra=block.dirty >> offset & 1)
        return self.inner.insert(lbn, ppn)

    def remove(self, lbn: int) -> Optional[int]:
        previous = self.inner.remove(lbn)
        if previous is not None:
            self._log.append(RecordKind.REMOVE_PAGE, lbn, previous)
        return previous

    def __contains__(self, lbn: int) -> bool:
        return lbn in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def items(self) -> Iterator[Tuple[int, int]]:
        return self.inner.items()

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()


class LoggedBlockMap:
    """Sparse group->pbn map that journals mutations and keeps the
    reverse (pbn->group) index the engine needs for eviction."""

    def __init__(self, chip: FlashChip, oplog: OperationLog, pages_per_block: int):
        self.inner = SparseHashMap()
        self.reverse: Dict[int, int] = {}
        self._chip = chip
        self._log = oplog
        self._shift = bitmap_shift(pages_per_block)

    def _state_bitmaps(self, pbn: int) -> int:
        """Pack the block's valid dirty pages (low bits) and valid pages
        (from bit :func:`~repro.ssc.log.bitmap_shift` up) into one field."""
        block = self._chip.block(pbn)
        return (block.dirty & block.valid) | block.valid << self._shift

    def lookup(self, group: int) -> Optional[int]:
        return self.inner.lookup(group)

    def insert(self, group: int, pbn: int) -> Optional[int]:
        self._log.append(
            RecordKind.INSERT_BLOCK, group, pbn, extra=self._state_bitmaps(pbn)
        )
        previous = self.inner.insert(group, pbn)
        if previous is not None:
            self.reverse.pop(previous, None)
        self.reverse[pbn] = group
        return previous

    def remove(self, group: int) -> Optional[int]:
        previous = self.inner.remove(group)
        if previous is not None:
            self._log.append(RecordKind.REMOVE_BLOCK, group, previous)
            self.reverse.pop(previous, None)
        return previous

    def group_of(self, pbn: int) -> Optional[int]:
        return self.reverse.get(pbn)

    def rebuild_reverse(self) -> None:
        """Regenerate the reverse index after recovery replay."""
        self.reverse = {pbn: group for group, pbn in self.inner.items()}

    def __contains__(self, group: int) -> bool:
        return group in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def items(self) -> Iterator[Tuple[int, int]]:
        return self.inner.items()

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()


class CacheFTL(HybridFTL):
    """Hybrid FTL specialized for caching (sparse, logging, eviction)."""

    def __init__(
        self,
        chip: FlashChip,
        oplog: OperationLog,
        config: Optional[CacheFTLConfig] = None,
    ):
        # Deliberately not calling HybridFTL.__init__: the SSC has no
        # fixed logical capacity, so the layout differs; the merge and
        # log-write machinery is inherited unchanged.
        self.chip = chip
        self.config = config or CacheFTLConfig()
        self.oplog = oplog
        self.stats = FTLStats()
        geometry = chip.geometry

        total = geometry.total_blocks
        self.pages_per_block = geometry.pages_per_block
        self.log_blocks_target = max(1, int(total * self.config.log_fraction))
        if self.config.policy is EvictionPolicy.MERGE:
            self.max_log_blocks = max(
                self.log_blocks_target, int(total * self.config.max_log_fraction)
            )
        else:
            self.max_log_blocks = self.log_blocks_target
        if total <= self.max_log_blocks + self.config.spare_blocks:
            raise ConfigError("chip too small for log pool + spare blocks")

        self.data_map = LoggedBlockMap(chip, oplog, self.pages_per_block)
        self.log_map = LoggedPageMap(chip, oplog)
        self._log_blocks = deque()
        self._active_log: Optional[EraseBlock] = None
        self._seq_log: Optional[EraseBlock] = None
        self._seq_next_lpn: Optional[int] = None
        self._last_lpn: Optional[int] = None
        self._gc_protected: set = set()
        self.wear = WearLeveler(chip, self.config.wear)
        self._allocate_hot = False
        # Eviction cost incurred inside block allocation (mid-merge) is
        # parked here and drained into the enclosing operation's cost.
        self._pending_cost = 0.0

    # ------------------------------------------------------------------
    # Sparse address space: any non-negative disk block number is legal.
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if lpn < 0:
            raise InvalidAddressError(f"logical block {lpn} is negative")

    def write(self, lpn: int, data, dirty: bool = False) -> float:
        cost = super().write(lpn, data, dirty=dirty)
        return cost + self._drain_pending()

    def trim(self, lpn: int) -> float:
        cost = super().trim(lpn)
        return cost + self._drain_pending()

    def _drain_pending(self) -> float:
        pending, self._pending_cost = self._pending_cost, 0.0
        return pending

    def _pre_erase_barrier(self) -> float:
        """Flush the operation log before any erase (write-ahead rule).

        Mapping records superseding pages in the doomed block may still
        sit in the volatile buffer; erasing first would let a crash
        recover durable mappings that reference erased — and possibly
        since-reused — flash.  Forcing the log makes the supersession
        durable before the data is destroyed.
        """
        return self.oplog.flush(sync=True)

    # ------------------------------------------------------------------
    # Allocation: merges in a sparse address space can consume blocks
    # faster than they free them (most groups have no old data block to
    # erase), so allocation itself may have to evict.
    # ------------------------------------------------------------------

    def _allocate_block(self, kind: BlockKind) -> EraseBlock:
        if self.free_blocks() < 2:
            self._pending_cost += self._silent_evict(2)
        if self.free_blocks() == 0:
            raise CacheFullError(
                "cache is full of dirty or in-flight data; the cache "
                "manager must issue clean or evict before writing more"
            )
        return super()._allocate_block(kind)

    # ------------------------------------------------------------------
    # Invalidation must be journaled even for block-mapped pages, which
    # mutate no forward map (the paper persists this via OOB updates).
    # ------------------------------------------------------------------

    def _retire_block_copy(self, lpn: int, pbn: int) -> None:
        offset = self._offset_of(lpn)
        block = self.chip.block(pbn)
        if block.valid >> offset & 1:
            block.invalidate(offset)
            self.oplog.append(
                RecordKind.INVALIDATE_PAGE,
                lpn,
                self.chip.geometry.make_ppn(pbn, offset),
            )

    def _invalidate(self, lpn: int) -> float:
        # Retire BOTH map levels: a recovered mapping may reference the
        # same logical block through the page map and a block entry at
        # once (e.g. after replaying a stale checkpoint), and leaving
        # either copy live would resurrect the block after an evict.
        ppn = self.log_map.lookup(lpn)
        if ppn is not None:
            self.log_map.remove(lpn)  # journals REMOVE_PAGE
            block, offset = self.chip.locate(ppn)
            block.invalidate(offset)
        pbn = self.data_map.lookup(self._group_of(lpn))
        if pbn is not None:
            offset = self._offset_of(lpn)
            block = self.chip.block(pbn)
            if block.valid >> offset & 1:
                block.invalidate(offset)
                self.oplog.append(
                    RecordKind.INVALIDATE_PAGE,
                    lpn,
                    self.chip.geometry.make_ppn(pbn, offset),
                )
        return 0.0

    # ------------------------------------------------------------------
    # Free-space management: silent eviction before copy-based GC.
    # ------------------------------------------------------------------

    def _open_log_block(self) -> float:
        cost = self.ensure_headroom()
        if (
            self.config.policy is EvictionPolicy.MERGE
            and len(self._log_blocks) >= self.log_blocks_target
            and self.log_blocks_target < self.max_log_blocks
            and self.free_blocks() > self.config.spare_blocks + 1
        ):
            # SE-Merge: grow the log pool instead of merging (paper §4.3:
            # "allows the number of log blocks to increase, which reduces
            # garbage collection costs").
            self.log_blocks_target += 1

        # Recycle log blocks once the pool is at target.
        while len(self._log_blocks) >= self.log_blocks_target:
            cost += self._merge_victim_log_block()
            cost += self.ensure_headroom()

        # Fallback GC (§4.3: "If there are not enough candidate blocks to
        # provide free space, it reverts to regular garbage collection"):
        # silent eviction found no clean victim, so merge remaining log
        # blocks in the hope of freeing mostly-invalid ones.
        guard = 0
        while self.free_blocks() <= 1 and (self._log_blocks or self._seq_log):
            cost += self._merge_victim_log_block()
            guard += 1
            if guard > self.chip.geometry.total_blocks:  # pragma: no cover
                raise CacheFullError("garbage collection cannot make progress")
        if self.free_blocks() == 0:
            raise CacheFullError(
                "cache is full of dirty data; the cache manager must "
                "issue clean or evict before writing more"
            )
        block = self._allocate_block(BlockKind.LOG)
        self._log_blocks.append(block.pbn)
        self._active_log = block
        return cost

    def ensure_headroom(self) -> float:
        """Run silent eviction if the free pool is at or below the floor."""
        if self.free_blocks() > self.config.spare_blocks:
            return 0.0
        return self._silent_evict(self.config.spare_blocks + self.config.evict_batch)

    def _pick_eviction_victims(self, limit: int):
        """Clean data blocks, lowest utilization first (SE victim policy).

        The collector prefers the plane under the most free-space
        pressure; if it has no clean candidates, all planes are
        considered.
        """
        def candidates_in(blocks):
            return [
                block
                for block in blocks
                if block.kind is BlockKind.DATA
                and block.dirty_count == 0
                and block.pbn not in self._gc_protected
                and self.data_map.group_of(block.pbn) is not None
            ]

        plane = min(self.chip.planes, key=lambda plane: plane.free_count)
        pool = candidates_in(plane.blocks.values())
        if not pool:
            pool = candidates_in(
                block
                for chip_plane in self.chip.planes
                for block in chip_plane.blocks.values()
            )
        # Heap selection of the ``limit`` least-utilized victims: same
        # (valid_count, pbn) order as a full sort, without sorting the
        # whole candidate pool every eviction round.
        return heapq.nsmallest(
            limit, pool, key=lambda block: (block.valid_count, block.pbn)
        )

    def _silent_evict(self, min_free: int) -> float:
        """Evict clean data blocks until ``min_free`` blocks are free.

        Returns the accumulated cost.  Stops early (without raising) if
        no clean victim remains; callers fall back to copy-based GC.
        """
        cost = 0.0
        evicted_any = False
        while self.free_blocks() < min_free:
            victims = self._pick_eviction_victims(self.config.evict_batch)
            if not victims:
                break
            for victim in victims:
                cost += self._evict_block(victim)
            evicted_any = True
        if evicted_any:
            # Eviction churn concentrates erases; give static wear
            # leveling a chance to rotate cold blocks too.
            cost += self._maybe_static_relocation()
        return cost

    def _evict_block(self, victim: EraseBlock) -> float:
        """Silently evict one clean data block: drop mappings, erase."""
        group = self.data_map.group_of(victim.pbn)
        evicted = victim.valid_count
        if group is not None:
            self.data_map.remove(group)  # journals REMOVE_BLOCK
        victim.invalidate_all()
        cost = self._erase(victim.pbn)
        self.stats.silent_evictions += 1
        self.stats.evicted_valid_pages += evicted
        if self.tracer is not None:
            self.tracer.emit(
                "evict.silent", lane="gc", dur_us=cost,
                pbn=victim.pbn, group=group if group is not None else -1,
                valid_pages=evicted,
            )
        return cost

    # ------------------------------------------------------------------
    # Background garbage collection (paper §5: silent eviction is
    # integrated "with background and foreground garbage collection")
    # ------------------------------------------------------------------

    def background_step(self) -> float:
        """One idle-time increment: evict ahead of demand, else merge."""
        headroom = self.config.spare_blocks + self.config.evict_batch
        if self.free_blocks() <= headroom:
            cost = self._silent_evict(headroom + 1)
            if cost:
                return cost
        if (
            len(self._log_blocks) >= max(1, self.log_blocks_target // 2)
            and self.free_blocks() > self.config.spare_blocks
        ):
            return self._merge_victim_log_block()
        return 0.0

    # ------------------------------------------------------------------
    # Cache-interface helpers used by the device layer
    # ------------------------------------------------------------------

    def _group_of_data_block(self, pbn: int) -> Optional[int]:
        return self.data_map.group_of(pbn)

    def current_location(self, lbn: int) -> Optional[Tuple[int, int, int]]:
        """Return (pbn, offset, ppn) of ``lbn``'s live flash copy, or None."""
        ppn = self.log_map.lookup(lbn)
        if ppn is None:
            pbn = self.data_map.lookup(self._group_of(lbn))
            if pbn is None:
                return None
            offset = self._offset_of(lbn)
            if not self.chip.block(pbn).valid >> offset & 1:
                return None
            return pbn, offset, self.chip.geometry.make_ppn(pbn, offset)
        block, offset = self.chip.locate(ppn)
        if not block.valid >> offset & 1:
            return None
        return block.pbn, offset, ppn

    def is_dirty(self, lbn: int) -> bool:
        """True if ``lbn`` is cached and its newest copy is dirty."""
        location = self.current_location(lbn)
        if location is None:
            return False
        pbn, offset, _ppn = location
        return bool(self.chip.block(pbn).dirty >> offset & 1)

    def set_clean(self, lbn: int) -> bool:
        """Clear the dirty flag on ``lbn``'s flash copy; True if present."""
        location = self.current_location(lbn)
        if location is None:
            return False
        pbn, offset, _ppn = location
        self.chip.block(pbn).mark_clean(offset)
        return True

    def cached_blocks(self) -> int:
        """Number of logical blocks currently readable from the cache."""
        count = len(self.log_map)
        for _group, pbn in self.data_map.items():
            count += self.chip.block(pbn).valid_count
        return count

    def iter_cached_lbns(self) -> Iterator[int]:
        """Yield every logical block currently present (tests/recovery)."""
        for lbn, _ppn in self.log_map.items():
            yield lbn
        for group, pbn in self.data_map.items():
            base = group * self.pages_per_block
            for offset in self.chip.block(pbn).valid_offsets():
                yield base + offset

    def device_memory_bytes(self) -> int:
        """Modeled device DRAM (Table 4).

        The page-mapped region's memory is *provisioned* for the maximum
        log pool (the paper: SSC-R "must reserve memory capacity for the
        maximum fraction at page level"); the sparse block map is charged
        at actual occupancy, plus the 8-byte per-entry dirty bitmap.
        """
        from repro.ftl.mapping import ENTRY_BYTES
        from repro.ssc.sparse_map import GROUP_OVERHEAD_BYTES, DEFAULT_GROUP_SIZE

        provisioned_entries = self.max_log_blocks * self.pages_per_block
        per_entry_overhead = (
            DEFAULT_GROUP_SIZE // 8 + GROUP_OVERHEAD_BYTES
        ) / DEFAULT_GROUP_SIZE
        page_bytes = int(provisioned_entries * (ENTRY_BYTES + per_entry_overhead))
        page_bytes = max(page_bytes, self.log_map.memory_bytes())
        block_bytes = self.data_map.memory_bytes() + len(self.data_map) * 8
        return page_bytes + block_bytes
