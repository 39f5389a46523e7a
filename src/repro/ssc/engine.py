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
  the log-block pool is fixed at ``LOG_FRACTION`` of capacity; evicted
  blocks become data blocks only.
* ``EvictionPolicy.MERGE`` (the paper's *SSC-R*, SE-Merge): the log
  pool may grow up to ``max_log_fraction``, deferring merges and
  enabling more switch merges, at the cost of provisioning device
  memory for the larger page-mapped region.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import CacheFullError, ConfigError, InvalidAddressError
from repro.flash.block import BlockKind, EraseBlock
from repro.flash.chip import FlashChip
from repro.ftl.hybrid import LOG_FRACTION, SPARE_BLOCKS, HybridFTL, HybridFTLConfig
from repro.ssc.log import OperationLog, RecordKind, bitmap_shift
from repro.ssc.sparse_map import SparseHashMap


class EvictionPolicy(Enum):
    """Silent-eviction / log-provisioning policy (paper §4.3)."""

    UTIL = auto()    # SE-Util: fixed log pool, utilization-based eviction
    MERGE = auto()   # SE-Merge: growable log pool, switch-merge friendly


#: Clean data blocks silently evicted per round (one log force each).
EVICT_BATCH = 4


@dataclass(frozen=True)
class CacheFTLConfig(HybridFTLConfig):
    """Tunables for the cache engine: the hybrid FTL's, whose merge
    machinery it inherits, plus the eviction policy and the SE-Merge
    log pool ceiling."""

    policy: EvictionPolicy = EvictionPolicy.UTIL
    max_log_fraction: float = 0.20

    def __post_init__(self):
        if not LOG_FRACTION <= self.max_log_fraction < 0.5:
            raise ConfigError(f"max_log_fraction must be in [{LOG_FRACTION}, 0.5)")


class _LoggedMap:
    """A journaling wrapper around one :class:`SparseHashMap`, ``inner``.

    Only mutations are journaled, so ``lookup`` is the inner map's own,
    bound once per inner map: a lookup runs no wrapper frame.
    """

    def __init__(self, chip: FlashChip, oplog: OperationLog):
        self._chip = chip
        self._log = oplog
        self.reset()

    def reset(self) -> None:
        """Replace ``inner`` with an empty map, unjournaled (recovery
        rebuilds the mapping through ``inner``)."""
        self.inner = SparseHashMap()
        self.lookup = self.inner.lookup

    def __contains__(self, key: int) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def items(self) -> List[Tuple[int, int]]:
        return self.inner.items()

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()


class LoggedPageMap(_LoggedMap):
    """Sparse lbn->ppn map that journals every mutation.

    The dirty flag carried on insert records is read from the just-
    programmed page's OOB dirty bit, which the engine always writes
    first.
    """

    def insert(self, lbn: int, ppn: int) -> Optional[int]:
        block, offset = self._chip.locate(ppn)
        self._log.append(RecordKind.INSERT_PAGE, lbn, ppn, extra=block.dirty >> offset & 1)
        return self.inner.insert(lbn, ppn)

    def remove(self, lbn: int) -> Optional[int]:
        previous = self.inner.remove(lbn)
        if previous is not None:
            self._log.append(RecordKind.REMOVE_PAGE, lbn, previous)
        return previous


class LoggedBlockMap(_LoggedMap):
    """Sparse group->pbn map that journals mutations and keeps the
    reverse (pbn->group) index the engine needs for eviction."""

    def __init__(self, chip: FlashChip, oplog: OperationLog, pages_per_block: int):
        super().__init__(chip, oplog)
        self.reverse: Dict[int, int] = {}
        self._shift = bitmap_shift(pages_per_block)

    def _state_bitmaps(self, pbn: int) -> int:
        """Pack the block's valid dirty pages (low bits) and valid pages
        (from bit :func:`~repro.ssc.log.bitmap_shift` up) into one field."""
        block = self._chip.block(pbn)
        return (block.dirty & block.valid) | block.valid << self._shift

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


class CacheFTL(HybridFTL):
    """Hybrid FTL specialized for caching (sparse, logging, eviction)."""

    def __init__(
        self,
        chip: FlashChip,
        oplog: OperationLog,
        config: Optional[CacheFTLConfig] = None,
    ):
        self.oplog = oplog
        # Eviction cost incurred inside block allocation (mid-merge) is
        # parked here and drained into the enclosing operation's cost.
        self._pending_cost = 0.0
        super().__init__(chip, config or CacheFTLConfig())

    def _reserve_blocks(self, total: int) -> None:
        """The SSC has no fixed logical capacity; the chip must hold the
        largest log pool the policy may grow to, plus the spare floor."""
        if self.config.policy is EvictionPolicy.MERGE:
            self.max_log_blocks = max(
                self.log_blocks_target, int(total * self.config.max_log_fraction)
            )
        else:
            self.max_log_blocks = self.log_blocks_target
        if total <= self.max_log_blocks + SPARE_BLOCKS:
            raise ConfigError("chip too small for log pool + spare blocks")

    def _new_maps(self) -> Tuple[LoggedBlockMap, LoggedPageMap]:
        """(data_map, log_map): sparse maps keyed by disk address that
        journal every mutation to the operation log."""
        return (
            LoggedBlockMap(self.chip, self.oplog, self.pages_per_block),
            LoggedPageMap(self.chip, self.oplog),
        )

    # ------------------------------------------------------------------
    # Sparse address space: any non-negative disk block number is legal.
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if lpn < 0:
            raise InvalidAddressError(f"logical block {lpn} is negative")

    def write(self, lpn: int, data, dirty: bool = False) -> float:
        """Write ``lpn``; returns cost_us.

        A write refused with :class:`CacheFullError` may already have
        merged, evicted and forced the log.  That work stays done, so
        its cost -- the chip's busy time plus the log pages it
        programmed -- is parked in ``_pending_cost`` for the retry to
        charge; every Table 2 duration is an integer, so both sums are
        exact.  (``trim`` allocates nothing and cannot be refused.)
        """
        stats, oplog = self.chip.stats, self.oplog
        busy, log_pages, pending = (
            stats.busy_us, oplog.pages_written, self._pending_cost)
        try:
            cost = super().write(lpn, data, dirty=dirty)
        except CacheFullError:
            self._pending_cost = pending + (stats.busy_us - busy) + (
                (oplog.pages_written - log_pages) * oplog.timing.write_cost())
            raise
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
        durable before the data is destroyed.  An empty buffer needs no
        force, so erases after the first of a silent-eviction batch are
        free (see :meth:`_evict_batch`).
        """
        oplog = self.oplog
        if not oplog.buffer:
            return 0.0
        oplog.barrier_flushes += 1
        return oplog.flush(sync=True)

    # ------------------------------------------------------------------
    # Allocation: merges in a sparse address space can consume blocks
    # faster than they free them (most groups have no old data block to
    # erase), so allocation itself may have to evict.
    # ------------------------------------------------------------------

    def _allocate_block(self, kind: BlockKind) -> EraseBlock:
        if self.chip.free_total < 2:
            self._pending_cost += self._silent_evict(2)
        if self.chip.free_total == 0:
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
            self._retire_block_copy(lpn, pbn)
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
            and self.chip.free_total > SPARE_BLOCKS + 1
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
        while self.chip.free_total <= 1 and (self._log_blocks or self._seq_log):
            cost += self._merge_victim_log_block()
            guard += 1
            if guard > self.chip.geometry.total_blocks:  # pragma: no cover
                raise CacheFullError("garbage collection cannot make progress")
        if self.chip.free_total == 0:
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
        if self.chip.free_total > SPARE_BLOCKS:
            return 0.0
        return self._silent_evict(SPARE_BLOCKS + EVICT_BATCH)

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
        while self.chip.free_total < min_free:
            victims = self._pick_eviction_victims(EVICT_BATCH)
            if not victims:
                break
            cost += self._evict_batch(victims)
            evicted_any = True
        if evicted_any:
            # Eviction churn concentrates erases; give static wear
            # leveling a chance to rotate cold blocks too.
            cost += self._maybe_static_relocation()
        return cost

    def _evict_batch(self, victims: List[EraseBlock]) -> float:
        """Silently evict clean data blocks: drop every victim's mapping,
        then erase them in order.

        Journaling the whole batch's REMOVE_BLOCK records before the
        first erase lets that erase's write-ahead flush make them all
        durable in one log force.
        """
        dropped = []
        for victim in victims:
            group = self.data_map.group_of(victim.pbn)
            self.data_map.remove(group)  # journals REMOVE_BLOCK
            dropped.append((victim, group, victim.valid_count))
            victim.invalidate_all()
        cost = 0.0
        for victim, group, evicted in dropped:
            erase_cost = self._erase(victim.pbn)
            cost += erase_cost
            self.stats.silent_evictions += 1
            self.stats.evicted_valid_pages += evicted
            if self.tracer is not None:
                self.tracer.emit(
                    "evict.silent", lane="gc", dur_us=erase_cost,
                    pbn=victim.pbn, group=group, valid_pages=evicted,
                )
        return cost

    # ------------------------------------------------------------------
    # Background garbage collection (paper §5: silent eviction is
    # integrated "with background and foreground garbage collection")
    # ------------------------------------------------------------------

    def background_step(self) -> float:
        """One idle-time increment: evict ahead of demand, else merge."""
        headroom = SPARE_BLOCKS + EVICT_BATCH
        if self.chip.free_total <= headroom:
            cost = self._silent_evict(headroom + 1)
            if cost:
                return cost
        if (
            len(self._log_blocks) >= max(1, self.log_blocks_target // 2)
            and self.chip.free_total > SPARE_BLOCKS
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
