"""FAST-style hybrid FTL — the conventional SSD's internals.

This is the baseline flash translation layer the paper attributes to
modern SSDs (§4.3) and implements on FlashSim: the drive is split into
*data blocks*, managed with coarse block-level translations (256 KB),
and *log blocks*, managed with fine 4 KB page-level translations.  All
writes append to log blocks; garbage collection later *merges* log
contents into data blocks:

* **Full merge** — for each logical group with pages in the victim log
  block, copy the newest version of every live page (from the old data
  block and any log block) into a freshly allocated block, then erase
  the old data block.  This is the expensive path: up to 64 copies plus
  two erases per group.
* **Switch merge** — a log block that was written exactly sequentially,
  covering one whole group, simply *becomes* the group's data block; no
  copies at all.

The SSD over-provisions ~7 % of its raw capacity: those blocks form the
log pool and merge workspace, and the exposed logical capacity is what
remains.  Because an SSD promises to store every written block forever,
garbage collection must always copy live data — it may never drop it.
That is precisely the constraint the SSC (``repro.ssc``) relaxes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, Tuple

from repro.errors import ConfigError, InvalidAddressError
from repro.flash.block import BlockKind, EraseBlock
from repro.flash.chip import FlashChip
from repro.ftl.base import FTLStats
from repro.ftl.mapping import DenseMap
from repro.ftl.wear import WearConfig, WearLeveler


#: Share of raw blocks reserved as log blocks (the paper fixes 7 %
#: over-provisioning for the SSD).
LOG_FRACTION = 0.07

#: The merge-workspace floor: the free pool is never allowed to drain
#: below it, so a merge can always allocate its destination block.
SPARE_BLOCKS = 8


@dataclass(frozen=True)
class HybridFTLConfig:
    """Tunables for the hybrid FTL."""

    sequential_log: bool = True
    wear: WearConfig = WearConfig()


class HybridFTL:
    """Hybrid-mapped FTL over a :class:`~repro.flash.chip.FlashChip`."""

    #: Optional trace bus (repro.obs); None keeps GC zero-cost.  Set
    #: per instance by instrument_system.
    tracer = None

    def __init__(self, chip: FlashChip, config: Optional[HybridFTLConfig] = None):
        self.chip = chip
        self.config = config or HybridFTLConfig()
        self.stats = FTLStats()
        self.pages_per_block = chip.geometry.pages_per_block
        total = chip.geometry.total_blocks
        self.log_blocks_target = max(1, int(total * LOG_FRACTION))
        # What differs between the SSD and the SSC's cache engine: how
        # the chip's blocks divide up, and the maps' types.
        self._reserve_blocks(total)
        self.data_map, self.log_map = self._new_maps()
        # Random log blocks in allocation (age) order; the merge victim is
        # the oldest.  FAST additionally dedicates one *sequential* log
        # block to runs that start at a group boundary, so streaming
        # writes convert to data blocks via cheap switch merges.
        self._log_blocks: Deque[int] = deque()
        self._active_log: Optional[EraseBlock] = None
        self._seq_log: Optional[EraseBlock] = None
        self._seq_next_lpn: Optional[int] = None
        self._last_lpn: Optional[int] = None
        # Blocks participating in an in-flight merge; the SSC subclass
        # must never pick them as silent-eviction victims.
        self._gc_protected: set = set()
        self.wear = WearLeveler(chip, self.config.wear)
        self._allocate_hot = False

    def _reserve_blocks(self, total: int) -> None:
        """Fix the logical capacity: every block not in the log pool or
        the spare floor backs one logical group."""
        self.logical_groups = total - self.log_blocks_target - SPARE_BLOCKS
        if self.logical_groups <= 0:
            raise ConfigError(
                "chip too small: no logical capacity left after reserving "
                f"{self.log_blocks_target} log + {SPARE_BLOCKS} spare blocks"
            )
        self.logical_pages = self.logical_groups * self.pages_per_block

    def _new_maps(self) -> Tuple[DenseMap, DenseMap]:
        """(data_map, log_map): dense tables over the logical groups and
        the log pool's pages."""
        return (
            DenseMap(self.logical_groups),
            DenseMap(self.log_blocks_target * self.pages_per_block),
        )

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise InvalidAddressError(
                f"lpn {lpn} out of range [0, {self.logical_pages})"
            )

    def _group_of(self, lpn: int) -> int:
        return lpn // self.pages_per_block

    def _offset_of(self, lpn: int) -> int:
        return lpn % self.pages_per_block

    # ------------------------------------------------------------------
    # Block allocation
    # ------------------------------------------------------------------

    def _plane_with_most_free(self):
        # A plain loop (asked per block allocation); the first plane
        # with the most free blocks wins, as with max().
        best, most = None, -1
        for plane in self.chip.planes:
            free = plane.free_count
            if free > most:
                best, most = plane, free
        return best

    def _allocate_block(self, kind: BlockKind) -> EraseBlock:
        plane = self._plane_with_most_free()
        if plane.free_count == 0:
            raise ConfigError(
                "free-block pool exhausted; SPARE_BLOCKS invariant violated"
            )
        return self.wear.pick_block(plane, kind, hottest=self._allocate_hot)

    # ------------------------------------------------------------------
    # Erase discipline
    # ------------------------------------------------------------------

    def _pre_erase_barrier(self) -> float:
        """Durability barrier crossed before an erase destroys data.

        A plain SSD keeps its mapping in RAM and rebuilds it from OOB
        areas, so nothing needs forcing here.  The SSC overrides this to
        flush its operation log: mapping records that supersede pages in
        the doomed block must be durable *before* the erase, or a crash
        in between would leave the durable mapping referencing erased
        flash (write-ahead rule).
        """
        return 0.0

    def _erase(self, pbn: int) -> float:
        """Erase ``pbn`` behind the durability barrier; returns cost."""
        return self._pre_erase_barrier() + self.chip.erase_block(pbn)

    def _erase_data_block(self, pbn: Optional[int]) -> float:
        """Invalidate a superseded data block's live pages and erase it."""
        if pbn is None:
            return 0.0
        self.chip.block(pbn).invalidate_all()
        return self._erase(pbn)

    # ------------------------------------------------------------------
    # Public block-device interface
    # ------------------------------------------------------------------

    def read(self, lpn: int) -> Tuple[Any, float]:
        """Read logical page ``lpn``; returns (data, cost_us).

        Unwritten pages read back as ``None`` at control-delay cost, like
        a disk returning zeroes.
        """
        self._check_lpn(lpn)
        self.stats.user_reads += 1
        ppn = self.log_map.lookup(lpn)
        if ppn is not None:
            return self.chip.read_page(ppn)
        pbn = self.data_map.lookup(self._group_of(lpn))
        if pbn is not None:
            offset = self._offset_of(lpn)
            if self.chip.block(pbn).valid >> offset & 1:
                return self.chip.read_page(self.chip.geometry.make_ppn(pbn, offset))
        return None, self.chip.timing.control_delay_us

    def write(self, lpn: int, data: Any, dirty: bool = False) -> float:
        """Write logical page ``lpn``; returns cost_us.

        ``dirty`` is carried into the page's OOB dirty flag so the native
        write-back manager's recovery scan can distinguish dirty cached
        blocks.

        Ordering is crash-critical: the new copy is programmed first,
        then :meth:`_install_mapping` re-points the map *before* the old
        copy is invalidated.  For the logged SSC subclass that makes the
        whole replace a single INSERT record (replay overwrites the
        entry), so no log tail — torn or cleanly truncated — can ever
        persist the removal of the old copy without the insert of the
        new one, which would lose durably-committed data.
        """
        self._check_lpn(lpn)
        if self.config.sequential_log:
            seq_cost = self._try_sequential_write(lpn, data, dirty)
            if seq_cost is not None:
                self.stats.user_writes += 1
                self._last_lpn = lpn
                return seq_cost
        cost = self._random_log_write(lpn, data, dirty)
        self.stats.user_writes += 1
        self._last_lpn = lpn
        return cost

    def trim(self, lpn: int) -> float:
        """Drop ``lpn``: invalidate its flash copy and unmap it."""
        self._check_lpn(lpn)
        return self._invalidate(lpn)

    def is_mapped(self, lpn: int) -> bool:
        """True if ``lpn`` currently holds written data."""
        if lpn in self.log_map:
            return True
        pbn = self.data_map.lookup(self._group_of(lpn))
        if pbn is None:
            return False
        return bool(self.chip.block(pbn).valid >> self._offset_of(lpn) & 1)

    def set_page_dirty(self, lpn: int, dirty: bool) -> None:
        """Flip the OOB dirty flag on ``lpn``'s current flash copy."""
        ppn = self.log_map.lookup(lpn)
        if ppn is None:
            pbn = self.data_map.lookup(self._group_of(lpn))
            if pbn is None:
                return
            ppn = self.chip.geometry.make_ppn(pbn, self._offset_of(lpn))
        block, offset = self.chip.locate(ppn)
        if dirty:
            block.mark_dirty(offset)
        else:
            block.mark_clean(offset)

    # ------------------------------------------------------------------
    # Internals: invalidation, log slots, merges
    # ------------------------------------------------------------------

    def _install_mapping(self, lpn: int, ppn: int) -> float:
        """Point ``lpn`` at its freshly-programmed copy ``ppn``; retire
        the superseded copy (metadata only).

        The map insert comes first so a logged subclass emits the INSERT
        record before any invalidation record (see :meth:`write`).
        """
        previous = self.log_map.insert(lpn, ppn)
        if previous is not None and previous != ppn:
            block, offset = self.chip.locate(previous)
            block.invalidate(offset)
        pbn = self.data_map.lookup(self._group_of(lpn))
        if pbn is not None:
            self._retire_block_copy(lpn, pbn)
        return 0.0

    def _retire_block_copy(self, lpn: int, pbn: int) -> None:
        """Invalidate ``lpn``'s copy inside data block ``pbn`` (if live)."""
        self.chip.block(pbn).invalidate(self._offset_of(lpn))

    def _invalidate(self, lpn: int) -> float:
        """Invalidate any current flash copy of ``lpn`` (metadata only)."""
        ppn = self.log_map.remove(lpn)
        if ppn is not None:
            block, offset = self.chip.locate(ppn)
            block.invalidate(offset)
            return 0.0
        pbn = self.data_map.lookup(self._group_of(lpn))
        if pbn is not None:
            self.chip.block(pbn).invalidate(self._offset_of(lpn))
        return 0.0

    # ---- sequential log block (FAST's SW log) -------------------------

    def _try_sequential_write(self, lpn: int, data: Any, dirty: bool) -> Optional[float]:
        """Route ``lpn`` through the sequential log block if it fits.

        Returns the write's cost, or None if the write is not sequential
        and should take the random-log path.
        """
        continues_run = (
            self._seq_log is not None
            and not self._seq_log.is_full
            and lpn == self._seq_next_lpn
        )
        # A run only *starts* when a write lands on a group boundary while
        # continuing an already-sequential stream.  Plain FAST redirects
        # every offset-0 write to the sequential log, which thrashes on
        # random workloads (each one forces a partial merge).
        starts_run = (
            lpn % self.pages_per_block == 0
            and self._last_lpn is not None
            and lpn == self._last_lpn + 1
        )
        if not continues_run and not starts_run:
            return None

        cost = 0.0
        if not continues_run:
            cost += self._retire_seq_log()
            if self.chip.free_total < 2:
                # No room to dedicate a block to the run: fall back.
                if cost == 0.0:
                    return None
                return cost + self._random_log_write(lpn, data, dirty)
            self._seq_log = self._allocate_block(BlockKind.LOG)
            self._seq_next_lpn = lpn

        block = self._seq_log
        assert block is not None
        ppn = self.chip.geometry.make_ppn(block.pbn, block.write_pointer)
        cost += self.chip.program_page(ppn, data, lpn, dirty, self.chip.next_seq())
        cost += self._install_mapping(lpn, ppn)
        self._seq_next_lpn = lpn + 1
        if block.is_full:
            cost += self._retire_seq_log()
        return cost

    def _random_log_write(self, lpn: int, data: Any, dirty: bool) -> float:
        block, offset, cost = self._log_write_slot()
        ppn = self.chip.geometry.make_ppn(block.pbn, offset)
        cost += self.chip.program_page(ppn, data, lpn, dirty, self.chip.next_seq())
        cost += self._install_mapping(lpn, ppn)
        return cost

    def _retire_seq_log(self) -> float:
        """Convert the sequential log block into a data block.

        If the run filled the whole block this is a pure switch merge; a
        partial run first copies the group's remaining live pages from
        the old data block (FAST's *partial merge*), then switches.
        """
        block = self._seq_log
        self._seq_log = None
        self._seq_next_lpn = None
        if block is None:
            return 0.0
        if block.valid_count == 0:
            # Every page was overwritten through the random log already.
            return self._erase(block.pbn)
        if block.valid_count != block.write_pointer:
            # Some of the run's pages were superseded (overwritten via
            # the random log, or relocated by a merge) while the block
            # was open.  Those offsets are programmed-but-invalid, so the
            # block can no longer represent its group whole — converting
            # it would orphan the newest copies still living in the old
            # data block.  Demote it to the random log pool; its valid
            # pages stay reachable through the page map and ordinary
            # merges will recycle it.
            self._log_blocks.append(block.pbn)
            return 0.0
        assert block.first_lbn is not None
        group = self._group_of(block.first_lbn)
        base_lpn = group * self.pages_per_block
        old_pbn = self.data_map.lookup(group)

        cost = 0.0
        copies_before = self.stats.gc_page_writes
        partial = not block.is_full
        if old_pbn is not None:
            old = self.chip.block(old_pbn)
            old_base_ppn = old_pbn * self.pages_per_block
            # Copy live pages the run did not cover (offsets past the
            # write pointer; covered offsets were invalidated on write),
            # unless a newer copy lives in a random log block.  The old
            # block is invalidated whole before its erase below.
            live = [
                (old_base_ppn + offset, offset, base_lpn + offset)
                for offset in range(block.write_pointer, self.pages_per_block)
                if old.valid >> offset & 1
                and base_lpn + offset not in self.log_map
            ]
            cost = self.chip.copy_pages(block.pbn, live, cost)
            self.stats.gc_page_reads += len(live)
            self.stats.gc_page_writes += len(live)
        # Remove log-map entries that point into this block; entries that
        # point at newer random-log copies stay.
        for offset in block.valid_offsets():
            self.log_map.remove(block.lbns[offset])
        block.kind = BlockKind.DATA
        self.data_map.insert(group, block.pbn)
        cost += self._erase_data_block(old_pbn)
        if partial:
            self.stats.partial_merges += 1
        else:
            self.stats.switch_merges += 1
        if self.tracer is not None:
            self.tracer.emit(
                "gc.merge", lane="gc", dur_us=cost,
                kind="partial" if partial else "switch", group=group,
                copies=self.stats.gc_page_writes - copies_before,
            )
        return cost

    def _log_write_slot(self) -> Tuple[EraseBlock, int, float]:
        """Return (block, offset) of the next log page, running GC if needed."""
        cost = 0.0
        if self._active_log is None or self._active_log.is_full:
            cost += self._open_log_block()
        block = self._active_log
        assert block is not None
        return block, block.write_pointer, cost

    def _open_log_block(self) -> float:
        """Allocate a fresh log block, merging old ones first if needed."""
        cost = 0.0
        while (
            len(self._log_blocks) >= self.log_blocks_target
            or self.chip.free_total <= SPARE_BLOCKS
        ):
            cost += self._merge_victim_log_block()
        block = self._allocate_block(BlockKind.LOG)
        self._log_blocks.append(block.pbn)
        self._active_log = block
        return cost

    def _merge_victim_log_block(self) -> float:
        """Merge the oldest log block back into data blocks; returns cost."""
        if not self._log_blocks:
            if self._seq_log is not None:
                return self._retire_seq_log()
            raise ConfigError("no log blocks to merge but free pool exhausted")
        victim_pbn = self._log_blocks.popleft()
        victim = self.chip.block(victim_pbn)
        was_active = victim is self._active_log
        if was_active:
            self._active_log = None
        if self.tracer is not None:
            self.tracer.emit(
                "gc.victim", lane="gc",
                pbn=victim_pbn, valid_pages=victim.valid_count,
            )

        cost = 0.0
        try:
            if self._is_switch_mergeable(victim):
                cost += self._switch_merge(victim)
            else:
                groups = sorted(
                    {
                        self._group_of(victim.lbns[offset])
                        for offset in victim.valid_offsets()
                    }
                )
                for group in groups:
                    cost += self._full_merge_group(group)
                # Every live page belonged to one of those groups, so the
                # victim must be empty now; erase it back to the free pool.
                assert victim.valid_count == 0, "full merge left live pages behind"
                cost += self._erase(victim_pbn)
        except Exception:
            # A mid-merge failure (e.g. the SSC's cache-full condition)
            # must not leak the victim out of the log pool: its remaining
            # live pages are still mapped through the page map.
            if victim.kind is BlockKind.LOG:
                self._log_blocks.appendleft(victim_pbn)
                if was_active:
                    self._active_log = victim
            raise
        cost += self._maybe_static_relocation()
        return cost

    def _maybe_static_relocation(self) -> float:
        """Relocate the coldest data block when wear skews too far.

        Cold data parks on low-wear blocks and shields them from erases;
        moving it onto a high-wear block (and erasing its old home) keeps
        the wear differential bounded (Table 5's "Wear Diff.").
        """
        if self._allocate_hot:
            return 0.0  # already inside a relocation; do not recurse
        if not self.wear.static_due():
            return 0.0
        victim = self.wear.coldest_data_block(self._gc_protected)
        if victim is None:
            return 0.0
        group = self._group_of_data_block(victim.pbn)
        if group is None:
            return 0.0
        self._allocate_hot = True
        try:
            cost = self._full_merge_group(group)
        finally:
            self._allocate_hot = False
        self.wear.static_relocations += 1
        return cost

    def _group_of_data_block(self, pbn: int) -> Optional[int]:
        """Logical group mapped to data block ``pbn``, or None."""
        for group, mapped_pbn in self.data_map.items():
            if mapped_pbn == pbn:
                return group
        return None

    def _is_switch_mergeable(self, block: EraseBlock) -> bool:
        if not (block.sequential and block.is_full and block.first_lbn is not None):
            return False
        if block.first_lbn % self.pages_per_block != 0:
            return False
        # Every page must still be live: one overwrite breaks the switch.
        return block.valid_count == block.num_pages

    def _switch_merge(self, victim: EraseBlock) -> float:
        """Promote a sequentially-written log block to a data block."""
        group = self._group_of(victim.first_lbn)
        cost = 0.0
        old_pbn = self.data_map.insert(group, victim.pbn)
        victim.kind = BlockKind.DATA
        for offset in range(victim.num_pages):
            self.log_map.remove(victim.first_lbn + offset)
        cost += self._erase_data_block(old_pbn)
        self.stats.switch_merges += 1
        if self.tracer is not None:
            self.tracer.emit(
                "gc.merge", lane="gc", dur_us=cost,
                kind="switch", group=group, copies=0,
            )
        return cost

    def _full_merge_group(self, group: int) -> float:
        """Copy the newest version of every live page of ``group`` into a
        fresh data block, then erase the group's old data block."""
        cost = 0.0
        copies_before = self.stats.gc_page_writes
        old_pbn = self.data_map.lookup(group)
        pages_per_block = self.pages_per_block
        base_lpn = group * pages_per_block

        live = []  # (source_ppn, offset, lpn)
        logged = []  # (source_ppn, lpn) of the sources in log blocks
        old_valid = 0 if old_pbn is None else self.chip.block(old_pbn).valid
        old_base_ppn = None if old_pbn is None else old_pbn * pages_per_block
        log_lookup = self.log_map.lookup
        for offset in range(pages_per_block):
            lpn = base_lpn + offset
            ppn = log_lookup(lpn)
            if ppn is not None:
                live.append((ppn, offset, lpn))
                logged.append((ppn, lpn))
            elif old_valid >> offset & 1:
                live.append((old_base_ppn + offset, offset, lpn))

        if old_pbn is not None:
            self._gc_protected.add(old_pbn)
        try:
            if not live:
                self.data_map.remove(group)
            else:
                new_block = self._allocate_block(BlockKind.DATA)
                self._gc_protected.add(new_block.pbn)
                chip = self.chip
                cost = chip.copy_pages(new_block.pbn, live, cost)
                self.stats.gc_page_reads += len(live)
                self.stats.gc_page_writes += len(live)
                # Retire the log-resident sources page by page (a logged
                # map only buffers their records); the old data block
                # is invalidated whole before its erase below.
                for src_ppn, lpn in logged:
                    src, src_offset = chip.locate(src_ppn)
                    src.invalidate(src_offset)
                    self.log_map.remove(lpn)
                self.data_map.insert(group, new_block.pbn)
                self._gc_protected.discard(new_block.pbn)
            cost += self._erase_data_block(old_pbn)
        finally:
            if old_pbn is not None:
                self._gc_protected.discard(old_pbn)
        self.stats.full_merges += 1
        if self.tracer is not None:
            self.tracer.emit(
                "gc.merge", lane="gc", dur_us=cost,
                kind="full", group=group,
                copies=self.stats.gc_page_writes - copies_before,
            )
        return cost

    # ------------------------------------------------------------------
    # Memory accounting (Table 4)
    # ------------------------------------------------------------------

    def device_memory_bytes(self) -> int:
        """Modeled device DRAM for the dense hybrid mapping."""
        return self.data_map.memory_bytes() + self.log_map.memory_bytes()

    def __repr__(self) -> str:
        # The SSC's CacheFTL has no fixed logical capacity.
        groups = getattr(self, "logical_groups", None)
        head = "" if groups is None else f"groups={groups}, "
        return (
            f"{type(self).__name__}({head}log_target={self.log_blocks_target}, "
            f"log_in_use={len(self._log_blocks)}, free={self.chip.free_total})"
        )
