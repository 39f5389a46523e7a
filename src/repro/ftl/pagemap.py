"""Page-mapped FTL (DFTL-style) — the other end of the mapping spectrum.

The paper's hybrid FTL trades mapping memory for merge cost; a fully
page-mapped FTL (Gupta et al.'s DFTL, the paper's citation [16]) does
the opposite: every 4 KB page is mapped individually, so writes never
need merges — garbage collection just copies a victim block's live
pages to the append point (greedy cost-benefit).  The price is the
page table: one entry per logical page, the memory cost that motivates
both the hybrid layout and the SSC's sparse hash map (§4.1, Table 4).

This FTL plugs into :class:`~repro.ftl.ssd.SSD` as an alternative
baseline and powers the mapping-granularity ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.errors import ConfigError, InvalidAddressError
from repro.flash.block import BlockKind, EraseBlock
from repro.flash.chip import FlashChip
from repro.ftl.base import FTLStats
from repro.ftl.mapping import DenseMap
from repro.ftl.wear import WearLeveler


#: Share of raw blocks reserved for garbage collection (the same 7 %
#: the paper gives the hybrid SSD).
OVERPROVISION = 0.07

#: The free-block floor that triggers collection.
GC_THRESHOLD = 4


class PageMapFTL:
    """Fully page-mapped FTL with greedy garbage collection."""

    def __init__(self, chip: FlashChip):
        self.chip = chip
        self.stats = FTLStats()
        self.wear = WearLeveler(chip)

        total = chip.geometry.total_blocks
        reserved = max(GC_THRESHOLD, int(total * OVERPROVISION))
        logical_blocks = total - reserved
        if logical_blocks <= 0:
            raise ConfigError("chip too small after over-provisioning")
        self.pages_per_block = chip.geometry.pages_per_block
        self.logical_pages = logical_blocks * self.pages_per_block
        self.page_map = DenseMap(self.logical_pages)
        self._active: Optional[EraseBlock] = None

    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise InvalidAddressError(
                f"lpn {lpn} out of range [0, {self.logical_pages})"
            )

    def read(self, lpn: int) -> Tuple[Any, float]:
        """Read ``lpn``; unwritten pages return None at control cost."""
        self._check_lpn(lpn)
        self.stats.user_reads += 1
        ppn = self.page_map.lookup(lpn)
        if ppn is None:
            return None, self.chip.timing.control_delay_us
        return self.chip.read_page(ppn)

    def write(self, lpn: int, data: Any, dirty: bool = False) -> float:
        """Write ``lpn`` out-of-place at the append point."""
        self._check_lpn(lpn)
        cost = self._invalidate(lpn)
        block, gc_cost = self._append_slot()
        cost += gc_cost
        ppn = self.chip.geometry.make_ppn(block.pbn, block.write_pointer)
        cost += self.chip.program_page(ppn, data, lpn, dirty, self.chip.next_seq())
        self.page_map.insert(lpn, ppn)
        self.stats.user_writes += 1
        return cost

    def trim(self, lpn: int) -> float:
        self._check_lpn(lpn)
        return self._invalidate(lpn)

    def is_mapped(self, lpn: int) -> bool:
        return lpn in self.page_map

    def set_page_dirty(self, lpn: int, dirty: bool) -> None:
        ppn = self.page_map.lookup(lpn)
        if ppn is None:
            return
        block, offset = self.chip.locate(ppn)
        if dirty:
            block.mark_dirty(offset)
        else:
            block.mark_clean(offset)

    # ------------------------------------------------------------------

    def _invalidate(self, lpn: int) -> float:
        ppn = self.page_map.remove(lpn)
        if ppn is not None:
            block, offset = self.chip.locate(ppn)
            block.invalidate(offset)
        return 0.0

    def _append_slot(self) -> Tuple[EraseBlock, float]:
        cost = 0.0
        if self._active is None or self._active.is_full:
            cost += self._ensure_free()
            # GC may already have opened (and partially filled) a fresh
            # append block; abandoning it would leak partial blocks.
            if self._active is None or self._active.is_full:
                plane = max(self.chip.planes, key=lambda plane: plane.free_count)
                self._active = self.wear.pick_block(plane, BlockKind.DATA)
        return self._active, cost

    def _ensure_free(self) -> float:
        """Greedy GC: recycle the most-invalid blocks until above floor."""
        cost = 0.0
        guard = 0
        while self.chip.free_total <= GC_THRESHOLD:
            victim = self._pick_victim()
            if victim is None:
                break
            cost += self._collect(victim)
            guard += 1
            if guard > self.chip.geometry.total_blocks:  # pragma: no cover
                raise ConfigError("page-map GC cannot make progress")
        return cost

    def _pick_victim(self) -> Optional[EraseBlock]:
        """Most-invalid full block, or None.

        Fully-valid blocks are never victims: collecting one consumes
        exactly as much space as it frees (a livelock, not cleaning).
        Whenever free blocks are at the GC floor, the capacity reserve
        guarantees some full block holds invalid pages.
        """
        candidates = [
            block
            for plane in self.chip.planes
            for block in plane.blocks.values()
            if block.kind is BlockKind.DATA
            and block is not self._active
            and block.is_full
            and block.valid_count < block.num_pages
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda block: (block.valid_count, block.pbn))

    def _collect(self, victim: EraseBlock) -> float:
        """Copy the victim's live pages forward, then erase it."""
        cost = 0.0
        offsets = victim.valid_offsets()
        while offsets:
            # One copy run per append block the live pages fill.
            block = self._append_slot_for_gc()
            run, offsets = offsets[:block.free_pages], offsets[block.free_pages:]
            live = [
                (victim.pbn * self.pages_per_block + offset,
                 block.write_pointer + i, victim.lbns[offset])
                for i, offset in enumerate(run)
            ]
            cost = self.chip.copy_pages(block.pbn, live, cost)
            self.stats.gc_page_reads += len(live)
            self.stats.gc_page_writes += len(live)
            for offset, (_src_ppn, dst_offset, lbn) in zip(run, live):
                victim.invalidate(offset)
                self.page_map.insert(lbn, block.pbn * self.pages_per_block + dst_offset)
        cost += self.chip.erase_block(victim.pbn)
        return cost

    def _append_slot_for_gc(self) -> EraseBlock:
        # GC appends must not recurse into GC; the reserved pool
        # guarantees a free block exists while collecting.
        if self._active is None or self._active.is_full:
            plane = max(self.chip.planes, key=lambda plane: plane.free_count)
            self._active = self.wear.pick_block(plane, BlockKind.DATA)
        return self._active

    # ------------------------------------------------------------------

    def device_memory_bytes(self) -> int:
        """The full dense page table — the cost DFTL-style FTLs pay."""
        return self.page_map.memory_bytes()

    def __repr__(self) -> str:
        return (
            f"PageMapFTL(logical_pages={self.logical_pages}, "
            f"free={self.chip.free_total})"
        )
