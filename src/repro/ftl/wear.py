"""Wear-leveling policies.

Flash blocks endure a limited number of erase cycles (Table 1: ~10^4
for MLC), so the FTL must spread erases evenly.  Two complementary
mechanisms, both standard practice and both assumed by the paper's
wear-differential evaluation (Table 5):

* **Dynamic wear leveling** — allocation picks the free block with the
  lowest erase count, so hot (frequently recycled) roles rotate across
  the pool instead of hammering a FIFO head.
* **Static wear leveling** — cold data parks on low-wear blocks forever
  and shields them from erases.  When the chip's wear differential
  exceeds a threshold, the coldest data block is relocated onto a
  high-wear free block, releasing the low-wear block back into
  circulation.

``WearLeveler`` owns the bookkeeping; the FTLs call :meth:`pick_block`
at allocation and :meth:`check_static` periodically during garbage
collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flash.block import BlockKind, EraseBlock
from repro.flash.chip import FlashChip
from repro.flash.plane import Plane


@dataclass(frozen=True)
class WearConfig:
    """Wear-leveling tunables.

    ``static_threshold`` is the wear differential (max minus min erase
    count) that triggers a static relocation; None disables static
    leveling.  ``check_interval`` rate-limits the differential scan,
    which is O(blocks).
    """

    dynamic: bool = True
    static_threshold: Optional[int] = 64
    check_interval: int = 32


class WearLeveler:
    """Wear accounting and block-selection helper for one chip."""

    def __init__(self, chip: FlashChip, config: Optional[WearConfig] = None):
        self.chip = chip
        self.config = config or WearConfig()
        self._since_check = 0
        self.static_relocations = 0

    # ---- dynamic -----------------------------------------------------

    def pick_block(
        self, plane: Plane, kind: BlockKind, hottest: bool = False
    ) -> EraseBlock:
        """Allocate from ``plane``, preferring the least-worn free block.

        ``hottest=True`` inverts the preference — static relocation
        parks cold data on the *most*-worn free block to rest it.
        """
        if not self.config.dynamic or plane.free_count == 0:
            return plane.allocate(kind)
        # The plane keeps a lazily invalidated wear heap, so the
        # least-worn block is O(log free); only static relocation scans
        # the pool for the most-worn one.
        best_pbn = plane.most_worn_free() if hottest else plane.least_worn_free()
        return plane.allocate_specific(best_pbn, kind)

    # ---- static --------------------------------------------------------

    def static_due(self) -> bool:
        """True when a (rate-limited) differential check says to relocate."""
        if self.config.static_threshold is None:
            return False
        self._since_check += 1
        if self._since_check < self.config.check_interval:
            return False
        self._since_check = 0
        return self.chip.wear_differential() > self.config.static_threshold

    def coldest_data_block(self, protected: set) -> Optional[EraseBlock]:
        """The lowest-wear DATA block holding live data, or None.

        Blocks in ``protected`` (mid-merge) are skipped.  Only blocks
        with valid pages are candidates: an empty low-wear block gets
        recycled by normal GC anyway.
        """
        candidates = [
            block
            for plane in self.chip.planes
            for block in plane.blocks.values()
            if block.kind is BlockKind.DATA
            and block.valid_count > 0
            and block.pbn not in protected
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda block: (block.erase_count, block.pbn))
