"""Erase blocks.

An erase block is the granularity of the NAND erase operation (64 pages,
256 KB by default).  Blocks are programmed append-only: NAND requires
pages within a block to be written in order, which is also what lets the
FTL detect sequentially-written log blocks eligible for switch merges.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, List, Optional

from repro.errors import WriteToNonErasedPageError
from repro.flash.page import OOBData, Page, PageState


#: Sentinel payload left behind by a torn (partially-completed) page
#: program.  Recovery must never surface it: the accompanying OOB record
#: carries no logical address and a checksum that cannot verify.
TORN_PAGE = "<torn-page>"


class BlockKind(Enum):
    """Role the FTL currently assigns to a block."""

    FREE = auto()        # erased, unassigned
    DATA = auto()        # block-mapped data block
    LOG = auto()         # page-mapped log block
    META = auto()        # device metadata (operation log / checkpoints)


class EraseBlock:
    """One erase block: a page array plus wear and usage accounting."""

    __slots__ = (
        "pbn",
        "pages",
        "kind",
        "erase_count",
        "write_pointer",
        "valid_count",
        "dirty_count",
        "sequential",
        "first_lbn",
    )

    def __init__(self, pbn: int, pages_per_block: int):
        self.pbn = pbn
        self.pages: List[Page] = [Page() for _ in range(pages_per_block)]
        self.kind = BlockKind.FREE
        self.erase_count = 0
        # Next programmable page offset; NAND programs sequentially.
        self.write_pointer = 0
        self.valid_count = 0
        self.dirty_count = 0
        # True while every programmed page i holds logical offset
        # first_lbn + i; such a full log block can be switch-merged.
        self.sequential = True
        self.first_lbn: Optional[int] = None

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def is_full(self) -> bool:
        """True once every page has been programmed since the last erase."""
        return self.write_pointer >= self.num_pages

    @property
    def free_pages(self) -> int:
        """Pages still programmable before the block is full."""
        return self.num_pages - self.write_pointer

    def program(self, offset: int, data: Any, oob: OOBData) -> None:
        """Program page ``offset``.

        NAND programs pages within a block in ascending order; skipping
        forward is allowed (the skipped pages stay FREE — data blocks
        built by merges may have holes where a page was never cached),
        but programming at or below the write pointer is rejected.
        """
        if offset < self.write_pointer:
            raise WriteToNonErasedPageError(
                f"block {self.pbn}: program at offset {offset} but write "
                f"pointer is {self.write_pointer} (NAND programs in order)"
            )
        page = self.pages[offset]
        if page.state is not PageState.FREE:
            raise WriteToNonErasedPageError(
                f"block {self.pbn} page {offset} is {page.state.name}, not FREE"
            )
        if offset > self.write_pointer:
            self.sequential = False
        page.state = PageState.VALID
        page.data = data
        page.oob = oob
        self.write_pointer = offset + 1
        self.valid_count += 1
        if oob.dirty:
            self.dirty_count += 1
        self._track_sequential(offset, oob)

    def _track_sequential(self, offset: int, oob: OOBData) -> None:
        if not self.sequential or oob.lbn is None:
            self.sequential = False
            return
        if offset == 0:
            self.first_lbn = oob.lbn
        elif self.first_lbn is None or oob.lbn != self.first_lbn + offset:
            self.sequential = False

    def invalidate(self, offset: int) -> None:
        """Mark page ``offset`` stale (its data was overwritten elsewhere)."""
        page = self.pages[offset]
        if page.state is not PageState.VALID:
            return
        page.state = PageState.INVALID
        self.valid_count -= 1
        if page.oob is not None and page.oob.dirty:
            self.dirty_count -= 1

    def mark_clean(self, offset: int) -> None:
        """Clear the dirty flag on a valid page (SSC ``clean`` support)."""
        page = self.pages[offset]
        if page.oob is not None and page.oob.dirty:
            page.oob.dirty = False
            if page.state is PageState.VALID:
                self.dirty_count -= 1

    def mark_dirty(self, offset: int) -> None:
        """Set the dirty flag on a valid page (crash rollback of clean)."""
        page = self.pages[offset]
        if page.oob is not None and not page.oob.dirty:
            page.oob.dirty = True
            if page.state is PageState.VALID:
                self.dirty_count += 1

    def erase(self) -> None:
        """Erase the block: every page returns to FREE; wear increments."""
        for page in self.pages:
            page.reset()
        self.erase_count += 1
        self.write_pointer = 0
        self.valid_count = 0
        self.dirty_count = 0
        self.sequential = True
        self.first_lbn = None
        self.kind = BlockKind.FREE

    def valid_offsets(self) -> List[int]:
        """Offsets of VALID pages, as a list snapshot (safe to iterate
        while invalidating them)."""
        return [
            offset
            for offset, page in enumerate(self.pages)
            if page.state is PageState.VALID
        ]

    def utilization(self) -> float:
        """Fraction of pages holding valid data (GC victim metric)."""
        return self.valid_count / self.num_pages

    def __repr__(self) -> str:
        return (
            f"EraseBlock(pbn={self.pbn}, kind={self.kind.name}, "
            f"valid={self.valid_count}/{self.num_pages}, "
            f"erases={self.erase_count})"
        )
