"""Erase blocks.

An erase block is the granularity of the NAND erase operation (64 pages,
256 KB by default).  Blocks are programmed append-only: NAND requires
pages within a block to be written in order, which is also what lets the
FTL detect sequentially-written log blocks eligible for switch merges.

Page state is kept in per-block columns rather than one object per page.
Each page holds an opaque data payload (the simulator stores a small
token rather than 4 KB of bytes, in the style of the David emulator the
paper cites) plus an out-of-band (OOB) record: the *reverse map* (the
logical block the page holds), its write sequence and a payload
checksum.  The page's lifecycle and clean/dirty state live in three
bitmaps, bit ``offset`` per page, matching the per-block valid and dirty
bitmaps the SSC logs (paper §4.2.2):

* ``written`` — programmed since the last erase (a clear bit is FREE);
* ``valid`` — holds live, mapped data (written but not valid is stale,
  awaiting erase);
* ``dirty`` — the OOB dirty flag: write-back data not yet on disk.  It
  is stored independently of ``valid``, so a stale page keeps the flag
  it was written with; only valid dirty pages count in ``dirty_count``.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, List, Optional

from repro.errors import WriteToNonErasedPageError


#: Sentinel payload left behind by a torn (partially-completed) page
#: program.  Recovery must never surface it: the page carries no logical
#: address and a checksum that cannot verify.
TORN_PAGE = "<torn-page>"


def out_of_order_program(
    pbn: int, offset: int, write_pointer: int
) -> WriteToNonErasedPageError:
    """The error for programming ``offset`` at or below the write pointer."""
    return WriteToNonErasedPageError(
        f"block {pbn}: program at offset {offset} but write "
        f"pointer is {write_pointer} (NAND programs in order)"
    )


class BlockKind(Enum):
    """Role the FTL currently assigns to a block."""

    FREE = auto()        # erased, unassigned
    DATA = auto()        # block-mapped data block
    LOG = auto()         # page-mapped log block
    META = auto()        # device metadata (operation log / checkpoints)


class EraseBlock:
    """One erase block: page columns plus wear and usage accounting.

    ``data``, ``lbns``, ``seqs`` and ``checksums`` are per-page lists
    indexed by offset.  ``lbns`` is ``None`` on FREE and torn pages;
    ``checksums`` binds each payload to its logical address, and
    ``None`` marks a page programmed without one (always treated as
    intact by recovery).
    """

    __slots__ = (
        "pbn",
        "num_pages",
        "data",
        "lbns",
        "seqs",
        "checksums",
        "written",
        "valid",
        "dirty",
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
        self.num_pages = pages_per_block
        self.kind = BlockKind.FREE
        self.erase_count = 0
        self._reset()

    def _reset(self) -> None:
        pages = self.num_pages
        self.data: List[Any] = [None] * pages
        self.lbns: List[Optional[int]] = [None] * pages
        self.seqs: List[int] = [0] * pages
        self.checksums: List[Optional[int]] = [None] * pages
        self.written = 0
        self.valid = 0
        self.dirty = 0
        # Next programmable page offset; NAND programs sequentially.
        self.write_pointer = 0
        self.valid_count = 0
        self.dirty_count = 0
        # True while every programmed page i holds logical offset
        # first_lbn + i; such a full log block can be switch-merged.
        self.sequential = True
        self.first_lbn: Optional[int] = None

    @property
    def is_full(self) -> bool:
        """True once every page has been programmed since the last erase."""
        return self.write_pointer >= self.num_pages

    @property
    def free_pages(self) -> int:
        """Pages still programmable before the block is full."""
        return self.num_pages - self.write_pointer

    def program(
        self,
        offset: int,
        data: Any,
        lbn: Optional[int],
        dirty: bool = False,
        seq: int = 0,
        checksum: Optional[int] = None,
    ) -> None:
        """Program page ``offset`` with its payload and OOB record.

        NAND programs pages within a block in ascending order; skipping
        forward is allowed (the skipped pages stay FREE — data blocks
        built by merges may have holes where a page was never cached),
        but programming at or below the write pointer is rejected.
        """
        if offset < self.write_pointer:
            raise out_of_order_program(self.pbn, offset, self.write_pointer)
        # Every programmed page lies below the write pointer, so the
        # check above also rejects reprogramming without an erase.
        bit = 1 << offset
        self.data[offset] = data
        self.lbns[offset] = lbn
        self.seqs[offset] = seq
        self.checksums[offset] = checksum
        self.written |= bit
        self.valid |= bit
        self.valid_count += 1
        if dirty:
            self.dirty |= bit
            self.dirty_count += 1
        if self.sequential:
            if lbn is None or offset != self.write_pointer:
                self.sequential = False
            elif offset == 0:
                self.first_lbn = lbn
            elif self.first_lbn is None or lbn != self.first_lbn + offset:
                self.sequential = False
        self.write_pointer = offset + 1

    def invalidate(self, offset: int) -> None:
        """Mark page ``offset`` stale (its data was overwritten elsewhere)."""
        bit = 1 << offset
        if not self.valid & bit:
            return
        self.valid ^= bit
        self.valid_count -= 1
        if self.dirty & bit:
            self.dirty_count -= 1

    def invalidate_all(self) -> None:
        """Mark every page stale, as :meth:`invalidate` on each valid
        offset would (dirty flags stay with their pages)."""
        self.valid = self.valid_count = self.dirty_count = 0

    def mark_clean(self, offset: int) -> None:
        """Clear the dirty flag on a page (SSC ``clean`` support)."""
        bit = 1 << offset
        if self.dirty & bit:
            self.dirty ^= bit
            if self.valid & bit:
                self.dirty_count -= 1

    def mark_dirty(self, offset: int) -> None:
        """Set the dirty flag on a programmed page (crash rollback of clean)."""
        bit = 1 << offset
        if self.written & bit and not self.dirty & bit:
            self.dirty |= bit
            if self.valid & bit:
                self.dirty_count += 1

    def erase(self) -> None:
        """Erase the block: every page returns to FREE; wear increments."""
        self._reset()
        self.erase_count += 1
        self.kind = BlockKind.FREE

    def valid_offsets(self) -> List[int]:
        """Offsets of VALID pages, ascending, as a list snapshot (safe to
        iterate while invalidating them)."""
        offsets = []
        valid = self.valid
        while valid:
            low = valid & -valid
            offsets.append(low.bit_length() - 1)
            valid ^= low
        return offsets

    def utilization(self) -> float:
        """Fraction of pages holding valid data (GC victim metric)."""
        return self.valid_count / self.num_pages

    def __repr__(self) -> str:
        return (
            f"EraseBlock(pbn={self.pbn}, kind={self.kind.name}, "
            f"valid={self.valid_count}/{self.num_pages}, "
            f"erases={self.erase_count})"
        )
