"""Flash planes.

A plane owns a contiguous range of erase blocks and tracks which of them
are free (erased and unassigned).  Garbage collection in both the SSD and
the SSC operates plane-by-plane — the collector "selects a flash plane to
clean" (paper §4.3) — so free-block accounting lives here.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidAddressError
from repro.flash.block import BlockKind, EraseBlock


class Plane:
    """One flash plane: a block range plus its pool of free blocks.

    Planes are also the unit of *parallelism*: a plane executes one
    operation at a time.  Operations on distinct planes may overlap in
    simulated time; operations on the same plane queue behind each
    other.  The replay engine keeps that timeline, keyed by
    ``resource_key``; the plane itself holds no time.
    """

    #: Optional trace bus (repro.obs); None keeps allocation zero-cost.
    tracer = None

    def __init__(self, plane_id: int, blocks: List[EraseBlock], chip=None):
        self.plane_id = plane_id
        # The owning chip, whose ``free_total`` this plane keeps equal
        # to the sum of its planes' ``free_count`` (None: standalone).
        self.chip = chip
        #: Availability-timeline key: "plane:<n>", or "s<k>:plane:<n>"
        #: once a sharded array re-keys its member chips (which also
        #: rebuilds the chip's prebuilt ops).  Doubles as the trace lane.
        self.resource_key = f"plane:{plane_id}"
        self.blocks: Dict[int, EraseBlock] = {block.pbn: block for block in blocks}
        # The free pool is one insertion-ordered set (a dict with no
        # values): membership is O(1) is_free/removal, and its order is
        # FIFO allocation order when wear leveling is off.  A lazily
        # invalidated heap finds the least-worn free block for dynamic
        # wear leveling without a scan of the pool.  Its entries are
        # validated on peek: a block's erase count cannot change while
        # it is free, so an entry is stale iff its pbn left the pool or
        # was re-released after another erase (higher count).  The heap
        # is rebuilt from the pool before it would outgrow the plane,
        # so both views hold at most ``num_blocks`` entries.
        self._free: Dict[int, None] = dict.fromkeys(sorted(self.blocks))
        #: Number of erased, unassigned blocks: ``len(_free)``, kept by
        #: allocate_specific and release.
        self.free_count = len(self._free)
        self._wear_heap: List[Tuple[int, int]] = []
        self._rebuild_wear_heap()

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block(self, pbn: int) -> EraseBlock:
        """Look up a block owned by this plane."""
        try:
            return self.blocks[pbn]
        except KeyError:
            raise InvalidAddressError(
                f"block {pbn} not in plane {self.plane_id}"
            ) from None

    def allocate(self, kind: BlockKind) -> EraseBlock:
        """Take a free block (FIFO) and assign it role ``kind``.

        Raises IndexError if the plane has no free blocks; callers run
        garbage collection / silent eviction before hitting this.
        """
        if not self._free:
            raise IndexError(f"plane {self.plane_id} has no free blocks")
        return self.allocate_specific(next(iter(self._free)), kind)

    def allocate_specific(self, pbn: int, kind: BlockKind) -> EraseBlock:
        """Take a *particular* free block (wear-leveling allocation).

        Its stale heap entry is filtered lazily by a later lookup, so
        removal here is O(1).
        """
        if pbn not in self._free:
            raise InvalidAddressError(
                f"block {pbn} is not free in plane {self.plane_id}"
            )
        del self._free[pbn]
        self.free_count -= 1
        if self.chip is not None:
            self.chip.free_total -= 1
        block = self.blocks[pbn]
        block.kind = kind
        if self.tracer is not None:
            self.tracer.emit(
                "flash.alloc", lane=self.resource_key,
                pbn=pbn, kind=kind.name,
            )
        return block

    def least_worn_free(self) -> Optional[int]:
        """PBN of the free block with the lowest (erase_count, pbn), or None."""
        heap = self._wear_heap
        while heap:
            erase_count, pbn = heap[0]
            if pbn in self._free and self.blocks[pbn].erase_count == erase_count:
                return pbn
            heapq.heappop(heap)
        return None

    def most_worn_free(self) -> Optional[int]:
        """PBN of the free block with the highest (erase_count, pbn), or None.

        Only static relocation asks, so it scans the pool.
        """
        blocks = self.blocks
        return max(
            self._free,
            key=lambda pbn: (blocks[pbn].erase_count, pbn),
            default=None,
        )

    def _rebuild_wear_heap(self) -> None:
        """Rebuild the wear heap from the pool: one entry per free block."""
        self._wear_heap = [
            (self.blocks[pbn].erase_count, pbn) for pbn in self._free
        ]
        heapq.heapify(self._wear_heap)

    def release(self, block: EraseBlock) -> None:
        """Return an erased block to the free list (after ``erase()``)."""
        if block.pbn not in self.blocks:
            raise InvalidAddressError(
                f"block {block.pbn} not in plane {self.plane_id}"
            )
        if block.kind is not BlockKind.FREE:
            raise ValueError(
                f"block {block.pbn} must be erased before release "
                f"(kind={block.kind.name})"
            )
        if block.pbn not in self._free:
            self._free[block.pbn] = None
            self.free_count += 1
            if self.chip is not None:
                self.chip.free_total += 1
        if len(self._wear_heap) < len(self.blocks):
            heapq.heappush(self._wear_heap, (block.erase_count, block.pbn))
        else:
            self._rebuild_wear_heap()
        if self.tracer is not None:
            self.tracer.emit(
                "flash.release", lane=self.resource_key, pbn=block.pbn
            )

    def is_free(self, pbn: int) -> bool:
        """True if block ``pbn`` sits on this plane's free list."""
        return pbn in self._free

    def __repr__(self) -> str:
        return (
            f"Plane(id={self.plane_id}, blocks={self.num_blocks}, "
            f"free={self.free_count})"
        )
