"""SSC mapping checkpoints.

Paper §4.2.2: "SSCs checkpoint the mapping data structure periodically
so that the log size is less than a fixed fraction of the size of the
checkpoint...  It only checkpoints the forward mappings because of the
high degree of sparseness in the logical address space.  FlashTier
maintains two checkpoints on dedicated regions spread across different
planes of the SSC that bypass address translation."

A checkpoint is a snapshot of the forward maps: page-level entries
(lbn, ppn, dirty) and block-level entries (group, pbn, dirty-bitmap).
The store keeps two slots and alternates between them, so a crash during
checkpointing always leaves one intact checkpoint (the previous one).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

from repro.errors import CrashError
from repro.flash.timing import TimingModel
from repro.sim.crash import CrashInjector, CrashPoint
from repro.stats.counters import counter

#: Serialized entry sizes: page entries carry lbn + ppn + flags; block
#: entries additionally carry the 8-byte dirty-page bitmap (§4.1) and an
#: 8-byte valid-page bitmap (recovery must know which pages of a
#: block-mapped group were stale at checkpoint time, or a read after
#: recovery could return stale data).
PAGE_ENTRY_BYTES = 17
BLOCK_ENTRY_BYTES = 33
HEADER_BYTES = 32


def checkpoint_bytes(page_entries: int, block_entries: int) -> int:
    """Serialized footprint on flash of a checkpoint holding
    ``page_entries`` page mappings and ``block_entries`` block mappings."""
    return (
        HEADER_BYTES
        + page_entries * PAGE_ENTRY_BYTES
        + block_entries * BLOCK_ENTRY_BYTES
    )


@dataclass
class Checkpoint:
    """One immutable snapshot of the forward mappings."""

    seq: int                                        # covers log records <= seq
    page_entries: List[Tuple[int, int, bool]]       # (lbn, ppn, dirty)
    block_entries: List[Tuple[int, int, int, int]]  # (group, pbn, dirty_bm, valid_bm)
    checksum: int = 0

    def __post_init__(self):
        if not self.checksum:
            self.checksum = self.compute_checksum()

    def compute_checksum(self) -> int:
        """CRC32 over every field of every entry, then ``seq``.

        One %-format pass.  Fields are separated by ``:`` and entries
        end in ``;``, so each entry's field count shows its kind and the
        encoding is unambiguous.
        """
        pages, blocks = self.page_entries, self.block_entries
        template = "%d:%d:%d;" * len(pages) + "%d:%d:%d:%d;" * len(blocks) + "%d"
        encoded = template % (
            *chain.from_iterable(pages), *chain.from_iterable(blocks), self.seq)
        return zlib.crc32(encoded.encode("ascii")) & 0xFFFFFFFF

    def is_intact(self) -> bool:
        """True if the checksum matches (detects torn checkpoint writes).

        The entry lists are snapshots taken at checkpoint time and never
        mutated afterwards, so their CRC is computed once and memoized;
        fault injection models damage by flipping the *stored*
        ``checksum`` field (or an entry, which the fault library pairs
        with dropping the memo), and the comparison still catches it.
        """
        computed = self.__dict__.get("_computed_checksum")
        if computed is None:
            computed = self.compute_checksum()
            self.__dict__["_computed_checksum"] = computed
        return self.checksum == computed

    def invalidate_checksum_memo(self) -> None:
        """Drop the memoized entry CRC after mutating the entry lists.

        Only fault injection ever mutates a checkpoint in place; it must
        call this so :meth:`is_intact` re-reads the damaged contents.
        """
        self.__dict__.pop("_computed_checksum", None)

    def size_bytes(self) -> int:
        """Serialized footprint on flash."""
        return checkpoint_bytes(len(self.page_entries), len(self.block_entries))


@dataclass(init=False, eq=False, repr=False)
class CheckpointStore:
    """Two alternating checkpoint slots on dedicated flash regions."""

    #: Optional trace bus (repro.obs); None keeps writes zero-cost.
    tracer = None

    # Exported as ``checkpoint.<name>`` metrics.  They start at zero on
    # the class; each instance's first increment makes them its own
    # attributes.
    writes: int = counter(
        "Mapping checkpoints committed (alternating-slot writes).")
    pages_written: int = counter(
        "Flash pages consumed by checkpoint commits.")

    def __init__(self, timing: TimingModel, page_size: int = 4096,
                 pages_per_block: int = 64, name: str = ""):
        self.timing = timing
        self.page_size = page_size
        self.pages_per_block = pages_per_block
        # Diagnostic label ("shard3/checkpoint" in a sharded array);
        # purely informational — it never affects behaviour.
        self.name = name
        # Optional fault hook: ticks AFTER_CHECKPOINT at every write.
        self.injector: Optional[CrashInjector] = None
        self._slots: List[Optional[Checkpoint]] = [None, None]
        self._active = 0

    def latest(self) -> Optional[Checkpoint]:
        """The most recent intact checkpoint, or None.

        Re-verified on every call, so damage injected between calls is
        always seen.  Recovery asks, and so does the checkpoint policy
        when it re-derives its cached trigger.  On equal ``seq`` slot 0
        wins.
        """
        first, second = self._slots
        if first is None or not first.is_intact():
            return second if second is not None and second.is_intact() else None
        if second is None or second.seq <= first.seq or not second.is_intact():
            return first
        return second

    def previous(self) -> Optional[Checkpoint]:
        """The checkpoint in the slot the next write overwrites."""
        return self._slots[1 - self._active]

    def write(self, checkpoint: Checkpoint) -> float:
        """Persist ``checkpoint`` into the non-active slot; returns cost.

        The cost covers erasing the slot's region and programming the
        serialized mapping.
        """
        slot = 1 - self._active
        self._slots[slot] = checkpoint
        self._active = slot
        pages = -(-checkpoint.size_bytes() // self.page_size)  # ceil
        blocks = -(-pages // self.pages_per_block)
        self.writes += 1
        self.pages_written += pages
        if self.injector is not None:
            try:
                self.injector.tick(CrashPoint.AFTER_CHECKPOINT)
            except CrashError:
                if self.injector.torn:
                    # Power failed mid-write: the slot holds a torn
                    # checkpoint whose checksum cannot verify, so
                    # latest() falls back to the other (intact) slot.
                    checkpoint.checksum ^= 0x1
                raise
        cost = pages * self.timing.write_cost() + blocks * self.timing.erase_cost()
        if self.tracer is not None:
            self.tracer.emit(
                "checkpoint.commit", lane=self.name or "checkpoint",
                dur_us=cost, seq=checkpoint.seq, pages=pages,
                bytes=checkpoint.size_bytes(),
            )
        return cost

    def read_cost(self, checkpoint: Checkpoint) -> float:
        """Flash read cost of loading ``checkpoint`` at recovery."""
        pages = -(-checkpoint.size_bytes() // self.page_size)
        return pages * self.timing.read_cost()
