"""The SSC operation log.

Paper §4.2.2: "An SSC uses an operation log to persist changes to the
sparse hash map.  A log record consists of a monotonically increasing
log sequence number, the logical and physical block addresses, and an
identifier indicating whether this is a page-level or block-level
mapping.  For operations that may be buffered, such as clean and
write-clean, an SSC uses asynchronous group commit to flush the log
records from device memory to flash periodically.  For operations with
immediate consistency guarantees, such as write-dirty and evict, the
log is flushed as part of the operation using a synchronous commit."

The log region is modeled as a dedicated flash area: flushes are charged
page-program latency for however many pages the pending records occupy,
and a block-erase is charged per 64 log pages retired at checkpoint
truncation.  Flushed records are durable (they survive a crash); the
buffer is volatile.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum, auto
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import CrashError
from repro.flash.timing import TimingModel
from repro.sim.crash import CrashInjector, CrashPoint
from repro.stats.counters import counter


class RecordKind(Enum):
    """What a log record describes."""

    INSERT_PAGE = auto()      # page-level mapping insert: lbn -> ppn
    REMOVE_PAGE = auto()      # page-level mapping remove
    INSERT_BLOCK = auto()     # block-level mapping insert: group -> pbn
    REMOVE_BLOCK = auto()     # block-level mapping remove
    INVALIDATE_PAGE = auto()  # a block-mapped page's copy became stale
    CLEAN = auto()            # block marked clean (future-evictable)


#: Each kind's name as CRC input bytes, encoded once.  Keyed by the
#: kind's value: an int hashes in C, an Enum member through Python.
_KIND_BYTES = {kind._value_: kind.name.encode("ascii") for kind in RecordKind}


def record_checksum(seq: int, kind: RecordKind, lbn: int, ppn: int,
                    extra: int) -> int:
    """Per-record CRC over every field; detects torn log pages and bit rot.

    Single-format encoding of ``crc32_of(seq, kind.name, lbn, ppn,
    extra)`` — bit-identical, and this runs once per logged mapping
    change so the generic chunk loop was measurable.
    """
    return zlib.crc32(
        b"i%d|s%s|i%d|i%d|i%d|" % (seq, _KIND_BYTES[kind._value_], lbn, ppn, extra)
    ) & 0xFFFFFFFF


def bitmap_shift(pages_per_block: int) -> int:
    """Bit position of the valid bitmap in a block insert's ``extra``:
    64, or one bit per page for blocks of more than 64 pages."""
    return max(64, pages_per_block)


class LogRecord(NamedTuple):
    """One durable (immutable) mapping-change record.

    ``extra`` carries the dirty flag for page inserts; for block inserts
    it packs the dirty-page bitmap in the low bits and the valid-page
    bitmap from bit :func:`bitmap_shift` up (the paper persists
    per-page state through out-of-band writes "near its associated
    data"; we journal it, which has the same durability and a simpler
    replay).

    ``checksum`` covers every other field.  Recovery verifies it and
    discards the log tail from the first damaged record onward, so a
    torn log flush or flipped bit can lose buffered work but never
    materialize a garbage mapping.  ``None`` (hand-built records in
    tests) is treated as intact.  Damage is modeled with ``_replace``,
    which leaves the stored checksum stale.
    """

    seq: int
    kind: RecordKind
    lbn: int
    ppn: int = 0
    extra: int = 0
    checksum: Optional[int] = None

    def is_intact(self) -> bool:
        if self.checksum is None:
            return True
        return self.checksum == record_checksum(
            self.seq, self.kind, self.lbn, self.ppn, self.extra
        )


#: Builds a LogRecord from a full field tuple without the NamedTuple's
#: generated ``__new__`` (one Python frame per logged mapping change).
_new_record = tuple.__new__


#: Modeled on-flash size of one record: 8 B sequence number, 8 B logical
#: address, 8 B physical address, 2 B kind/flags (paper §4.2.2 fields),
#: plus a 4 B record CRC.
RECORD_BYTES = 30


@dataclass(init=False, eq=False, repr=False)
class OperationLog:
    """Buffered operation log with synchronous and group commit."""

    #: Optional trace bus (repro.obs); None keeps the log zero-cost.
    tracer = None

    # Counters for the consistency-cost evaluation (Fig. 4), exported
    # as ``log.<name>`` metrics.  They start at zero on the class; each
    # instance's first increment makes them its own attributes.
    sync_flushes: int = counter(
        "Synchronous operation-log flushes (on the request path).")
    async_flushes: int = counter(
        "Asynchronous (group-commit) operation-log flushes.")
    barrier_flushes: int = counter(
        "Synchronous flushes forced before an erase because records were "
        "still buffered (write-ahead rule); also counted in sync_flushes.")
    records_written: int = counter(
        "Mapping-change records made durable in the operation log.")
    pages_written: int = counter("Flash pages the operation log consumed.")
    erases: int = counter(
        "Block erases spent recycling truncated log segments.")

    def __init__(self, timing: TimingModel, page_size: int = 4096,
                 pages_per_block: int = 64, name: str = ""):
        self.timing = timing
        self.page_size = page_size
        self.pages_per_block = pages_per_block
        # Diagnostic label ("shard3/log" in a sharded array); purely
        # informational — it never affects behaviour.
        self.name = name
        # Optional fault hook: ticks AFTER_LOG_FLUSH at every flush.
        self.injector: Optional[CrashInjector] = None
        self._next_seq = 1
        self.buffer: List[LogRecord] = []
        self.flushed: List[LogRecord] = []

    #: False only for the no-consistency log, which persists nothing.
    enabled = True

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._next_seq - 1

    def append(self, kind: RecordKind, lbn: int, ppn: int = 0, extra: int = 0) -> LogRecord:
        """Buffer a record; it becomes durable at the next flush."""
        seq = self._next_seq
        self._next_seq = seq + 1
        record = _new_record(LogRecord, (
            seq, kind, lbn, ppn, extra, record_checksum(seq, kind, lbn, ppn, extra)))
        self.buffer.append(record)
        if self.tracer is not None:
            self.tracer.emit(
                "log.append", lane=self.name or "log",
                kind=kind.name, seq=record.seq, lbn=lbn,
            )
        return record

    def pending(self) -> int:
        """Number of buffered (volatile) records."""
        return len(self.buffer)

    def flush(self, sync: bool) -> float:
        """Make buffered records durable; returns the flash cost in us.

        ``sync`` only affects accounting (Fig. 4 distinguishes
        synchronous commits, which sit on the request path, from group
        commits): the durability effect is identical.
        """
        if not self.buffer:
            return 0.0
        count = len(self.buffer)
        bytes_needed = count * RECORD_BYTES
        pages = -(-bytes_needed // self.page_size)  # ceil
        self.flushed.extend(self.buffer)
        self.buffer.clear()
        self.records_written += count
        self.pages_written += pages
        if sync:
            self.sync_flushes += 1
        else:
            self.async_flushes += 1
        if self.injector is not None:
            try:
                self.injector.tick(CrashPoint.AFTER_LOG_FLUSH)
            except CrashError:
                if self.injector.torn:
                    self._tear_flush_tail(count)
                raise
        cost = pages * self.timing.write_cost()
        if self.tracer is not None:
            self.tracer.emit(
                "log.flush", lane=self.name or "log", dur_us=cost,
                sync=sync, records=count, pages=pages,
            )
        return cost

    def _tear_flush_tail(self, count: int) -> None:
        """Power failed mid-flush: only a prefix of the ``count`` records
        just written reached flash whole.

        NAND tears at *page* granularity: log pages programmed before the
        cut are complete, the page being programmed when power failed
        reads back damaged, and later pages were never started.  So the
        survivors are the records of the whole pages, plus the first
        record of the torn page persisted with damaged contents (its
        stored CRC no longer matches); everything after it is lost.  A
        flush smaller than one log page is therefore all-or-nothing —
        which is what keeps multi-record operations (REMOVE + INSERT of
        a replace, a merge's record group) atomic under torn writes.
        """
        records_per_page = max(1, self.page_size // RECORD_BYTES)
        start = len(self.flushed) - count
        keep = ((count // 2) // records_per_page) * records_per_page
        survivors = self.flushed[: start + keep]
        if keep < count:
            torn = self.flushed[start + keep]
            # Field damaged by the cut; the stored checksum goes stale.
            survivors.append(torn._replace(lbn=torn.lbn ^ (1 << 61)))
        self.flushed = survivors

    def truncate_through(self, seq: int) -> float:
        """Drop durable records with sequence <= ``seq`` (checkpointed).

        Returns the cost of erasing the retired log blocks.
        """
        keep = [record for record in self.flushed if record.seq > seq]
        dropped_bytes = (len(self.flushed) - len(keep)) * RECORD_BYTES
        self.flushed = keep
        dropped_pages = dropped_bytes // self.page_size
        blocks = dropped_pages // self.pages_per_block
        self.erases += blocks
        return blocks * self.timing.erase_cost()

    def records_after(self, seq: int) -> List[LogRecord]:
        """Durable records with sequence > ``seq`` (for roll-forward)."""
        return [record for record in self.flushed if record.seq > seq]

    def intact_records_after(self, seq: int) -> Tuple[List[LogRecord], int]:
        """Checksum-verified roll-forward records, plus the discard count.

        The log is a sequential structure: once one record fails its CRC
        (torn flush, bit rot), nothing after it can be trusted — replay
        order matters — so recovery discards the tail from the first
        damaged record onward rather than materializing garbage mappings.
        """
        candidates = self.records_after(seq)
        for index, record in enumerate(candidates):
            if not record.is_intact():
                return candidates[:index], len(candidates) - index
        return candidates, 0

    def drop_buffer(self) -> int:
        """Simulate a crash: volatile records are lost; returns the count."""
        lost = len(self.buffer)
        self.buffer.clear()
        return lost

    def replay_read_cost(self, from_seq: int) -> float:
        """Flash read cost of loading records after ``from_seq``."""
        count = len(self.records_after(from_seq))
        pages = -(-count * RECORD_BYTES // self.page_size)
        return pages * self.timing.read_cost()


class NvramOperationLog(OperationLog):
    """A log backed by non-volatile RAM.

    Paper §6.4: "On a system with non-volatile memory or that can flush
    RAM contents to flash on a power failure, consistency imposes no
    performance cost because there is no need to write logs or
    checkpoints."  Records become durable the instant they are appended
    and every flush is free; nothing is lost at a crash.
    """

    def append(self, kind: RecordKind, lbn: int, ppn: int = 0, extra: int = 0) -> LogRecord:
        seq = self._next_seq
        self._next_seq = seq + 1
        record = _new_record(LogRecord, (
            seq, kind, lbn, ppn, extra, record_checksum(seq, kind, lbn, ppn, extra)))
        self.flushed.append(record)
        self.records_written += 1
        if self.tracer is not None:
            self.tracer.emit(
                "log.append", lane=self.name or "log",
                kind=kind.name, seq=record.seq, lbn=lbn,
            )
        return record

    def flush(self, sync: bool) -> float:
        return 0.0

    def drop_buffer(self) -> int:
        return 0  # nothing volatile to lose

    def replay_read_cost(self, from_seq: int) -> float:
        return 0.0  # NVRAM reads are memory-speed


class NullOperationLog(OperationLog):
    """A disabled log (the paper's no-consistency configuration).

    Appends and flushes are free no-ops; recovery from it is impossible,
    matching a device that keeps its mapping only in RAM.
    """

    enabled = False

    def append(self, kind: RecordKind, lbn: int, ppn: int = 0, extra: int = 0) -> LogRecord:
        record = LogRecord(self._next_seq, kind, lbn, ppn, extra)
        self._next_seq += 1
        return record

    def flush(self, sync: bool) -> float:
        return 0.0

    def truncate_through(self, seq: int) -> float:
        return 0.0
