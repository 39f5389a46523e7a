"""Roll-forward recovery for the SSC.

Paper §4.2.2 (Recovery): "The recovery operation reconstructs the
different mappings in device memory after a power failure or reboot.
It first computes the difference between the sequence number of the
most recent committed log record and the log sequence number
corresponding to the beginning of the most recent checkpoint.  It then
loads the mapping checkpoint and replays the log records falling in the
range of the computed difference.  The SSC performs roll-forward
recovery for both the page-level and block-level maps, and reconstructs
the reverse-mapping table from the forward tables."

The replay produces a *logical* picture — page-level entries
(lbn → ppn, dirty) and block-level entries (group → pbn, dirty/valid
bitmaps) — which is then materialized onto the flash chip: every
programmed page not referenced by the recovered mapping is marked
invalid (it is an orphan: its mapping record was still buffered when
power failed, which the write-clean contract explicitly permits), and
block roles, valid counts and dirty flags are reset to match.

The returned recovery *time* covers only the flash reads the paper
charges: loading the checkpoint and reading the log tail.  Rebuilding
in-memory indexes is free at this scale on a device controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import RecoveryError
from repro.flash.block import BlockKind, EraseBlock
from repro.ssc.checkpoint import Checkpoint
from repro.ssc.log import LogRecord, RecordKind, bitmap_shift
from repro.util.checksum import crc32_of_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ssc.engine import CacheFTL


def _page_intact(block: EraseBlock, offset: int) -> bool:
    """True if programmed page ``offset``'s OOB checksum matches its
    payload.

    A torn program (power cut mid-write) or bit rot leaves a page whose
    stored checksum cannot verify; recovery must treat it as damaged and
    never surface its contents.  Pages stamped before checksums existed
    (``checksum is None``) are trusted, matching the log-record rule.
    """
    checksum = block.checksums[offset]
    if checksum is None:
        return True
    return checksum == crc32_of_payload(block.lbns[offset], block.data[offset])


@dataclass
class _BlockEntry:
    pbn: int
    dirty_bitmap: int
    valid_bitmap: int


@dataclass
class RecoveredState:
    """The logical mapping picture produced by checkpoint + log replay."""

    page_entries: Dict[int, Tuple[int, bool]] = field(default_factory=dict)
    block_entries: Dict[int, _BlockEntry] = field(default_factory=dict)
    replayed_records: int = 0


def replay(
    checkpoint: Optional[Checkpoint],
    records: List[LogRecord],
    pages_per_block: int,
) -> RecoveredState:
    """Apply ``records`` (in sequence order) on top of ``checkpoint``."""
    state = RecoveredState()
    if checkpoint is not None:
        if not checkpoint.is_intact():
            raise RecoveryError("checkpoint failed checksum validation")
        for lbn, ppn, dirty in checkpoint.page_entries:
            state.page_entries[lbn] = (ppn, dirty)
        for group, pbn, dirty_bitmap, valid_bitmap in checkpoint.block_entries:
            state.block_entries[group] = _BlockEntry(pbn, dirty_bitmap, valid_bitmap)

    last_seq = checkpoint.seq if checkpoint is not None else 0
    for record in records:
        if record.seq <= last_seq:
            raise RecoveryError(
                f"log record {record.seq} out of order (after {last_seq})"
            )
        last_seq = record.seq
        _apply(state, record, pages_per_block)
        state.replayed_records += 1
    return state


def _apply(state: RecoveredState, record: LogRecord, pages_per_block: int) -> None:
    kind = record.kind
    if kind is RecordKind.INSERT_PAGE:
        state.page_entries[record.lbn] = (record.ppn, bool(record.extra & 1))
    elif kind is RecordKind.REMOVE_PAGE:
        current = state.page_entries.get(record.lbn)
        if current is not None and current[0] == record.ppn:
            del state.page_entries[record.lbn]
    elif kind is RecordKind.INSERT_BLOCK:
        shift = bitmap_shift(pages_per_block)
        state.block_entries[record.lbn] = _BlockEntry(
            pbn=record.ppn,
            dirty_bitmap=record.extra & ((1 << shift) - 1),
            valid_bitmap=record.extra >> shift,
        )
    elif kind is RecordKind.REMOVE_BLOCK:
        entry = state.block_entries.get(record.lbn)
        if entry is not None and entry.pbn == record.ppn:
            del state.block_entries[record.lbn]
    elif kind is RecordKind.INVALIDATE_PAGE:
        group, offset = divmod(record.lbn, pages_per_block)
        entry = state.block_entries.get(group)
        if entry is not None:
            bit = 1 << offset
            entry.valid_bitmap &= ~bit
            entry.dirty_bitmap &= ~bit
    elif kind is RecordKind.CLEAN:
        current = state.page_entries.get(record.lbn)
        if current is not None:
            state.page_entries[record.lbn] = (current[0], False)
        else:
            group, offset = divmod(record.lbn, pages_per_block)
            entry = state.block_entries.get(group)
            if entry is not None:
                entry.dirty_bitmap &= ~(1 << offset)
    else:  # pragma: no cover - enum is closed
        raise RecoveryError(f"unknown record kind {kind}")


def materialize(engine: "CacheFTL", state: RecoveredState) -> None:
    """Install ``state`` into the engine and reconcile the flash chip.

    After this returns: the forward maps hold every entry of ``state``
    that the flash corroborates; every flash page is VALID iff the
    recovered mapping references it; block
    kinds, valid/dirty counts and the free lists are consistent; and the
    engine's transient cursors (active log block, sequential-run state)
    are reset.
    """
    chip = engine.chip

    expected_pages: Dict[int, Tuple[int, bool]] = {
        ppn: (lbn, dirty) for lbn, (ppn, dirty) in state.page_entries.items()
    }
    expected_blocks: Dict[int, List[Tuple[int, _BlockEntry]]] = {}
    for group, entry in state.block_entries.items():
        expected_blocks.setdefault(entry.pbn, []).append((group, entry))

    log_blocks: List[Tuple[int, int]] = []  # (oldest page seq, pbn)
    owners: Dict[int, int] = {}  # DATA block pbn -> its group
    for plane in chip.planes:
        for block in plane.blocks.values():
            owner = _reconcile_block(
                engine, plane, block, expected_pages, expected_blocks, log_blocks
            )
            if owner is not None:
                owners[block.pbn] = owner

    engine._log_blocks.clear()
    for _seq, pbn in sorted(log_blocks):
        engine._log_blocks.append(pbn)
    engine._active_log = None
    engine._seq_log = None
    engine._seq_next_lpn = None
    engine._last_lpn = None
    # A crash may have struck mid-merge or mid-eviction; none of that
    # transient state survives into the recovered engine.
    engine._gc_protected.clear()
    engine._pending_cost = 0.0
    engine._allocate_hot = False

    # Rebuild the forward maps without journaling (the log already
    # holds, or held, these mappings).  Page entries are installed only
    # when the target page corroborates them — VALID after reconcile
    # and OOB-stamped with the same logical block — so a stale entry
    # can never route reads to some other block's data.
    engine.log_map.reset()
    for lbn, (ppn, _dirty) in state.page_entries.items():
        block, offset = chip.locate(ppn)
        if block.valid >> offset & 1 and block.lbns[offset] == lbn:
            engine.log_map.inner.insert(lbn, ppn)
    # Likewise a block entry is installed only when its block
    # reconciled as that group's DATA block (some page corroborated it).
    engine.data_map.reset()
    for group, entry in state.block_entries.items():
        if owners.get(entry.pbn) == group:
            engine.data_map.inner.insert(group, entry.pbn)
    engine.data_map.rebuild_reverse()


def recover_device(ssc) -> float:
    """Roll-forward recovery entry point for one device (or array shard).

    Replays the device's latest intact checkpoint plus the verified log
    tail into its engine, reconciles the flash chip, and returns the
    simulated recovery time (checkpoint + log flash reads).  A sharded
    array invokes this once per shard; the shards' recoveries are
    independent, so an array can run them concurrently.
    """
    if not ssc.oplog.enabled:
        raise RecoveryError(
            "no-consistency configuration: mapping was never persisted"
        )
    checkpoint = ssc.checkpoints.latest()
    from_seq = checkpoint.seq if checkpoint is not None else 0
    records, discarded = ssc.oplog.intact_records_after(from_seq)
    ssc.last_recovery_discarded = discarded
    checkpoint_cost = (
        ssc.checkpoints.read_cost(checkpoint) if checkpoint is not None else 0.0
    )
    log_cost = ssc.oplog.replay_read_cost(from_seq)
    state = replay(checkpoint, records, ssc.engine.pages_per_block)
    materialize(ssc.engine, state)
    # The slots may differ from what the cached checkpoint trigger was
    # taken from (a checkpoint committed by the operation that crashed,
    # or a damaged slot): the next operation derives it afresh.
    ssc.checkpoint_trigger_bytes = None
    ssc._crashed = False
    tracer = ssc.tracer
    if tracer is not None:
        lane = f"{ssc.name}/recovery" if ssc.name else "recovery"
        start = tracer.now_us
        entries = 0
        if checkpoint is not None:
            entries = len(checkpoint.page_entries) + len(checkpoint.block_entries)
        tracer.emit(
            "recovery.phase", lane=lane, ts_us=start, dur_us=checkpoint_cost,
            phase="load_checkpoint", count=entries,
        )
        tracer.emit(
            "recovery.phase", lane=lane, ts_us=start + checkpoint_cost,
            dur_us=log_cost, phase="replay_log", count=state.replayed_records,
        )
        tracer.emit(
            "recovery.phase", lane=lane,
            ts_us=start + checkpoint_cost + log_cost, dur_us=0.0,
            phase="materialize",
            count=len(state.page_entries) + len(state.block_entries),
        )
    return checkpoint_cost + log_cost


def _reconcile_block(engine, plane, block, expected_pages, expected_blocks,
                     log_blocks) -> Optional[int]:
    """Reconcile one block; returns the group it is the DATA block of,
    or ``None`` when it is FREE or a log block."""
    geometry = engine.chip.geometry
    written = block.written
    valid = dirty = 0

    # Holes (never programmed since the last erase) stay FREE.  The OOB
    # reverse map must agree with the forward mapping: a stale block
    # entry (recovered from an old checkpoint over a gapped log) may
    # reference a block since erased and reused, whose pages now hold
    # other logical blocks' data, or the live data block of another
    # group.  The block belongs to the entry whose pages it corroborates.
    best = None
    for group, entry in expected_blocks.get(block.pbn, ()):
        base = group * engine.pages_per_block
        candidates = written & entry.valid_bitmap
        corroborated = 0
        for offset in range(block.num_pages):
            bit = 1 << offset
            if (
                candidates & bit
                and block.lbns[offset] == base + offset
                and _page_intact(block, offset)
            ):
                corroborated |= bit
        if corroborated.bit_count() > valid.bit_count():
            best, valid = (group, entry), corroborated
    if best is not None:
        group, entry = best
        block.kind = BlockKind.DATA
        _set_state(block, valid, (block.dirty & ~valid) | (entry.dirty_bitmap & valid))
        return group
    # No page corroborates any entry: the block was erased (and perhaps
    # reused) after them.  Reconcile it as an unmapped block; materialize
    # then drops the entries.

    if not written:
        # Fully erased.  It may have been allocated (e.g. a just-opened
        # log block whose first write never happened); return it to the
        # free pool.
        _set_state(block, 0, 0)
        block.kind = BlockKind.FREE
        block.write_pointer = 0
        block.sequential = True
        block.first_lbn = None
        if not plane.is_free(block.pbn):
            plane.release(block)
        return None

    # A (former or current) log block: pages are live iff the recovered
    # page map points at them.  Orphans — programmed pages whose mapping
    # record was lost with the log buffer — become invalid, exactly the
    # "as if silently evicted" semantics write-clean promises.
    oldest_seq = None
    for offset in range(block.num_pages):
        bit = 1 << offset
        if not written & bit:
            continue
        expected = expected_pages.get(geometry.make_ppn(block.pbn, offset))
        if (
            expected is not None
            and block.lbns[offset] == expected[0]
            and _page_intact(block, offset)
        ):
            valid |= bit
            if expected[1]:
                dirty |= bit
        elif block.dirty & bit:
            dirty |= bit
        seq = block.seqs[offset]
        if oldest_seq is None or seq < oldest_seq:
            oldest_seq = seq
    _set_state(block, valid, dirty)
    block.kind = BlockKind.LOG
    log_blocks.append((oldest_seq or 0, block.pbn))
    return None


def _set_state(block: EraseBlock, valid: int, dirty: int) -> None:
    """Install reconciled valid/dirty bitmaps and their counts."""
    block.valid = valid
    block.dirty = dirty
    block.valid_count = valid.bit_count()
    block.dirty_count = (dirty & valid).bit_count()
