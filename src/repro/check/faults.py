"""Bit-flip fault injection into *durable* state.

Torn writes (handled inside the device model, ``CrashInjector.torn``)
damage the write that was in flight at the power cut.  Bit flips model
the other hazard class: state that was durably written and later rots —
a flipped cell in a flushed log record, a flash page payload, or any
field of a checkpoint entry.

Every injector here corrupts the data while leaving the *stored
checksum* untouched, so the damage is detectable: recovery must notice
the mismatch and discard the damaged record/page/checkpoint instead of
surfacing it.  The crash-state explorer checks such trials under the
relaxed integrity rules — discarding a damaged log tail may legally
lose committed work, but must never produce a value the host did not
write (docs/crash_testing.md).

Each injector returns True if it found something to corrupt.
"""

from __future__ import annotations

import random

from repro.ssc.device import SolidStateCache


def flip_log_record(ssc: SolidStateCache, rng: random.Random) -> bool:
    """Flip a bit in one durably-flushed log record."""
    flushed = ssc.oplog.flushed
    if not flushed:
        return False
    index = rng.randrange(len(flushed))
    record = flushed[index]
    # Damage the physical address; the stored CRC no longer matches.
    flushed[index] = record._replace(ppn=record.ppn ^ 1)
    return True


def flip_page_data(ssc: SolidStateCache, rng: random.Random) -> bool:
    """Corrupt the payload of one programmed flash page.

    The OOB checksum keeps its original value, so the page reads back
    as damaged (checksum mismatch) — recovery must not map it.
    """
    candidates = [
        (block, offset)
        for plane in ssc.chip.planes
        for block in plane.blocks.values()
        for offset in block.valid_offsets()
    ]
    if not candidates:
        return False
    block, offset = rng.choice(candidates)
    block.data[offset] = ("<bitrot>", block.data[offset])
    return True


def flip_checkpoint(ssc: SolidStateCache, rng: random.Random) -> bool:
    """Corrupt one field of one entry in the most recent checkpoint.

    The entry and the field are drawn from ``rng``: lbn, ppn or dirty
    of a page entry; group, pbn, dirty bitmap or valid bitmap of a
    block entry.  Its checksum no longer verifies, so recovery must
    fall back to the other (older) slot, or to pure log replay if none
    is intact.
    """
    checkpoint = ssc.checkpoints.latest()
    if checkpoint is None:
        return False
    pages, blocks = checkpoint.page_entries, checkpoint.block_entries
    if pages or blocks:
        index = rng.randrange(len(pages) + len(blocks))
        entries = pages
        if index >= len(pages):
            entries, index = blocks, index - len(pages)
        entry = list(entries[index])
        entry[rng.randrange(len(entry))] ^= 1
        entries[index] = tuple(entry)
    else:
        checkpoint.checksum ^= 0x1
    # In-place entry mutation bypasses the memoized entry CRC; drop it
    # so is_intact() re-reads the damaged contents, and make the
    # checkpoint policy re-derive its trigger from the slots.
    checkpoint.invalidate_checksum_memo()
    ssc.checkpoint_trigger_bytes = None
    return True
