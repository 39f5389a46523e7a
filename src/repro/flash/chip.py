"""The flash chip: planes wired to a timing model and wear accounting.

The chip is the boundary between FTL logic (above) and the NAND model
(below).  Every operation returns its service time in microseconds so the
device layer can account request latency; the chip itself also keeps
aggregate statistics (reads, programs, erases, wear spread) that the
evaluation's Table 5 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import CrashError
from repro.flash.block import TORN_PAGE, EraseBlock, out_of_order_program
from repro.flash.geometry import FlashGeometry
from repro.flash.plane import Plane
from repro.flash.timing import TimingModel
from repro.sim.completion import DeviceOp, OpRecorder
from repro.sim.crash import CrashInjector, CrashPoint
from repro.stats.counters import Counters, counter, gauge
from repro.util.checksum import crc32_of_payload


@dataclass
class FlashStats(Counters):
    """Cumulative operation counts for one chip."""

    page_reads: int = counter("Physical page reads the chip executed.")
    page_writes: int = counter("Physical page programs the chip executed.")
    block_erases: int = counter(
        "Physical block erases the chip executed (wear).")
    oob_scans: int = counter(
        "Out-of-band area scans (native OOB recovery path).")
    busy_us: float = gauge("Total simulated time flash planes spent busy.")


class FlashChip:
    """A complete NAND chip: geometry, planes, timing, statistics."""

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[TimingModel] = None,
    ):
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or TimingModel()
        self.stats = FlashStats()
        # Per-request op tracing: a cache manager shares one recorder
        # across its chip and disk so completions carry the full,
        # in-order operation trace of each request.
        self.op_recorder = OpRecorder()
        # Optional fault hook: when set, every page program ticks the
        # injector at its BEFORE/AFTER durability boundaries so a crash
        # (or torn program) can fire mid-operation.
        self.crash_injector: Optional[CrashInjector] = None
        geo = self.geometry
        self._pages_per_block = geo.pages_per_block
        #: Every block by pbn, for lookups without the plane hop.
        self.blocks = [
            EraseBlock(pbn, geo.pages_per_block) for pbn in range(geo.total_blocks)
        ]
        #: Free erased blocks over all planes; the planes keep it.
        self.free_total = geo.total_blocks
        self.planes: List[Plane] = [
            Plane(plane_id, [self.blocks[pbn] for pbn in geo.blocks_in_plane(plane_id)],
                  chip=self)
            for plane_id in range(geo.planes)
        ]
        # The timing model is frozen, so per-op costs are constants.
        self._read_cost_us = self.timing.read_cost()
        self._write_cost_us = self.timing.write_cost()
        self._erase_cost_us = self.timing.erase_cost()
        self._oob_read_cost_us = self.timing.oob_read_cost()
        self._pages_per_plane = self.geometry.pages_per_block * self.geometry.blocks_per_plane
        self._total_pages = geo.total_pages
        self._total_blocks = geo.total_blocks
        self._write_seq = 0
        self._build_ops()

    # ---- lookup helpers --------------------------------------------------

    def block(self, pbn: int) -> EraseBlock:
        """Erase block ``pbn``."""
        if not 0 <= pbn < self._total_blocks:
            self.geometry.check_pbn(pbn)
        return self.blocks[pbn]

    def locate(self, ppn: int) -> Tuple[EraseBlock, int]:
        """(block, offset) holding ``ppn`` (no timing cost; simulator
        internal)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, offset = divmod(ppn, self._pages_per_block)
        return self.blocks[pbn], offset

    def next_seq(self) -> int:
        """Monotonic write sequence number stamped into each page's OOB."""
        self._write_seq += 1
        return self._write_seq

    def _build_ops(self) -> None:
        """Prebuild each plane's page read, page write and erase op."""
        keys = [plane.resource_key for plane in self.planes]
        self._read_ops = [DeviceOp(k, "page_read", self._read_cost_us) for k in keys]
        self._write_ops = [DeviceOp(k, "page_write", self._write_cost_us) for k in keys]
        self._erase_ops = [DeviceOp(k, "erase", self._erase_cost_us) for k in keys]

    def set_resource_shard(self, shard_id: int) -> None:
        """Re-key this chip's plane resources as ``"s<k>:plane:<n>"``.

        A sharded cache array calls this on each member chip so that
        operations on different shards' planes land on distinct
        availability timelines in the replay engine — physically
        separate devices must never queue behind one another.
        """
        for plane in self.planes:
            plane.resource_key = f"s{shard_id}:plane:{plane.plane_id}"
        self._build_ops()

    # ---- timed operations -------------------------------------------------

    def read_page(self, ppn: int) -> Tuple[Any, float]:
        """Read page ``ppn``; returns (data, cost_us).

        Reading a FREE or INVALID page is legal at the NAND level (it
        returns whatever is in the cells); the FTL above decides whether
        that is meaningful.
        """
        block, offset = self.locate(ppn)
        cost = self._read_cost_us
        self.stats.page_reads += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self.op_recorder.record(self._read_ops[ppn // self._pages_per_plane])
        return block.data[offset], cost

    def program_page(
        self, ppn: int, data: Any, lbn: Optional[int], dirty: bool = False, seq: int = 0
    ) -> float:
        """Program page ``ppn`` with data + OOB record; returns cost_us.

        Enforces NAND constraints: the page must be FREE and must not lie
        below the block's write pointer.  The OOB write is free
        (overlapped with the data program, per the paper's assumption).
        The OOB checksum binding the payload to its logical address is
        stamped here, so every programmed page is verifiable at recovery.
        """
        geo = self.geometry
        geo.check_ppn(ppn)
        pbn, offset = divmod(ppn, geo.pages_per_block)
        block = self.blocks[pbn]
        injector = self.crash_injector
        if injector is not None:
            try:
                injector.tick(CrashPoint.BEFORE_DATA_WRITE)
            except CrashError:
                if injector.torn:
                    # Power failed mid-program: the cells read back as
                    # garbage under an OOB record that can never verify,
                    # and the page cannot be reprogrammed before an erase.
                    block.program(offset, TORN_PAGE, None, checksum=0)
                    self.stats.page_writes += 1
                raise
        block.program(offset, data, lbn, dirty, seq, crc32_of_payload(lbn, data))
        cost = self._write_cost_us
        self.stats.page_writes += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self.op_recorder.record(self._write_ops[pbn // geo.blocks_per_plane])
        if injector is not None:
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        return cost

    def copy_pages(
        self, dst_pbn: int, copies: Iterable[Tuple[int, int, Any]], cost: float = 0.0
    ) -> float:
        """Copy a merge's pages into block ``dst_pbn`` in one call.

        Each ``(src_ppn, dst_offset, lbn)`` is a :meth:`read_page` then a
        :meth:`program_page` of its data under ``lbn``, the source's
        dirty flag and the next sequence: same NAND rules, crash
        boundaries, stats and op order.  A copy that keeps the source's
        OOB ``lbn`` is a copyback and carries the source's stored
        checksum, so damage the source already holds stays detectable;
        a relabelling copy re-stamps it.  No source may be a page this
        call programs.  Returns ``cost`` plus each op's time, in op
        order.
        """
        block, stats, injector = self.block(dst_pbn), self.stats, self.crash_injector
        blocks, pages_per_block = self.blocks, self._pages_per_block
        pages_per_plane, total_pages = self._pages_per_plane, self.geometry.total_pages
        read_cost, write_cost = self._read_cost_us, self._write_cost_us
        read_ops = self._read_ops
        write_op = self._write_ops[dst_pbn // self.geometry.blocks_per_plane]
        # Page columns are written in place; block state, stats and ops
        # gather in locals and are committed once, however the loop ends.
        data_col, lbns_col, seqs_col, checksums_col = (
            block.data, block.lbns, block.seqs, block.checksums)
        write_pointer, sequential, first_lbn = (
            block.write_pointer, block.sequential, block.first_lbn)
        seq, busy = self._write_seq, stats.busy_us
        programmed = dirty_bits = reads = 0
        torn_offset = None
        ops: List[DeviceOp] = []
        try:
            for src_ppn, offset, lbn in copies:
                if not 0 <= src_ppn < total_pages:
                    self.geometry.check_ppn(src_ppn)
                src, src_offset = blocks[src_ppn // pages_per_block], src_ppn % pages_per_block
                reads += 1
                busy += read_cost
                cost += read_cost
                read_op = read_ops[src_ppn // pages_per_plane]
                seq += 1
                if injector is not None:
                    try:
                        injector.tick(CrashPoint.BEFORE_DATA_WRITE)
                    except CrashError:
                        ops.append(read_op)
                        if injector.torn:
                            torn_offset = offset
                        raise
                if offset < write_pointer:
                    ops.append(read_op)
                    raise out_of_order_program(dst_pbn, offset, write_pointer)
                data = src.data[src_offset]
                bit = 1 << offset
                data_col[offset] = data
                lbns_col[offset] = lbn
                seqs_col[offset] = seq
                if lbn == src.lbns[src_offset]:
                    checksums_col[offset] = src.checksums[src_offset]
                else:
                    checksums_col[offset] = crc32_of_payload(lbn, data)
                programmed |= bit
                if src.dirty >> src_offset & 1:
                    dirty_bits |= bit
                if sequential:
                    if lbn is None or offset != write_pointer:
                        sequential = False
                    elif offset == 0:
                        first_lbn = lbn
                    elif first_lbn is None or lbn != first_lbn + offset:
                        sequential = False
                write_pointer = offset + 1
                busy += write_cost
                cost += write_cost
                ops += (read_op, write_op)
                if injector is not None:
                    injector.tick(CrashPoint.AFTER_DATA_WRITE)
        finally:
            writes = programmed.bit_count()
            block.written |= programmed
            block.valid |= programmed
            block.dirty |= dirty_bits
            block.valid_count += writes
            block.dirty_count += dirty_bits.bit_count()
            block.write_pointer = write_pointer
            block.sequential = sequential
            block.first_lbn = first_lbn
            self._write_seq = seq
            stats.page_reads += reads
            stats.page_writes += writes
            stats.busy_us = busy
            self.op_recorder.record(*ops)
            if torn_offset is not None:
                # Torn mid-program, exactly as in program_page.
                block.program(torn_offset, TORN_PAGE, None, checksum=0)
                stats.page_writes += 1
        return cost

    def erase_block(self, pbn: int) -> float:
        """Erase block ``pbn`` and return it to its plane's free list."""
        block = self.block(pbn)
        block.erase()
        plane_id = pbn // self.geometry.blocks_per_plane
        self.planes[plane_id].release(block)
        cost = self._erase_cost_us
        self.stats.block_erases += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self.op_recorder.record(self._erase_ops[plane_id])
        return cost

    def scan_oob(self, ppn: int) -> Tuple[Optional[int], bool, int, float]:
        """Read only the OOB area of ``ppn``; returns (lbn, dirty, seq,
        cost_us).

        Nothing in the simulator calls it yet: native recovery prices its
        OOB scan arithmetically (``SSD.oob_recovery_scan_us``).  It is
        kept for a native recovery that actually reads the OOB areas
        (ROADMAP.md item 11, "native recovery that runs")."""
        block, offset = self.locate(ppn)
        cost = self._oob_read_cost_us
        self.stats.oob_scans += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            plane = self.planes[ppn // self._pages_per_plane]
            self.op_recorder.record(DeviceOp(plane.resource_key, "oob_scan", cost))
        return block.lbns[offset], bool(block.dirty >> offset & 1), block.seqs[offset], cost

    # ---- wear accounting ----------------------------------------------------

    def wear_differential(self) -> int:
        """Max minus min per-block erase count (Table 5's "Wear Diff.")."""
        counts = [
            block.erase_count
            for plane in self.planes
            for block in plane.blocks.values()
        ]
        return max(counts) - min(counts) if counts else 0

    def __repr__(self) -> str:
        return (
            f"FlashChip(planes={self.geometry.planes}, "
            f"blocks={self.geometry.total_blocks}, "
            f"free={self.free_total})"
        )
