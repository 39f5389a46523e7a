"""The flash chip: planes wired to a timing model and wear accounting.

The chip is the boundary between FTL logic (above) and the NAND model
(below).  Every operation returns its service time in microseconds so the
device layer can account request latency; the chip itself also keeps
aggregate statistics (reads, programs, erases, wear spread) that the
evaluation's Table 5 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CrashError
from repro.flash.block import EraseBlock
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBData, Page, PageState
from repro.flash.plane import Plane
from repro.flash.timing import TimingModel
from repro.sim.completion import OpRecorder
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
        self.planes: List[Plane] = []
        pages = self.geometry.pages_per_block
        for plane_id in range(self.geometry.planes):
            blocks = [
                EraseBlock(pbn, pages)
                for pbn in self.geometry.blocks_in_plane(plane_id)
            ]
            self.planes.append(Plane(plane_id, blocks))
        # The timing model is frozen, so per-op costs are constants.
        self._read_cost_us = self.timing.read_cost()
        self._write_cost_us = self.timing.write_cost()
        self._erase_cost_us = self.timing.erase_cost()
        self._oob_read_cost_us = self.timing.oob_read_cost()
        self._write_seq = 0

    # ---- lookup helpers --------------------------------------------------

    def plane_of_block(self, pbn: int) -> Plane:
        """Plane owning block ``pbn``."""
        return self.planes[self.geometry.pbn_to_plane(pbn)]

    def block(self, pbn: int) -> EraseBlock:
        """Erase block ``pbn``."""
        geo = self.geometry
        geo.check_pbn(pbn)
        return self.planes[pbn // geo.blocks_per_plane].blocks[pbn]

    def page(self, ppn: int) -> Page:
        """Page object for ``ppn`` (no timing cost; simulator internal)."""
        geo = self.geometry
        geo.check_ppn(ppn)
        pbn = ppn // geo.pages_per_block
        plane = self.planes[pbn // geo.blocks_per_plane]
        return plane.blocks[pbn].pages[ppn - pbn * geo.pages_per_block]

    def next_seq(self) -> int:
        """Monotonic write sequence number stamped into each page's OOB."""
        self._write_seq += 1
        return self._write_seq

    def _plane_id_of_ppn(self, ppn: int) -> int:
        return ppn // self.geometry.pages_per_block // self.geometry.blocks_per_plane

    def _record_op(self, plane_id: int, kind: str, cost: float) -> None:
        self.op_recorder.record(self.planes[plane_id].resource_key, kind, cost)

    def set_resource_shard(self, shard_id: int) -> None:
        """Re-key this chip's plane resources as ``"s<k>:plane:<n>"``.

        A sharded cache array calls this on each member chip so that
        operations on different shards' planes land on distinct
        availability timelines in the replay engine — physically
        separate devices must never queue behind one another.
        """
        for plane in self.planes:
            plane.resource_key = f"s{shard_id}:plane:{plane.plane_id}"

    # ---- availability ------------------------------------------------------

    def resources(self) -> Dict[str, Plane]:
        """Each plane's availability timeline, by resource key."""
        return {plane.resource_key: plane for plane in self.planes}

    # ---- timed operations -------------------------------------------------

    def read_page(self, ppn: int) -> Tuple[Any, Optional[OOBData], float]:
        """Read page ``ppn``; returns (data, oob, cost_us).

        Reading a FREE or INVALID page is legal at the NAND level (it
        returns whatever is in the cells); the FTL above decides whether
        that is meaningful.
        """
        page = self.page(ppn)
        cost = self._read_cost_us
        self.stats.page_reads += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self._record_op(self._plane_id_of_ppn(ppn), "page_read", cost)
        return page.data, page.oob, cost

    def program_page(self, ppn: int, data: Any, oob: OOBData) -> float:
        """Program page ``ppn`` with data + OOB; returns cost_us.

        Enforces NAND constraints: the page must be FREE and must be the
        block's next sequential page.  The OOB write is free (overlapped
        with the data program, per the paper's assumption).  The OOB
        checksum binding the payload to its logical address is stamped
        here, so every programmed page is verifiable at recovery.
        """
        geo = self.geometry
        geo.check_ppn(ppn)
        pbn, offset = divmod(ppn, geo.pages_per_block)
        injector = self.crash_injector
        if injector is not None:
            try:
                injector.tick(CrashPoint.BEFORE_DATA_WRITE)
            except CrashError:
                if injector.torn:
                    # Power failed mid-program: the page holds garbage.
                    self.block(pbn).program_torn(offset)
                    self.stats.page_writes += 1
                raise
        if oob.checksum is None:
            oob.checksum = crc32_of_payload(oob.lbn, data)
        # ppn was range-checked above; skip block()'s redundant check.
        self.planes[pbn // geo.blocks_per_plane].blocks[pbn].program(
            offset, data, oob
        )
        cost = self._write_cost_us
        self.stats.page_writes += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self._record_op(pbn // self.geometry.blocks_per_plane, "page_write", cost)
        if injector is not None:
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        return cost

    def erase_block(self, pbn: int) -> float:
        """Erase block ``pbn`` and return it to its plane's free list."""
        block = self.block(pbn)
        block.erase()
        self.plane_of_block(pbn).release(block)
        cost = self._erase_cost_us
        self.stats.block_erases += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self._record_op(pbn // self.geometry.blocks_per_plane, "erase", cost)
        return cost

    def scan_oob(self, ppn: int) -> Tuple[Optional[OOBData], "PageState", float]:
        """Read only the OOB area of ``ppn`` (used by native recovery)."""
        page = self.page(ppn)
        cost = self._oob_read_cost_us
        self.stats.oob_scans += 1
        self.stats.busy_us += cost
        if self.op_recorder.active:
            self._record_op(self._plane_id_of_ppn(ppn), "oob_scan", cost)
        return page.oob, page.state, cost

    # ---- wear accounting ----------------------------------------------------

    def total_erases(self) -> int:
        """Sum of erase counts over every block."""
        return sum(
            block.erase_count
            for plane in self.planes
            for block in plane.blocks.values()
        )

    def wear_differential(self) -> int:
        """Max minus min per-block erase count (Table 5's "Wear Diff.")."""
        counts = [
            block.erase_count
            for plane in self.planes
            for block in plane.blocks.values()
        ]
        return max(counts) - min(counts) if counts else 0

    def free_blocks_total(self) -> int:
        """Free erased blocks summed over all planes."""
        return sum(plane.free_count for plane in self.planes)

    def __repr__(self) -> str:
        return (
            f"FlashChip(planes={self.geometry.planes}, "
            f"blocks={self.geometry.total_blocks}, "
            f"free={self.free_blocks_total()})"
        )
