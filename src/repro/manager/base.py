"""Cache-manager interface and shared statistics.

``read``/``write`` return a :class:`~repro.sim.completion.Completion` —
a ``float`` subclass whose value is the request's simulated service
latency in microseconds, carrying the structured operation trace the
event-driven replay engine schedules onto flash planes and the disk.
Legacy call sites that treat the return value as a bare float keep
working unchanged.

Subclasses implement ``_read_impl``/``_write_impl``, which sum the
plain float costs their devices return; the base class brackets them
with the request's one op capture across the manager's devices and
wraps the result.  No device below opens a capture of its own.

The base class also holds the one write-back cleaning policy of §4.4,
shared by both write-back systems: a :class:`DirtyBlockTable`, a dirty
limit (the ``dirty_limit`` gauge) and the loop that, past the limit,
cleans LRU dirty blocks together with the contiguous run around each.
A subclass supplies only ``_clean_block`` and the limit.  The table
checksums a block added with its data (FlashTier); native adds blocks
without data, so its entries carry no checksum.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.manager.dirty_table import DirtyBlockTable
from repro.sim.completion import Completion, OpRecorder
from repro.stats.counters import Counters, counter, gauge


@dataclass
class ManagerStats(Counters):
    """Hit/miss accounting at the cache-manager level."""

    reads: int = counter("Read requests the cache manager served.")
    writes: int = counter("Write requests the cache manager served.")
    read_hits: int = counter("Reads served from the cache device.")
    read_misses: int = counter("Reads that had to go to disk.")
    writebacks: int = counter("Dirty blocks written back to disk.")
    cleans: int = counter(
        "clean commands issued to the SSC (write-back manager).")
    evictions: int = counter(
        "Manager-initiated evictions (native manager replacement).")
    metadata_writes: int = counter(
        "Persisted manager-metadata updates (native write-back mode).")
    forced_cleans: int = counter(
        "Whole-table cleans after the SSC refused a write as full; each "
        "lowers dirty_limit to 75% (FlashTier write-back).")
    dirty_limit: int = gauge(
        "Dirty-block count above which the manager cleans (0 for "
        "FlashTier write-through, which holds no dirty blocks).")


class CacheManager(ABC):
    """A block-layer cache manager over a cache device and a disk.

    ``read``/``write`` return the simulated service time as a
    :class:`Completion`; data integrity is the manager's responsibility
    (a read must always return the newest written data, wherever it
    lives).
    """

    #: Optional trace bus (repro.obs), read by the replay engine for
    #: op.issue/op.device emissions; None keeps replay zero-cost.
    tracer = None

    def __init__(self, dirty_limit: int = 0):
        self.stats = ManagerStats(dirty_limit=dirty_limit)
        self.dirty_table = DirtyBlockTable()
        self._recorder = OpRecorder()

    def _attach_devices(self, *devices: Any) -> None:
        """Share this manager's op recorder with its devices.

        Every object owning timed operations (the flash chip, the disk)
        records into one recorder, so a request's operation trace comes
        back in execution order across both tiers.
        """
        for device in devices:
            device.op_recorder = self._recorder

    # ------------------------------------------------------------------
    # Public interface: capture-bracketed templates
    # ------------------------------------------------------------------

    def read(self, lbn: int) -> Tuple[Any, Completion]:
        """Read disk block ``lbn``; returns (data, completion)."""
        self._recorder.begin()
        try:
            data, cost, hit = self._read_impl(lbn)
        except BaseException:
            self._recorder.end()
            raise
        return data, Completion(cost, self._recorder.end(), hit=hit)

    def write(self, lbn: int, data: Any) -> Completion:
        """Write disk block ``lbn``; returns the completion."""
        self._recorder.begin()
        try:
            cost = self._write_impl(lbn, data)
        except BaseException:
            self._recorder.end()
            raise
        return Completion(cost, self._recorder.end())

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------

    @abstractmethod
    def _read_impl(self, lbn: int) -> Tuple[Any, float, Optional[bool]]:
        """Serve a read; returns (data, latency_us, cache_hit)."""

    @abstractmethod
    def _write_impl(self, lbn: int, data: Any) -> float:
        """Serve a write; returns latency_us."""

    @abstractmethod
    def host_memory_bytes(self) -> int:
        """Modeled host DRAM the manager needs for per-block state."""

    # ------------------------------------------------------------------
    # Write-back cleaning (§4.4)
    # ------------------------------------------------------------------

    def _clean_block(self, lbn: int) -> float:
        """Write dirty ``lbn`` back to disk and drop it from
        ``dirty_table``; returns latency_us.  Only a manager that adds
        blocks to the table needs it."""
        raise NotImplementedError

    def _enforce_dirty_threshold(self) -> float:
        """Past the dirty limit, clean LRU dirty blocks, each with the
        contiguous run around it so the run merges into one sequential
        disk write."""
        table = self.dirty_table
        cost = 0.0
        while len(table) > self.stats.dirty_limit:
            for run_lbn in table.contiguous_run(table.lru_block()):
                cost += self._clean_block(run_lbn)
        return cost

    def flush_dirty(self) -> float:
        """Write every dirty cached block back to disk (clean shutdown)."""
        cost = 0.0
        for lbn in self.dirty_table.iter_lru():
            cost += self._clean_block(lbn)
        return cost
