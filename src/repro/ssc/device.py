"""The solid-state cache device: the paper's six-operation interface.

    write-dirty  Insert new block or update existing block with dirty data.
    write-clean  Insert new block or update existing block with clean data.
    read         Read block if present or return error.
    evict        Evict block immediately.
    clean        Allow future eviction of block.
    exists       Test for presence of dirty blocks.

Durability contract (paper §4.2.1/§5 and the three guarantees of §3.5):

* ``write-dirty`` and ``evict`` are synchronous: their mapping changes
  are durable before the call returns.
* ``write-clean`` may be buffered; if power fails first, the effect is
  as if the block had been silently evicted.  If the write *replaces*
  existing data at the same address, the mapping change is made durable
  before completion so a read can never return the stale version.
* ``clean`` is asynchronous; after a crash, cleaned blocks may revert
  to dirty.
* Garbage collection erases a block only once every record that
  superseded a mapping into it is durable: each erase first forces
  whatever the log still buffers (write-ahead rule), so durable state
  never references erased flash.  Records appended after the erase stay
  under their operation's contract above; a write-clean whose GC erased
  a block may still be lost "as if silently evicted".

Every data-path operation returns its service time in microseconds as
a plain float.  The planes it occupied are recorded on the chip's op
recorder; a cache manager's capture turns them into the request's
:class:`~repro.sim.completion.Completion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigError, CrashError, NotPresentError, RecoveryError
from repro.flash.chip import FlashChip
from repro.sim.crash import CrashInjector
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.ssc import recovery as recovery_mod
from repro.ssc.checkpoint import Checkpoint, CheckpointStore, checkpoint_bytes
from repro.ssc.engine import CacheFTL, CacheFTLConfig, EvictionPolicy
from repro.ssc.log import (
    RECORD_BYTES,
    NullOperationLog,
    NvramOperationLog,
    OperationLog,
    RecordKind,
)

#: Checkpoint once the durable log outgrows this share of the latest
#: checkpoint's size (§6.4: "if the log size exceeds two-thirds of the
#: checkpoint size or after 1 million writes, whichever occurs
#: earlier").
CHECKPOINT_LOG_RATIO = 2.0 / 3.0


@dataclass(frozen=True)
class SSCConfig(CacheFTLConfig):
    """Device configuration: the cache engine's tunables plus the
    consistency ones.

    ``clean_durability`` selects the write-clean contract:

    * ``"replace-sync"`` (default, §4.2.1): buffered unless the write
      replaces existing data.
    * ``"sync"``: always synchronous (the FlashTier-C/D line of Fig. 4).
    * ``"buffered"``: always buffered (the FlashTier-D line of Fig. 4).

    ``consistency=False`` disables logging and checkpointing entirely
    (the no-consistency baseline of Fig. 4 and the configuration used
    for the garbage-collection experiments of Fig. 6 / Table 5).
    """

    consistency: bool = True
    clean_durability: str = "replace-sync"
    group_commit_ops: int = 10_000
    checkpoint_interval_writes: int = 1_000_000
    nvram: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.clean_durability not in ("replace-sync", "sync", "buffered"):
            raise ConfigError(
                "clean_durability must be replace-sync, sync or buffered"
            )
        if self.group_commit_ops < 1:
            raise ConfigError("group_commit_ops must be >= 1")
        if self.checkpoint_interval_writes < 1:
            raise ConfigError("checkpoint_interval_writes must be >= 1")


class SolidStateCache:
    """A flash cache device exposing the SSC interface."""

    #: Optional trace bus (repro.obs); None keeps operations zero-cost.
    tracer = None

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[TimingModel] = None,
        config: Optional[SSCConfig] = None,
        name: str = "",
    ):
        self.config = config or SSCConfig()
        self.name = name
        self.chip = FlashChip(geometry, timing)
        geometry = self.chip.geometry
        if not self.config.consistency:
            log_cls = NullOperationLog
        elif self.config.nvram:
            log_cls = NvramOperationLog
        else:
            log_cls = OperationLog
        self.oplog = log_cls(
            self.chip.timing, geometry.page_size, geometry.pages_per_block,
            name=f"{name}/log" if name else "",
        )
        self.engine = CacheFTL(self.chip, self.oplog, self.config)
        self.checkpoints = CheckpointStore(
            self.chip.timing, geometry.page_size, geometry.pages_per_block,
            name=f"{name}/checkpoint" if name else "",
        )
        self._writes_since_checkpoint = 0
        #: Durable log bytes beyond which the next checkpoint is due:
        #: :data:`CHECKPOINT_LOG_RATIO` times the latest checkpoint's size.
        #: None means "derive it from ``checkpoints.latest()``"; whatever
        #: changes the slots other than checkpoint_now (recovery, fault
        #: injection) sets it back to None.
        self.checkpoint_trigger_bytes: Optional[float] = None
        self._crashed = False
        # Fault-injection hook (crash-state explorer) and the count of
        # damaged log records the last recovery discarded.
        self.injector: Optional[CrashInjector] = None
        self.last_recovery_discarded = 0

    def set_name(self, name: str) -> None:
        """Label this device and its durable stores (array shards)."""
        self.name = name
        self.oplog.name = f"{name}/log" if name else ""
        self.checkpoints.name = f"{name}/checkpoint" if name else ""

    def attach_injector(self, injector: CrashInjector) -> None:
        """Wire a crash injector into every durability boundary.

        After this, any armed tick inside the chip, the operation log or
        the checkpoint store raises :class:`CrashError` through the
        in-flight operation; the device transitions to the crashed state
        (volatile log buffer lost) exactly as a power failure would.
        """
        self.injector = injector
        self.chip.crash_injector = injector
        self.oplog.injector = injector
        self.checkpoints.injector = injector

    @classmethod
    def ssc(cls, geometry: Optional[FlashGeometry] = None, **overrides) -> "SolidStateCache":
        """The paper's *SSC* configuration: SE-Util, fixed 7 % log pool."""
        return cls(geometry, config=SSCConfig(policy=EvictionPolicy.UTIL, **overrides))

    @classmethod
    def ssc_r(cls, geometry: Optional[FlashGeometry] = None, **overrides) -> "SolidStateCache":
        """The paper's *SSC-R*: SE-Merge, log pool growable to 20 %."""
        return cls(geometry, config=SSCConfig(policy=EvictionPolicy.MERGE, **overrides))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self):
        return self.engine.stats

    @property
    def capacity_pages(self) -> int:
        """Raw page capacity (an SSC does not promise a logical size)."""
        return self.chip.geometry.total_pages

    def cached_blocks(self) -> int:
        return self.engine.cached_blocks()

    def contains(self, lbn: int) -> bool:
        """Presence test without device latency (host-side debugging)."""
        return self.engine.current_location(lbn) is not None

    def is_dirty(self, lbn: int) -> bool:
        return self.engine.is_dirty(lbn)

    def device_memory_bytes(self) -> int:
        return self.engine.device_memory_bytes()

    # ------------------------------------------------------------------
    # The six-operation interface
    # ------------------------------------------------------------------

    def read(self, lbn: int) -> Tuple[Any, float]:
        """Read ``lbn``; raises :class:`NotPresentError` if absent."""
        self._check_alive()
        location = self.engine.current_location(lbn)
        if location is None:
            raise NotPresentError(lbn)
        self.engine.stats.user_reads += 1
        return self.chip.read_page(location[2])

    def write_dirty(self, lbn: int, data: Any) -> float:
        """Write ``lbn`` as dirty; durable (data + mapping) on return."""
        self._check_alive()
        return self._guarded_write(lbn, data, dirty=True, sync=True)

    def write_clean(self, lbn: int, data: Any) -> float:
        """Write ``lbn`` as clean; buffering per ``clean_durability``."""
        self._check_alive()
        mode = self.config.clean_durability
        if mode == "sync":
            sync = True
        elif mode == "buffered":
            sync = False
        else:
            sync = self.engine.current_location(lbn) is not None
        return self._guarded_write(lbn, data, dirty=False, sync=sync)

    def evict(self, lbn: int) -> float:
        """Force ``lbn`` out of the cache; durable on return."""
        self._check_alive()
        try:
            cost = self.engine.trim(lbn)
            return cost + self._finish_op(sync=True)
        except CrashError:
            self.crash()
            raise

    def clean(self, lbn: int) -> float:
        """Mark ``lbn`` clean so the SSC may silently evict it later.

        Asynchronous: after a crash the block may revert to dirty.
        No-op if the block is absent.
        """
        self._check_alive()
        try:
            if self.engine.set_clean(lbn):
                self.oplog.append(RecordKind.CLEAN, lbn)
            return self._finish_op(sync=False)
        except CrashError:
            self.crash()
            raise

    def exists(self, start_lbn: int, end_lbn: int) -> Tuple[List[int], float]:
        """Return the dirty blocks within [start_lbn, end_lbn).

        Served entirely from device memory (paper: "the operation does
        not have to scan flash"), so it costs only the control delay.
        """
        self._check_alive()
        dirty: List[int] = []
        for lbn, ppn in self.engine.log_map.items():
            if start_lbn <= lbn < end_lbn:
                block, offset = self.chip.locate(ppn)
                if block.dirty >> offset & 1:
                    dirty.append(lbn)
        pages_per_block = self.engine.pages_per_block
        for group, pbn in self.engine.data_map.items():
            base = group * pages_per_block
            if base + pages_per_block <= start_lbn or base >= end_lbn:
                continue
            block = self.chip.block(pbn)
            bits = block.dirty & block.valid
            for offset in range(pages_per_block):
                lbn = base + offset
                if bits >> offset & 1 and start_lbn <= lbn < end_lbn:
                    dirty.append(lbn)
        dirty.sort()
        return dirty, self.chip.timing.control_delay_us

    # ------------------------------------------------------------------
    # Consistency plumbing
    # ------------------------------------------------------------------

    def _guarded_write(self, lbn: int, data: Any, dirty: bool, sync: bool) -> float:
        """Write ``lbn``, then apply the flush and checkpoint policy; a
        crash part-way powers the device off before it propagates."""
        try:
            cost = self.engine.write(lbn, data, dirty=dirty)
            self._writes_since_checkpoint += 1
            return cost + self._finish_op(sync=sync)
        except CrashError:
            self.crash()
            raise

    def _finish_op(self, sync: bool) -> float:
        """Apply the log-flush and checkpoint policy after an operation."""
        oplog = self.oplog
        if not oplog.enabled:
            return 0.0
        cost = 0.0
        if sync:
            cost += oplog.flush(sync=True)
        elif len(oplog.buffer) >= self.config.group_commit_ops:
            cost += oplog.flush(sync=False)
        return cost + self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> float:
        """Checkpoint when the durable log outgrows
        :data:`CHECKPOINT_LOG_RATIO` of the latest intact checkpoint or
        ``checkpoint_interval_writes`` writes have passed since it, and
        return the checkpoint's cost.

        Asked after every operation, so it compares against the cached
        :attr:`checkpoint_trigger_bytes`.  A cleared cache is derived
        once from ``checkpoints.latest()``; while no intact checkpoint
        exists, the base is the size a checkpoint taken now would have.
        """
        trigger = self.checkpoint_trigger_bytes
        if trigger is None:
            latest = self.checkpoints.latest()
            if latest is None:
                trigger = CHECKPOINT_LOG_RATIO * checkpoint_bytes(
                    len(self.engine.log_map), len(self.engine.data_map))
            else:
                trigger = CHECKPOINT_LOG_RATIO * latest.size_bytes()
                self.checkpoint_trigger_bytes = trigger
        if (
            len(self.oplog.flushed) * RECORD_BYTES > trigger
            or self._writes_since_checkpoint >= self.config.checkpoint_interval_writes
        ):
            return self.checkpoint_now()
        return 0.0

    def checkpoint_now(self) -> float:
        """Write a checkpoint of the forward maps and truncate the log."""
        if not self.oplog.enabled:
            return 0.0
        if self.tracer is not None:
            self.tracer.emit(
                "checkpoint.begin", lane=self.checkpoints.name or "checkpoint",
                seq=self.oplog.last_seq,
            )
        try:
            cost = self.oplog.flush(sync=True)
            # Every appended record is durable or was lost in a crash,
            # so the checkpoint covers them all.  The last durable seq
            # is 0 once a checkpoint has truncated the log.
            seq = self.oplog.last_seq
            checkpoint = Checkpoint(
                seq=seq,
                page_entries=self._page_entries_snapshot(),
                block_entries=self._block_entries_snapshot(),
            )
            cost += self.checkpoints.write(checkpoint)
        except CrashError:
            self.crash()
            raise
        previous = self.checkpoints.previous()
        if previous is None or previous.seq < seq:
            self.checkpoint_trigger_bytes = (
                CHECKPOINT_LOG_RATIO * checkpoint.size_bytes())
        else:
            # latest() keeps the other slot when it is as new (no
            # record was appended between the two checkpoints).
            self.checkpoint_trigger_bytes = None
        cost += self.oplog.truncate_through(seq)
        self._writes_since_checkpoint = 0
        return cost

    def _page_entries_snapshot(self) -> List[Tuple[int, int, bool]]:
        """(lbn, ppn, dirty) of every page mapping, in bucket order."""
        geometry, blocks = self.chip.geometry, self.chip.blocks
        total_pages, pages_per_block = geometry.total_pages, geometry.pages_per_block
        entries = []
        for lbn, ppn in self.engine.log_map.items():
            if not 0 <= ppn < total_pages:
                geometry.check_ppn(ppn)
            pbn, offset = divmod(ppn, pages_per_block)
            entries.append((lbn, ppn, bool(blocks[pbn].dirty >> offset & 1)))
        return entries

    def _block_entries_snapshot(self) -> List[Tuple[int, int, int, int]]:
        """(group, pbn, dirty & valid, valid) of every block mapping, in
        bucket order."""
        geometry, blocks = self.chip.geometry, self.chip.blocks
        total_blocks = geometry.total_blocks
        entries = []
        for group, pbn in self.engine.data_map.items():
            if not 0 <= pbn < total_blocks:
                geometry.check_pbn(pbn)
            block = blocks[pbn]
            entries.append((group, pbn, block.dirty & block.valid, block.valid))
        return entries

    # ------------------------------------------------------------------
    # Crash and recovery
    # ------------------------------------------------------------------

    def background_collect(self, budget_us: float) -> float:
        """Spend up to ``budget_us`` of idle time on garbage collection.

        Evicts and merges ahead of demand so foreground writes find
        free blocks waiting (§5 integrates silent eviction with
        background collection).  Returns the simulated time actually
        consumed; stops early when there is nothing useful to do.
        """
        self._check_alive()
        if budget_us < 0:
            raise ConfigError("budget_us must be >= 0")
        spent = 0.0
        try:
            while spent < budget_us:
                step = self.engine.background_step()
                if step == 0.0:
                    break
                spent += step
            spent += self._finish_op(sync=False)
        except CrashError:
            self.crash()
            raise
        return spent

    def shutdown(self) -> float:
        """Clean shutdown: flush the log and checkpoint the mapping.

        A cache restarted after this recovers with a minimal log replay
        — the warm-restart path that makes persistent caching pay off
        (§2: filling a 100 GB cache from a 500 IOPS disk takes 14 hours;
        reloading a checkpoint takes seconds).
        """
        if not self.oplog.enabled:
            return 0.0
        return self.checkpoint_now()

    def crash(self) -> int:
        """Simulate a power failure: volatile state is lost.

        Returns the number of buffered log records that were lost
        (always zero for an NVRAM-backed log).  Flash contents, flushed
        log records and checkpoints survive.
        """
        lost = self.oplog.drop_buffer()
        self._crashed = True
        return lost

    def recover(self) -> float:
        """Roll-forward recovery; returns the simulated recovery time.

        Requires ``consistency=True`` — a device that never persisted
        its mapping has nothing to recover and must be reset instead.
        Delegates to :func:`repro.ssc.recovery.recover_device`, the
        per-device entry point a sharded array invokes once per shard.
        """
        return recovery_mod.recover_device(self)

    def _check_alive(self) -> None:
        if self._crashed:
            raise RecoveryError("device crashed; call recover() first")

    def __repr__(self) -> str:
        policy = self.config.policy.name
        label = f"{self.name!r}, " if self.name else ""
        return (
            f"SolidStateCache({label}policy={policy}, "
            f"cached={self.engine.cached_blocks()} blocks)"
        )
