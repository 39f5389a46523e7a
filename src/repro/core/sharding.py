"""Sharded cache arrays: N independent SSCs behind one interface.

A single SSC simulates one device controller; real deployments stripe a
cache across several drives (or several independent channels of one
drive) so that capacity, bandwidth and — critically for FlashTier's
argument — *recovery* scale with the number of devices.
:class:`ShardedSSC` partitions the disk LBN space across ``N`` member
SSCs by one rule: erase group ``lbn // pages_per_block`` lives on shard
``group % N``.  Routing at erase-group granularity keeps a sparse group
on one shard, so block-level mapping density is preserved; within a
group, placement is unchanged.  The array fans the six-operation SSC
interface out to the owning shard and sums its members' statistics.
The shards recover concurrently, so array recovery time is the *max*
over shards, not the sum.

The array deliberately adds **zero** latency of its own: every cost a
caller sees is a member device's cost.  At ``shards=1`` the array is a
transparent pass-through — bit-for-bit identical to driving the single
device directly — which is what the differential test layer checks.

Member chips are re-keyed (:meth:`~repro.flash.chip.FlashChip.
set_resource_shard`) as ``"s<k>:plane:<n>"`` only when ``N > 1``, so
different shards' planes occupy distinct availability timelines in the
event-driven replay engine — physically separate devices never queue
behind one another — while the ``N == 1`` array keeps the unsharded
key names (and therefore identical busy maps) of a lone device.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.errors import ConfigError, CrashError
from repro.ftl.base import FTLStats
from repro.flash.chip import FlashStats
from repro.sim.crash import CrashInjector
from repro.ssc.device import SolidStateCache


class _ShardedChipView:
    """The array's chips presented as one chip-like object.

    Cache managers attach their op recorder to ``device.chip``; this
    view fans it out across the member chips and sums their counters.
    """

    def __init__(self, chips: Sequence[Any]):
        self._chips = list(chips)

    @property
    def op_recorder(self):
        return self._chips[0].op_recorder

    @op_recorder.setter
    def op_recorder(self, recorder) -> None:
        for chip in self._chips:
            chip.op_recorder = recorder

    @property
    def stats(self) -> FlashStats:
        return FlashStats.total(chip.stats for chip in self._chips)

    def __repr__(self) -> str:
        return f"_ShardedChipView(chips={len(self._chips)})"


class ShardedSSC:
    """An array of SSCs behind the single-device six-operation interface.

    Data-path operations route to the owning shard (erase group
    ``lbn // pages_per_block`` on shard ``group % N``) and return that
    shard's cost unchanged (the array adds no latency of its own).
    ``exists`` fans out to every shard and merges; its cost is the *max*
    over shards because independent devices answer their portion of the
    scan concurrently.  The same max rule applies to
    every whole-array maintenance operation (``checkpoint_now``,
    ``shutdown``, ``background_collect``, ``recover``); ``crash`` sums
    the lost records because every shard's volatile buffer is lost.
    """

    #: Optional trace bus (repro.obs); None keeps routing zero-cost.
    tracer = None

    def __init__(self, shards: Sequence[SolidStateCache]):
        if not shards:
            raise ConfigError("a sharded array needs at least one shard")
        self.shards: List[SolidStateCache] = list(shards)
        self.pages_per_block = self.shards[0].chip.geometry.pages_per_block
        for shard in self.shards:
            if shard.chip.geometry.pages_per_block != self.pages_per_block:
                raise ConfigError(
                    "array shards must share one erase-block geometry"
                )
        for shard_id, shard in enumerate(self.shards):
            if not shard.name:
                shard.set_name(f"shard{shard_id}")
            # Distinct availability timelines per member device — but a
            # one-member array keeps unsharded keys, so it is
            # bit-for-bit identical to the bare device (busy maps
            # included).
            if len(self.shards) > 1:
                shard.chip.set_resource_shard(shard_id)
        self.chip = _ShardedChipView([shard.chip for shard in self.shards])
        #: Per-shard recovery costs of the most recent :meth:`recover`.
        self.last_recovery_costs: Tuple[float, ...] = ()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, lbn: int) -> SolidStateCache:
        """The member device owning ``lbn``."""
        return self.shards[lbn // self.pages_per_block % len(self.shards)]

    def _routed(self, lbn: int) -> SolidStateCache:
        """Data-path routing: like :meth:`shard_of`, plus the trace
        event (introspection helpers route silently)."""
        shard_id = lbn // self.pages_per_block % len(self.shards)
        if self.tracer is not None:
            self.tracer.emit("shard.route", lane="router",
                             lbn=lbn, shard=shard_id)
        return self.shards[shard_id]

    # ------------------------------------------------------------------
    # Introspection (sums over members)
    # ------------------------------------------------------------------

    @property
    def config(self):
        """The member devices' configuration (homogeneous array)."""
        return self.shards[0].config

    @property
    def name(self) -> str:
        return f"array[{len(self.shards)}]"

    @property
    def stats(self) -> FTLStats:
        return FTLStats.total(shard.engine.stats for shard in self.shards)

    @property
    def capacity_pages(self) -> int:
        return sum(shard.capacity_pages for shard in self.shards)

    @property
    def last_recovery_discarded(self) -> int:
        return sum(shard.last_recovery_discarded for shard in self.shards)

    def cached_blocks(self) -> int:
        return sum(shard.cached_blocks() for shard in self.shards)

    def contains(self, lbn: int) -> bool:
        return self.shard_of(lbn).contains(lbn)

    def is_dirty(self, lbn: int) -> bool:
        return self.shard_of(lbn).is_dirty(lbn)

    def device_memory_bytes(self) -> int:
        return sum(shard.device_memory_bytes() for shard in self.shards)

    # ------------------------------------------------------------------
    # The six-operation interface (routed)
    # ------------------------------------------------------------------

    def _power_fail_all(self) -> None:
        """A power cut is array-wide: when any member raises
        :class:`CrashError`, every other member loses its volatile
        state too (the erring shard already crashed itself)."""
        for shard in self.shards:
            shard.crash()

    def read(self, lbn: int):
        return self._routed(lbn).read(lbn)

    def write_dirty(self, lbn: int, data: Any):
        try:
            return self._routed(lbn).write_dirty(lbn, data)
        except CrashError:
            self._power_fail_all()
            raise

    def write_clean(self, lbn: int, data: Any):
        try:
            return self._routed(lbn).write_clean(lbn, data)
        except CrashError:
            self._power_fail_all()
            raise

    def evict(self, lbn: int):
        try:
            return self._routed(lbn).evict(lbn)
        except CrashError:
            self._power_fail_all()
            raise

    def clean(self, lbn: int):
        try:
            return self._routed(lbn).clean(lbn)
        except CrashError:
            self._power_fail_all()
            raise

    def exists(self, start_lbn: int, end_lbn: int) -> Tuple[List[int], float]:
        """Dirty blocks in [start_lbn, end_lbn) across every shard.

        Each shard scans its own device memory concurrently, so the
        scan costs the slowest shard, not the sum.
        """
        dirty: List[int] = []
        cost = 0.0
        for shard in self.shards:
            shard_dirty, shard_cost = shard.exists(start_lbn, end_lbn)
            dirty.extend(shard_dirty)
            cost = max(cost, shard_cost)
        dirty.sort()
        return dirty, cost

    # ------------------------------------------------------------------
    # Whole-array maintenance (concurrent members: max rule)
    # ------------------------------------------------------------------

    def checkpoint_now(self) -> float:
        try:
            return max(shard.checkpoint_now() for shard in self.shards)
        except CrashError:
            self._power_fail_all()
            raise

    def shutdown(self) -> float:
        try:
            return max(shard.shutdown() for shard in self.shards)
        except CrashError:
            self._power_fail_all()
            raise

    def background_collect(self, budget_us: float) -> float:
        """Give every shard the idle window; they collect concurrently."""
        try:
            return max(shard.background_collect(budget_us) for shard in self.shards)
        except CrashError:
            self._power_fail_all()
            raise

    # ------------------------------------------------------------------
    # Crash and recovery
    # ------------------------------------------------------------------

    def attach_injector(self, injector: CrashInjector) -> None:
        """Wire a crash injector into every member's durability
        boundaries (to fault one member alone, attach to it directly)."""
        for shard in self.shards:
            shard.attach_injector(injector)

    def crash(self) -> int:
        """Power-fail every member; returns total lost log records."""
        return sum(shard.crash() for shard in self.shards)

    def recover(self) -> float:
        """Recover every member; returns the array recovery time.

        Each shard's roll-forward is independent, so the array recovers
        them concurrently and is ready when the slowest shard is —
        ``max`` over shards, not the sum.  Per-shard costs are stored in
        :attr:`last_recovery_costs`; their sum is the time one
        controller recovering members back-to-back would take.
        """
        from repro.ssc.recovery import recover_device

        costs = tuple(recover_device(shard) for shard in self.shards)
        self.last_recovery_costs = costs
        return max(costs)

    def __repr__(self) -> str:
        return (
            f"ShardedSSC(shards={len(self.shards)}, "
            f"cached={self.cached_blocks()} blocks)"
        )
