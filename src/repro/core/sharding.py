"""Sharded cache arrays: N independent cache devices behind one interface.

A single SSC simulates one device controller; real deployments stripe a
cache across several drives (or several independent channels of one
drive) so that capacity, bandwidth and — critically for FlashTier's
argument — *recovery* scale with the number of devices.  This module
partitions the disk LBN space across ``N`` member devices:

* :class:`ShardRouter` owns the partition function.  Routing is at
  erase-group granularity (``lbn // pages_per_block``) so a sparse
  group never splits across shards and block-level mapping density is
  preserved; within a group, placement is unchanged.  Two policies:
  ``"stripe"`` round-robins groups, ``"hash"`` assigns each group by a
  64-bit mix of its number.
* :class:`ShardedSSC` fans the six-operation SSC interface out to the
  owning shard and aggregates statistics via the stats classes'
  ``merge()``.  The shards recover concurrently, so array recovery
  time is the *max* over shards, not the sum.
* :class:`ShardedSSD` does the same for the native baseline's dense
  logical space, striping pages round-robin (``lpn % N``) so the
  manager's set-associative layout spreads evenly.

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

from itertools import chain
from typing import Any, List, Sequence, Tuple

from repro.errors import ConfigError, CrashError
from repro.ftl.base import FTLStats
from repro.ftl.ssd import SSD
from repro.flash.chip import FlashStats
from repro.sim.crash import CrashInjector
from repro.ssc.device import SolidStateCache
from repro.util.hashing import mix64


class ShardRouter:
    """Deterministic disk-LBN → shard assignment at erase-group granularity.

    Every LBN maps to exactly one shard (the routing is a total
    partition of the LBN space), and all pages of one erase group map
    to the same shard — block-level mapping density survives sharding.
    """

    __slots__ = ("shards", "policy", "pages_per_block")

    def __init__(self, shards: int, policy: str = "stripe",
                 pages_per_block: int = 16):
        if shards < 1:
            raise ConfigError("shards must be >= 1")
        if policy not in ("stripe", "hash"):
            raise ConfigError("routing policy must be 'stripe' or 'hash'")
        if pages_per_block < 1:
            raise ConfigError("pages_per_block must be >= 1")
        self.shards = shards
        self.policy = policy
        self.pages_per_block = pages_per_block

    def group_of(self, lbn: int) -> int:
        """Erase group containing ``lbn`` (the routing granule)."""
        return lbn // self.pages_per_block

    def shard_of(self, lbn: int) -> int:
        """The shard owning ``lbn``."""
        group = lbn // self.pages_per_block
        if self.policy == "stripe":
            return group % self.shards
        return mix64(group) % self.shards

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={self.shards}, policy={self.policy!r}, "
            f"pages_per_block={self.pages_per_block})"
        )


class _ShardedChipView:
    """The array's chips presented as one chip-like object.

    Cache managers attach their op recorder to ``device.chip`` and the
    replay engine takes the plane timelines from it; this view fans
    both out across the member chips.
    """

    def __init__(self, chips: Sequence[Any]):
        self._chips = list(chips)

    # -- identity-ish attributes (homogeneous array: shard 0 speaks) ---

    @property
    def geometry(self):
        return self._chips[0].geometry

    @property
    def timing(self):
        return self._chips[0].timing

    @property
    def planes(self):
        """Shard 0's planes (the array-wide set is :meth:`resources`)."""
        return self._chips[0].planes

    # -- recorder fan-out ----------------------------------------------

    @property
    def op_recorder(self):
        return self._chips[0].op_recorder

    @op_recorder.setter
    def op_recorder(self, recorder) -> None:
        for chip in self._chips:
            chip.op_recorder = recorder

    # -- aggregation ---------------------------------------------------

    @property
    def stats(self) -> FlashStats:
        return FlashStats.total(chip.stats for chip in self._chips)

    def total_erases(self) -> int:
        return sum(chip.total_erases() for chip in self._chips)

    def wear_differential(self) -> int:
        """Max minus min per-block erase count across the whole array."""
        counts = [
            block.erase_count
            for chip in self._chips
            for plane in chip.planes
            for block in plane.blocks.values()
        ]
        return max(counts) - min(counts) if counts else 0

    def free_blocks_total(self) -> int:
        return sum(chip.free_blocks_total() for chip in self._chips)

    def resources(self):
        """Every member chip's plane timelines, by resource key."""
        return {
            key: plane
            for chip in self._chips
            for key, plane in chip.resources().items()
        }

    def __repr__(self) -> str:
        return f"_ShardedChipView(chips={len(self._chips)})"


class _ShardedEngineView:
    """Read-only aggregate over the member SSCs' cache FTLs."""

    def __init__(self, shards: Sequence[SolidStateCache]):
        self._shards = list(shards)

    @property
    def stats(self) -> FTLStats:
        return FTLStats.total(shard.engine.stats for shard in self._shards)

    @property
    def pages_per_block(self) -> int:
        return self._shards[0].engine.pages_per_block

    def cached_blocks(self) -> int:
        return sum(shard.engine.cached_blocks() for shard in self._shards)

    def device_memory_bytes(self) -> int:
        return sum(shard.engine.device_memory_bytes() for shard in self._shards)

    def iter_cached_lbns(self):
        return chain.from_iterable(
            shard.engine.iter_cached_lbns() for shard in self._shards
        )

    def __repr__(self) -> str:
        return f"_ShardedEngineView(shards={len(self._shards)})"


class ShardedSSC:
    """An array of SSCs behind the single-device six-operation interface.

    Data-path operations route to the owning shard and return that
    shard's cost unchanged (the array adds no latency of its own).  ``exists`` fans out to every shard and merges; its cost is
    the *max* over shards because independent devices answer their
    portion of the scan concurrently.  The same max rule applies to
    every whole-array maintenance operation (``checkpoint_now``,
    ``shutdown``, ``background_collect``, ``recover``); ``crash`` sums
    the lost records because every shard's volatile buffer is lost.
    """

    #: Optional trace bus (repro.obs); None keeps routing zero-cost.
    tracer = None

    def __init__(
        self,
        shards: Sequence[SolidStateCache],
        routing: str = "stripe",
    ):
        if not shards:
            raise ConfigError("a sharded array needs at least one shard")
        self.shards: List[SolidStateCache] = list(shards)
        pages_per_block = self.shards[0].chip.geometry.pages_per_block
        for shard in self.shards:
            if shard.chip.geometry.pages_per_block != pages_per_block:
                raise ConfigError(
                    "array shards must share one erase-block geometry"
                )
        self.router = ShardRouter(len(self.shards), routing, pages_per_block)
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
        self.engine = _ShardedEngineView(self.shards)
        #: Per-shard recovery costs of the most recent :meth:`recover`.
        self.last_recovery_costs: Tuple[float, ...] = ()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, lbn: int) -> SolidStateCache:
        """The member device owning ``lbn``."""
        return self.shards[self.router.shard_of(lbn)]

    def _routed(self, lbn: int) -> SolidStateCache:
        """Data-path routing: like :meth:`shard_of`, plus the trace
        event (introspection helpers route silently)."""
        shard_id = self.router.shard_of(lbn)
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
        return self.engine.stats

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
            f"policy={self.router.policy!r}, "
            f"cached={self.cached_blocks()} blocks)"
        )


class ShardedSSD:
    """An array of conventional SSDs striped into one dense logical space.

    The native baseline needs a *dense* logical page space (its manager
    runs set-associative replacement over slot numbers), so the array
    stripes pages round-robin: logical page ``lpn`` lives on shard
    ``lpn % N`` at local page ``lpn // N`` — a bijection onto the
    members' spaces that spreads any access pattern evenly.
    """

    def __init__(self, ssds: Sequence[SSD]):
        if not ssds:
            raise ConfigError("a sharded array needs at least one shard")
        self.ssds: List[SSD] = list(ssds)
        # A homogeneous array may still round capacities differently;
        # expose N * min so striping stays a bijection.
        self._per_shard_pages = min(ssd.capacity_pages for ssd in self.ssds)
        if len(self.ssds) > 1:
            for shard_id, ssd in enumerate(self.ssds):
                ssd.chip.set_resource_shard(shard_id)
        self.chip = _ShardedChipView([ssd.chip for ssd in self.ssds])

    def _route(self, lpn: int) -> Tuple[SSD, int]:
        count = len(self.ssds)
        return self.ssds[lpn % count], lpn // count

    # ---- capacity --------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        return self._per_shard_pages * len(self.ssds)

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.chip.geometry.page_size

    @property
    def stats(self) -> FTLStats:
        return FTLStats.total(ssd.stats for ssd in self.ssds)

    # ---- block interface -------------------------------------------------

    def read(self, lpn: int):
        ssd, local = self._route(lpn)
        return ssd.read(local)

    def write(self, lpn: int, data: Any, dirty: bool = False):
        ssd, local = self._route(lpn)
        return ssd.write(local, data, dirty=dirty)

    def trim(self, lpn: int):
        ssd, local = self._route(lpn)
        return ssd.trim(local)

    def is_mapped(self, lpn: int) -> bool:
        ssd, local = self._route(lpn)
        return ssd.is_mapped(local)

    def set_page_dirty(self, lpn: int, dirty: bool) -> None:
        ssd, local = self._route(lpn)
        ssd.set_page_dirty(local, dirty)

    # ---- memory & recovery accounting ------------------------------------

    def device_memory_bytes(self) -> int:
        return sum(ssd.device_memory_bytes() for ssd in self.ssds)

    def oob_recovery_scan_us(self) -> float:
        """Members scan their OOB areas concurrently: max over shards."""
        return max(ssd.oob_recovery_scan_us() for ssd in self.ssds)

    def __repr__(self) -> str:
        return (
            f"ShardedSSD(shards={len(self.ssds)}, "
            f"capacity={self.capacity_bytes // (1 << 20)} MiB)"
        )
