"""Assembly of complete caching systems.

``build_system`` wires a flash device (SSD or SSC), a disk, and the
matching cache manager into one :class:`FlashTierSystem` — the unit the
examples and benchmarks operate on.  ``replay_trace`` replays a trace
through any manager, assembled here or by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.sharding import ShardedSSC, ShardedSSD
from repro.disk.model import Disk
from repro.engine.replay import ReplayEngine
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTLConfig
from repro.ftl.ssd import SSD
from repro.manager.base import CacheManager
from repro.manager.native import NativeCacheManager, NativeConfig
from repro.manager.writeback import FlashTierWBManager, WriteBackConfig
from repro.manager.writethrough import FlashTierWTManager
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.counters import ReplayStats
from repro.traces.record import TraceRecord


def replay_trace(
    manager: CacheManager,
    trace: Sequence[TraceRecord],
    warmup_fraction: float = 0.0,
    keep_latencies: bool = False,
    queue_depth: int = 1,
    open_loop: bool = False,
) -> ReplayStats:
    """Replay ``trace`` through ``manager`` on the
    :class:`~repro.engine.ReplayEngine`; returns measured statistics."""
    return ReplayEngine(manager, queue_depth).run(
        trace,
        warmup_fraction=warmup_fraction,
        keep_latencies=keep_latencies,
        open_loop=open_loop,
    )


def cache_geometry(config: SystemConfig, shard_count: int = 1) -> FlashGeometry:
    """Flash geometry provisioning ``cache_blocks`` with slack.

    With ``shard_count > 1`` the geometry is for *one member device* of
    a sharded array at fixed total capacity: each shard gets
    ``ceil(cache_blocks / shard_count)`` blocks (rounding up, so the
    array never holds less than a single device would), subject to a
    viability floor — a member must still fit its FTL's log pool and
    spare blocks, so sharding a very small cache provisions slightly
    more than ``cache_blocks`` in total rather than failing.
    """
    blocks = -(-config.cache_blocks // shard_count)  # ceil
    if shard_count > 1:
        blocks = max(blocks, 16 * config.pages_per_block)
    capacity = int(blocks * config.capacity_slack) * config.page_size
    return FlashGeometry.for_capacity(
        capacity,
        planes=config.planes,
        pages_per_block=config.pages_per_block,
        page_size=config.page_size,
        oob_bytes=config.oob_bytes,
    )


@dataclass
class FlashTierSystem:
    """One assembled caching system: manager + cache device + disk."""

    config: SystemConfig
    manager: CacheManager
    disk: Disk
    ssd: Optional[SSD] = None
    ssc: Optional[SolidStateCache] = None

    @property
    def device(self) -> Union[SSD, SolidStateCache]:
        device = self.ssd if self.ssd is not None else self.ssc
        assert device is not None
        return device

    @property
    def device_stats(self):
        return self.device.stats

    def replay(
        self,
        trace: Sequence[TraceRecord],
        warmup_fraction: float = 0.0,
        keep_latencies: bool = False,
        queue_depth: int = 1,
        open_loop: bool = False,
    ) -> ReplayStats:
        """Replay ``trace`` through this system's manager.

        One request is outstanding by default; ``queue_depth`` > 1
        keeps that many outstanding (closed loop), and
        ``open_loop=True`` instead dispatches at each record's
        ``arrival_us``.  See :func:`replay_trace`.
        """
        return replay_trace(
            self.manager,
            trace,
            warmup_fraction=warmup_fraction,
            keep_latencies=keep_latencies,
            queue_depth=queue_depth,
            open_loop=open_loop,
        )


def build_system(config: SystemConfig) -> FlashTierSystem:
    """Assemble the system described by ``config``.

    With ``config.shards > 1`` the cache is an array of that many member
    devices at fixed total capacity: each member is provisioned
    ``cache_blocks / shards`` blocks (see :func:`cache_geometry`), and
    the array partitions the disk LBN space across them by the
    ``config.routing`` policy.  The managers run unmodified against the
    array — it exposes the exact device interface they already speak.
    A one-shard config gets the bare device.
    """
    geometry = cache_geometry(config, shard_count=config.shards)
    members = [_cache_device(config, geometry) for _ in range(config.shards)]
    if config.shards == 1:
        device = members[0]
    elif config.kind is SystemKind.NATIVE:
        device = ShardedSSD(members)
    else:
        device = ShardedSSC(members, routing=config.routing)
    return assemble_system(config, device, Disk(config.disk_blocks))


def _cache_device(config: SystemConfig, geometry: FlashGeometry):
    """One cache device of the kind ``config`` selects."""
    if config.kind is SystemKind.NATIVE:
        return SSD(geometry=geometry, config=HybridFTLConfig())
    policy = (
        EvictionPolicy.MERGE if config.kind is SystemKind.SSC_R else EvictionPolicy.UTIL
    )
    return SolidStateCache(
        geometry=geometry,
        config=SSCConfig(policy=policy, consistency=config.consistency),
    )


def assemble_system(config: SystemConfig, device, disk: Disk) -> FlashTierSystem:
    """Put the cache manager ``config`` selects over ``device`` (a bare
    device or an array) and ``disk``."""
    if config.kind is SystemKind.NATIVE:
        manager: CacheManager = NativeCacheManager(
            device,
            disk,
            NativeConfig(
                mode=config.mode.value,
                dirty_threshold=config.dirty_threshold,
                consistency=config.consistency,
            ),
        )
        return FlashTierSystem(config=config, manager=manager, disk=disk, ssd=device)
    if config.mode is CacheMode.WRITE_BACK:
        manager = FlashTierWBManager(
            device, disk, WriteBackConfig(dirty_threshold=config.dirty_threshold)
        )
    else:
        manager = FlashTierWTManager(device, disk)
    return FlashTierSystem(config=config, manager=manager, disk=disk, ssc=device)
