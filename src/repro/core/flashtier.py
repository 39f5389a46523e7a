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
from repro.core.sharding import ShardedSSC
from repro.disk.model import Disk
from repro.engine.replay import ReplayEngine
from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.ftl.ssd import SSD
from repro.manager.base import CacheManager
from repro.manager.native import NativeCacheManager
from repro.manager.writeback import FlashTierWBManager
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


def member_cache_blocks(config: SystemConfig, shard_count: int = 1) -> int:
    """Cache blocks provisioned for each of ``shard_count`` members.

    ``ceil(cache_blocks / shard_count)``, rounding up so an array never
    holds less than a single device would.  A member of an array gets
    at least ``16 * pages_per_block`` blocks (256 at the default 16
    pages per block) so it still fits its FTL's log pool and spare
    blocks.  Below that floor the array holds ``shard_count`` times
    the floor, several times ``cache_blocks`` (4 shards of a 128-block
    cache hold 1,024 blocks, 8x the request).
    """
    blocks = -(-config.cache_blocks // shard_count)  # ceil
    if shard_count > 1:
        blocks = max(blocks, 16 * config.pages_per_block)
    return blocks


def cache_geometry(config: SystemConfig, shard_count: int = 1) -> FlashGeometry:
    """Flash geometry of one cache device: :func:`member_cache_blocks`
    with ``capacity_slack``, in 4 KB pages with the paper's 224-byte
    out-of-band area (its size sets the cost of Fig. 5's OOB scan)."""
    blocks = member_cache_blocks(config, shard_count)
    return FlashGeometry.for_capacity(
        int(blocks * config.capacity_slack) * 4096,
        planes=config.planes,
        pages_per_block=config.pages_per_block,
        page_size=4096,
        oob_bytes=224,
    )


@dataclass
class FlashTierSystem:
    """One assembled caching system: manager + cache device + disk.

    ``device`` is the native system's SSD or the SSC (a bare device or
    a :class:`~repro.core.sharding.ShardedSSC` array).
    """

    config: SystemConfig
    manager: CacheManager
    disk: Disk
    device: Union[SSD, SolidStateCache, ShardedSSC]

    @property
    def ssc(self) -> Optional[Union[SolidStateCache, ShardedSSC]]:
        """The cache device when it is an SSC; None for native."""
        return None if self.config.kind is SystemKind.NATIVE else self.device

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
    SSCs at fixed total capacity: each member is provisioned
    ``cache_blocks / shards`` blocks (see :func:`member_cache_blocks`), and
    the array stripes erase groups across them.  The managers run
    unmodified against the array — it exposes the exact device
    interface they already speak.  A one-shard config gets the bare
    device; the native system has no array and raises
    :class:`~repro.errors.ConfigError` for more than one shard.
    """
    if config.kind is SystemKind.NATIVE and config.shards > 1:
        raise ConfigError("the native system runs on one SSD: shards must be 1")
    geometry = cache_geometry(config, shard_count=config.shards)
    members = [_cache_device(config, geometry) for _ in range(config.shards)]
    device = members[0] if config.shards == 1 else ShardedSSC(members)
    return assemble_system(config, device, Disk(config.disk_blocks))


def _cache_device(config: SystemConfig, geometry: FlashGeometry):
    """One cache device of the kind ``config`` selects."""
    if config.kind is SystemKind.NATIVE:
        return SSD(geometry=geometry)
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
        manager: CacheManager = NativeCacheManager(device, disk, config)
    elif config.mode is CacheMode.WRITE_BACK:
        manager = FlashTierWBManager(device, disk, config)
    else:
        manager = FlashTierWTManager(device, disk)
    return FlashTierSystem(config=config, manager=manager, disk=disk, device=device)
