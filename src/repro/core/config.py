"""System-level configuration for the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError


class SystemKind(Enum):
    """Which caching system to assemble (the paper's comparison axes)."""

    NATIVE = "native"   # FlashCache manager + conventional SSD
    SSC = "ssc"         # FlashTier manager + SSC (SE-Util)
    SSC_R = "ssc-r"     # FlashTier manager + SSC-R (SE-Merge)


class CacheMode(Enum):
    """Write policy."""

    WRITE_THROUGH = "wt"
    WRITE_BACK = "wb"


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to assemble one complete caching system.

    ``cache_blocks`` is the number of 4 KB blocks the cache should be
    able to hold (the paper sizes it to the top 25 % most-accessed
    blocks of each trace).  ``capacity_slack`` converts that into raw
    flash: block-level mapping wastes part of each erase block on
    sparse groups, and the device needs log blocks and merge workspace,
    so the chip is provisioned ``cache_blocks * capacity_slack`` pages.

    ``consistency=False`` builds the no-consistency configurations used
    by Fig. 4's baseline and the GC experiments (Fig. 6 / Table 5).

    ``shards`` partitions an SSC cache across that many independent
    SSCs at *fixed total capacity*: each shard is provisioned
    ``cache_blocks / shards`` blocks and owns every ``shards``-th
    erase-block-sized group of the disk LBN space (see
    :mod:`repro.core.sharding`), so a sparse group never splits across
    shards.  ``shards=1`` builds the single-device system unchanged;
    the native system has no array and needs ``shards=1``.

    ``pages_per_block`` defaults to 16 rather than the paper's 64: the
    workloads are replayed at ~1/30 scale, and the erase-block size must
    scale with them or the log pool becomes a handful of blocks and
    every quantity the evaluation measures (merge frequency, eviction
    churn, group density) is dominated by granularity artifacts.  The
    paper's ratio of erase-block pages to cache pages is preserved to
    within an order of magnitude.  Pass 64 to use the unscaled geometry.
    """

    kind: SystemKind = SystemKind.SSC
    mode: CacheMode = CacheMode.WRITE_BACK
    cache_blocks: int = 8192
    disk_blocks: int = 1 << 20
    capacity_slack: float = 2.0
    consistency: bool = True
    dirty_threshold: float = 0.20
    planes: int = 10
    pages_per_block: int = 16
    shards: int = 1

    def __post_init__(self):
        if self.cache_blocks < 1:
            raise ConfigError("cache_blocks must be positive")
        if self.disk_blocks < 1:
            raise ConfigError("disk_blocks must be positive")
        if self.capacity_slack < 1.0:
            raise ConfigError("capacity_slack must be >= 1.0")
        if not isinstance(self.kind, SystemKind):
            raise ConfigError("kind must be a SystemKind")
        if not isinstance(self.mode, CacheMode):
            raise ConfigError("mode must be a CacheMode")
        if not 0.0 < self.dirty_threshold <= 1.0:
            raise ConfigError("dirty_threshold must be in (0, 1]")
        if self.pages_per_block < 1:
            raise ConfigError("pages_per_block must be positive")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
