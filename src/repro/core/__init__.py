"""High-level facade: build complete FlashTier / native systems."""

from repro.core.config import SystemConfig, SystemKind, CacheMode
from repro.core.flashtier import FlashTierSystem, build_system
from repro.core.sharding import ShardedSSC

__all__ = [
    "SystemConfig",
    "SystemKind",
    "CacheMode",
    "FlashTierSystem",
    "ShardedSSC",
    "build_system",
]
