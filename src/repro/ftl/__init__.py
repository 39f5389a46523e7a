"""Flash translation layers and the SSD baseline device.

``HybridFTL`` is a FAST-style hybrid mapping FTL (block-mapped data
blocks plus page-mapped log blocks, with full/switch merges and garbage
collection) — the internal design the paper attributes to conventional
SSDs and extends inside the SSC.  ``SSD`` wraps it in the standard
read/write/trim block-device interface the native baseline caches on.
"""

from repro.ftl.base import FTLStats
from repro.ftl.mapping import DenseMap
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig
from repro.ftl.pagemap import PageMapFTL
from repro.ftl.wear import WearConfig, WearLeveler
from repro.ftl.ssd import SSD

__all__ = [
    "FTLStats",
    "DenseMap",
    "HybridFTL",
    "HybridFTLConfig",
    "PageMapFTL",
    "WearConfig",
    "WearLeveler",
    "SSD",
]
