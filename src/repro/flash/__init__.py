"""NAND-flash device substrate.

Models the physical hierarchy the paper's simulator (FlashSim-derived)
exposes: a chip made of planes, each plane a set of erase blocks, each
block a sequence of 4 KB pages with a small out-of-band (OOB) area, kept
as per-block columns and valid/dirty bitmaps.
Timing follows Table 2 of the paper (Intel 300-series latencies).
"""

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.flash.block import EraseBlock, BlockKind
from repro.flash.plane import Plane
from repro.flash.chip import FlashChip, FlashStats

__all__ = [
    "FlashGeometry",
    "TimingModel",
    "EraseBlock",
    "BlockKind",
    "Plane",
    "FlashChip",
    "FlashStats",
]
