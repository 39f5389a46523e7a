"""The SSD device: a conventional drive built on the hybrid FTL.

This is what the *native* baseline caches on.  It exposes the standard
narrow block interface — read / write / trim — plus the crash-recovery
behaviour the paper measures for Figure 5: an SSD persists its
logical-to-physical map in per-page OOB areas, so after a power failure
it must scan OOB metadata to reconstruct the map.  Following the paper,
we charge the *best case*: reading just enough OOB area to equal the
size of the mapping table.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.errors import ConfigError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig
from repro.ftl.pagemap import PageMapFTL


class SSD:
    """A fixed-capacity solid-state drive.

    ``mapping`` selects the translation layer: ``"hybrid"`` (the
    FAST-style layout the paper attributes to conventional SSDs, the
    default) or ``"page"`` (a DFTL-style fully page-mapped FTL, for the
    mapping-granularity ablation).
    """

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[TimingModel] = None,
        config: Optional[HybridFTLConfig] = None,
        mapping: str = "hybrid",
    ):
        self.chip = FlashChip(geometry, timing)
        if mapping == "hybrid":
            self.ftl = HybridFTL(self.chip, config)
        elif mapping == "page":
            self.ftl = PageMapFTL(self.chip)
        else:
            raise ConfigError("mapping must be 'hybrid' or 'page'")

    # ---- capacity --------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        """Logical capacity in 4 KB pages (raw minus over-provisioning)."""
        return self.ftl.logical_pages

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.chip.geometry.page_size

    @property
    def stats(self):
        return self.ftl.stats

    # ---- block interface ---------------------------------------------------

    def read(self, lpn: int) -> Tuple[Any, float]:
        """Read logical page ``lpn``; returns (data, cost_us)."""
        return self.ftl.read(lpn)

    def write(self, lpn: int, data: Any, dirty: bool = False) -> float:
        """Write logical page ``lpn``; returns cost_us."""
        return self.ftl.write(lpn, data, dirty=dirty)

    def trim(self, lpn: int) -> float:
        """Discard logical page ``lpn`` (TRIM); returns cost_us."""
        return self.ftl.trim(lpn)

    def is_mapped(self, lpn: int) -> bool:
        """True if ``lpn`` holds written, untrimmed data."""
        return self.ftl.is_mapped(lpn)

    def set_page_dirty(self, lpn: int, dirty: bool) -> None:
        """Update the OOB dirty flag of ``lpn`` (native manager metadata)."""
        self.ftl.set_page_dirty(lpn, dirty)

    # ---- memory & recovery accounting ------------------------------------

    def device_memory_bytes(self) -> int:
        """Modeled device DRAM for the dense mapping tables (Table 4)."""
        return self.ftl.device_memory_bytes()

    def oob_recovery_scan_us(self) -> float:
        """Simulated time to rebuild the mapping from OOB areas.

        Best case per the paper: read just enough OOB bytes to equal the
        mapping-table size.  Each OOB read costs a full page-read latency
        because the page array must be sensed to access its OOB.
        """
        table_bytes = self.device_memory_bytes()
        oob = max(1, self.chip.geometry.oob_bytes)
        reads = -(-table_bytes // oob)  # ceil
        return reads * self.chip.timing.oob_read_cost()

    def __repr__(self) -> str:
        return f"SSD(capacity={self.capacity_bytes // (1 << 20)} MiB)"
