"""Flash geometry and physical address arithmetic.

The paper's emulation parameters (Table 2): 10 flash planes, 256 erase
blocks per plane, 64 pages per erase block, 4096-byte pages — and the
evaluation "scales the size of each plane to vary the SSD capacity".
Physical page numbers (PPNs) and physical block numbers (PBNs) are flat
indexes over the whole chip; this module converts between them and
(plane, block, page) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, InvalidAddressError


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of a flash chip's layout.

    Attributes mirror Table 2 of the paper; ``oob_bytes`` is the per-page
    out-of-band area (64-224 bytes per the paper; we default to 64).
    """

    planes: int = 10
    blocks_per_plane: int = 256
    pages_per_block: int = 64
    page_size: int = 4096
    oob_bytes: int = 64

    # Derived sizes, computed once at construction (the geometry is
    # frozen).  These sit on the per-op address-check path, so they are
    # plain attributes rather than recomputing properties.
    total_blocks: int = field(init=False, repr=False, compare=False)
    total_pages: int = field(init=False, repr=False, compare=False)
    block_size: int = field(init=False, repr=False, compare=False)
    capacity_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("planes", "blocks_per_plane", "pages_per_block", "page_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.oob_bytes < 0:
            raise ConfigError("oob_bytes must be >= 0")
        set_attr = object.__setattr__  # frozen dataclass
        set_attr(self, "total_blocks", self.planes * self.blocks_per_plane)
        set_attr(self, "total_pages", self.total_blocks * self.pages_per_block)
        set_attr(self, "block_size", self.pages_per_block * self.page_size)
        set_attr(self, "capacity_bytes", self.total_pages * self.page_size)

    # ---- address conversions -------------------------------------------

    def check_ppn(self, ppn: int) -> None:
        """Raise if ``ppn`` is not a valid physical page number."""
        if not 0 <= ppn < self.total_pages:
            raise InvalidAddressError(f"ppn {ppn} out of range [0, {self.total_pages})")

    def check_pbn(self, pbn: int) -> None:
        """Raise if ``pbn`` is not a valid physical block number."""
        if not 0 <= pbn < self.total_blocks:
            raise InvalidAddressError(f"pbn {pbn} out of range [0, {self.total_blocks})")

    def make_ppn(self, pbn: int, offset: int) -> int:
        """Compose a PPN from a block number and in-block page offset."""
        self.check_pbn(pbn)
        if not 0 <= offset < self.pages_per_block:
            raise InvalidAddressError(
                f"page offset {offset} out of range [0, {self.pages_per_block})"
            )
        return pbn * self.pages_per_block + offset

    def blocks_in_plane(self, plane: int):
        """Iterate PBNs belonging to ``plane``."""
        if not 0 <= plane < self.planes:
            raise InvalidAddressError(f"plane {plane} out of range [0, {self.planes})")
        start = plane * self.blocks_per_plane
        return range(start, start + self.blocks_per_plane)

    @classmethod
    def for_capacity(
        cls,
        capacity_bytes: int,
        planes: int = 10,
        pages_per_block: int = 64,
        page_size: int = 4096,
        oob_bytes: int = 64,
    ) -> "FlashGeometry":
        """Build a geometry of at least ``capacity_bytes``, scaling planes.

        Mirrors the paper's method of scaling plane size to vary capacity:
        the per-plane block count is raised until the chip is big enough.
        """
        if capacity_bytes <= 0:
            raise ConfigError("capacity_bytes must be positive")
        block_size = pages_per_block * page_size
        total_blocks = -(-capacity_bytes // block_size)  # ceil
        blocks_per_plane = max(1, -(-total_blocks // planes))
        return cls(
            planes=planes,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=pages_per_block,
            page_size=page_size,
            oob_bytes=oob_bytes,
        )
