"""Dense mapping structures used by the SSD baseline.

An SSD exposes an address space the same size as its capacity, so "an
SSD should optimize for a dense address space" (paper §2): its maps are
flat tables indexed by logical address, and their memory footprint is
proportional to *capacity*, not to how many entries are live.  That is
exactly the property Table 4 contrasts with the SSC's sparse hash map.

Memory accounting uses a fixed cost per table slot.  The paper's Table 4
works out to roughly 2.8 bytes of device memory per cached 4 KB block
for the SSD's hybrid layer mapping; with 7 % of capacity page-mapped and
the rest block-mapped at 64 pages/block, that back-solves to ~32 bytes
per mapping entry (key/value/state in the device's structures), which is
the constant both dense and sparse maps here use so the comparison is
apples-to-apples.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import InvalidAddressError

#: Modeled bytes per mapping entry (see module docstring).
ENTRY_BYTES = 32


class DenseMap:
    """Logical address -> physical address map, dense over a fixed capacity.

    The hybrid FTL keys one by logical group (its block-mapped data
    region) and one by logical page (its page-mapped log region); the
    page-mapped FTL keys one by logical page.  The table is sized by
    ``capacity`` slots regardless of occupancy.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise InvalidAddressError("capacity must be >= 0")
        self.capacity = capacity
        self._map: Dict[int, int] = {}
        #: ``lookup(key)``: the physical address for ``key``, or None if
        #: unmapped.  The table's own ``get``, so a lookup runs no Python
        #: frame.
        self.lookup = self._map.get

    def insert(self, key: int, value: int) -> Optional[int]:
        """Map ``key`` to ``value``; returns the previous value if any."""
        previous = self._map.get(key)
        self._map[key] = value
        return previous

    def remove(self, key: int) -> Optional[int]:
        """Unmap ``key``; returns the value it held, or None."""
        return self._map.pop(key, None)

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: int) -> bool:
        return key in self._map

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._map.items())

    def memory_bytes(self) -> int:
        """Device memory a dense table of this capacity would occupy."""
        return self.capacity * ENTRY_BYTES
