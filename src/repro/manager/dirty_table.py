"""The write-back manager's dirty-block table.

Paper §4.4: "The dirty-block table is stored as a linear hash table
containing metadata about each dirty block.  The metadata consists of an
8-byte associated disk block number, an optional 8-byte checksum, two
2-byte indexes to the previous and next blocks in the LRU cache
replacement list, and a 2-byte block state, for a total of 14-22 bytes."

FlashTier's write-back manager tracks *only dirty* blocks here (clean
blocks need no host state at all), which is where the 89 % host-memory
reduction over the native manager comes from.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import List, Optional

#: Modeled bytes per entry (the paper's upper figure, with checksum).
ENTRY_BYTES = 22

# Default for ``add``'s data: the block's contents are not known.
_UNKNOWN = object()


def _data_checksum(data) -> int:
    """``crc32_of(repr(data))`` as one format step (bit-identical)."""
    return zlib.crc32(b"s%s|" % repr(data).encode("utf-8")) & 0xFFFFFFFF


class DirtyBlockTable:
    """Host-side table of dirty cached blocks with LRU ordering."""

    def __init__(self):
        # lbn -> checksum, or None when the block's data is unknown;
        # least recently used first.
        self._entries: "OrderedDict[int, Optional[int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lbn: int) -> bool:
        return lbn in self._entries

    def add(self, lbn: int, data=_UNKNOWN) -> None:
        """Record ``lbn`` as dirty (most recently used).

        A block re-added without its data (recovery repopulating the
        table from ``exists``) gets no checksum.
        """
        self._entries[lbn] = None if data is _UNKNOWN else _data_checksum(data)
        self._entries.move_to_end(lbn)

    def checksum_matches(self, lbn: int, data) -> bool:
        """Verify ``data`` against the checksum recorded at write time.

        Always True when the block has no recorded checksum: the block
        untracked, or added without its data.
        """
        expected = self._entries.get(lbn)
        return expected is None or expected == _data_checksum(data)

    def touch(self, lbn: int) -> None:
        """Refresh LRU position of ``lbn`` if tracked."""
        if lbn in self._entries:
            self._entries.move_to_end(lbn)

    def remove(self, lbn: int) -> bool:
        """Drop ``lbn`` (after cleaning it); True if it was tracked."""
        return self._entries.pop(lbn, _UNKNOWN) is not _UNKNOWN

    def lru_block(self) -> Optional[int]:
        """Least-recently-used dirty block, or None."""
        return next(iter(self._entries), None)

    def contiguous_run(self, lbn: int, limit: int = 32) -> List[int]:
        """Dirty blocks forming a contiguous run around ``lbn``.

        The write-back manager "prioritizes cleaning of contiguous dirty
        blocks, which can be merged together for writing to disk"
        (§4.4): returning the whole run lets the caller issue one
        sequential disk write.
        """
        run = [lbn]
        left = lbn - 1
        while left in self._entries and len(run) < limit:
            run.insert(0, left)
            left -= 1
        right = lbn + 1
        while right in self._entries and len(run) < limit:
            run.append(right)
            right += 1
        return run

    def iter_lru(self) -> List[int]:
        """Dirty blocks from least to most recently used.

        A snapshot, so callers may remove blocks while iterating it.
        """
        return list(self._entries)

    def memory_bytes(self) -> int:
        """Modeled host memory (22 bytes per dirty block)."""
        return len(self._entries) * ENTRY_BYTES

    def clear(self) -> None:
        self._entries.clear()
