"""Sparse hash map — the SSC's memory-efficient mapping structure.

Paper §4.1: "The SSC optimizes for sparseness in the blocks it caches
with a sparse hash map data structure, developed at Google.  ...  The
map is a hash table with t buckets divided into t/M groups of M buckets
each.  Each group is stored sparsely as an array that holds values for
allocated block addresses and an occupancy bitmap of size M, with one
bit for each bucket.  A lookup for bucket i calculates the value
location from the number of 1s in the bitmap before location i."

The probe sequence and the memory model are that structure, from
scratch: open addressing (linear probing after a 64-bit hash mix) over
buckets divided into groups of M, and Table 4's group-of-M accounting.
The table is fully associative, so entries store the complete key.

The Python state is not a packed group array, though, because every
SSC request probes the map and rank-by-bitmap arithmetic costs microseconds
per probe on the host.  It is a key -> (bucket, probes, value) dict,
one occupancy byte per bucket and a bucket -> key list.  A hit is one
dict lookup that adds the probe count stored when the key was placed;
a miss or an insert walks nothing: the first empty bucket at or after
the home bucket is one ``bytearray.find``.  The counts are exact
because deletion is tombstone-free, so a key always sits in the
occupied run that starts at its home bucket, and a key only moves when
it is re-placed, which recomputes its count.

Memory accounting mirrors the paper's Table 4 arithmetic: each occupied
entry costs :data:`ENTRY_BYTES` (key + value + structure state, the same
constant the dense SSD tables use so the comparison is fair), and each
*allocated group* (one with an occupied bucket) additionally costs its
occupancy bitmap plus array pointer — the ~8.4 bytes/entry sparse
overhead the paper quotes for M = 32.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.ftl.mapping import ENTRY_BYTES
from repro.util.hashing import splitmix64

#: Buckets per group (the paper sets M = 32).
DEFAULT_GROUP_SIZE = 32

#: Per-allocated-group overhead: M/8 bitmap bytes + an 8-byte pointer to
#: the group's packed value array.
GROUP_OVERHEAD_BYTES = 8

# The home-bucket hash; block addresses are too regular for id-hash.
_hash_key = splitmix64


class SparseHashMap:
    """Open-addressed sparse hash map from int keys to int values.

    Grows by doubling when load factor exceeds ``max_load``; shrinks are
    unnecessary for the SSC's workloads (the cache stays near capacity).
    """

    def __init__(
        self,
        initial_buckets: int = 64,
        group_size: int = DEFAULT_GROUP_SIZE,
        max_load: float = 0.75,
    ):
        if group_size <= 0 or group_size > 64:
            raise ConfigError("group_size must be in [1, 64]")
        if not 0.1 <= max_load < 1.0:
            raise ConfigError("max_load must be in [0.1, 1.0)")
        self.group_size = group_size
        self.max_load = max_load
        self._reset(self._round_up(max(initial_buckets, group_size)))
        # Probe-length statistics ("typically no more than 4-5 probes").
        self.total_probes = 0
        self.total_lookups = 0

    def _reset(self, buckets: int) -> None:
        self._buckets = buckets
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        self._occupied = bytearray(buckets)
        self._keys: List[Optional[int]] = [None] * buckets

    @staticmethod
    def _round_up(value: int) -> int:
        power = 1
        while power < value:
            power <<= 1
        return power

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None

    @property
    def buckets(self) -> int:
        return self._buckets

    @property
    def allocated_groups(self) -> int:
        """Groups that hold at least one entry (they cost real memory)."""
        occupied = self._occupied
        size = self.group_size
        return sum(
            1 for start in range(0, self._buckets, size)
            if occupied.find(1, start, start + size) >= 0
        )

    # ------------------------------------------------------------------

    # The probe order is linear: start at _hash_key(key) & (buckets-1)
    # and step by +1 mod buckets.  Linear probing (after a strong 64-bit
    # mix) keeps chains short at our load factor and — unlike quadratic
    # probing — admits tombstone-free deletion by re-placing the run
    # that follows the removed bucket (see _rehash_cluster_after).  A probe
    # sequence ends at the key's bucket or at the first empty bucket,
    # so its length is that bucket's distance from home, plus one.

    def _first_empty(self, home: int) -> int:
        """First unoccupied bucket at or after ``home``, wrapping."""
        empty = self._occupied.find(0, home)
        return empty if empty >= 0 else self._occupied.find(0)

    def lookup(self, key: int) -> Optional[int]:
        """Return the value mapped to ``key``, or None."""
        self.total_lookups += 1
        entry = self._entries.get(key)
        if entry is not None:
            self.total_probes += entry[1]
            return entry[2]
        mask = self._buckets - 1
        home = _hash_key(key) & mask
        self.total_probes += ((self._first_empty(home) - home) & mask) + 1
        return None

    def insert(self, key: int, value: int) -> Optional[int]:
        """Map ``key`` to ``value``; returns the previous value if any."""
        if (len(self._entries) + 1) / self._buckets > self.max_load:
            self._grow()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries[key] = (entry[0], entry[1], value)
            return entry[2]
        self._place(key, value)
        return None

    def _place(self, key: int, value: int) -> None:
        """Put an absent ``key`` in the first empty bucket of its run.

        :meth:`_grow` uses this directly — re-placement can never push
        the table past ``max_load``, so re-checking per entry would be
        pure overhead.
        """
        mask = self._buckets - 1
        home = _hash_key(key) & mask
        bucket = self._first_empty(home)
        self._occupied[bucket] = 1
        self._keys[bucket] = key
        self._entries[key] = (bucket, ((bucket - home) & mask) + 1, value)

    def remove(self, key: int) -> Optional[int]:
        """Unmap ``key``; returns the value it held, or None.

        Deletion is tombstone-free: the occupied run following the
        removed bucket is re-placed, which keeps probe chains short —
        important because the SSC removes entries constantly during
        silent eviction.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        bucket = entry[0]
        self._occupied[bucket] = 0
        self._keys[bucket] = None
        self._rehash_cluster_after(bucket)
        return entry[2]

    def _rehash_cluster_after(self, bucket: int) -> None:
        """Re-place entries whose probe chain may pass through ``bucket``.

        With linear probing, any entry whose probe chain passed through
        the removed bucket lives in the contiguous occupied run that
        follows it.  Clearing that run and re-placing its keys in
        bucket order restores the invariant that every entry is
        reachable from its hash position.  A key's home bucket is read
        back from its stored entry, ``bucket - probes + 1``, not hashed
        again: the bucket count cannot change during a delete.
        """
        mask = self._buckets - 1
        start = (bucket + 1) & mask
        end = self._first_empty(start)
        spans = [(start, end)] if end >= start else [
            (start, self._buckets), (0, end)]
        keys, occupied, entries = self._keys, self._occupied, self._entries
        displaced: List[int] = []
        for low, high in spans:
            displaced += keys[low:high]
            keys[low:high] = [None] * (high - low)
            occupied[low:high] = bytes(high - low)
        for key in displaced:
            old, probes, value = entries[key]
            home = (old - probes + 1) & mask
            new = self._first_empty(home)
            occupied[new] = 1
            keys[new] = key
            entries[key] = (new, ((new - home) & mask) + 1, value)

    def _grow(self) -> None:
        entries = self.items()
        buckets = self._buckets * 2
        # One doubling suffices at any max_load >= 0.5; the loop keeps
        # the end state identical to repeated growth for smaller loads.
        while len(entries) / buckets > self.max_load:
            buckets *= 2
        self._reset(buckets)
        for key, value in entries:
            self._place(key, value)

    def items(self) -> List[Tuple[int, int]]:
        """(key, value) pairs in bucket order, from one pass over the
        buckets."""
        entries = self._entries
        return [(key, entries[key][2]) for key in self._keys if key is not None]

    def keys(self) -> Iterator[int]:
        return (key for key in self._keys if key is not None)

    # ------------------------------------------------------------------

    def mean_probes(self) -> float:
        """Average probes per lookup so far."""
        if self.total_lookups == 0:
            return 0.0
        return self.total_probes / self.total_lookups

    def memory_bytes(self) -> int:
        """Modeled memory of a C implementation of this structure.

        Occupied entries cost ENTRY_BYTES each; allocated groups cost
        their bitmap plus array pointer.  Empty groups cost only a null
        pointer in the group directory, folded into the per-group
        overhead of allocated groups for simplicity.
        """
        return (
            len(self._entries) * ENTRY_BYTES
            + self.allocated_groups * (self.group_size // 8 + GROUP_OVERHEAD_BYTES)
        )
