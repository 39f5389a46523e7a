"""A counting-free Bloom filter over integer keys.

Section 4.2.1 of the paper notes that because SSC reads return a
not-present error, the cache manager may use an *approximate* structure
such as a Bloom filter to avoid issuing reads that will certainly miss.
The write-through manager can enable this as an optimization; false
positives only cost a device lookup, never a correctness violation.
"""

from __future__ import annotations

import math

from repro.util.hashing import splitmix64


class BloomFilter:
    """Bloom filter sized for ``expected_items`` at ``fp_rate``."""

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        ln2 = math.log(2)
        bits = int(math.ceil(-expected_items * math.log(fp_rate) / (ln2 * ln2)))
        # One byte per modeled bit: setting a bit stays O(1).
        self._bits = bytearray(max(bits, 8))
        self.num_hashes = max(1, int(round(bits / expected_items * ln2)))
        self.expected_items = expected_items
        self._count = 0

    def _positions(self, key: int):
        # Kirsch-Mitzenmacher double hashing: h1 + i*h2 mod m.
        h1 = splitmix64(key)
        h2 = splitmix64(h1) | 1
        size = len(self._bits)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % size

    def add(self, key: int) -> None:
        """Record ``key`` in the filter."""
        for pos in self._positions(key):
            self._bits[pos] = 1
        self._count += 1

    def might_contain(self, key: int) -> bool:
        """Return False only if ``key`` was definitely never added."""
        return all(self._bits[pos] for pos in self._positions(key))

    def __len__(self) -> int:
        return self._count

    def memory_bytes(self) -> int:
        """Bytes a C implementation would use for the bit array."""
        return (len(self._bits) + 7) // 8

    def clear(self) -> None:
        """Reset the filter to empty."""
        self._bits[:] = bytes(len(self._bits))
        self._count = 0
