"""Small reusable data structures shared across the library."""

from repro.util.bloom import BloomFilter
from repro.util.checksum import crc32_of

__all__ = ["BloomFilter", "crc32_of"]
