"""Small reusable data structures shared across the library."""

from repro.util.checksum import crc32_of

__all__ = ["crc32_of"]
