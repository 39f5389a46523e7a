"""The two 64-bit integer mixers the library hashes block addresses with.

Block and group numbers are small, dense and sequential, so Python's
identity hash of an int would cluster them; both mixers spread such
keys across all 64 bits.  Their outputs fix the sparse map's probe
counts (``splitmix64``) and the native manager's set choice
(``mix64``), so they must not change.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """The splitmix64 output function (increment, then two multiplies)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def mix64(value: int) -> int:
    """The 64-bit finalizer of MurmurHash3: a cheap, well-mixed hash."""
    value = (value ^ (value >> 33)) * 0xFF51AFD7ED558CCD & _MASK
    value = (value ^ (value >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK
    return value ^ (value >> 33)
