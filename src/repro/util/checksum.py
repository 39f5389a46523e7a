"""Checksum helpers.

The native FlashCache manager stores an optional 8-byte checksum per
cached block, and every flash page stores a CRC binding its payload to
its logical address in the OOB area.
"""

from __future__ import annotations

import zlib
from typing import Union

Chunk = Union[bytes, str, int, None]


def crc32_of(*parts: Chunk) -> int:
    """Return a CRC32 over a heterogeneous tuple of small values.

    Integers are encoded as their decimal representation with a type tag,
    which is unambiguous for the metadata tuples we checksum (sequence
    numbers, addresses, state flags).
    """
    # One CRC pass over the joined encoding — bit-identical to feeding
    # zlib.crc32 chunk by chunk, at a fraction of the call overhead.
    chunks = []
    for part in parts:
        if part is None:
            chunks.append(b"\x00N|")
        elif isinstance(part, int):
            chunks.append(b"i%d|" % part)
        elif isinstance(part, str):
            chunks.append(b"s" + part.encode("utf-8") + b"|")
        else:
            chunks.append(b"b" + part + b"|")
    return zlib.crc32(b"".join(chunks)) & 0xFFFFFFFF


def crc32_of_payload(lbn: Union[int, None], data: object) -> int:
    """OOB checksum binding a page's payload to its logical address.

    The simulator stores opaque payload tokens rather than raw bytes, so
    the stable ``repr`` of the token stands in for the page contents.
    Covering ``lbn`` as well means a page whose data was damaged *or*
    whose reverse map was torn mid-program both fail verification.
    """
    # Single-format fast path for crc32_of(lbn, repr(data)) — this runs
    # once per page program.
    prefix = b"\x00N|s" if lbn is None else b"i%d|s" % lbn
    return zlib.crc32(prefix + repr(data).encode("utf-8") + b"|") & 0xFFFFFFFF
