"""Exception hierarchy for the FlashTier reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one clause.  Device-level errors
mirror the semantics in the paper: an SSC read of an absent block returns a
*not-present error* (:class:`NotPresentError`), which is an expected,
recoverable condition for cache managers, not a programming bug.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class FlashError(ReproError):
    """Base class for flash-device errors."""


class InvalidAddressError(FlashError):
    """A physical or logical address is out of range."""


class WriteToNonErasedPageError(FlashError):
    """A program operation targeted a page that was not erased first.

    NAND flash cannot be written in place; attempting to do so is a bug in
    the FTL above the flash layer, so this is raised loudly instead of
    silently corrupting state.
    """


class NotPresentError(ReproError):
    """An SSC read found no mapping for the requested logical block.

    This is the paper's *not-present error*: the defined, expected response
    to reading an address the cache does not hold (or has silently
    evicted).  Cache managers catch it and fall through to disk.
    """

    def __init__(self, lbn: int):
        super().__init__(f"block {lbn} not present in cache")
        self.lbn = lbn


class CacheFullError(ReproError):
    """The cache device could not make space for a write.

    Raised when garbage collection and silent eviction both fail to
    produce a free erased block (e.g. every candidate block holds dirty
    data and the cache manager never issued ``clean``).
    """


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent mapping."""


class ChecksumError(ReproError):
    """A cached block's contents no longer match its recorded checksum.

    Raised by the write-back manager (when configured to verify) before
    a corrupted block would be written back to disk.
    """

    def __init__(self, lbn: int):
        super().__init__(f"checksum mismatch on cached block {lbn}")
        self.lbn = lbn


class CrashError(ReproError):
    """Raised internally when a simulated power failure interrupts an op."""
