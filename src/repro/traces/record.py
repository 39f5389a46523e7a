"""Trace records: one block-level I/O request each.

All requests are 4,096-byte, sector-aligned block operations, matching
the paper's trace preprocessing (Table 3 caption).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class OpKind(Enum):
    """Request type."""

    READ = "R"
    WRITE = "W"


class TraceRecord:
    """One I/O request: an operation on a 4 KB disk block.

    ``arrival_us`` optionally records when the request was issued,
    in microseconds relative to the trace's own origin.  Open-loop
    replay dispatches requests at these timestamps; closed-loop replay
    ignores them.  Traces without timing information leave it ``None``.
    """

    __slots__ = ("op", "lbn", "arrival_us")

    def __init__(self, op: OpKind, lbn: int, arrival_us: Optional[float] = None):
        if lbn < 0:
            raise ValueError(f"lbn must be >= 0, got {lbn}")
        if arrival_us is not None and arrival_us < 0:
            raise ValueError(f"arrival_us must be >= 0, got {arrival_us}")
        self.op = op
        self.lbn = lbn
        self.arrival_us = arrival_us

    @property
    def is_write(self) -> bool:
        return self.op is OpKind.WRITE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.op is other.op
            and self.lbn == other.lbn
            and self.arrival_us == other.arrival_us
        )

    def __hash__(self) -> int:
        return hash((self.op, self.lbn, self.arrival_us))

    def __repr__(self) -> str:
        if self.arrival_us is None:
            return f"TraceRecord({self.op.value}, {self.lbn})"
        return f"TraceRecord({self.op.value}, {self.lbn}, at={self.arrival_us:.1f}us)"
