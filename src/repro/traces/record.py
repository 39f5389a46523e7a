"""Traces: block-level I/O requests, stored as columns.

All requests are 4,096-byte, sector-aligned block operations, matching
the paper's trace preprocessing (Table 3 caption).

A :class:`Trace` keeps its requests in three columns rather than one
object each: an ``array('q')`` of block numbers, a ``bytearray`` of
write flags and, only when the trace is timed, an ``array('d')`` of
arrival times.  That is 9 bytes per untimed request (17 timed) where a
list of record objects costs about 100, so a trace's host memory stays
small next to the cache it drives.  :class:`TraceRecord` is the
immutable per-request view that indexing and iteration build.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence, Union, overload


class OpKind(Enum):
    """Request type."""

    READ = "R"
    WRITE = "W"


_set = object.__setattr__


class TraceRecord:
    """One I/O request: an operation on a 4 KB disk block.

    ``arrival_us`` optionally records when the request was issued,
    in microseconds relative to the trace's own origin.  Open-loop
    replay dispatches requests at these timestamps; closed-loop replay
    ignores them.  Traces without timing information leave it ``None``.
    Records are immutable.
    """

    __slots__ = ("op", "lbn", "arrival_us")

    def __init__(self, op: OpKind, lbn: int, arrival_us: Optional[float] = None):
        if not isinstance(op, OpKind):
            raise TypeError(f"op must be an OpKind, got {op!r}")
        if lbn < 0:
            raise ValueError(f"lbn must be >= 0, got {lbn}")
        if arrival_us is not None and not 0.0 <= arrival_us < math.inf:
            raise ValueError(
                f"arrival_us must be finite and >= 0, got {arrival_us}"
            )
        _set(self, "op", op)
        _set(self, "lbn", lbn)
        _set(self, "arrival_us", arrival_us)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TraceRecord is immutable")

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


#: Write flag -> op, and the flag byte a run of each kind repeats.
_OPS = (OpKind.READ, OpKind.WRITE)
_FLAG = (b"\x00", b"\x01")
#: The largest block number the lbns column holds.
MAX_LBN = 2**63 - 1
#: The arrivals column's mark for a request without a timestamp.
_UNTIMED = math.nan


class Trace(Sequence[TraceRecord]):
    """A request sequence stored as columns.

    ``lbns[i]`` is request ``i``'s block and ``writes[i]`` is 1 for a
    write, 0 for a read.  ``arrivals`` is ``None`` until some request
    carries an arrival time; from then on it holds one float per
    request, NaN for a request without one.
    """

    __slots__ = ("lbns", "writes", "arrivals")

    def __init__(self) -> None:
        self.lbns = array("q")
        self.writes = bytearray()
        self.arrivals: Optional[array] = None

    @classmethod
    def of(cls, records: Iterable[TraceRecord]) -> "Trace":
        """``records`` as a trace (a trace is returned as it is)."""
        if isinstance(records, Trace):
            return records
        trace = cls()
        for record in records:
            trace.add_run(record.op is OpKind.WRITE, record.lbn, 1, record.arrival_us)
        return trace

    def add_run(
        self,
        is_write: bool,
        first_lbn: int,
        count: int = 1,
        arrival_us: Optional[float] = None,
    ) -> None:
        """Append ``count`` requests of one kind on consecutive blocks
        from ``first_lbn``, all arriving at ``arrival_us``."""
        last_lbn = first_lbn + count - 1
        if first_lbn < 0 or last_lbn > MAX_LBN:
            raise ValueError(
                f"blocks {first_lbn}..{last_lbn} are outside 0..{MAX_LBN}"
            )
        if arrival_us is not None and not 0.0 <= arrival_us < math.inf:
            raise ValueError(
                f"arrival_us must be finite and >= 0, got {arrival_us}"
            )
        before = len(self.lbns)
        self.lbns.extend(range(first_lbn, first_lbn + count))
        self.writes += _FLAG[bool(is_write)] * count
        if arrival_us is not None and self.arrivals is None:
            self.arrivals = array("d", [_UNTIMED]) * before
        if self.arrivals is not None:
            self.arrivals += array("d", [
                _UNTIMED if arrival_us is None else arrival_us
            ]) * count

    def first_untimed(self, start: int = 0) -> Optional[int]:
        """Index of the first request from ``start`` on without an
        arrival time, or ``None`` if every one has one."""
        if self.arrivals is None:
            return start if start < len(self.lbns) else None
        for index in range(start, len(self.arrivals)):
            if self.arrivals[index] != self.arrivals[index]:
                return index
        return None

    def __len__(self) -> int:
        return len(self.lbns)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceRecord, "Trace"]:
        if isinstance(index, slice):
            part = Trace()
            part.lbns = self.lbns[index]
            part.writes = self.writes[index]
            if self.arrivals is not None:
                part.arrivals = self.arrivals[index]
            return part
        arrival = _UNTIMED if self.arrivals is None else self.arrivals[index]
        return TraceRecord(
            _OPS[self.writes[index]], self.lbns[index],
            None if arrival != arrival else arrival,
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        arrivals = repeat(_UNTIMED) if self.arrivals is None else self.arrivals
        for is_write, lbn, arrival in zip(self.writes, self.lbns, arrivals):
            yield TraceRecord(
                _OPS[is_write], lbn, None if arrival != arrival else arrival
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Trace, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        timed = "timed" if self.arrivals is not None else "untimed"
        return f"Trace({len(self):,} requests, {timed})"
