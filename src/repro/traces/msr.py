"""MSR Cambridge block-trace converter.

The paper's *usr* and *proj* workloads come from the MSR Cambridge
traces (Narayanan et al., FAST '08), distributed as CSV with fields::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

where Offset and Size are in bytes.  This module converts them into the
library's 4 KB block requests (each multi-block request expands to one
record per 4 KB block, matching the paper's "all requests are
sector-aligned and 4,096 bytes" preprocessing), so anyone with the real
traces can replay them through the same harness as the synthetic ones.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.traces.record import OpKind, TraceRecord, iter_trace_file

PathLike = Union[str, Path]

BLOCK_SIZE = 4096


#: Windows filetime ticks (100 ns) per microsecond — the MSR Timestamp
#: field's unit.
_TICKS_PER_US = 10.0


class MSRFormatError(ReproError):
    """An MSR trace line could not be parsed."""


def _timestamp_us(field: str) -> Optional[float]:
    """Parse the Timestamp field to microseconds; None if unusable.

    Timestamps are Windows filetime ticks (100 ns).  Some republished
    MSR variants blank or mangle the field; arrival times are optional,
    so parsing stays tolerant.
    """
    try:
        ticks = float(field)
    except ValueError:
        return None
    if ticks < 0:
        return None
    return ticks / _TICKS_PER_US


def parse_msr_line(line: str, line_number: int = 0) -> Sequence[TraceRecord]:
    """Convert one MSR CSV line into its 4 KB block requests.

    Each record carries the request's arrival time in microseconds
    (absolute filetime; :func:`iter_msr_trace` rebases to the trace
    origin), or ``None`` when the Timestamp field is unusable.
    """
    parts = line.strip().split(",")
    if len(parts) < 6:
        raise MSRFormatError(
            f"line {line_number}: expected >=6 CSV fields, got {len(parts)}"
        )
    type_field = parts[3].strip().lower()
    if type_field == "read":
        op = OpKind.READ
    elif type_field == "write":
        op = OpKind.WRITE
    else:
        raise MSRFormatError(f"line {line_number}: unknown type {parts[3]!r}")
    try:
        offset = int(parts[4])
        size = int(parts[5])
    except ValueError:
        raise MSRFormatError(
            f"line {line_number}: non-integer offset/size {parts[4]!r},{parts[5]!r}"
        ) from None
    if offset < 0 or size < 0:
        raise MSRFormatError(f"line {line_number}: negative offset or size")
    if size == 0:
        return []
    arrival_us = _timestamp_us(parts[0])
    first = offset // BLOCK_SIZE
    last = (offset + size - 1) // BLOCK_SIZE
    return [TraceRecord(op, lbn, arrival_us) for lbn in range(first, last + 1)]


def _disk_of(line: str, line_number: int) -> int:
    """The DiskNumber field of one MSR CSV line."""
    parts = line.split(",", 3)
    if len(parts) < 3:
        raise MSRFormatError(f"line {line_number}: expected CSV fields")
    try:
        return int(parts[2])
    except ValueError:
        raise MSRFormatError(
            f"line {line_number}: bad disk number {parts[2]!r}"
        ) from None


def iter_msr_trace(
    path: PathLike,
    disks: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> Iterator[TraceRecord]:
    """Stream block requests from an MSR CSV trace.

    ``disks`` restricts to particular DiskNumber values (the MSR files
    multiplex several volumes); ``limit`` caps the number of emitted
    block requests (the paper itself replays only trace prefixes).
    """
    if disks is None:
        return iter_trace_file(path, parse_msr_line, limit)
    wanted = set(disks)

    def parse_wanted(line: str, line_number: int) -> Sequence[TraceRecord]:
        if _disk_of(line, line_number) not in wanted:
            return []
        return parse_msr_line(line, line_number)

    return iter_trace_file(path, parse_wanted, limit)


def read_msr_trace(
    path: PathLike,
    disks: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> List[TraceRecord]:
    """Load an MSR CSV trace into memory as block requests."""
    return list(iter_msr_trace(path, disks=disks, limit=limit))
