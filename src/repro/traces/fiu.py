"""FIU (SyLab) block-trace converter.

The paper's *homes* and *mail* workloads come from the FIU traces
published with the I/O-deduplication study it cites (Koller &
Rangaswami, FAST '10).  Those distribute as whitespace-separated text::

    timestamp pid process lba size op major minor [md5]

where ``lba`` and ``size`` are in 512-byte sectors and ``op`` is
``W``/``R`` (case-insensitive; some variants spell it ``Write``).
This converter folds each request onto 4 KB block boundaries, matching
the paper's preprocessing ("all requests are sector-aligned and 4,096
bytes"), so holders of the original traces can replay them directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.traces.record import OpKind, TraceRecord, iter_trace_file

PathLike = Union[str, Path]

SECTOR_SIZE = 512
BLOCK_SIZE = 4096
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE


class FIUFormatError(ReproError):
    """An FIU trace line could not be parsed."""


def _timestamp_us(field: str) -> Optional[float]:
    """Parse the timestamp field (seconds) to microseconds; tolerant —
    a mangled field yields ``None`` rather than an error, since arrival
    times are optional."""
    try:
        seconds = float(field)
    except ValueError:
        return None
    if seconds < 0:
        return None
    return seconds * 1e6


def parse_fiu_line(line: str, line_number: int = 0) -> Sequence[TraceRecord]:
    """Convert one FIU trace line into its 4 KB block requests.

    Each record carries the request's arrival time in microseconds
    (absolute; :func:`iter_fiu_trace` rebases to the trace origin), or
    ``None`` when the timestamp field is unusable.
    """
    parts = line.split()
    if len(parts) < 6:
        raise FIUFormatError(
            f"line {line_number}: expected >=6 fields, got {len(parts)}"
        )
    try:
        lba = int(parts[3])
        size_sectors = int(parts[4])
    except ValueError:
        raise FIUFormatError(
            f"line {line_number}: non-integer lba/size {parts[3]!r},{parts[4]!r}"
        ) from None
    if lba < 0 or size_sectors < 0:
        raise FIUFormatError(f"line {line_number}: negative lba or size")
    op_field = parts[5].strip().lower()
    if op_field.startswith("w"):
        op = OpKind.WRITE
    elif op_field.startswith("r"):
        op = OpKind.READ
    else:
        raise FIUFormatError(f"line {line_number}: unknown op {parts[5]!r}")
    if size_sectors == 0:
        return []
    arrival_us = _timestamp_us(parts[0])
    first = lba // SECTORS_PER_BLOCK
    last = (lba + size_sectors - 1) // SECTORS_PER_BLOCK
    return [TraceRecord(op, lbn, arrival_us) for lbn in range(first, last + 1)]


def iter_fiu_trace(
    path: PathLike, limit: Optional[int] = None
) -> Iterator[TraceRecord]:
    """Stream 4 KB block requests from an FIU trace file."""
    return iter_trace_file(path, parse_fiu_line, limit)


def read_fiu_trace(path: PathLike, limit: Optional[int] = None) -> List[TraceRecord]:
    """Load an FIU trace into memory as 4 KB block requests."""
    return list(iter_fiu_trace(path, limit=limit))
