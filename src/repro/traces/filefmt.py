"""Trace file I/O: the native format, MSR Cambridge CSV and FIU text.

The native format is minimal and line-oriented — one request per line::

    R 123456
    W 123457 1500.0

The optional third column is the request's arrival time in
microseconds (trace-relative), used by open-loop replay; lines without
it parse with ``arrival_us=None``.  This matches the spirit of the
user-space trace-replay framework the paper added to its cache manager
(§5) and lets externally-captured block traces be replayed through the
same harness.

The paper's *usr* and *proj* workloads come from the MSR Cambridge
traces (Narayanan et al., FAST '08), distributed as CSV::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

with Offset and Size in bytes and Timestamp in Windows filetime ticks
(100 ns).  Its *homes* and *mail* workloads come from the FIU traces
(Koller & Rangaswami, FAST '10), distributed as whitespace-separated
text::

    timestamp pid process lba size op major minor [md5]

with the timestamp in seconds, ``lba`` and ``size`` in 512-byte sectors
and ``op`` ``W``/``R`` (case-insensitive; some variants spell it
``Write``).  Both fold each request onto 4 KB block boundaries, one
record per block, matching the paper's preprocessing ("all requests are
sector-aligned and 4,096 bytes"), so holders of the original traces can
replay them through the same harness as the synthetic ones.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from repro.errors import ReproError
from repro.traces.record import OpKind, Trace, TraceRecord

PathLike = Union[str, Path]

BLOCK_SIZE = 4096
SECTOR_SIZE = 512

#: Windows filetime ticks (100 ns) per microsecond — the MSR Timestamp
#: field's unit.
_TICKS_PER_US = 10.0
#: Microseconds per second — the FIU timestamp field's unit.
_US_PER_SECOND = 1e6


class TraceFormatError(ReproError):
    """A trace file line could not be parsed."""


def write_trace(path: PathLike, records: Iterable[TraceRecord]) -> int:
    """Write ``records`` to ``path`` in the native format; returns the
    record count."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# repro block trace v1: <op R|W> <lbn> [arrival_us]\n")
        for record in records:
            if record.arrival_us is None:
                handle.write(f"{record.op.value} {record.lbn}\n")
            else:
                handle.write(
                    f"{record.op.value} {record.lbn} {record.arrival_us!r}\n"
                )
            count += 1
    return count


#: What a line parser returns for one request: whether it writes, its
#: first 4 KB block, how many consecutive blocks it covers and its
#: arrival time (``None`` if it has none).  ``None`` for a request of
#: zero bytes.
_Run = Optional[Tuple[bool, int, int, Optional[float]]]


def _parse_native(line: str) -> _Run:
    """One native line: ``<op> <lbn> [arrival_us]``."""
    parts = line.split()
    if len(parts) not in (2, 3):
        raise TraceFormatError(
            f"expected '<op> <lbn> [arrival_us]', got {line!r}"
        )
    op_text, lbn_text = parts[0], parts[1]
    try:
        op = OpKind(op_text)
    except ValueError:
        raise TraceFormatError(f"unknown op {op_text!r}") from None
    try:
        lbn = int(lbn_text)
        if lbn < 0:
            raise ValueError
    except ValueError:
        raise TraceFormatError(f"bad block number {lbn_text!r}") from None
    arrival_us = None
    if len(parts) == 3:
        try:
            arrival_us = float(parts[2])
        except ValueError:
            raise TraceFormatError(
                f"expected numeric arrival time, got {parts[2]!r}"
            ) from None
        if not math.isfinite(arrival_us):
            raise TraceFormatError(
                f"expected finite arrival time, got {parts[2]!r}"
            )
        if arrival_us < 0:
            raise TraceFormatError(
                f"expected non-negative arrival time, got {parts[2]!r}"
            )
    return op is OpKind.WRITE, lbn, 1, arrival_us


def _timestamp_us(field: str, us: float = 1.0, per: float = 1.0) -> Optional[float]:
    """Parse a timestamp ``field`` counting units of which ``per`` make
    ``us`` microseconds; ``None`` if unusable (not a finite,
    non-negative number).

    Some republished traces blank or mangle the field; arrival times
    are optional, so parsing stays tolerant.
    """
    try:
        value = float(field)
    except ValueError:
        return None
    if not 0.0 <= value < math.inf:
        return None
    return value * us / per


def _blocks(
    is_write: bool, first_byte: int, size: int, arrival_us: Optional[float]
) -> _Run:
    """The run of 4 KB blocks that ``size`` bytes from ``first_byte``
    touch."""
    if size == 0:
        return None
    first = first_byte // BLOCK_SIZE
    last = (first_byte + size - 1) // BLOCK_SIZE
    return is_write, first, last - first + 1, arrival_us


def _parse_msr(line: str) -> _Run:
    """One MSR CSV line: its 4 KB block run, carrying the request's
    absolute arrival time, or ``None`` when the Timestamp field is
    unusable."""
    parts = line.split(",")
    if len(parts) < 6:
        raise TraceFormatError(f"expected >=6 CSV fields, got {len(parts)}")
    type_field = parts[3].strip().lower()
    if type_field not in ("read", "write"):
        raise TraceFormatError(f"unknown type {parts[3]!r}")
    try:
        offset = int(parts[4])
        size = int(parts[5])
    except ValueError:
        raise TraceFormatError(
            f"non-integer offset/size {parts[4]!r},{parts[5]!r}"
        ) from None
    if offset < 0 or size < 0:
        raise TraceFormatError("negative offset or size")
    return _blocks(
        type_field == "write", offset, size,
        _timestamp_us(parts[0], per=_TICKS_PER_US),
    )


def _parse_fiu(line: str) -> _Run:
    """One FIU line: its 4 KB block run, carrying the request's
    absolute arrival time, or ``None`` when the timestamp field is
    unusable."""
    parts = line.split()
    if len(parts) < 6:
        raise TraceFormatError(f"expected >=6 fields, got {len(parts)}")
    try:
        lba = int(parts[3])
        size_sectors = int(parts[4])
    except ValueError:
        raise TraceFormatError(
            f"non-integer lba/size {parts[3]!r},{parts[4]!r}"
        ) from None
    if lba < 0 or size_sectors < 0:
        raise TraceFormatError("negative lba or size")
    op_field = parts[5].strip().lower()
    if not op_field.startswith(("w", "r")):
        raise TraceFormatError(f"unknown op {parts[5]!r}")
    return _blocks(
        op_field.startswith("w"), lba * SECTOR_SIZE, size_sectors * SECTOR_SIZE,
        _timestamp_us(parts[0], us=_US_PER_SECOND),
    )


#: Each format's line parser, and whether its timestamps are absolute
#: (rebased to the trace's first timestamped request) rather than
#: trace-relative.
_FORMATS = {
    "native": (_parse_native, False),
    "msr": (_parse_msr, True),
    "fiu": (_parse_fiu, True),
}
FORMATS = tuple(_FORMATS)


def read_trace(
    path: PathLike, fmt: str = "native", limit: Optional[int] = None
) -> Trace:
    """Read the block requests of the ``fmt`` trace file at ``path``.

    Skips blank and ``#`` lines and stops after ``limit`` requests
    without parsing further lines (``limit=0`` reads nothing).  MSR and
    FIU arrival times are rebased to the first timestamped request, and
    an earlier one clamps to 0.  A line that does not parse raises
    :class:`TraceFormatError` naming ``path`` and the line number.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; expected one of {FORMATS}")
    parse_line, absolute = _FORMATS[fmt]
    trace = Trace()
    origin_us: Optional[float] = None
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line_number, line in enumerate(handle, start=1):
            if limit is not None and len(trace) >= limit:
                break
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                run = parse_line(line)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{line_number}: {exc}") from None
            if run is None:
                continue
            is_write, first_lbn, count, arrival_us = run
            if absolute and arrival_us is not None:
                if origin_us is None:
                    origin_us = arrival_us
                arrival_us = max(0.0, arrival_us - origin_us)
            if limit is not None:
                count = min(count, limit - len(trace))
            try:
                trace.add_run(is_write, first_lbn, count, arrival_us)
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{line_number}: {exc}") from None
    return trace
