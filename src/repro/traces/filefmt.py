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

from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.errors import ReproError
from repro.traces.record import OpKind, TraceRecord

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


def _parse_native(line: str) -> List[TraceRecord]:
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
        if arrival_us < 0:
            raise TraceFormatError(
                f"expected non-negative arrival time, got {parts[2]!r}"
            )
    return [TraceRecord(op, lbn, arrival_us)]


def _timestamp_us(field: str, us: float = 1.0, per: float = 1.0) -> Optional[float]:
    """Parse a timestamp ``field`` counting units of which ``per`` make
    ``us`` microseconds; ``None`` if unusable.

    Some republished traces blank or mangle the field; arrival times
    are optional, so parsing stays tolerant.
    """
    try:
        value = float(field)
    except ValueError:
        return None
    if value < 0:
        return None
    return value * us / per


def _blocks(
    op: OpKind, first_byte: int, size: int, arrival_us: Optional[float]
) -> List[TraceRecord]:
    """One record per 4 KB block that ``size`` bytes from ``first_byte``
    touch."""
    first = first_byte // BLOCK_SIZE
    last = (first_byte + size - 1) // BLOCK_SIZE
    return [TraceRecord(op, lbn, arrival_us) for lbn in range(first, last + 1)]


def _parse_msr(line: str) -> List[TraceRecord]:
    """One MSR CSV line: its 4 KB block requests, each carrying the
    request's absolute arrival time, or ``None`` when the Timestamp
    field is unusable."""
    parts = line.split(",")
    if len(parts) < 6:
        raise TraceFormatError(f"expected >=6 CSV fields, got {len(parts)}")
    type_field = parts[3].strip().lower()
    if type_field == "read":
        op = OpKind.READ
    elif type_field == "write":
        op = OpKind.WRITE
    else:
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
    if size == 0:
        return []
    return _blocks(op, offset, size, _timestamp_us(parts[0], per=_TICKS_PER_US))


def _parse_fiu(line: str) -> List[TraceRecord]:
    """One FIU line: its 4 KB block requests, each carrying the
    request's absolute arrival time, or ``None`` when the timestamp
    field is unusable."""
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
    if op_field.startswith("w"):
        op = OpKind.WRITE
    elif op_field.startswith("r"):
        op = OpKind.READ
    else:
        raise TraceFormatError(f"unknown op {parts[5]!r}")
    if size_sectors == 0:
        return []
    return _blocks(
        op, lba * SECTOR_SIZE, size_sectors * SECTOR_SIZE,
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
) -> List[TraceRecord]:
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
    records: List[TraceRecord] = []
    origin_us: Optional[float] = None
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line_number, line in enumerate(handle, start=1):
            if limit is not None and len(records) >= limit:
                break
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed = parse_line(line)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{line_number}: {exc}") from None
            for record in parsed:
                if absolute and record.arrival_us is not None:
                    if origin_us is None:
                        origin_us = record.arrival_us
                    record.arrival_us = max(0.0, record.arrival_us - origin_us)
            records.extend(parsed)
    if limit is not None:
        del records[limit:]
    return records
