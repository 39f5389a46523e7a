"""Structured request completions and device-operation tracing.

The request path used to hand back a bare latency float: the manager
summed every device cost and the replay loop advanced the clock by the
total.  That representation cannot express *where* the time went, so
nothing above the device layer could overlap independent work — IOPS
was capped at 1/mean-latency regardless of how many flash planes the
device has.

This module is the richer currency the whole stack now trades in:

* :class:`DeviceOp` — one timed operation on one contended resource
  (a flash plane or the disk spindle).
* :class:`OpRecorder` — an ambient per-device-tree recorder; a capture
  brackets one request and collects every timed operation it caused,
  in execution order, across the flash chip and the disk.
* :class:`Completion` — a ``float`` subclass carrying the request's
  total service time (the float value, so every legacy call site that
  sums or compares latencies keeps working) plus the op trace and a
  hit/miss tag.

Only a cache manager's ``read``/``write`` opens a capture and builds a
completion; the devices below it return plain float costs and leave
their operations on the shared recorder.

The :class:`~repro.engine.ReplayEngine` consumes completions to model
queue-depth concurrency: ops on distinct planes overlap, ops on the
same plane (or the one disk spindle) queue behind each other, and any
service time not bound to a resource — controller delays, log commits,
virtual-region metadata writes — stays serial within the request.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

#: Resource key of the (single-spindle) disk tier.
DISK_RESOURCE = "disk"


class DeviceOp(NamedTuple):
    """One timed device operation attributed to one contended resource."""

    resource: str      # "plane:<n>", "s<k>:plane:<n>" or "disk"
    kind: str          # "page_read", "page_write", "erase", "oob_scan", ...
    duration_us: float


class OpRecorder:
    """Collects the timed device operations of one in-flight request.

    Each traced device tree (flash chip, disk) holds a recorder; a
    cache manager shares one recorder across its devices so a request's
    operations come back in execution order.  One capture is open at a
    time.  With no capture active (``active`` is False), recording is
    disabled and nothing is retained.
    """

    __slots__ = ("_ops", "active")

    def __init__(self):
        self._ops: List[DeviceOp] = []
        self.active = False

    def begin(self) -> None:
        """Open a capture."""
        if self.active:
            raise RuntimeError("OpRecorder.begin() while a capture is active")
        self.active = True

    def record(self, *ops: DeviceOp) -> None:
        """Record timed operations in execution order (no-op unless a
        capture is open); a chip's page-copy run passes all of its ops."""
        if self.active:
            self._ops.extend(ops)

    def end(self) -> Tuple[DeviceOp, ...]:
        """Close the capture; returns its operations in execution order."""
        if not self.active:
            raise RuntimeError("OpRecorder.end() without a matching begin()")
        self.active = False
        ops = tuple(self._ops)
        self._ops.clear()
        return ops


class Completion(float):
    """A request's service time plus its structure.

    Subclasses ``float`` (the value is the total service latency in
    microseconds) so existing call sites that add, compare or record
    latencies keep working unchanged.  The attributes expose the
    breakdown the event-driven engine and the stats layer need:

    ``ops``
        The :class:`DeviceOp` trace, in execution order.
    ``hit``
        ``True``/``False`` for reads served from cache / disk,
        ``None`` where the notion does not apply (writes).
    """

    __slots__ = ("ops", "hit")

    def __new__(
        cls,
        latency_us: float,
        ops: Iterable[DeviceOp] = (),
        hit: Optional[bool] = None,
    ) -> "Completion":
        self = super().__new__(cls, latency_us)
        # Recorder captures already hand back tuples; re-tupling every
        # completion was a measurable per-op allocation.
        self.ops = ops if type(ops) is tuple else tuple(ops)
        self.hit = hit
        return self

    def __repr__(self) -> str:
        return (
            f"Completion({float(self):.1f}us, ops={len(self.ops)}, "
            f"hit={self.hit})"
        )
