"""The trace bus: typed events, sinks, and the Chrome exporter.

Zero-cost-when-off by construction: instrumented components carry a
class-level ``tracer = None`` attribute and guard every emission with
``if self.tracer is not None``.  With no tracer attached the
simulation executes exactly the same arithmetic it always did — the
differential tests assert bit-identical results — and with one
attached, the only added work is building small event tuples.

Timestamps are *simulated* microseconds.  The replay engine pushes the
current dispatch time into the tracer (:meth:`Tracer.advance_to`)
before issuing each request, so events emitted deep inside the device
(log flushes, merges, evictions) are stamped with the simulated time
of the request that caused them.

Sinks receive every event:

* :class:`RingBufferSink` keeps the last N events in memory (the
  default for interactive use and for the Chrome exporter);
* :class:`JsonlSink` streams one JSON object per line to a file, the
  format ``repro trace report`` consumes.

:func:`write_chrome_trace` renders captured events in the Chrome
``trace_event`` JSON format: open the file in https://ui.perfetto.dev
or ``chrome://tracing`` and each resource — every flash plane of every
shard (the ``s<k>:plane:<n>`` lanes), the disk, the log, the GC — gets
its own named track.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Dict, IO, Iterable, List, Mapping, NamedTuple, Optional, Union

from repro.obs.events import EVENT_TYPES


class TraceEvent(NamedTuple):
    """One emitted event: a declared type plus its instance data."""

    name: str                 # key into EVENT_TYPES
    cat: str                  # category (copied from the spec)
    ts_us: float              # simulated start time
    dur_us: float             # simulated duration (0.0 for instants)
    lane: str                 # timeline this event belongs to
    args: Mapping[str, Any]   # per-instance fields

    def to_dict(self) -> Dict[str, Any]:
        """JSONL representation (one line of a :class:`JsonlSink` file)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "lane": self.lane,
            "args": dict(self.args),
        }


class RingBufferSink:
    """Keeps the most recent ``capacity`` events; counts what it drops."""

    def __init__(self, capacity: int = 1_000_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def accept(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams events as JSON Lines to ``path`` (or an open file)."""

    def __init__(self, path_or_file: Union[str, "os.PathLike[str]", IO[str]]):
        if isinstance(path_or_file, (str, os.PathLike)):
            self._file: IO[str] = open(path_or_file, "w")
            self._owns = True
        else:
            self._file = path_or_file
            self._owns = False
        self.written = 0

    def accept(self, event: TraceEvent) -> None:
        json.dump(event.to_dict(), self._file, separators=(",", ":"))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


class Tracer:
    """The trace bus: validates event types and fans them out to sinks.

    A tracer is attached to a system with
    :func:`repro.obs.wire.instrument_system`; detaching is simply
    attaching ``None``.  ``now_us`` is the current simulated time,
    advanced monotonically by the replay engine; emitters that know a
    better timestamp (the engine's per-op plane reservations) pass
    ``ts_us`` explicitly.
    """

    __slots__ = ("sinks", "now_us", "events_emitted")

    def __init__(self, *sinks):
        self.sinks = list(sinks) if sinks else [RingBufferSink()]
        self.now_us = 0.0
        self.events_emitted = 0

    @property
    def ring(self) -> Optional[RingBufferSink]:
        """The first ring-buffer sink, if any (convenience for exports)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def advance_to(self, ts_us: float) -> None:
        """Move simulated time forward (never backward)."""
        if ts_us > self.now_us:
            self.now_us = ts_us

    def emit(self, name: str, lane: str = "", dur_us: float = 0.0,
             ts_us: Optional[float] = None, **args: Any) -> None:
        """Emit one event of declared type ``name``."""
        spec = EVENT_TYPES.get(name)
        if spec is None:
            raise ValueError(
                f"undeclared event type {name!r}; add it to repro.obs.events"
            )
        event = TraceEvent(
            name=name,
            cat=spec.category,
            ts_us=self.now_us if ts_us is None else ts_us,
            dur_us=dur_us,
            lane=lane,
            args=args,
        )
        self.events_emitted += 1
        for sink in self.sinks:
            sink.accept(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------

def chrome_trace_events(events: Iterable[TraceEvent]) -> List[Dict[str, Any]]:
    """Convert events to Chrome ``trace_event`` dicts (one process,
    one named thread per lane).

    Events with a duration become complete ("X") slices; zero-duration
    events become instant ("i") marks.  Lane-name metadata ("M")
    records come first so Perfetto labels every track.
    """
    lanes: Dict[str, int] = {}
    out: List[Dict[str, Any]] = []
    body: List[Dict[str, Any]] = []
    for event in events:
        lane = event.lane or event.cat
        tid = lanes.get(lane)
        if tid is None:
            tid = len(lanes)
            lanes[lane] = tid
        entry: Dict[str, Any] = {
            "name": event.name,
            "cat": event.cat,
            "ts": event.ts_us,
            "pid": 0,
            "tid": tid,
            "args": dict(event.args),
        }
        if event.dur_us > 0.0:
            entry["ph"] = "X"
            entry["dur"] = event.dur_us
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        body.append(entry)
    for lane, tid in lanes.items():
        out.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": lane},
        })
    out.extend(body)
    return out


def write_chrome_trace(events: Iterable[TraceEvent],
                       path_or_file: Union[str, "os.PathLike[str]", IO[str]]) -> int:
    """Write ``events`` as a Perfetto-loadable Chrome trace JSON file.

    Returns the number of trace entries written (including lane
    metadata records).
    """
    entries = chrome_trace_events(events)
    document = {"traceEvents": entries, "displayTimeUnit": "ms"}
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")
    else:
        json.dump(document, path_or_file)
        path_or_file.write("\n")
    return len(entries)
