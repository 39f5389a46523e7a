"""Unified observability: structured tracing + documented metric snapshots.

Three pieces (see ``docs/observability.md``):

* the **trace bus** — :class:`Tracer`, typed :class:`TraceEvent`\\ s,
  ring-buffer/JSONL sinks and a Chrome ``trace_event`` exporter
  (:func:`write_chrome_trace`) for Perfetto;
* the **metric snapshots** — :func:`collect` reads every cataloged
  counter, gauge and histogram from a system's layer counters into a
  :class:`MetricsSnapshot` with monoid merge/diff;
* the **schema** — every event and metric is declared with a prose
  description, and :func:`metrics_markdown` regenerates
  ``docs/metrics.md`` from those declarations (CI checks for drift).

Tracing is zero-cost when off: nothing in the simulator imports this
package; emitting classes carry ``tracer = None`` and
:func:`instrument_system` flips them to a live tracer.
"""

from repro.obs.catalog import LATENCY_BUCKETS_US, METRICS, collect
from repro.obs.events import EVENT_TYPES, EventSpec, declare_event
from repro.obs.metrics import MetricsSnapshot
from repro.obs.report import format_report, load_events, summarize
from repro.obs.schema import metrics_markdown
from repro.obs.trace import (
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.wire import instrument_system

__all__ = [
    "EVENT_TYPES",
    "EventSpec",
    "declare_event",
    "LATENCY_BUCKETS_US",
    "METRICS",
    "collect",
    "MetricsSnapshot",
    "format_report",
    "load_events",
    "summarize",
    "metrics_markdown",
    "JsonlSink",
    "RingBufferSink",
    "TraceEvent",
    "Tracer",
    "chrome_trace_events",
    "write_chrome_trace",
    "instrument_system",
]
