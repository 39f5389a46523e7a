"""The metric catalog: every metric the simulator exports, documented.

Mirrors :mod:`repro.obs.events` for metrics: a metric exists only with
a declaration — name, kind and a prose description — and the catalog
is what ``python -m repro obs schema`` renders into
``docs/metrics.md``.

Almost every metric is a layer counter, declared once as a field of the
class that accumulates it (:class:`~repro.manager.base.ManagerStats`,
:class:`~repro.ftl.base.FTLStats`, :class:`~repro.flash.chip.FlashStats`,
:class:`~repro.ssc.log.OperationLog`,
:class:`~repro.ssc.checkpoint.CheckpointStore`,
:class:`~repro.stats.counters.ReplayStats`) with
:func:`~repro.stats.counters.counter` or
:func:`~repro.stats.counters.gauge`.  The catalog and :func:`collect`
derive from those fields; only the metrics that are not fields are
declared here.  The hot paths keep bumping plain attributes, and
:func:`collect` reads them into a snapshot after a run, so exporting
metrics costs nothing while the simulation executes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.flash.chip import FlashStats
from repro.ftl.base import FTLStats
from repro.manager.base import ManagerStats
from repro.obs.metrics import MetricsSnapshot, histogram
from repro.ssc.checkpoint import CheckpointStore
from repro.ssc.log import OperationLog
from repro.stats.counters import ReplayStats, metric_fields

#: Fixed latency histogram bucket upper bounds, in microseconds.  The
#: range spans a flash page read (~an SSC hit) through multi-disk-seek
#: misses; fixed bounds keep cross-run and cross-shard merges exact.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50.0, 100.0, 200.0, 500.0, 1000.0,
    2000.0, 5000.0, 10000.0, 20000.0, 50000.0,
)

#: (metric name prefix, class declaring the counter fields), in the
#: order ``docs/metrics.md`` lists them.
LAYERS: Tuple[Tuple[str, type], ...] = (
    ("manager", ManagerStats),
    ("ftl", FTLStats),
    ("flash", FlashStats),
    ("log", OperationLog),
    ("checkpoint", CheckpointStore),
    ("replay", ReplayStats),
)

#: (name, kind, description) for every declared metric, in the order
#: ``docs/metrics.md`` lists them.  Histograms carry their bounds as a
#: fourth element.
METRICS: List[Tuple] = [
    (f"{prefix}.{name}", kind, description)
    for prefix, layer in LAYERS
    for name, kind, description in metric_fields(layer)
] + [
    ("replay.latency_us", "histogram",
     "End-to-end request latency distribution over the measured window "
     "(requires latency samples, i.e. keep_latencies=True).",
     LATENCY_BUCKETS_US),
    # ---- memory footprint (Table 4) ----------------------------------
    ("memory.device_bytes", "gauge",
     "Modeled device RAM for mapping state."),
    ("memory.host_bytes", "gauge",
     "Modeled host RAM the cache manager needs."),
]


def collect(system: Any,
            replay_stats: Optional[Any] = None) -> MetricsSnapshot:
    """The snapshot of every cataloged metric, read from ``system``'s
    layer counters.

    ``system`` is a :class:`~repro.core.flashtier.FlashTierSystem` (or
    anything exposing ``manager``/``device``); sharded arrays are
    handled transparently because their stats properties already merge
    across members, and the per-member log and checkpoint counters are
    summed.  ``replay_stats`` (a
    :class:`~repro.stats.counters.ReplayStats`) adds the replay-level
    results; the latency histogram fills only when the replay kept its
    samples.  Counters add across sources; a gauge takes the value of
    the last source that reports it.
    """
    counters = {entry[0]: 0.0 for entry in METRICS if entry[1] == "counter"}
    gauges = {entry[0]: 0.0 for entry in METRICS if entry[1] == "gauge"}
    manager = system.manager
    device = system.device

    sources = [("manager", manager.stats), ("ftl", device.stats),
               ("flash", device.chip.stats)]
    for member in getattr(device, "shards", [device]):
        if hasattr(member, "oplog"):
            sources += [("log", member.oplog),
                        ("checkpoint", member.checkpoints)]
    if replay_stats is not None:
        sources.append(("replay", replay_stats))
    for prefix, stats in sources:
        for name, kind, _ in metric_fields(stats):
            if kind == "counter":
                counters[f"{prefix}.{name}"] += getattr(stats, name)
            else:
                gauges[f"{prefix}.{name}"] = float(getattr(stats, name))

    gauges["memory.device_bytes"] = float(device.device_memory_bytes())
    gauges["memory.host_bytes"] = float(manager.host_memory_bytes())
    samples = replay_stats.latency.samples if replay_stats is not None else ()
    latency = histogram(LATENCY_BUCKETS_US, samples)
    return MetricsSnapshot(counters, gauges, {"replay.latency_us": latency})
