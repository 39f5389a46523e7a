"""Replay-level statistics: hits, misses, latency distribution.

These are the manager-facing numbers behind Figures 3/4/6 (IOPS and
response times) and the miss-rate column of Table 5.  With the
event-driven replay engine, per-request latency splits into *service
time* (the device actively working) and *queueing delay* (waiting for a
busy plane or the disk spindle), and per-resource busy time supports
device-utilization reporting.

It also holds the metric-field helpers every layer's statistics use:
a field declared with :func:`counter` or :func:`gauge` carries its own
description, and :mod:`repro.obs.catalog` derives the metric catalog,
``collect()`` and ``docs/metrics.md`` from those declarations.  They
live here rather than in :mod:`repro.obs` because simulation layers
must not import the observability package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import reduce
from math import ceil
from typing import Any, Dict, Iterable, List, Tuple, Type, TypeVar


def counter(doc: str) -> Any:
    """A dataclass field holding a cumulative count, described by ``doc``."""
    return field(default=0, metadata={"kind": "counter", "doc": doc})


def gauge(doc: str) -> Any:
    """A dataclass field holding a point-in-time value, described by ``doc``."""
    return field(default=0.0, metadata={"kind": "gauge", "doc": doc})


def metric_fields(stats: Any) -> List[Tuple[str, str, str]]:
    """``(field name, kind, description)`` of every field of the
    dataclass (or instance) ``stats`` declared with :func:`counter` or
    :func:`gauge`, in declaration order."""
    return [
        (f.name, f.metadata["kind"], f.metadata["doc"])
        for f in fields(stats)
        if "kind" in f.metadata
    ]


C = TypeVar("C", bound="Counters")


@dataclass
class Counters:
    """Base of the additive layer statistics.

    Every field is summable, so two instances combine field-wise:
    :meth:`merge` is commutative and associative with ``cls()`` as the
    unit, and ratios derived from the fields (miss rate, write
    amplification) are then computed over the combined counters.
    """

    def merge(self: C, other: C) -> C:
        """Return self + other, field-wise."""
        return type(self)(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    @classmethod
    def total(cls: Type[C], items: Iterable[C]) -> C:
        """Field-wise sum of ``items`` (a fresh ``cls()`` when empty) —
        aggregates the members of a sharded array."""
        return reduce(cls.merge, items, cls())


class LatencyStats:
    """Streaming latency accumulator (mean, max, percentiles)."""

    def __init__(self, keep_samples: bool = False):
        self.count = 0
        self.total_us = 0.0
        self.max_us = 0.0
        self._keep = keep_samples
        self._samples: List[float] = []

    def record(self, latency_us: float) -> None:
        """Record one request's service time."""
        if latency_us < 0:
            raise ValueError("latency cannot be negative")
        self.count += 1
        self.total_us += latency_us
        if latency_us > self.max_us:
            self.max_us = latency_us
        if self._keep:
            self._samples.append(latency_us)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    @property
    def samples(self) -> Tuple[float, ...]:
        """The recorded samples (empty unless ``keep_samples=True``)."""
        return tuple(self._samples)

    def percentile(self, pct: float) -> float:
        """Return the ``pct`` percentile (nearest-rank definition).

        The nearest-rank percentile is the smallest sample such that at
        least ``pct`` percent of the data is less than or equal to it:
        rank ``ceil(n * pct / 100)``, 1-indexed.  Requires
        ``keep_samples=True``.
        """
        if not self._keep:
            raise ValueError("percentiles require keep_samples=True")
        # Validate BEFORE the empty-samples short circuit: an out-of-range
        # pct is a caller bug and must never silently read as 0.0 just
        # because nothing was recorded yet.
        if not 0.0 <= pct <= 100.0:
            raise ValueError("pct must be in [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = ceil(len(ordered) * pct / 100.0)
        rank = min(len(ordered), max(1, rank))
        return ordered[rank - 1]

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable summary (machine-comparable across PRs)."""
        return {
            "count": self.count,
            "mean_us": self.mean_us,
            "max_us": self.max_us,
            "total_us": self.total_us,
        }


@dataclass
class ReplayStats:
    """Outcome of replaying a trace through a cache manager.

    ``latency`` is the end-to-end per-request distribution; under the
    event-driven engine it decomposes as ``service`` (device time) plus
    ``queue_wait`` (time spent queued behind busy resources — always
    zero at queue depth 1).  ``device_busy_us`` maps each contended
    resource (``"plane:<n>"``, ``"disk"``) to its cumulative busy time
    during the measured interval.
    """

    ops: int = counter("Measured (post-warmup) trace requests replayed.")
    reads: int = counter("Measured read requests replayed.")
    writes: int = counter("Measured write requests replayed.")
    read_hits: int = counter("Measured reads that hit the cache.")
    read_misses: int = counter("Measured reads that missed to disk.")
    elapsed_us: float = gauge("Simulated wall time of the measured window.")
    queue_depth: int = 1
    latency: LatencyStats = field(default_factory=LatencyStats)
    service: LatencyStats = field(default_factory=LatencyStats)
    queue_wait: LatencyStats = field(default_factory=LatencyStats)
    device_busy_us: Dict[str, float] = field(default_factory=dict)

    def iops(self) -> float:
        """Requests per second of simulated time."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops / (self.elapsed_us / 1e6)

    def miss_rate(self) -> float:
        """Read miss rate in percent (Table 5 convention)."""
        lookups = self.read_hits + self.read_misses
        if lookups == 0:
            return 0.0
        return 100.0 * self.read_misses / lookups

    def utilization(self) -> Dict[str, float]:
        """Fraction of the measured interval each resource was busy."""
        if self.elapsed_us <= 0:
            return {}
        return {
            resource: busy / self.elapsed_us
            for resource, busy in sorted(self.device_busy_us.items())
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form, key order and nesting fixed.

        ``tests/test_replay_stats_golden.py`` pins it, and
        ``tests/golden/wallclock_sim.json`` stores it for 27 replays, so
        stored results stay comparable across changes.  Extend it by
        *adding* keys, never by renaming or restructuring existing ones.
        """
        return {
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "elapsed_us": self.elapsed_us,
            "queue_depth": self.queue_depth,
            "iops": self.iops(),
            "miss_rate_pct": self.miss_rate(),
            "latency": self.latency.to_dict(),
            "service": self.service.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "device_busy_us": dict(sorted(self.device_busy_us.items())),
        }
