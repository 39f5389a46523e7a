"""The metrics registry: named counters, gauges and histograms.

The simulator already keeps excellent numbers — ``FTLStats``,
``ManagerStats``, ``FlashStats``, ``ReplayStats``, the log and
checkpoint counters — but they live in per-layer dataclasses with
per-layer ``to_dict`` spellings.  The registry puts one namespaced
facade over all of them: every metric is *declared* with a kind and a
prose description (:mod:`repro.obs.catalog`), populated from the
authoritative layer counters after a run, and exported as a
:class:`MetricsSnapshot`.

Snapshots form the same commutative monoid the sharded stat merges
do: ``merge`` adds two snapshots (shard A + shard B = array),
``diff`` subtracts a baseline (after - before = this phase), and the
empty snapshot is the identity.  The hypothesis tests in
``tests/test_obs_metrics.py`` pin those laws.

Histograms use fixed upper-bound buckets (Prometheus ``le``
semantics: a sample lands in the first bucket whose bound is >= the
value, or in the overflow bucket).  Fixed bounds are what make
``merge`` well-defined — two histograms merge by adding counts only
when their bounds agree.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Mapping, Optional, Sequence


class Counter:
    """A monotonically increasing count (events, pages, erases)."""

    kind = "counter"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str):
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def set(self, value: float) -> None:
        """Overwrite the count (used when populating from layer stats)."""
        self.value = float(value)


class Gauge:
    """A point-in-time level (bytes of metadata, utilization)."""

    kind = "gauge"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str):
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with ``le`` (inclusive upper bound)
    semantics plus an overflow bucket.

    ``counts`` has ``len(bounds) + 1`` entries; ``counts[i]`` is the
    number of samples with ``bounds[i-1] < x <= bounds[i]`` and the
    final entry counts samples above the last bound.
    """

    kind = "histogram"
    __slots__ = ("name", "description", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, description: str,
                 bounds: Sequence[float]):
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one "
                             "bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing"
            )
        self.name = name
        self.description = description
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Holds declared metrics; the single place descriptions live.

    Declaration order is preserved — it is the order ``docs/metrics.md``
    renders.  Redeclaring a name, or declaring it with an empty
    description, is an error: an undocumented metric must not exist.
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _declare(self, metric) -> Any:
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already declared")
        if not metric.description:
            raise ValueError(f"metric {metric.name!r} needs a description")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, description: str) -> Counter:
        return self._declare(Counter(name, description))

    def gauge(self, name: str, description: str) -> Gauge:
        return self._declare(Gauge(name, description))

    def histogram(self, name: str, description: str,
                  bounds: Sequence[float]) -> Histogram:
        return self._declare(Histogram(name, description, bounds))

    def get(self, name: str) -> Any:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze current values into an immutable, mergeable snapshot."""
        counters = {m.name: m.value for m in self if m.kind == "counter"}
        gauges = {m.name: m.value for m in self if m.kind == "gauge"}
        histograms = {
            m.name: {
                "bounds": list(m.bounds),
                "counts": list(m.counts),
                "count": m.count,
                "sum": m.sum,
            }
            for m in self if m.kind == "histogram"
        }
        return MetricsSnapshot(counters, gauges, histograms)


class MetricsSnapshot:
    """Frozen metric values supporting ``merge``/``diff``/``to_dict``.

    ``merge`` is commutative and associative with the empty snapshot
    as identity: counters and histogram counts/sums add, and gauges
    add too — for the levels we track (memory bytes, busy time) the
    sum across shards is the meaningful array-level value, and
    addition is what keeps the monoid laws exact.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self,
                 counters: Optional[Mapping[str, float]] = None,
                 gauges: Optional[Mapping[str, float]] = None,
                 histograms: Optional[Mapping[str, Mapping[str, Any]]] = None):
        self.counters: Dict[str, float] = dict(counters or {})
        self.gauges: Dict[str, float] = dict(gauges or {})
        self.histograms: Dict[str, Dict[str, Any]] = {
            name: {
                "bounds": list(h["bounds"]),
                "counts": list(h["counts"]),
                "count": h["count"],
                "sum": h["sum"],
            }
            for name, h in (histograms or {}).items()
        }

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise sum of two snapshots (shards -> array)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = gauges.get(name, 0.0) + value
        histograms = {
            name: {
                "bounds": list(h["bounds"]),
                "counts": list(h["counts"]),
                "count": h["count"],
                "sum": h["sum"],
            }
            for name, h in self.histograms.items()
        }
        for name, theirs in other.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = {
                    "bounds": list(theirs["bounds"]),
                    "counts": list(theirs["counts"]),
                    "count": theirs["count"],
                    "sum": theirs["sum"],
                }
                continue
            if list(mine["bounds"]) != list(theirs["bounds"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ"
                )
            mine["counts"] = [a + b for a, b in
                              zip(mine["counts"], theirs["counts"])]
            mine["count"] += theirs["count"]
            mine["sum"] += theirs["sum"]
        return MetricsSnapshot(counters, gauges, histograms)

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise subtraction: ``after.diff(before)`` isolates a phase.

        Inverse of ``merge``: ``a.merge(b).diff(b)`` equals ``a`` on
        every metric present in ``a``.
        """
        counters = dict(self.counters)
        for name, value in baseline.counters.items():
            counters[name] = counters.get(name, 0.0) - value
        gauges = dict(self.gauges)
        for name, value in baseline.gauges.items():
            gauges[name] = gauges.get(name, 0.0) - value
        histograms = {
            name: {
                "bounds": list(h["bounds"]),
                "counts": list(h["counts"]),
                "count": h["count"],
                "sum": h["sum"],
            }
            for name, h in self.histograms.items()
        }
        for name, theirs in baseline.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = {
                    "bounds": list(theirs["bounds"]),
                    "counts": [-c for c in theirs["counts"]],
                    "count": -theirs["count"],
                    "sum": -theirs["sum"],
                }
                continue
            if list(mine["bounds"]) != list(theirs["bounds"]):
                raise ValueError(
                    f"cannot diff histogram {name!r}: bucket bounds differ"
                )
            mine["counts"] = [a - b for a, b in
                              zip(mine["counts"], theirs["counts"])]
            mine["count"] -= theirs["count"]
            mine["sum"] -= theirs["sum"]
        return MetricsSnapshot(counters, gauges, histograms)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                    "count": h["count"],
                    "sum": h["sum"],
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(payload.get("counters", {}),
                   payload.get("gauges", {}),
                   payload.get("histograms", {}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"MetricsSnapshot(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, "
                f"histograms={len(self.histograms)})")

