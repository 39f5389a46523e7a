"""Metric snapshots: named counters, gauges and histograms as values.

The simulator already keeps excellent numbers — ``FTLStats``,
``ManagerStats``, ``FlashStats``, ``ReplayStats``, the log and
checkpoint counters — but they live in per-layer dataclasses with
per-layer ``to_dict`` spellings.  :func:`repro.obs.catalog.collect`
reads every cataloged metric from those layer counters after a run and
returns one namespaced :class:`MetricsSnapshot`.

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
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence


def histogram(bounds: Sequence[float],
              samples: Iterable[float]) -> Dict[str, Any]:
    """The fixed-bucket histogram of ``samples`` as a snapshot entry.

    ``counts`` has ``len(bounds) + 1`` entries; ``counts[i]`` is the
    number of samples with ``bounds[i-1] < x <= bounds[i]`` and the
    final entry counts samples above the last bound.  ``sum`` adds the
    samples in order.
    """
    if not bounds:
        raise ValueError("histogram needs at least one bucket bound")
    ordered = [float(b) for b in bounds]
    if ordered != sorted(set(ordered)):
        raise ValueError("histogram bounds must be strictly increasing")
    counts = [0] * (len(ordered) + 1)
    total = 0.0
    for sample in samples:
        counts[bisect.bisect_left(ordered, sample)] += 1
        total += sample
    return {"bounds": ordered, "counts": counts, "count": sum(counts),
            "sum": total}


def _copy(hist: Mapping[str, Any], sign: int = 1) -> Dict[str, Any]:
    """A fresh histogram entry, each count and the sum times ``sign``."""
    return {
        "bounds": list(hist["bounds"]),
        "counts": [sign * c for c in hist["counts"]],
        "count": sign * hist["count"],
        "sum": sign * hist["sum"],
    }


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
            name: _copy(h) for name, h in (histograms or {}).items()
        }

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise sum of two snapshots (shards -> array)."""
        return self._combine(other, 1)

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise subtraction: ``after.diff(before)`` isolates a phase.

        Inverse of ``merge``: ``a.merge(b).diff(b)`` equals ``a`` on
        every metric present in ``a``.
        """
        return self._combine(baseline, -1)

    def _combine(self, other: "MetricsSnapshot",
                 sign: int) -> "MetricsSnapshot":
        """``self`` plus ``sign`` times ``other``, metric by metric."""
        counters = dict(self.counters)
        gauges = dict(self.gauges)
        for mine, theirs in ((counters, other.counters),
                             (gauges, other.gauges)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0.0) + sign * value
        histograms = {name: _copy(h) for name, h in self.histograms.items()}
        for name, theirs in other.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = _copy(theirs, sign)
                continue
            if mine["bounds"] != list(theirs["bounds"]):
                raise ValueError(
                    f"cannot combine histogram {name!r}: bucket bounds differ"
                )
            mine["counts"] = [a + sign * b for a, b in
                              zip(mine["counts"], theirs["counts"])]
            mine["count"] += sign * theirs["count"]
            mine["sum"] += sign * theirs["sum"]
        return MetricsSnapshot(counters, gauges, histograms)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: _copy(h) for name, h in sorted(self.histograms.items())
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
