"""The metrics registry: declaration semantics, bucket edges, and the
snapshot monoid.

The snapshot laws matter operationally: ``merge`` is how per-shard
metrics roll up into array totals (the same contract the sharded stat
views rely on) and ``diff`` is how a measurement window is isolated
from a running system.  The hypothesis layer pins commutativity,
associativity, the empty identity, and diff-as-merge-inverse over
integer-valued snapshots (integers keep float addition exact, which
is also why real collections count pages and events, not fractions).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.obs import (
    LATENCY_BUCKETS_US,
    METRICS,
    MetricsRegistry,
    MetricsSnapshot,
    build_registry,
    collect,
)
from repro.obs.metrics import Histogram
from repro.traces.synthetic import PROFILES, generate_trace


class TestRegistryDeclaration:
    def test_declaration_order_preserved(self):
        registry = MetricsRegistry()
        registry.counter("b.second", "desc")
        registry.counter("a.first", "desc")
        assert [m.name for m in registry] == ["b.second", "a.first"]

    def test_redeclaration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "desc")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("x", "other desc")

    def test_empty_description_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="needs a description"):
            registry.counter("undocumented", "")

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "desc")
        counter.inc(3)
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        assert counter.value == 3

    def test_contains_get_len(self):
        registry = MetricsRegistry()
        registry.gauge("g", "desc")
        assert "g" in registry and "h" not in registry
        assert registry.get("g").kind == "gauge"
        assert len(registry) == 1

    def test_catalog_builds_every_metric(self):
        registry = build_registry()
        assert len(registry) == len(METRICS)
        for entry in METRICS:
            assert entry[0] in registry
            assert registry.get(entry[0]).kind == entry[1]
            assert registry.get(entry[0]).description


class TestHistogramBuckets:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "desc", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "desc", (2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", "desc", ())

    def test_le_semantics_on_exact_bounds(self):
        # A sample exactly on a bound lands in that bound's bucket
        # (Prometheus ``le``), not the next one.
        hist = Histogram("h", "desc", (10.0, 20.0, 30.0))
        for value in (10.0, 20.0, 30.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 0]

    def test_open_intervals_between_bounds(self):
        hist = Histogram("h", "desc", (10.0, 20.0))
        hist.observe(0.0)      # <= 10
        hist.observe(10.0001)  # (10, 20]
        hist.observe(19.9999)  # (10, 20]
        hist.observe(20.0001)  # overflow
        assert hist.counts == [1, 2, 1]

    def test_overflow_bucket_and_mean(self):
        hist = Histogram("h", "desc", (1.0,))
        assert hist.mean() == 0.0
        hist.observe(5.0)
        hist.observe(7.0)
        assert hist.counts == [0, 2]
        assert hist.count == 2
        assert hist.mean() == 6.0

    def test_catalog_latency_buckets_cover_flash_and_disk(self):
        # The committed bounds must bracket a flash page read (~77us
        # lands in a low bucket) and a multi-seek miss (~10ms well
        # inside range), or the replay histogram saturates at the ends.
        assert LATENCY_BUCKETS_US[0] <= 100.0
        assert LATENCY_BUCKETS_US[-1] >= 20_000.0
        assert list(LATENCY_BUCKETS_US) == sorted(set(LATENCY_BUCKETS_US))


# ---------------------------------------------------------------------------
# Snapshot monoid laws (hypothesis)
# ---------------------------------------------------------------------------

BOUNDS = (10.0, 100.0)
METRIC_NAMES = ("a.ops", "b.pages", "c.erases")

counts_st = st.integers(min_value=0, max_value=10**6).map(float)


@st.composite
def snapshots(draw):
    counters = {
        name: draw(counts_st)
        for name in draw(st.sets(st.sampled_from(METRIC_NAMES)))
    }
    gauges = {
        name: draw(counts_st)
        for name in draw(st.sets(st.sampled_from(("g.bytes", "g.busy"))))
    }
    histograms = {}
    if draw(st.booleans()):
        counts = [int(draw(counts_st)) for _ in range(len(BOUNDS) + 1)]
        histograms["h.lat"] = {
            "bounds": list(BOUNDS),
            "counts": counts,
            "count": sum(counts),
            "sum": draw(counts_st),
        }
    return MetricsSnapshot(counters, gauges, histograms)


class TestSnapshotMonoid:
    @given(a=snapshots(), b=snapshots())
    @settings(max_examples=60)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(a=snapshots(), b=snapshots(), c=snapshots())
    @settings(max_examples=60)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(a=snapshots())
    @settings(max_examples=60)
    def test_empty_is_identity(self, a):
        empty = MetricsSnapshot.empty()
        assert a.merge(empty) == a
        assert empty.merge(a) == a

    @given(a=snapshots(), b=snapshots())
    @settings(max_examples=60)
    def test_diff_inverts_merge(self, a, b):
        merged = a.merge(b)
        recovered = merged.diff(b)
        # Equal on every metric a carries; diff may add explicit zeros
        # for metrics only b had.
        for name, value in a.counters.items():
            assert recovered.counters[name] == value
        for name, value in a.gauges.items():
            assert recovered.gauges[name] == value
        for name, hist in a.histograms.items():
            assert recovered.histograms[name] == hist

    @given(a=snapshots())
    @settings(max_examples=60)
    def test_self_diff_is_zero(self, a):
        zero = a.diff(a)
        assert all(v == 0.0 for v in zero.counters.values())
        assert all(v == 0.0 for v in zero.gauges.values())
        for hist in zero.histograms.values():
            assert all(c == 0 for c in hist["counts"])
            assert hist["count"] == 0

    @given(a=snapshots())
    @settings(max_examples=60)
    def test_to_dict_round_trip(self, a):
        payload = json.loads(json.dumps(a.to_dict()))
        assert MetricsSnapshot.from_dict(payload) == a


class TestSnapshotEdges:
    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsSnapshot(histograms={
            "h": {"bounds": [1.0], "counts": [0, 0], "count": 0, "sum": 0.0}
        })
        b = MetricsSnapshot(histograms={
            "h": {"bounds": [2.0], "counts": [0, 0], "count": 0, "sum": 0.0}
        })
        with pytest.raises(ValueError, match="bounds differ"):
            a.merge(b)
        with pytest.raises(ValueError, match="bounds differ"):
            a.diff(b)

    def test_snapshot_is_frozen_copy(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "desc")
        counter.inc(1)
        snap = registry.snapshot()
        counter.inc(41)
        assert snap.counters["c"] == 1.0
        assert registry.snapshot().counters["c"] == 42.0


class TestCollect:
    def test_collect_matches_layer_stats(self):
        profile = PROFILES["homes"].scaled(0.01)
        system = build_system(SystemConfig(
            kind=SystemKind.SSC,
            mode=CacheMode.WRITE_BACK,
            cache_blocks=256,
            disk_blocks=profile.address_range_blocks,
        ))
        trace = generate_trace(profile, seed=42)
        stats = system.replay(trace.records, warmup_fraction=0.25,
                              keep_latencies=True)

        snap = collect(system, stats)
        counters = snap.counters
        assert counters["manager.reads"] == system.manager.stats.reads
        assert counters["ftl.gc_page_writes"] == \
            system.device.stats.gc_page_writes
        assert counters["flash.block_erases"] == \
            system.device.chip.stats.block_erases
        assert counters["log.records_written"] == \
            system.device.oplog.records_written
        assert counters["replay.ops"] == stats.ops
        hist = snap.histograms["replay.latency_us"]
        assert hist["count"] == stats.ops
        assert sum(hist["counts"]) == hist["count"]

    def test_collect_sums_log_counters_across_shards(self):
        profile = PROFILES["homes"].scaled(0.01)
        sharded = build_system(SystemConfig(
            kind=SystemKind.SSC,
            mode=CacheMode.WRITE_BACK,
            cache_blocks=512,
            disk_blocks=profile.address_range_blocks,
            shards=2,
        ))
        trace = generate_trace(profile, seed=42)
        sharded.replay(trace.records, warmup_fraction=0.25)
        snap = collect(sharded)
        expected = sum(s.oplog.records_written
                       for s in sharded.device.shards)
        assert snap.counters["log.records_written"] == expected
        assert snap.counters["log.records_written"] > 0
