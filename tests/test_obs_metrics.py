"""Metric snapshots: the catalog's integrity, histogram bucket edges,
and the snapshot monoid.

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
from repro.obs import LATENCY_BUCKETS_US, METRICS, MetricsSnapshot, collect
from repro.obs.metrics import histogram
from repro.traces.synthetic import PROFILES, generate_trace


class TestCatalog:
    def test_names_unique(self):
        names = [entry[0] for entry in METRICS]
        assert len(names) == len(set(names))

    def test_every_metric_documented(self):
        for entry in METRICS:
            assert entry[2], f"metric {entry[0]!r} needs a description"

    def test_kinds_known(self):
        for entry in METRICS:
            assert entry[1] in ("counter", "gauge", "histogram"), entry[0]

    def test_collect_reports_every_metric_under_its_kind(self):
        system = build_system(SystemConfig(kind=SystemKind.SSC,
                                           cache_blocks=256))
        snap = collect(system)
        by_kind = {"counter": snap.counters, "gauge": snap.gauges,
                   "histogram": snap.histograms}
        for entry in METRICS:
            assert entry[0] in by_kind[entry[1]], entry[0]
        assert sum(map(len, by_kind.values())) == len(METRICS)


class TestHistogramBuckets:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            histogram((1.0, 1.0, 2.0), ())
        with pytest.raises(ValueError, match="strictly increasing"):
            histogram((2.0, 1.0), ())
        with pytest.raises(ValueError, match="at least one"):
            histogram((), ())

    def test_le_semantics_on_exact_bounds(self):
        # A sample exactly on a bound lands in that bound's bucket
        # (Prometheus ``le``), not the next one.
        hist = histogram((10.0, 20.0, 30.0), (10.0, 20.0, 30.0))
        assert hist["counts"] == [1, 1, 1, 0]

    def test_open_intervals_between_bounds(self):
        # <= 10, (10, 20] twice, overflow
        hist = histogram((10.0, 20.0), (0.0, 10.0001, 19.9999, 20.0001))
        assert hist["counts"] == [1, 2, 1]

    def test_overflow_bucket_count_and_sum(self):
        assert histogram((1.0,), ()) == {
            "bounds": [1.0], "counts": [0, 0], "count": 0, "sum": 0.0}
        hist = histogram((1.0,), (5.0, 7.0))
        assert hist["counts"] == [0, 2]
        assert hist["count"] == 2
        assert hist["sum"] == 12.0

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
        hist = histogram((1.0,), (0.5,))
        snap = MetricsSnapshot({"c": 1.0}, histograms={"h": hist})
        hist["counts"][0] += 41
        assert snap.histograms["h"]["counts"] == [1, 0]

    def test_diff_is_merge_of_negation(self):
        a = MetricsSnapshot({"c": 0.1, "d": 3.0}, {"g": 0.7},
                            {"h": histogram((1.0,), (0.5, 2.0))})
        b = MetricsSnapshot({"c": 0.3, "e": 1.0}, {"g": 0.2},
                            {"h": histogram((1.0,), (0.25,)),
                             "k": histogram((5.0,), (9.0,))})
        negated = MetricsSnapshot(
            {k: -1 * v for k, v in b.counters.items()},
            {k: -1 * v for k, v in b.gauges.items()},
            {k: {"bounds": h["bounds"], "counts": [-c for c in h["counts"]],
                 "count": -h["count"], "sum": -1 * h["sum"]}
             for k, h in b.histograms.items()})
        # Compared as JSON text so a -0.0 against 0.0 would show.
        assert json.dumps(a.merge(negated).to_dict()) == \
            json.dumps(a.diff(b).to_dict())


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
