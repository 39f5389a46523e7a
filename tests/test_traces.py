"""Unit tests for trace records, Zipf sampling, and synthetic workloads."""

import hashlib
import math
import random
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.traces.analyze import analyze
from repro.traces.record import OpKind, Trace, TraceRecord
from repro.traces.synthetic import (
    HOMES,
    MAIL,
    PROFILES,
    PROJ,
    USR,
    WorkloadProfile,
    generate_trace,
)
from repro.traces.zipf import ZipfSampler


class TestTraceRecord:
    def test_fields(self):
        record = TraceRecord(OpKind.WRITE, 42)
        assert record.is_write
        assert record.lbn == 42

    def test_read_is_not_write(self):
        assert not TraceRecord(OpKind.READ, 1).is_write

    def test_negative_lbn_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(OpKind.READ, -1)

    def test_equality_and_hash(self):
        a = TraceRecord(OpKind.READ, 5)
        b = TraceRecord(OpKind.READ, 5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TraceRecord(OpKind.WRITE, 5)

    @pytest.mark.parametrize("op", ["W", "R", True, None])
    def test_op_must_be_an_op_kind(self, op):
        # A string op used to build, and replay took it for a read.
        with pytest.raises(TypeError, match="OpKind"):
            TraceRecord(op, 5)

    @pytest.mark.parametrize("arrival_us", [math.nan, math.inf])
    def test_non_finite_arrival_rejected(self, arrival_us):
        with pytest.raises(ValueError, match="finite"):
            TraceRecord(OpKind.WRITE, 5, arrival_us)

    def test_immutable(self):
        record = TraceRecord(OpKind.WRITE, 5)
        with pytest.raises(AttributeError):
            record.lbn = 6
        with pytest.raises(AttributeError):
            record.arrival_us = 1.0
        assert record == TraceRecord(OpKind.WRITE, 5)


class TestTrace:
    RECORDS = [
        TraceRecord(OpKind.WRITE, 7),
        TraceRecord(OpKind.READ, 3),
        TraceRecord(OpKind.WRITE, 8),
    ]

    def test_columns(self):
        trace = Trace.of(self.RECORDS)
        assert trace.lbns == array("q", [7, 3, 8])
        assert trace.writes == bytearray([1, 0, 1])
        assert trace.arrivals is None
        assert len(trace) == 3

    def test_views_round_trip(self):
        trace = Trace.of(self.RECORDS)
        assert list(trace) == self.RECORDS
        assert trace == self.RECORDS
        assert [trace[index] for index in range(-3, 3)] == self.RECORDS * 2
        assert trace[1].op is OpKind.READ and not trace[1].is_write
        assert Trace.of(trace) is trace

    def test_slice_is_a_trace(self):
        trace = Trace.of(self.RECORDS)
        part = trace[1:]
        assert isinstance(part, Trace)
        assert part == self.RECORDS[1:]

    def test_runs(self):
        trace = Trace()
        trace.add_run(True, 10, 3)
        trace.add_run(False, 2)
        assert list(trace.lbns) == [10, 11, 12, 2]
        assert list(trace.writes) == [1, 1, 1, 0]

    def test_arrival_column_appears_with_the_first_timestamp(self):
        trace = Trace()
        trace.add_run(False, 1)
        assert trace.arrivals is None
        assert trace.first_untimed() == 0
        trace.add_run(True, 2, 2, arrival_us=5.0)
        trace.add_run(False, 4)
        assert isinstance(trace.arrivals, array) and trace.arrivals.typecode == "d"
        assert [record.arrival_us for record in trace] == [None, 5.0, 5.0, None]
        assert trace[1] == TraceRecord(OpKind.WRITE, 2, 5.0)
        assert trace.first_untimed(1) == 3
        assert trace.first_untimed(4) is None

    @pytest.mark.parametrize("lbn,count,arrival_us", [
        (-1, 1, None), (2**63 - 1, 2, None), (0, 1, math.nan), (0, 1, -1.0),
    ])
    def test_bad_run_rejected(self, lbn, count, arrival_us):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.add_run(True, lbn, count, arrival_us)
        assert len(trace) == 0 and trace.arrivals is None


def _stream_digest(trace) -> str:
    digest = hashlib.sha256()
    for record in trace:
        digest.update(
            f"{record.op.value} {record.lbn} {record.arrival_us!r}\n".encode()
        )
    return digest.hexdigest()


class TestGeneratedStream:
    """sha256 of generate_trace's (op, lbn, arrival_us) stream, recorded
    when each trace was a list of record objects: the columnar trace and
    its run-at-a-time generator make the very same requests."""

    DIGESTS = {
        ("homes", 0): "74d00dfcce7e8824421232ef1d78828738dc8d673b99dade870a52e349c0d892",
        ("homes", 1): "c9ad0e181c08669ae8083347549b91111ee3603947fec4c6663dc6e7e5addb1e",
        ("homes", 2): "6b0c8f02c956a295923e25a367728a80834ea078a996d52c22abde61d6778e75",
        ("mail", 0): "84110a21e19b843b01cce1ed83bd6d75cd2df079517cebe362fd5c90d353aa77",
        ("mail", 1): "50e63af2a94dd406d10b431c6954ab4e541bd59f73b510e8c5eb95d2b1c95300",
        ("mail", 2): "a8495e4553bb67c5ad81c2c7f0c30f87b0e2aff6ff9db57732a2432adcccd4f6",
        ("usr", 0): "f12516f52136c0bb970b881e70e16d13785324e27e14ca80720e42d05f18b309",
        ("usr", 1): "ce7d33907e3d36f298a4cca605d78aff82970ad5c817c6fc7683593d76609b44",
        ("usr", 2): "f60ae6d6577078b0355212755825488f0c8d7a574020835ed1fd816f9fb8a74e",
        ("proj", 0): "3d5ff7b558109a736867e6a1410f6a7ed20be09105672a26797977f276694c1a",
        ("proj", 1): "623e7514ae6b8f1000fc2df2d30eb1bcafd39afea0c69a671b29356dac0d85c7",
        ("proj", 2): "04e092e2d5a75676f8aea174db845fd926558db64410670d4d86720783dcea2e",
    }
    TIMED_DIGESTS = {
        0: "de07c3279537652e53468e964b13c2201b85060760f87d48e2635350a5f02a40",
        1: "d9cd0a1d24d4d30485b22cf1f957ca6e5d30aa841503eb6d0cb7dccc3fad248b",
        2: "b80b4110b346233d82cf03aa8721d10816bda14d6132bf5d2eb1e1314c47dc59",
    }

    @pytest.mark.parametrize("name,seed", sorted(DIGESTS))
    def test_stream_unchanged(self, name, seed):
        trace = generate_trace(PROFILES[name].scaled(0.05), seed=seed)
        assert _stream_digest(trace) == self.DIGESTS[name, seed]

    @pytest.mark.parametrize("seed", sorted(TIMED_DIGESTS))
    def test_timed_stream_unchanged(self, seed):
        profile = replace(USR.scaled(0.05), arrival_rate_iops=2000.0)
        trace = generate_trace(profile, seed=seed)
        assert trace.records.arrivals is not None
        assert _stream_digest(trace) == self.TIMED_DIGESTS[seed]

    def test_costs_at_most_16_bytes_per_record(self):
        profile = MAIL.scaled(0.2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = generate_trace(profile, seed=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == profile.total_ops
        assert held <= 16 * len(trace)

    def test_blocks_derived_from_extents(self):
        trace = generate_trace(HOMES.scaled(0.05), seed=3)
        assert "blocks" not in vars(trace)
        assert trace.blocks == [
            lbn for start, length in trace.extents
            for lbn in range(start, start + length)
        ]


class TestZipfSampler:
    def test_rank_zero_is_hottest(self):
        sampler = ZipfSampler(100, alpha=1.0, rng=random.Random(1))
        counts = [0] * 100
        for _ in range(20_000):
            counts[sampler.sample()] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 5 * counts[50]

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, alpha=0.0, rng=random.Random(2))
        counts = [0] * 10
        for _ in range(20_000):
            counts[sampler.sample()] += 1
        assert max(counts) < 2 * min(counts)

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(50, alpha=1.2, rng=random.Random(3))
        total = sum(sampler.probability(rank) for rank in range(50))
        assert total == pytest.approx(1.0)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            ZipfSampler(0, 1.0, random.Random())
        with pytest.raises(ConfigError):
            ZipfSampler(10, -1.0, random.Random())


class TestProfiles:
    def test_four_table3_workloads(self):
        assert set(PROFILES) == {"homes", "mail", "usr", "proj"}

    @pytest.mark.parametrize("profile,write_frac", [
        (HOMES, 0.959), (MAIL, 0.885), (USR, 0.059), (PROJ, 0.142),
    ])
    def test_write_fractions_match_table3(self, profile, write_frac):
        assert profile.write_fraction == write_frac

    def test_scaled_preserves_write_fraction(self):
        scaled = HOMES.scaled(0.1)
        assert scaled.write_fraction == HOMES.write_fraction
        assert scaled.total_ops < HOMES.total_ops

    def test_cache_blocks_default_quarter(self):
        assert HOMES.cache_blocks() == HOMES.unique_blocks // 4

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(
                name="bad", address_range_blocks=10, unique_blocks=100,
                total_ops=10, write_fraction=0.5,
            )


class TestGeneratedTraces:
    @pytest.fixture(scope="class")
    def homes_trace(self):
        return generate_trace(HOMES.scaled(0.15), seed=7)

    def test_deterministic_for_seed(self):
        profile = HOMES.scaled(0.05)
        a = generate_trace(profile, seed=3)
        b = generate_trace(profile, seed=3)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        profile = HOMES.scaled(0.05)
        a = generate_trace(profile, seed=3)
        b = generate_trace(profile, seed=4)
        assert a.records != b.records

    def test_op_count_exact(self, homes_trace):
        assert len(homes_trace) == homes_trace.profile.total_ops

    def test_write_fraction_close(self, homes_trace):
        assert analyze(homes_trace.records).write_fraction == pytest.approx(
            0.959, abs=0.05)

    def test_addresses_within_range(self, homes_trace):
        limit = homes_trace.profile.address_range_blocks
        assert all(0 <= record.lbn < limit for record in homes_trace.records)

    def test_unique_blocks_bounded_by_layout(self, homes_trace):
        unique = analyze(homes_trace.records).unique_blocks
        assert unique <= len(homes_trace.blocks)

    def test_no_duplicate_block_placement(self, homes_trace):
        assert len(homes_trace.blocks) == len(set(homes_trace.blocks))

    def test_region_density_skew_matches_fig1(self):
        """Fig. 1's shape: most occupied regions are nearly empty while
        some are dense."""
        trace = generate_trace(PROJ.scaled(0.3), seed=5)
        densities = analyze(
            trace.records, region_blocks=trace.profile.region_blocks
        ).region_densities
        sparse = sum(1 for d in densities if d < 0.01) / len(densities)
        dense = sum(1 for d in densities if d > 0.10) / len(densities)
        assert sparse > 0.25
        assert dense > 0.03

    def test_sequential_runs_present(self, homes_trace):
        runs = 0
        previous = None
        for record in homes_trace.records:
            if previous is not None and record.lbn == previous + 1:
                runs += 1
            previous = record.lbn
        assert runs > len(homes_trace) // 20

    def test_hot_blocks_absorb_most_traffic(self, homes_trace):
        from collections import Counter
        counts = Counter(record.lbn for record in homes_trace.records)
        ranked = sorted(counts.values(), reverse=True)
        top_quarter = sum(ranked[: max(1, len(ranked) // 4)])
        assert top_quarter / len(homes_trace) > 0.5
