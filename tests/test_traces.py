"""Unit tests for trace records, Zipf sampling, and synthetic workloads."""

import random

import pytest

from repro.errors import ConfigError
from repro.traces.analyze import analyze
from repro.traces.record import OpKind, TraceRecord
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
