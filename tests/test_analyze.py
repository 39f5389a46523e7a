"""Unit tests for the trace analyzer."""

import pytest

from repro.traces.analyze import analyze
from repro.traces.record import OpKind, TraceRecord
from repro.traces.synthetic import HOMES, generate_trace


def R(lbn):
    return TraceRecord(OpKind.READ, lbn)


def W(lbn):
    return TraceRecord(OpKind.WRITE, lbn)


class TestBasics:
    def test_empty_trace(self):
        stats = analyze([])
        assert stats.ops == 0
        assert stats.write_fraction == 0.0
        assert stats.address_range_blocks == 0
        assert stats.sparse_region_fraction() == 0.0

    def test_counts(self):
        stats = analyze([R(1), W(2), W(2), R(3)])
        assert stats.ops == 4
        assert stats.reads == 2
        assert stats.writes == 2
        assert stats.unique_blocks == 3
        assert stats.unique_written == 1
        assert stats.write_fraction == pytest.approx(0.5)

    def test_overwrite_ratio(self):
        stats = analyze([W(1), W(1), W(1), W(2)])
        assert stats.overwrite_ratio == pytest.approx(2.0)  # 4 writes / 2 blocks

    def test_address_range(self):
        stats = analyze([R(100), R(5000), R(42)])
        assert stats.min_lbn == 42
        assert stats.max_lbn == 5000
        assert stats.address_range_blocks == 4959

    def test_sequential_fraction(self):
        stats = analyze([R(10), R(11), R(12), R(50)])
        assert stats.sequential_fraction == pytest.approx(2 / 4)

    def test_footprint(self):
        stats = analyze([W(0), W(1)])
        assert stats.footprint_bytes == 2 * 4096

    def test_region_densities(self):
        records = [R(lbn) for lbn in range(10)] + [R(5000)]
        stats = analyze(records, region_blocks=1000)
        assert sorted(stats.region_densities) == pytest.approx([0.001, 0.01])

    def test_summary_mentions_key_numbers(self):
        stats = analyze([W(1), R(2)])
        text = stats.summary()
        assert "2" in text and "50.0%" in text


class TestOnSyntheticTrace:
    def test_matches_direct_counts_over_the_records(self):
        trace = generate_trace(HOMES.scaled(0.05), seed=9)
        region_blocks = trace.profile.region_blocks
        stats = analyze(trace.records, region_blocks=region_blocks)
        lbns = [record.lbn for record in trace.records]
        writes = sum(1 for record in trace.records if record.is_write)
        regions = {}
        for lbn in lbns:
            regions.setdefault(lbn // region_blocks, set()).add(lbn)
        assert stats.ops == len(trace)
        assert stats.unique_blocks == len(set(lbns))
        assert stats.write_fraction == pytest.approx(writes / len(trace))
        assert sorted(stats.region_densities) == pytest.approx(
            sorted(len(blocks) / region_blocks for blocks in regions.values())
        )

    def test_hot_quarter_concentration(self):
        trace = generate_trace(HOMES.scaled(0.05), seed=9)
        stats = analyze(trace.records)
        assert stats.hot_quarter_share > 0.4
