"""Unit tests for repro.util.bloom."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util.bloom import BloomFilter


class TestGuarantees:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=500, fp_rate=0.01)
        keys = random.Random(1).sample(range(10**9), 500)
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_is_bounded(self):
        bloom = BloomFilter(expected_items=1000, fp_rate=0.01)
        rng = random.Random(2)
        members = set(rng.sample(range(10**9), 1000))
        for key in members:
            bloom.add(key)
        probes = [key for key in rng.sample(range(10**9, 2 * 10**9), 5000)]
        false_positives = sum(1 for key in probes if bloom.might_contain(key))
        # Allow generous slack over the target 1% rate.
        assert false_positives / len(probes) < 0.05

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=10)
        assert not bloom.might_contain(123)

    def test_len_counts_adds(self):
        bloom = BloomFilter(expected_items=10)
        bloom.add(1)
        bloom.add(2)
        assert len(bloom) == 2

    def test_clear(self):
        bloom = BloomFilter(expected_items=10)
        bloom.add(7)
        bloom.clear()
        assert not bloom.might_contain(7)
        assert len(bloom) == 0

    def test_memory_scales_with_expected_items(self):
        small = BloomFilter(expected_items=100)
        large = BloomFilter(expected_items=10_000)
        assert large.memory_bytes() > small.memory_bytes()


class TestValidation:
    @pytest.mark.parametrize("items", [0, -5])
    def test_bad_expected_items(self, items):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=items)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.1, 2.0])
    def test_bad_fp_rate(self, rate):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_rate=rate)


class TestBitArray:
    """The filter's bit array: one byte per modeled bit, charged as bits/8."""

    @pytest.mark.parametrize("items,rate,expected_bytes,expected_hashes", [
        (1, 0.5, 1, 1),  # a tiny filter still keeps its 8-bit minimum
        (10, 0.01, 12, 7),
        (1000, 0.01, 1199, 7),
        (1000, 0.001, 1798, 10),
        (4096, 0.05, 3193, 4),
    ])
    def test_sizing_is_pinned(self, items, rate, expected_bytes, expected_hashes):
        bloom = BloomFilter(expected_items=items, fp_rate=rate)
        assert bloom.memory_bytes() == expected_bytes
        assert bloom.num_hashes == expected_hashes

    def test_false_positive_set_is_pinned(self):
        # Which probes collide depends on both the hash positions and the
        # bit storage; these were captured with the bit-packed array.
        bloom = BloomFilter(expected_items=100, fp_rate=0.05)
        for key in range(0, 100 * 7919, 7919):
            bloom.add(key)
        hits = [k for k in range(10**6, 10**6 + 5000) if bloom.might_contain(k)]
        assert len(hits) == 243
        assert hits[:8] == [1000003, 1000015, 1000017, 1000040,
                            1000055, 1000063, 1000082, 1000104]

    def test_re_adding_a_key_sets_no_new_bits(self):
        once, twice = BloomFilter(expected_items=50), BloomFilter(expected_items=50)
        once.add(5)
        twice.add(5)
        twice.add(5)
        probes = range(10_000)
        assert ([k for k in probes if once.might_contain(k)]
                == [k for k in probes if twice.might_contain(k)])
        assert len(twice) == 2

    def test_clear_empty_filter_is_noop(self):
        bloom = BloomFilter(expected_items=10)
        bloom.clear()
        assert len(bloom) == 0
        assert not any(bloom.might_contain(k) for k in range(1000))


@given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=200))
def test_property_no_false_negatives(keys):
    bloom = BloomFilter(expected_items=200)
    for key in keys:
        bloom.add(key)
    assert len(bloom) == len(keys)
    assert all(bloom.might_contain(key) for key in keys)


@given(
    st.sets(st.integers(min_value=0, max_value=10**6), max_size=50),
    st.sets(st.integers(min_value=0, max_value=10**6), max_size=50),
)
def test_property_clear_resets_every_bit(before, after):
    reused = BloomFilter(expected_items=50)
    for key in before:
        reused.add(key)
    reused.clear()
    fresh = BloomFilter(expected_items=50)
    for key in after:
        reused.add(key)
        fresh.add(key)
    probes = range(0, 10**6, 997)
    assert ([k for k in probes if reused.might_contain(k)]
            == [k for k in probes if fresh.might_contain(k)])
