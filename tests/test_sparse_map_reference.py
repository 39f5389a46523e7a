"""Probe accounting of SparseHashMap against the paper's group table.

``SparseHashMap`` keeps its state in a dict plus occupancy bytes, and
derives probe counts instead of walking buckets.  ``GroupTable`` below
is the literal structure of §4.1: groups of M buckets, each a packed
entry array ranked by an occupancy bitmap, walked one bucket per probe.
After every insert, lookup and remove the two must agree on everything
a caller or a report can see: probe and lookup totals, bucket count,
``items()`` order, allocated groups and the Table 4 memory figure.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.ftl.mapping import ENTRY_BYTES
from repro.ssc.sparse_map import GROUP_OVERHEAD_BYTES, SparseHashMap, _hash_key


class GroupTable:
    """Linear probing over groups of packed, bitmap-ranked entries."""

    def __init__(self, initial_buckets, group_size, max_load):
        self.group_size = group_size
        self.max_load = max_load
        buckets = 1
        while buckets < max(initial_buckets, group_size):
            buckets <<= 1
        self.buckets = buckets
        self.groups = [None] * (buckets // group_size)
        self.count = 0
        self.total_probes = 0
        self.total_lookups = 0

    def _find(self, key):
        """(group, slot, rank, found, probes) at the end of key's walk."""
        mask = self.buckets - 1
        index = _hash_key(key) & mask
        probes = 1
        while True:
            group_index, slot = divmod(index, self.group_size)
            group = self.groups[group_index]
            if group is None:
                group = self.groups[group_index] = [0, []]
            bits, entries = group
            rank = bin(bits & ((1 << slot) - 1)).count("1")
            if not (bits >> slot) & 1:
                return group, slot, rank, False, probes
            if entries[rank][0] == key:
                return group, slot, rank, True, probes
            index = (index + 1) & mask
            probes += 1

    def lookup(self, key):
        self.total_lookups += 1
        group, _slot, rank, found, probes = self._find(key)
        self.total_probes += probes
        return group[1][rank][1] if found else None

    def insert(self, key, value):
        if (self.count + 1) / self.buckets > self.max_load:
            entries = list(self.items())
            self.buckets *= 2
            while len(entries) / self.buckets > self.max_load:
                self.buckets *= 2
            self.groups = [None] * (self.buckets // self.group_size)
            self.count = 0
            for old_key, old_value in entries:
                self._put(old_key, old_value)
        return self._put(key, value)

    def _put(self, key, value):
        group, slot, rank, found, _probes = self._find(key)
        if found:
            previous = group[1][rank][1]
            group[1][rank] = (key, value)
            return previous
        group[1].insert(rank, (key, value))
        group[0] |= 1 << slot
        self.count += 1
        return None

    def _take(self, index):
        group = self.groups[index // self.group_size]
        slot = index % self.group_size
        if group is None or not (group[0] >> slot) & 1:
            return None
        rank = bin(group[0] & ((1 << slot) - 1)).count("1")
        group[0] &= ~(1 << slot)
        self.count -= 1
        return group[1].pop(rank)

    def remove(self, key):
        _group, _slot, _rank, found, probes = self._find(key)
        if not found:
            return None
        mask = self.buckets - 1
        index = ((_hash_key(key) & mask) + probes - 1) & mask
        value = self._take(index)[1]
        displaced = []
        index = (index + 1) & mask
        while True:
            entry = self._take(index)
            if entry is None:
                break
            displaced.append(entry)
            index = (index + 1) & mask
        for old_key, old_value in displaced:
            self._put(old_key, old_value)
        return value

    def items(self):
        return [entry for group in self.groups if group for entry in group[1]]

    @property
    def allocated_groups(self):
        return sum(1 for group in self.groups if group and group[0])

    def memory_bytes(self):
        return self.count * ENTRY_BYTES + self.allocated_groups * (
            self.group_size // 8 + GROUP_OVERHEAD_BYTES)


def _assert_same(table: SparseHashMap, reference: GroupTable) -> None:
    assert table.total_probes == reference.total_probes
    assert table.total_lookups == reference.total_lookups
    assert table.buckets == reference.buckets
    assert list(table.items()) == reference.items()
    assert table.allocated_groups == reference.allocated_groups
    assert table.memory_bytes() == reference.memory_bytes()


def _wraps(table: SparseHashMap) -> bool:
    """True if some key sits in a bucket before its home (wrapped run)."""
    mask = table.buckets - 1
    return any(bucket < (_hash_key(key) & mask)
               for key, (bucket, _probes, _value) in table._entries.items())


def _run(ops, initial_buckets, group_size, max_load):
    """Replay ``ops`` on both tables; returns whether a run ever wrapped."""
    table = SparseHashMap(initial_buckets, group_size, max_load)
    reference = GroupTable(initial_buckets, group_size, max_load)
    wrapped = False
    for op, key, value in ops:
        if op == "insert":
            assert table.insert(key, value) == reference.insert(key, value)
        elif op == "remove":
            assert table.remove(key) == reference.remove(key)
        else:
            assert table.lookup(key) == reference.lookup(key)
        _assert_same(table, reference)
        wrapped = wrapped or _wraps(table)
    return wrapped


# A small key pool forces collisions and long runs; huge keys exercise
# the full 64-bit hash.
_keys = st.one_of(st.integers(0, 48), st.integers(0, 10**15))
_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "lookup"]), _keys,
              st.integers(0, 2**32)),
    max_size=250,
)


@given(ops=_ops, group_size=st.sampled_from([1, 8, 32, 64]),
       max_load=st.sampled_from([0.5, 0.75, 0.9]))
@settings(max_examples=150, deadline=None)
def test_probe_accounting_matches_group_table(ops, group_size, max_load):
    _run(ops, group_size, group_size, max_load)


def test_wrapping_runs_match_group_table():
    """Churn a nearly full table so probe runs wrap past the last bucket
    for every group size, and count the trials that saw a wrap."""
    for group_size in (1, 8, 32, 64):
        rng = random.Random(group_size)
        buckets = max(16, group_size)
        wrapped = 0
        for _trial in range(10):
            pool = rng.sample(range(10**12), buckets)
            ops = [(rng.choice(["insert", "insert", "remove", "lookup"]),
                    rng.choice(pool), rng.randrange(1000))
                   for _step in range(150)]
            wrapped += _run(ops, buckets, group_size, 0.9)
        assert wrapped, f"no wrapping run at group_size={group_size}"


def test_delete_whose_displaced_run_wraps_matches_group_table():
    """Four keys homed at bucket 14 of 16 fill 14, 15, 0 and 1; keys homed
    at 15 and 0 follow at 2 and 3.  Removing the key at 14 displaces the
    run 15..3, which wraps past the last bucket; removing the one at 15
    displaces 0..3, which starts past it.  Every displaced key is
    re-placed from its stored probe count and must land, and count its
    probes, as the group table does."""
    mask = 15
    by_home = {}
    for key in range(10_000):
        by_home.setdefault(_hash_key(key) & mask, []).append(key)
    run = by_home[14][:4] + by_home[15][:1] + by_home[0][:1]
    inserts = [("insert", key, index) for index, key in enumerate(run)]
    lookups = [("lookup", key, 0) for key in run]
    for group_size in (1, 8, 16):
        table = SparseHashMap(16, group_size, 0.9)
        for _op, key, value in inserts:
            table.insert(key, value)
        assert [table._entries[key][0] for key in run] == [14, 15, 0, 1, 2, 3]
        for victim in run[:2]:
            ops = inserts + [("remove", victim, 0)] + lookups
            assert _run(ops, 16, group_size, 0.9)
