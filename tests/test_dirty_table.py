"""LRU-order behaviour of the write-back managers' dirty-block table."""

from hypothesis import given, strategies as st

from repro.manager.dirty_table import DirtyBlockTable


def table_of(*lbns):
    table = DirtyBlockTable()
    for lbn in lbns:
        table.add(lbn)
    return table


class TestOrdering:
    def test_empty(self):
        table = DirtyBlockTable()
        assert len(table) == 0
        assert table.lru_block() is None
        assert table.iter_lru() == []

    def test_single_element(self):
        table = table_of(7)
        assert table.lru_block() == 7
        assert table.iter_lru() == [7]
        assert 7 in table

    def test_add_order(self):
        table = table_of(1, 2, 3)
        assert table.iter_lru() == [1, 2, 3]
        assert table.lru_block() == 1

    def test_touch_moves_to_most_recent(self):
        table = table_of(1, 2, 3)
        table.touch(1)
        assert table.iter_lru() == [2, 3, 1]
        assert table.lru_block() == 2

    def test_re_add_moves_to_most_recent(self):
        table = table_of(1, 2, 3)
        table.add(2, "new data")
        assert table.iter_lru() == [1, 3, 2]

    def test_touch_untracked_is_noop(self):
        table = table_of(1, 2)
        table.touch(9)
        assert 9 not in table
        assert table.iter_lru() == [1, 2]

    def test_removing_lru_in_turn_yields_oldest_first(self):
        table = table_of(1, 2, 3)
        popped = []
        while table.lru_block() is not None:
            popped.append(table.lru_block())
            assert table.remove(popped[-1])
        assert popped == [1, 2, 3]

    def test_remove_middle(self):
        table = table_of(1, 2, 3)
        assert table.remove(2)
        assert table.iter_lru() == [1, 3]

    def test_remove_most_and_least_recent(self):
        table = table_of(1, 2, 3)
        assert table.remove(3)
        assert table.iter_lru() == [1, 2]
        assert table.remove(1)
        assert table.lru_block() == 2

    def test_remove_absent_returns_false(self):
        assert not DirtyBlockTable().remove(42)

    def test_iter_snapshot_allows_removal(self):
        table = table_of(*range(5))
        for lbn in table.iter_lru():
            table.remove(lbn)
        assert len(table) == 0

    def test_clear(self):
        table = table_of(1)
        table.clear()
        assert len(table) == 0
        assert 1 not in table
        assert table.lru_block() is None


@given(st.lists(st.tuples(st.sampled_from("atr"), st.integers(0, 20))))
def test_property_matches_reference_model(operations):
    """The table orders blocks exactly like a move-to-back reference."""
    table = DirtyBlockTable()
    reference = []
    for op, lbn in operations:
        if op == "a":
            table.add(lbn)
            if lbn in reference:
                reference.remove(lbn)
            reference.append(lbn)
        elif op == "t":
            table.touch(lbn)
            if lbn in reference:
                reference.remove(lbn)
                reference.append(lbn)
        else:
            assert table.remove(lbn) == (lbn in reference)
            if lbn in reference:
                reference.remove(lbn)
    assert table.iter_lru() == reference
    assert len(table) == len(reference)
    assert table.lru_block() == (reference[0] if reference else None)
