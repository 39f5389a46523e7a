"""Unit tests for the SSC operation log."""

import pytest

from repro.flash.timing import TimingModel
from repro.ssc.log import (
    NullOperationLog,
    OperationLog,
    RECORD_BYTES,
    RecordKind,
    record_checksum,
)
from repro.util.checksum import crc32_of


@pytest.fixture
def oplog():
    return OperationLog(TimingModel(), page_size=4096, pages_per_block=64)


class TestAppendFlush:
    def test_sequence_numbers_monotonic(self, oplog):
        records = [oplog.append(RecordKind.INSERT_PAGE, i) for i in range(5)]
        seqs = [record.seq for record in records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_buffer_is_volatile_until_flush(self, oplog):
        oplog.append(RecordKind.INSERT_PAGE, 1, 2)
        assert oplog.pending() == 1
        assert not oplog.flushed
        oplog.flush(sync=True)
        assert oplog.pending() == 0
        assert oplog.flushed[-1].seq == 1

    def test_flush_cost_in_page_units(self, oplog):
        per_page = 4096 // RECORD_BYTES
        for i in range(per_page + 1):  # needs two pages
            oplog.append(RecordKind.INSERT_PAGE, i)
        cost = oplog.flush(sync=True)
        assert cost == pytest.approx(2 * TimingModel().write_cost())
        assert oplog.pages_written == 2

    def test_empty_flush_free(self, oplog):
        assert oplog.flush(sync=True) == 0.0
        assert oplog.sync_flushes == 0

    def test_sync_async_accounting(self, oplog):
        oplog.append(RecordKind.CLEAN, 1)
        oplog.flush(sync=False)
        oplog.append(RecordKind.INSERT_PAGE, 2)
        oplog.flush(sync=True)
        assert oplog.async_flushes == 1
        assert oplog.sync_flushes == 1

    def test_drop_buffer_simulates_crash(self, oplog):
        oplog.append(RecordKind.INSERT_PAGE, 1)
        oplog.flush(sync=True)
        oplog.append(RecordKind.INSERT_PAGE, 2)
        lost = oplog.drop_buffer()
        assert lost == 1
        assert [record.lbn for record in oplog.flushed] == [1]


class TestLogRecord:
    def test_fields_are_read_only(self, oplog):
        record = oplog.append(RecordKind.INSERT_PAGE, 1, 2)
        with pytest.raises(AttributeError):
            record.ppn = 3

    def test_replaced_field_fails_checksum(self, oplog):
        record = oplog.append(RecordKind.INSERT_BLOCK, 1, 2, extra=5)
        assert record.is_intact()
        for field, value in (("seq", record.seq + 1), ("lbn", 0), ("ppn", 3),
                             ("extra", 4), ("kind", RecordKind.CLEAN)):
            assert not record._replace(**{field: value}).is_intact(), field

    def test_checksum_encodes_kind_by_name(self):
        # The precomputed kind bytes keep the generic crc32_of encoding.
        for kind in RecordKind:
            assert record_checksum(1, kind, 2, 3, 4) == crc32_of(
                1, kind.name, 2, 3, 4)


class TestTruncation:
    def test_truncate_drops_covered_records(self, oplog):
        for i in range(10):
            oplog.append(RecordKind.INSERT_PAGE, i)
        oplog.flush(sync=True)
        oplog.truncate_through(5)
        assert [record.lbn for record in oplog.flushed] == list(range(5, 10))

    def test_records_after(self, oplog):
        for i in range(10):
            oplog.append(RecordKind.INSERT_PAGE, i)
        oplog.flush(sync=True)
        tail = oplog.records_after(7)
        assert [record.seq for record in tail] == [8, 9, 10]

    def test_replay_read_cost_scales(self, oplog):
        for i in range(1000):
            oplog.append(RecordKind.INSERT_PAGE, i)
        oplog.flush(sync=True)
        assert oplog.replay_read_cost(0) > oplog.replay_read_cost(900)
        assert oplog.replay_read_cost(1000) == 0.0


class TestNullLog:
    def test_disabled_log_is_free(self):
        null = NullOperationLog(TimingModel())
        null.append(RecordKind.INSERT_PAGE, 1)
        assert null.flush(sync=True) == 0.0
        assert null.pending() == 0
        assert not null.enabled
        assert null.truncate_through(100) == 0.0
