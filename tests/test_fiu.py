"""Unit tests for reading FIU (SyLab) traces."""

import pytest

from repro.traces.filefmt import TraceFormatError, read_trace
from repro.traces.record import OpKind


def read_fiu(tmp_path, text, limit=None):
    path = tmp_path / "fiu.blkparse"
    path.write_text(text)
    return read_trace(path, "fiu", limit)


class TestParseLine:
    def test_single_block_write(self, tmp_path):
        # lba 8 sectors = block 1; 8 sectors = one 4 KB block.
        records = read_fiu(tmp_path, "1234 500 bash 8 8 W 8 1 abcdef\n")
        assert len(records) == 1
        assert records[0].op is OpKind.WRITE
        assert records[0].lbn == 1

    def test_multi_block_read(self, tmp_path):
        records = read_fiu(tmp_path, "1 1 proc 0 24 R 8 1 x\n")
        assert [record.lbn for record in records] == [0, 1, 2]
        assert all(record.op is OpKind.READ for record in records)

    def test_unaligned_span(self, tmp_path):
        # Sectors 4..19 touch blocks 0..2.
        records = read_fiu(tmp_path, "1 1 proc 4 16 W 8 1 x\n")
        assert [record.lbn for record in records] == [0, 1, 2]

    def test_md5_field_optional(self, tmp_path):
        assert len(read_fiu(tmp_path, "1 1 proc 8 8 R 8 1\n")) == 1

    def test_word_ops_accepted(self, tmp_path):
        records = read_fiu(tmp_path, "1 1 p 0 8 Write 8 1 x\n1 1 p 0 8 read 8 1 x\n")
        assert [record.op for record in records] == [OpKind.WRITE, OpKind.READ]

    def test_zero_size(self, tmp_path):
        assert read_fiu(tmp_path, "1 1 p 0 0 W 8 1 x\n") == []

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_timestamp_is_untimed(self, tmp_path, stamp):
        records = read_fiu(tmp_path, (
            f"{stamp} 1 p 0 8 W 8 1 x\n"
            "2.5 1 p 8 8 R 8 1 x\n"
            f"{stamp} 1 p 16 8 R 8 1 x\n"
            "3.0 1 p 24 8 W 8 1 x\n"
        ))
        assert [record.arrival_us for record in records] == [
            None, 0.0, None, 500_000.0,
        ]

    MALFORMED = {
        "1 1 p 0 8": "expected >=6 fields, got 5",
        "1 1 p abc 8 W 8 1 x": "non-integer lba/size 'abc','8'",
        "1 1 p -8 8 W 8 1 x": "negative lba or size",
        "1 1 p 0 8 X 8 1 x": "unknown op 'X'",
    }

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_rejected(self, tmp_path, line):
        with pytest.raises(TraceFormatError) as excinfo:
            read_fiu(tmp_path, "# header\n" + line + "\n")
        assert str(excinfo.value) == (
            f"{tmp_path / 'fiu.blkparse'}:2: {self.MALFORMED[line]}"
        )


class TestReadFile:
    def test_file_round_trip(self, tmp_path):
        records = read_fiu(tmp_path, (
            "# header\n"
            "100 1 smtpd 0 8 W 8 1 aa\n"
            "101 1 smtpd 16 16 R 8 1 bb\n"
        ))
        assert len(records) == 3  # 1 write + 2 reads
        assert records[0].op is OpKind.WRITE

    def test_limit(self, tmp_path):
        # One line of 10 blocks.
        assert len(read_fiu(tmp_path, "1 1 p 0 80 W 8 1 x\n", limit=4)) == 4

    def test_limit_zero_reads_nothing(self, tmp_path):
        assert read_fiu(tmp_path, "1 1 p 0 80 W 8 1 x\n", limit=0) == []

    def test_limit_parses_no_later_line(self, tmp_path):
        text = "1 1 p 0 16 W 8 1 x\n1 1 p abc 8 W 8 1 x\n"
        assert len(read_fiu(tmp_path, text, limit=2)) == 2
        with pytest.raises(TraceFormatError):
            read_fiu(tmp_path, text, limit=3)

    def test_replayable(self, tmp_path):
        from repro import CacheMode, SystemConfig, SystemKind, build_system

        records = read_fiu(tmp_path, "1 1 p 0 64 W 8 1 x\n2 1 p 0 64 R 8 1 x\n")
        system = build_system(SystemConfig(
            kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
            cache_blocks=64, disk_blocks=1000, planes=2, pages_per_block=8,
        ))
        stats = system.replay(records)
        assert stats.ops == len(records)
        assert stats.read_hits == 8  # written blocks re-read from cache
