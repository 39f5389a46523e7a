"""Unit tests for the FIU trace converter."""

import pytest

from repro.traces.fiu import FIUFormatError, parse_fiu_line, read_fiu_trace
from repro.traces.record import OpKind


class TestParseLine:
    def test_single_block_write(self):
        # lba 8 sectors = block 1; 8 sectors = one 4 KB block.
        records = parse_fiu_line("1234 500 bash 8 8 W 8 1 abcdef")
        assert len(records) == 1
        assert records[0].op is OpKind.WRITE
        assert records[0].lbn == 1

    def test_multi_block_read(self):
        records = parse_fiu_line("1 1 proc 0 24 R 8 1 x")
        assert [record.lbn for record in records] == [0, 1, 2]
        assert all(record.op is OpKind.READ for record in records)

    def test_unaligned_span(self):
        # Sectors 4..19 touch blocks 0..2.
        records = parse_fiu_line("1 1 proc 4 16 W 8 1 x")
        assert [record.lbn for record in records] == [0, 1, 2]

    def test_md5_field_optional(self):
        records = parse_fiu_line("1 1 proc 8 8 R 8 1")
        assert len(records) == 1

    def test_word_ops_accepted(self):
        assert parse_fiu_line("1 1 p 0 8 Write 8 1 x")[0].op is OpKind.WRITE
        assert parse_fiu_line("1 1 p 0 8 read 8 1 x")[0].op is OpKind.READ

    def test_zero_size(self):
        assert parse_fiu_line("1 1 p 0 0 W 8 1 x") == []

    @pytest.mark.parametrize("line", [
        "1 1 p 0 8",              # too few fields
        "1 1 p abc 8 W 8 1 x",    # bad lba
        "1 1 p -8 8 W 8 1 x",     # negative
        "1 1 p 0 8 X 8 1 x",      # unknown op
    ])
    def test_malformed_rejected(self, line):
        with pytest.raises(FIUFormatError):
            parse_fiu_line(line)


class TestReadFile:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "fiu.blkparse"
        path.write_text(
            "# header\n"
            "100 1 smtpd 0 8 W 8 1 aa\n"
            "101 1 smtpd 16 16 R 8 1 bb\n"
        )
        records = read_fiu_trace(path)
        assert len(records) == 3  # 1 write + 2 reads
        assert records[0].op is OpKind.WRITE

    def test_limit(self, tmp_path):
        path = tmp_path / "fiu.blkparse"
        path.write_text("1 1 p 0 80 W 8 1 x\n")  # 10 blocks
        assert len(read_fiu_trace(path, limit=4)) == 4

    def test_limit_zero_reads_nothing(self, tmp_path):
        path = tmp_path / "fiu.blkparse"
        path.write_text("1 1 p 0 80 W 8 1 x\n")
        assert read_fiu_trace(path, limit=0) == []

    def test_limit_parses_no_later_line(self, tmp_path):
        path = tmp_path / "fiu.blkparse"
        path.write_text("1 1 p 0 16 W 8 1 x\n1 1 p abc 8 W 8 1 x\n")
        assert len(read_fiu_trace(path, limit=2)) == 2
        with pytest.raises(FIUFormatError):
            read_fiu_trace(path, limit=3)

    def test_replayable(self, tmp_path):
        from repro import CacheMode, SystemConfig, SystemKind, build_system

        path = tmp_path / "fiu.blkparse"
        path.write_text("1 1 p 0 64 W 8 1 x\n2 1 p 0 64 R 8 1 x\n")
        records = read_fiu_trace(path)
        system = build_system(SystemConfig(
            kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
            cache_blocks=64, disk_blocks=1000, planes=2, pages_per_block=8,
        ))
        stats = system.replay(records)
        assert stats.ops == len(records)
        assert stats.read_hits == 8  # written blocks re-read from cache
