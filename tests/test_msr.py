"""Unit tests for the MSR Cambridge trace converter."""

import pytest

from repro.traces.msr import MSRFormatError, parse_msr_line, read_msr_trace
from repro.traces.record import OpKind


class TestParseLine:
    def test_single_block_read(self):
        records = parse_msr_line("128166372003061629,usr,0,Read,8192,4096,41286")
        assert len(records) == 1
        assert records[0].op is OpKind.READ
        assert records[0].lbn == 2

    def test_multi_block_write(self):
        records = parse_msr_line("1,usr,0,Write,0,16384,5")
        assert [record.lbn for record in records] == [0, 1, 2, 3]
        assert all(record.op is OpKind.WRITE for record in records)

    def test_unaligned_request_spans_blocks(self):
        # 2048..10239 touches blocks 0..2.
        records = parse_msr_line("1,usr,0,Read,2048,8192,5")
        assert [record.lbn for record in records] == [0, 1, 2]

    def test_zero_size_yields_nothing(self):
        assert parse_msr_line("1,usr,0,Read,4096,0,5") == []

    def test_case_insensitive_type(self):
        assert parse_msr_line("1,usr,0,READ,0,4096,5")[0].op is OpKind.READ
        assert parse_msr_line("1,usr,0,write,0,4096,5")[0].op is OpKind.WRITE

    @pytest.mark.parametrize("line", [
        "1,usr,0",                        # too few fields
        "1,usr,0,Erase,0,4096,5",         # unknown type
        "1,usr,0,Read,abc,4096,5",        # bad offset
        "1,usr,0,Read,-1,4096,5",         # negative
    ])
    def test_malformed_rejected(self, line):
        with pytest.raises(MSRFormatError):
            parse_msr_line(line)


class TestReadFile:
    def write_sample(self, tmp_path):
        path = tmp_path / "msr.csv"
        path.write_text(
            "# header comment\n"
            "1,hm,0,Read,0,4096,10\n"
            "2,hm,1,Write,8192,8192,10\n"
            "3,hm,0,Write,40960,4096,10\n"
        )
        return path

    def test_reads_all_disks(self, tmp_path):
        records = read_msr_trace(self.write_sample(tmp_path))
        assert len(records) == 4  # 1 + 2 + 1 blocks

    def test_disk_filter(self, tmp_path):
        records = read_msr_trace(self.write_sample(tmp_path), disks=[0])
        assert [record.lbn for record in records] == [0, 10]

    def test_limit(self, tmp_path):
        records = read_msr_trace(self.write_sample(tmp_path), limit=2)
        assert len(records) == 2

    def test_limit_zero_reads_nothing(self, tmp_path):
        assert read_msr_trace(self.write_sample(tmp_path), limit=0) == []

    def test_limit_parses_no_later_line(self, tmp_path):
        path = tmp_path / "msr.csv"
        path.write_text("1,hm,0,Read,0,8192,10\nnot,a,request\n")
        assert len(read_msr_trace(path, limit=2)) == 2
        with pytest.raises(MSRFormatError):
            read_msr_trace(path, limit=3)

    def test_records_replayable(self, tmp_path):
        """Converted records must run through a real system."""
        from repro import CacheMode, SystemConfig, SystemKind, build_system

        records = read_msr_trace(self.write_sample(tmp_path))
        system = build_system(SystemConfig(
            kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
            cache_blocks=64, disk_blocks=1000, planes=2, pages_per_block=8,
        ))
        stats = system.replay(records)
        assert stats.ops == len(records)
