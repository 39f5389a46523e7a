"""Unit tests for reading MSR Cambridge CSV traces."""

import pytest

from repro.traces.filefmt import TraceFormatError, read_trace
from repro.traces.record import OpKind


def read_msr(tmp_path, text, limit=None):
    path = tmp_path / "msr.csv"
    path.write_text(text)
    return read_trace(path, "msr", limit)


class TestParseLine:
    def test_single_block_read(self, tmp_path):
        records = read_msr(tmp_path, "128166372003061629,usr,0,Read,8192,4096,41286\n")
        assert len(records) == 1
        assert records[0].op is OpKind.READ
        assert records[0].lbn == 2

    def test_multi_block_write(self, tmp_path):
        records = read_msr(tmp_path, "1,usr,0,Write,0,16384,5\n")
        assert [record.lbn for record in records] == [0, 1, 2, 3]
        assert all(record.op is OpKind.WRITE for record in records)

    def test_unaligned_request_spans_blocks(self, tmp_path):
        # 2048..10239 touches blocks 0..2.
        records = read_msr(tmp_path, "1,usr,0,Read,2048,8192,5\n")
        assert [record.lbn for record in records] == [0, 1, 2]

    def test_zero_size_yields_nothing(self, tmp_path):
        assert read_msr(tmp_path, "1,usr,0,Read,4096,0,5\n") == []

    def test_case_insensitive_type(self, tmp_path):
        records = read_msr(tmp_path, "1,usr,0,READ,0,4096,5\n2,usr,0,write,0,4096,5\n")
        assert [record.op for record in records] == [OpKind.READ, OpKind.WRITE]

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_timestamp_is_untimed(self, tmp_path, stamp):
        records = read_msr(tmp_path, (
            f"{stamp},usr,0,Write,0,4096,5\n"
            "5000,usr,0,Read,4096,4096,5\n"
            f"{stamp},usr,0,Read,8192,4096,5\n"
            "7500,usr,0,Read,12288,4096,5\n"
        ))
        assert [record.arrival_us for record in records] == [
            None, 0.0, None, 250.0,
        ]

    MALFORMED = {
        "1,usr,0": "expected >=6 CSV fields, got 3",
        "1,usr,0,Erase,0,4096,5": "unknown type 'Erase'",
        "1,usr,0,Read,abc,4096,5": "non-integer offset/size 'abc','4096'",
        "1,usr,0,Read,-1,4096,5": "negative offset or size",
    }

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_rejected(self, tmp_path, line):
        with pytest.raises(TraceFormatError) as excinfo:
            read_msr(tmp_path, "1,usr,0,Read,0,4096,5\n" + line + "\n")
        assert str(excinfo.value) == (
            f"{tmp_path / 'msr.csv'}:2: {self.MALFORMED[line]}"
        )


class TestReadFile:
    SAMPLE = (
        "# header comment\n"
        "1,hm,0,Read,0,4096,10\n"
        "2,hm,1,Write,8192,8192,10\n"
        "3,hm,0,Write,40960,4096,10\n"
    )

    def test_reads_all_disks(self, tmp_path):
        records = read_msr(tmp_path, self.SAMPLE)
        assert [record.lbn for record in records] == [0, 2, 3, 10]

    def test_limit(self, tmp_path):
        assert len(read_msr(tmp_path, self.SAMPLE, limit=2)) == 2

    def test_limit_zero_reads_nothing(self, tmp_path):
        assert read_msr(tmp_path, self.SAMPLE, limit=0) == []

    def test_limit_parses_no_later_line(self, tmp_path):
        text = "1,hm,0,Read,0,8192,10\nnot,a,request\n"
        assert len(read_msr(tmp_path, text, limit=2)) == 2
        with pytest.raises(TraceFormatError):
            read_msr(tmp_path, text, limit=3)

    def test_records_replayable(self, tmp_path):
        """Converted records must run through a real system."""
        from repro import CacheMode, SystemConfig, SystemKind, build_system

        records = read_msr(tmp_path, self.SAMPLE)
        system = build_system(SystemConfig(
            kind=SystemKind.SSC, mode=CacheMode.WRITE_BACK,
            cache_blocks=64, disk_blocks=1000, planes=2, pages_per_block=8,
        ))
        stats = system.replay(records)
        assert stats.ops == len(records)
