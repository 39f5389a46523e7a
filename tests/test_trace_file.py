"""The one trace-file line loop (``read_trace``) every format shares:
comment and blank lines, line numbers, origin rebasing and clamping,
and ``limit``."""

import re

import pytest

from repro.traces.filefmt import FORMATS, TraceFormatError, read_trace
from repro.traces.record import OpKind


def msr_line(ticks, offset_blocks, blocks=1, op="Read"):
    """One MSR CSV request; ``ticks`` are 100 ns filetime ticks."""
    return f"{ticks},hm,0,{op},{offset_blocks * 4096},{blocks * 4096},10\n"


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLineLoop:
    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = write(tmp_path, (
            "\n# header\n" + msr_line(0, 1) + "   \n  # indented\n"
            + msr_line(0, 2) + "\n"
        ))
        assert [r.lbn for r in read_trace(path, "msr")] == [1, 2]

    def test_lines_are_stripped(self, tmp_path):
        path = write(tmp_path, "  R 7  \n\tW 8\n", "trace.txt")
        assert [r.lbn for r in read_trace(path)] == [7, 8]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_error_names_the_file_line(self, tmp_path, fmt):
        # Blank and comment lines count toward the line number.
        path = write(tmp_path, "# header\n\n  garbage  \n")
        with pytest.raises(TraceFormatError, match="^" + re.escape(f"{path}:3: ")):
            read_trace(path, fmt)

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, "R 1\n")
        with pytest.raises(ValueError, match="unknown trace format 'csv'"):
            read_trace(path, "csv")

    def test_arrival_times_rebased_to_first_timestamp(self, tmp_path):
        path = write(tmp_path, msr_line(5000, 1) + msr_line(7500, 2) + msr_line(15000, 3))
        arrivals = [r.arrival_us for r in read_trace(path, "msr")]
        assert arrivals == [0.0, 250.0, 1000.0]

    def test_untimed_records_keep_none_and_set_no_origin(self, tmp_path):
        path = write(tmp_path, (
            msr_line("", 1) + msr_line(9000, 2) + msr_line("-5", 3)
            + msr_line(10000, 4)
        ))
        arrivals = [r.arrival_us for r in read_trace(path, "msr")]
        assert arrivals == [None, 0.0, None, 100.0]

    def test_time_before_origin_clamps_to_zero(self, tmp_path):
        path = write(tmp_path, msr_line(5000, 1) + msr_line(1000, 2))
        arrivals = [r.arrival_us for r in read_trace(path, "msr")]
        assert arrivals == [0.0, 0.0]

    def test_limit_stops_inside_a_multi_record_line(self, tmp_path):
        path = write(tmp_path, (
            msr_line(0, 0, blocks=3) + msr_line(0, 10, blocks=3) + "garbage\n"
        ))
        records = read_trace(path, "msr", limit=5)
        assert [r.lbn for r in records] == [0, 1, 2, 10, 11]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_limit_zero_parses_no_line(self, tmp_path, fmt):
        path = write(tmp_path, "garbage\n")
        assert read_trace(path, fmt, limit=0) == []

    def test_no_limit_reads_everything(self, tmp_path):
        path = write(tmp_path, "".join(msr_line(0, lbn) for lbn in range(50)))
        assert len(read_trace(path, "msr")) == 50

    def test_empty_parse_result_emits_nothing(self, tmp_path):
        # Zero-size requests yield no record and no share of the limit.
        path = write(tmp_path, (
            "1,hm,0,Read,0,0,10\n" + msr_line(0, 3)
            + "1,hm,0,Read,0,0,10\n" + msr_line(0, 4, op="Write")
        ))
        records = read_trace(path, "msr", limit=2)
        assert [(r.op, r.lbn) for r in records] == [
            (OpKind.READ, 3), (OpKind.WRITE, 4),
        ]


class TestFormatReaders:
    def test_fiu_rebases_seconds_to_microseconds(self, tmp_path):
        path = write(tmp_path, (
            "# header\n"
            "100.5 1 smtpd 0 8 W 8 1 aa\n"
            "101.0 1 smtpd 16 16 R 8 1 bb\n"
        ), "fiu.blkparse")
        records = read_trace(path, "fiu")
        assert [r.lbn for r in records] == [0, 2, 3]
        assert [r.arrival_us for r in records] == [0.0, 500_000.0, 500_000.0]
