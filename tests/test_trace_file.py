"""The shared line-oriented trace-file loop (``iter_trace_file``) and
the MSR disk filter built on it."""

import pytest

from repro.traces.fiu import iter_fiu_trace
from repro.traces.msr import MSRFormatError, iter_msr_trace
from repro.traces.record import OpKind, TraceRecord, iter_trace_file


def parse_csv(line, line_number):
    """``lbn[,arrival_us]`` per line, one record each."""
    fields = line.split(",")
    arrival = float(fields[1]) if len(fields) > 1 else None
    return [TraceRecord(OpKind.READ, int(fields[0]), arrival)]


def write(tmp_path, text, name="trace.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLineLoop:
    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\n# header\n1\n   \n  # indented\n2\n\n")
        assert [r.lbn for r in iter_trace_file(path, parse_csv)] == [1, 2]

    def test_parser_gets_stripped_line_and_file_line_number(self, tmp_path):
        path = write(tmp_path, "# header\n  7  \n\n8\n")
        seen = []

        def parse(line, line_number):
            seen.append((line, line_number))
            return parse_csv(line, line_number)

        list(iter_trace_file(path, parse))
        assert seen == [("7", 2), ("8", 4)]

    def test_arrival_times_rebased_to_first_timestamp(self, tmp_path):
        path = write(tmp_path, "1,500\n2,750\n3,1500\n")
        arrivals = [r.arrival_us for r in iter_trace_file(path, parse_csv)]
        assert arrivals == [0.0, 250.0, 1000.0]

    def test_untimed_records_keep_none_and_set_no_origin(self, tmp_path):
        path = write(tmp_path, "1\n2,900\n3\n4,1000\n")
        arrivals = [r.arrival_us for r in iter_trace_file(path, parse_csv)]
        assert arrivals == [None, 0.0, None, 100.0]

    def test_time_before_origin_clamps_to_zero(self, tmp_path):
        path = write(tmp_path, "1,500\n2,100\n")
        arrivals = [r.arrival_us for r in iter_trace_file(path, parse_csv)]
        assert arrivals == [0.0, 0.0]

    def test_limit_stops_inside_a_multi_record_line(self, tmp_path):
        path = write(tmp_path, "0\n10\n20\n")
        calls = []

        def parse_run(line, line_number):
            calls.append(line_number)
            first = int(line)
            return [TraceRecord(OpKind.WRITE, lbn) for lbn in range(first, first + 3)]

        records = list(iter_trace_file(path, parse_run, limit=5))
        assert [r.lbn for r in records] == [0, 1, 2, 10, 11]
        assert calls == [1, 2]  # the third line is never parsed

    def test_limit_zero_parses_no_line(self, tmp_path):
        path = write(tmp_path, "0\n10\n")
        calls = []

        def parse(line, line_number):
            calls.append(line_number)
            return parse_csv(line, line_number)

        assert list(iter_trace_file(path, parse, limit=0)) == []
        assert calls == []

    def test_no_limit_reads_everything(self, tmp_path):
        path = write(tmp_path, "".join(f"{lbn}\n" for lbn in range(50)))
        assert len(list(iter_trace_file(path, parse_csv))) == 50

    def test_empty_parse_result_emits_nothing(self, tmp_path):
        path = write(tmp_path, "skip\n3\nskip\n4\n")

        def parse(line, line_number):
            return [] if line == "skip" else parse_csv(line, line_number)

        records = list(iter_trace_file(path, parse, limit=2))
        assert [r.lbn for r in records] == [3, 4]


class TestFormatReaders:
    def test_msr_filtered_disks_set_no_origin_and_use_no_limit(self, tmp_path):
        # Filetime ticks are 100 ns: disk 1's earlier request must not
        # become disk 0's time origin, nor count toward the limit.
        path = write(tmp_path, (
            "1000,hm,1,Read,0,4096,10\n"
            "3000,hm,0,Read,4096,4096,10\n"
            "5000,hm,1,Read,8192,4096,10\n"
            "8000,hm,0,Write,12288,4096,10\n"
        ), "msr.csv")
        records = list(iter_msr_trace(path, disks=[0], limit=2))
        assert [(r.op, r.lbn) for r in records] == [
            (OpKind.READ, 1), (OpKind.WRITE, 3),
        ]
        assert [r.arrival_us for r in records] == [0.0, 500.0]

    def test_msr_bad_disk_field_rejected_only_when_filtering(self, tmp_path):
        path = write(tmp_path, "1000,hm,x,Read,0,4096,10\n", "msr.csv")
        assert len(list(iter_msr_trace(path))) == 1
        with pytest.raises(MSRFormatError, match="line 1: bad disk number"):
            list(iter_msr_trace(path, disks=[0]))

    def test_fiu_rebases_seconds_to_microseconds(self, tmp_path):
        path = write(tmp_path, (
            "# header\n"
            "100.5 1 smtpd 0 8 W 8 1 aa\n"
            "101.0 1 smtpd 16 16 R 8 1 bb\n"
        ), "fiu.blkparse")
        records = list(iter_fiu_trace(path))
        assert [r.lbn for r in records] == [0, 2, 3]
        assert [r.arrival_us for r in records] == [0.0, 500_000.0, 500_000.0]
