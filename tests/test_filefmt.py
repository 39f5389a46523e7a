"""Unit tests for the native trace file format."""

import pytest

from repro.traces.filefmt import TraceFormatError, read_trace, write_trace
from repro.traces.record import OpKind, TraceRecord


@pytest.fixture
def records():
    return [
        TraceRecord(OpKind.READ, 100),
        TraceRecord(OpKind.WRITE, 200),
        TraceRecord(OpKind.WRITE, 0),
    ]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path, records):
        path = tmp_path / "trace.txt"
        count = write_trace(path, records)
        assert count == 3
        assert read_trace(path) == records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_trace(path, [])
        assert read_trace(path) == []


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n\nR 5\n   \nW 6\n")
        assert read_trace(path) == [
            TraceRecord(OpKind.READ, 5),
            TraceRecord(OpKind.WRITE, 6),
        ]

    def test_bad_op_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("X 5\n")
        with pytest.raises(TraceFormatError, match="unknown op"):
            read_trace(path)

    def test_bad_lbn_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R five\n")
        with pytest.raises(TraceFormatError, match="bad block number"):
            read_trace(path)

    def test_negative_lbn_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R -5\n")
        with pytest.raises(TraceFormatError, match="bad block number '-5'"):
            read_trace(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R 5 extra\n")
        with pytest.raises(TraceFormatError, match="expected"):
            read_trace(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R 1\nbroken\n")
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert str(excinfo.value) == (
            f"{path}:2: expected '<op> <lbn> [arrival_us]', got 'broken'"
        )


    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_arrival_rejected(self, tmp_path, text):
        path = tmp_path / "trace.txt"
        path.write_text(f"R 5 1.0\nW 6 {text}\n")
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert str(excinfo.value) == (
            f"{path}:2: expected finite arrival time, got {text!r}"
        )

    def test_block_beyond_the_lbn_column_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(f"R 1\nR {2**63}\n")
        with pytest.raises(TraceFormatError, match=":2: blocks "):
            read_trace(path)


class TestLimit:
    def test_limit_parses_no_later_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("W 0\nW 1\nbroken\n")
        assert read_trace(path, limit=2) == [
            TraceRecord(OpKind.WRITE, 0),
            TraceRecord(OpKind.WRITE, 1),
        ]
        with pytest.raises(TraceFormatError, match=":3:"):
            read_trace(path, limit=3)

    def test_limit_zero_reads_nothing(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("broken\n")
        assert read_trace(path, limit=0) == []

    def test_arrival_times_are_not_rebased(self, tmp_path):
        # Native arrival times are trace-relative already.
        path = tmp_path / "trace.txt"
        path.write_text("R 1 500\nR 2 250.5\n")
        assert [r.arrival_us for r in read_trace(path)] == [500.0, 250.5]
