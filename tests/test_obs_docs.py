"""docs/metrics.md is generated, and CI proves it cannot drift.

The committed file must equal what the current catalogs render —
``repro obs schema --check`` is the CI gate, and these
tests run the same comparison in-process plus the CLI's exit-code
contract around it.
"""

from pathlib import Path

from repro.cli import main
from repro.obs import EVENT_TYPES, METRICS, metrics_markdown

REPO_ROOT = Path(__file__).resolve().parent.parent
METRICS_MD = REPO_ROOT / "docs" / "metrics.md"


class TestGeneratedReference:
    def test_committed_file_matches_catalog(self):
        assert METRICS_MD.read_text() == metrics_markdown(), (
            "docs/metrics.md is stale: regenerate with "
            "python -m repro obs schema -o docs/metrics.md"
        )

    def test_every_event_and_metric_is_listed(self):
        rendered = metrics_markdown()
        for name in EVENT_TYPES:
            assert f"`{name}`" in rendered
        for entry in METRICS:
            assert f"`{entry[0]}`" in rendered

    def test_marked_as_generated(self):
        assert "GENERATED FILE" in METRICS_MD.read_text()


class TestSchemaCli:
    def test_check_passes_on_committed_file(self, capsys):
        assert main([
            "obs", "schema", "--check",
            "-o", str(METRICS_MD),
        ]) == 0
        assert "matches the catalog" in capsys.readouterr().out

    def test_check_fails_on_stale_file(self, tmp_path, capsys):
        stale = tmp_path / "metrics.md"
        stale.write_text(metrics_markdown() + "\nhand edit\n")
        assert main([
            "obs", "schema", "--check", "-o", str(stale),
        ]) == 1
        err = capsys.readouterr().err
        assert "stale" in err and "regenerate" in err

    def test_check_fails_on_missing_file(self, tmp_path, capsys):
        assert main([
            "obs", "schema", "--check",
            "-o", str(tmp_path / "absent.md"),
        ]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_write_then_check_round_trips(self, tmp_path, capsys):
        out = tmp_path / "metrics.md"
        assert main([
            "obs", "schema", "-o", str(out),
        ]) == 0
        assert out.read_text() == metrics_markdown()
        assert main([
            "obs", "schema", "--check", "-o", str(out),
        ]) == 0

    def test_stdout_mode(self, capsys):
        assert main(["obs", "schema"]) == 0
        out = capsys.readouterr().out
        assert "## Trace events" in out and "## Metrics" in out
