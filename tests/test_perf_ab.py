"""The CI host-speed gate's verdicts, on made-up benchmark results.

``.github/scripts/perf_ab.py`` runs perfbench on two trees; these tests
feed its comparison step results built here, so the rule it applies
(bounds and directions from BENCHMARK.json, failed runs and operations)
is checked without running the benchmark.  Its run schedule (same seed
per pair, alternating order) and exit statuses are checked with the
benchmark run replaced, and one run with a stand-in command.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / ".github" / "scripts" / "perf_ab.py"
)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RATE = {"name": "replay_rec_per_calib", "better": "higher", "bound": 0.24}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def result(scale=1.0, sim_iops=100.0, correct=True, failed=0):
    """A perfbench result from a tree ``scale`` times as fast as the
    reference tree."""
    values = {metric["name"]: 10.0 for metric in SPEC["end_to_end"]}
    values["replay_rec_per_calib"] = 3000.0 * scale
    values["setup_s"] = 0.02 / scale
    values["peak_rss_mb"] = 22.0
    values["sim_iops"] = sim_iops
    return {
        "correct": correct,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


@pytest.mark.parametrize(
    "metric, base, head, worse",
    [
        (RATE, 1000.0, 761.0, False),
        (RATE, 1000.0, 759.0, True),
        (RATE, 1000.0, 2000.0, False),
        (SETUP, 1.0, 1.24, False),
        (SETUP, 1.0, 1.26, True),
        (SETUP, 1.0, 0.5, False),
    ],
)
def test_bound_applies_in_the_better_direction(metric, base, head, worse):
    assert perf_ab.worse_by(metric, base, head) is worse


def test_equal_runs_pass(capsys):
    pairs = [(result(), result()) for _ in range(perf_ab.PAIRS)]
    assert perf_ab.compare(SPEC, "w", pairs) == []
    assert "sim figure differs" not in capsys.readouterr().out


def test_slower_head_fails_on_every_slower_metric():
    pairs = [(result(), result(scale=0.7)) for _ in range(perf_ab.PAIRS)]
    failures = perf_ab.compare(SPEC, "w", pairs)
    assert [failure.split(":")[0] for failure in failures] == [
        "w replay_rec_per_calib", "w setup_s",
    ]


def test_one_slow_pair_does_not_move_the_median():
    pairs = [(result(), result())] * (perf_ab.PAIRS - 1) + [(result(), result(scale=0.5))]
    assert perf_ab.compare(SPEC, "w", pairs) == []


def test_a_minority_of_slow_pairs_does_not_move_the_median():
    # With an odd pair count the median is one run: fewer than half
    # the pairs slow, however slow, leave it where the others put it.
    slow = perf_ab.PAIRS // 2
    pairs = [(result(), result())] * (perf_ab.PAIRS - slow) + [
        (result(), result(scale=0.5))
    ] * slow
    assert perf_ab.compare(SPEC, "w", pairs) == []


def test_failed_run_and_failed_operations_fail():
    pairs = [
        (None, result()),
        (result(), result(failed=1)),
        (result(correct=False), result()),
    ] + [(result(), result())] * (perf_ab.PAIRS - 3)
    failures = perf_ab.compare(SPEC, "w", pairs)
    assert len(failures) == 3
    assert "pair 1: the base run failed" in failures[0]
    assert "pair 2: the head run" in failures[1]
    assert "pair 3: the base run reports correct False" in failures[2]


def test_differing_sim_figure_is_flagged_within_its_bound(capsys):
    pairs = [(result(), result())] * (perf_ab.PAIRS - 1) + [
        (result(), result(sim_iops=101.0))
    ]
    assert perf_ab.compare(SPEC, "w", pairs) == []
    flagged = [
        line for line in capsys.readouterr().out.splitlines()
        if "sim figure differs" in line
    ]
    assert [line.split()[0] for line in flagged] == ["sim_iops"]


def fake_tree(root: Path, name: str, spec: dict) -> Path:
    """A tree with a (never run) perfbench/run.py and a BENCHMARK.json."""
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("")
    (tree / "BENCHMARK.json").write_text(json.dumps(spec))
    return tree


def test_pairs_share_a_seed_and_alternate_which_side_runs_first(
    tmp_path, monkeypatch, capsys
):
    spec = dict(SPEC, workloads=[{"name": "a"}, {"name": "b"}])
    base = fake_tree(tmp_path, "base", spec)
    head = fake_tree(tmp_path, "head", spec)
    calls = []

    def fake_run(spec, tree, workload, seed):
        calls.append((Path(tree).name, workload, seed))
        return dict(result(), wall_s=1.0)

    monkeypatch.setattr(perf_ab, "run", fake_run)
    assert perf_ab.main([str(base), str(head)]) == 0
    expected = []
    for index in range(perf_ab.PAIRS):
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for workload in ("a", "b"):
            expected += [(side, workload, index + 1) for side in order]
    assert calls == expected
    assert capsys.readouterr().out.rstrip().endswith("perf_ab: gate passed")


def test_a_failed_run_trips_the_gate_and_a_missing_tree_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    spec = dict(SPEC, workloads=[{"name": "a"}])
    base = fake_tree(tmp_path, "base", spec)
    head = fake_tree(tmp_path, "head", spec)

    def fake_run(spec, tree, workload, seed):
        if Path(tree).name == "head" and seed == 2:
            return None
        return dict(result(), wall_s=1.0)

    monkeypatch.setattr(perf_ab, "run", fake_run)
    assert perf_ab.main([str(base), str(head)]) == 1
    out = capsys.readouterr().out
    assert "FAIL a pair 2: the head run failed" in out
    assert out.rstrip().endswith("perf_ab: gate tripped")

    assert perf_ab.main([str(base), str(tmp_path / "nowhere")]) == 2
    assert perf_ab.main([str(base)]) == 2


def test_run_returns_the_last_json_line_or_none_on_a_nonzero_exit(tmp_path, capsys):
    script = (
        "import json, sys\n"
        "print('progress noise')\n"
        "print(json.dumps({'argv': sys.argv[1:], 'correct': True}))\n"
    )
    spec = {"command": [sys.executable, "-c", script]}
    got = perf_ab.run(spec, str(tmp_path), "w", 5)
    assert got["argv"] == [
        "--workload", "w", "--seed", "5",
        "--seconds", str(perf_ab.SECONDS), "--trace", "0",
    ]
    assert got["correct"] is True and got["wall_s"] >= 0.0

    spec = {"command": [sys.executable, "-c", "import sys; sys.exit(3)"]}
    assert perf_ab.run(spec, str(tmp_path), "w", 5) is None
    assert "exited with 3" in capsys.readouterr().out
