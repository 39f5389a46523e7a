"""Run one perfbench workload for one seed and print its metrics.

    python3 perfbench/run.py --workload usr_ssc --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (measure.py) with
PYTHONHASHSEED=0, one after another.  ``--seed`` derives the workload's
number of trace seeds, which the repetitions take in turn.

``--trace 0`` repeats until ``--seconds`` have passed and every derived
seed has run, then reports the end-to-end metrics of BENCHMARK.json:
host metrics as the median over repetitions, simulated metrics as the
mean over the derived seeds.  A seed that runs twice must reproduce its
simulated metrics and work counts exactly.

``--trace 1`` runs the first derived seed once plain and twice under the
per-layer ledger (ledger.py), checks that the traced repetitions
simulate exactly what the plain one did and count the same calls, and
reports the per-layer metrics of BENCHMARK.json.

The runner times a fixed host calibration loop just before and just
after each repetition, in its own process so that the loop's memory
stays out of the repetition's peak RSS.  Each repetition prints a line
with its calibration time and a table of the metrics follows.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from ledger import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Longest one repetition may take before the run is abandoned.
REPETITION_TIMEOUT_S = 150

HOST_METRICS = ("replay_rec_per_s", "replay_rec_per_calib", "setup_s", "peak_rss_mb")


class RepetitionFailed(RuntimeError):
    """A repetition's process exited with an error."""


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


class _Counter:
    """A small slotted object, like the simulator's records and blocks."""

    __slots__ = ("total", "recent")

    def __init__(self):
        self.total = 0
        self.recent = []

    def add(self, value: int) -> None:
        self.total += value & 7
        if value % 3 == 0:
            self.recent.append(value)
            if len(self.recent) > 64:
                self.recent.clear()


def calibrate() -> float:
    """CPU seconds of a fixed interpreter-bound loop: method calls,
    attribute updates and list appends on a few thousand slotted
    objects, the kind of work the simulator does.

    The mean of the loops before and after a repetition is printed as
    host-noise context and scales ``replay_rec_per_calib``.  A replay
    that slows together with this loop ran on a busy host; one that
    slows alone ran slower code.  Of the loops tried, this one tracks
    the replay's host-induced slowdowns best; a loop over a 60 MiB
    dictionary, bound by memory latency, tracked them worse.
    """
    start = time.process_time()
    counters = [_Counter() for _ in range(4096)]
    for i in range(600_000):
        counters[(i * 2654435761) & 4095].add(i)
    return time.process_time() - start


def calibrated(rep: dict, calib_s: float) -> dict:
    """``rep`` with its host calibration time and the replay rate in
    records per calibration loop."""
    return dict(
        rep, calib_s=calib_s, replay_rec_per_calib=rep["replay_rec_per_s"] * calib_s
    )


def derived_seeds(seed: int, count: int) -> list:
    """Trace seeds of one run.  Averaging the simulated metrics over many
    short traces keeps a run's figures steady from one --seed to the next."""
    return [seed * count + index for index in range(count)]


def run_repetition(workload: str, seed: int, traced: bool) -> dict:
    """Run measure.py once in a fresh interpreter between two
    calibration loops; returns its result."""
    command = [sys.executable, MEASURE, "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    calib_before = calibrate()
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=REPETITION_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RepetitionFailed(f"{' '.join(command)} exited with {proc.returncode}")
    rep = calibrated(
        json.loads(proc.stdout.splitlines()[-1]), (calib_before + calibrate()) / 2
    )
    print(
        f"{'traced' if traced else 'plain'} seed {seed}: {rep['records']} records, "
        f"replay {rep['replay_s']:.3f} s = {rep['replay_rec_per_s']:,.0f} rec/s, "
        f"setup {rep['setup_s']:.4f} s, peak RSS {rep['peak_rss_mb']:.1f} MiB, "
        f"calibration {rep['calib_s']:.4f} s, "
        f"read-back {rep['failed']} failed of {rep['readbacks']}",
        flush=True,
    )
    return rep


def failed_ops_frac(reps) -> float:
    attempted = sum(rep["records"] + rep["readbacks"] for rep in reps)
    return sum(rep["failed"] for rep in reps) / attempted


def summarize_untraced(reps) -> tuple:
    """Metrics and run-level checks of plain repetitions."""
    first = {}
    repeatable = True
    for rep in reps:
        seen = first.setdefault(rep["seed"], rep)
        repeatable &= rep["sim"] == seen["sim"] and rep["counts"] == seen["counts"]
    metrics = {name: statistics.median(rep[name] for rep in reps) for name in HOST_METRICS}
    for name in reps[0]["sim"]:
        metrics[name] = statistics.fmean(rep["sim"][name] for rep in first.values())
    return metrics, {"a repeated seed reproduces its simulation": repeatable}


def summarize_traced(plain, traced) -> tuple:
    """Per-layer metrics and self-checks from one plain and several
    traced repetitions of the same seed."""
    calls = [
        {
            name: value
            for name, value in rep["layers"].items()
            if not name.endswith(".self_us_per_req")
        }
        for rep in traced
    ]
    checks = {
        "traced sim_* equal untraced": all(rep["sim"] == plain["sim"] for rep in traced),
        "traced work counts equal untraced": all(
            rep["counts"] == plain["counts"] for rep in traced
        ),
        "traced runs count the same calls": all(counts == calls[0] for counts in calls),
    }
    metrics = dict(calls[0])
    for layer in LAYERS:
        name = f"{layer}.self_us_per_req"
        metrics[name] = statistics.fmean(rep["layers"][name] for rep in traced)
    metrics.update(plain["counts"])
    metrics["ssc.recovery.sim_us"] = plain["sim"]["sim_recovery_us"]
    metrics["traces.gen_s"] = plain["gen_s"]
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(rep["replay_s"] for rep in traced) / plain["replay_s"]
    )
    return metrics, checks


def outcome(reps, checks) -> dict:
    """The run's verdict: correct unless an op failed or a check did not
    hold in every repetition."""
    checks = dict(checks)
    for name in reps[0]["checks"]:
        checks[name] = all(rep["checks"][name] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": sum(rep["records"] + rep["readbacks"] for rep in reps),
        "failed": failed,
        "checks": checks,
    }


def print_report(declared, metrics, reps, checks, traced: bool) -> None:
    print()
    names = {metric["name"] for metric in declared}
    for metric in declared:
        print(
            f"{metric['name']:<34} {metrics[metric['name']]:>14.6g} "
            f"{metric['unit']:<9} ({metric['better']} is better)"
        )
    context = {"failed_ops_frac": failed_ops_frac(reps)}
    if traced:
        total = sum(metrics[f"{layer}.self_us_per_req"] for layer in LAYERS)
        shares = sorted(
            ((metrics[f"{layer}.self_us_per_req"] / total, layer) for layer in LAYERS),
            reverse=True,
        )
        print("self-time share: " + ", ".join(
            f"{layer} {share:.1%}" for share, layer in shares if share > 0
        ))
        inside, outside = reps[1]["wrapper_ns"]
        print(
            f"wrapper cost subtracted per call: {inside:.0f} ns in the callee, "
            f"{outside:.0f} ns in the caller"
        )
    else:
        context.update((name, metrics[name]) for name in sorted(set(metrics) - names))
        context["latency samples"] = min(rep["latency_samples"] for rep in reps)
    calibration = [rep["calib_s"] for rep in reps]
    print(f"{'-- not gated --':<34}")
    for name, value in context.items():
        print(f"{name:<34} {value:>14.6g}")
    print(
        f"host calibration: median {statistics.median(calibration):.4f} s, "
        f"range {min(calibration):.4f}-{max(calibration):.4f} s "
        f"over {len(calibration)} repetitions"
    )
    for name, ok in checks.items():
        print(f"check {'ok' if ok else 'FAILED'}: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: {ROOT} has no src/repro; run it from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    print(f"{workload.name}: {json.dumps(workload.describe())}", flush=True)
    seeds = derived_seeds(args.seed, workload.traces)
    try:
        if args.trace:
            plain = run_repetition(workload.name, seeds[0], traced=False)
            traced = [
                run_repetition(workload.name, seeds[0], traced=True) for _ in range(2)
            ]
            reps = [plain, *traced]
            metrics, checks = summarize_traced(plain, traced)
        else:
            reps = []
            deadline = time.monotonic() + args.seconds
            while len(reps) < len(seeds) or time.monotonic() < deadline:
                seed = seeds[len(reps) % len(seeds)]
                reps.append(run_repetition(workload.name, seed, traced=False))
            metrics, checks = summarize_untraced(reps)
    except (RepetitionFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    absent = sorted({metric["name"] for metric in declared} - set(metrics))
    if absent:
        print(f"perfbench: no value for {absent}", file=sys.stderr)
        return 1
    verdict = outcome(reps, checks)
    print_report(declared, metrics, reps, verdict.pop("checks"), traced=bool(args.trace))
    print(json.dumps({
        **verdict,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
