#!/usr/bin/env python3
"""Host-speed gate: the repository benchmark on a base tree and a head tree.

    python3 .github/scripts/perf_ab.py BASE_TREE HEAD_TREE

For every workload in HEAD_TREE's BENCHMARK.json, runs each tree's own
benchmark command (``perfbench/run.py``) end to end (``--trace 0``) in
PAIRS alternating pairs.  Both runs of a pair take the same ``--seed``;
the base runs first in pairs 1, 3, ... and the head in pairs 2, 4, ...,
so a drift in host speed during the job lands on both sides alike.

The gate fails (exit status 1) if any run exits with an error, reports
``correct: false`` or counts a failed operation, or if the head's median
of any end-to-end metric is worse than the base's median by more than
that metric's ``bound``, in its ``better`` direction.  Bounds and
directions come from BENCHMARK.json, so this is the rule a change is
judged by.  A table per workload gives both medians, their ratio and
how many pairs the head won; a ``sim_*`` figure that differs between
the two runs of any pair is flagged, because a same-seed run must
simulate exactly what its twin did unless the change means to alter
the simulation.

Uses only the standard library and runs nothing from either tree but
its benchmark command.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

#: Pairs per workload.  Three workloads x 4 pairs took 9.3-11.2 minutes
#: on a 2-core VM.
PAIRS = 4

#: ``--seconds`` for every run.  Shorter than a minimal run, so each run
#: replays each of the workload's derived trace seeds exactly once.
SECONDS = 5

#: Longest one run may take before it counts as failed.
RUN_TIMEOUT_S = 600


def run(spec: dict, tree: str, workload: str, seed: int):
    """One benchmark run in ``tree``; returns its JSON result, or None
    after printing why there is none."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"  {tree}: {' '.join(command)} timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        print(f"  {tree}: {' '.join(command)} exited with {proc.returncode}")
        print(proc.stderr[-2000:], end="")
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def worse_by(metric: dict, base: float, head: float) -> bool:
    """Whether ``head`` is worse than ``base`` by more than the bound."""
    if metric["better"] == "higher":
        return head < base * (1.0 - metric["bound"])
    return head > base * (1.0 + metric["bound"])


def won(metric: dict, base: float, head: float) -> bool:
    return head > base if metric["better"] == "higher" else head < base


def compare(spec: dict, name: str, pairs: list) -> list:
    """Print the workload's table; returns its failures.

    ``pairs`` holds (base result, head result); either may be None.
    """
    failures = []
    for index, (base, head) in enumerate(pairs):
        for side, result in (("base", base), ("head", head)):
            if result is None:
                failures.append(f"{name} pair {index + 1}: the {side} run failed")
            elif not result["correct"] or result["failed"] > 0:
                failures.append(
                    f"{name} pair {index + 1}: the {side} run reports correct "
                    f"{result['correct']}, {result['failed']} of "
                    f"{result['attempted']} operations failed"
                )
    complete = [(base, head) for base, head in pairs if base and head]
    print(f"\n{name}: {len(complete)} of {len(pairs)} pairs complete")
    if not complete:
        return failures
    print(
        f"{'metric':<22} {'unit':<9} {'base median':>12} {'head median':>12} "
        f"{'ratio':>7} {'wins':>5} {'bound':>6}  verdict"
    )
    for metric in spec["end_to_end"]:
        key = metric["name"]
        values = [(base["metrics"][key]["value"], head["metrics"][key]["value"])
                  for base, head in complete]
        base_median = statistics.median(base for base, _ in values)
        head_median = statistics.median(head for _, head in values)
        ratio = f"{head_median / base_median:.3f}" if base_median else "n/a"
        wins = sum(won(metric, base, head) for base, head in values)
        verdict = "ok"
        if worse_by(metric, base_median, head_median):
            verdict = "WORSE"
            failures.append(
                f"{name} {key}: head median {head_median:.6g} is worse than "
                f"base median {base_median:.6g} by more than {metric['bound']:.0%}"
            )
        if key.startswith("sim_") and any(base != head for base, head in values):
            verdict += ", sim figure differs"
        print(
            f"{key:<22} {metric['unit']:<9} {base_median:>12.6g} {head_median:>12.6g} "
            f"{ratio:>7} {wins:>2}/{len(values):<2} {metric['bound']:>6.0%}  {verdict}"
        )
    return failures


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: perf_ab.py BASE_TREE HEAD_TREE", file=sys.stderr)
        return 2
    trees = {"base": os.path.abspath(argv[0]), "head": os.path.abspath(argv[1])}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            print(f"perf_ab: {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    pairs = {name: [] for name in names}
    began = time.monotonic()
    # Round by round, so a slow spell of the host touches one pair of
    # each workload rather than every pair of one.
    for index in range(PAIRS):
        seed = index + 1
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for name in names:
            results = {}
            for side in order:
                results[side] = result = run(spec, trees[side], name, seed)
                if result is not None:
                    print(
                        f"{name} seed {seed} {side}: replay_rec_per_calib "
                        f"{result['metrics']['replay_rec_per_calib']['value']:.6g}"
                        f" ({result['wall_s']:.1f} s)",
                        flush=True,
                    )
            pairs[name].append((results["base"], results["head"]))
    failures = []
    for name in names:
        failures += compare(spec, name, pairs[name])
    print(f"\n{len(names)} workloads x {PAIRS} pairs in "
          f"{time.monotonic() - began:.0f} s")
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf_ab: gate tripped" if failures else "perf_ab: gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
