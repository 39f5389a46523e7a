"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import re
import shutil
import itertools
import subprocess
import sys

import pytest

import ledger as ledger_module
import measure
import run
from ledger import Ledger
from repro.manager.writeback import FlashTierWBManager
from workloads import WORKLOADS

#: What a metric name may be made of.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def small(name: str, scale: float):
    """A workload shrunk to test size (fidelity does not matter here)."""
    return dataclasses.replace(WORKLOADS[name], scale=scale)


def test_declared_metric_names_are_well_formed_and_unique():
    spec = run.load_spec()
    names = [metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_corrupted_read_back_counts_as_a_failed_op(monkeypatch):
    honest = measure.written_payloads

    def corrupted(records):
        expected = honest(records)
        victim = next(iter(expected))
        expected[victim] = ("corrupt", victim)
        return expected

    monkeypatch.setattr(measure, "written_payloads", corrupted)
    rep = measure.run_once(small("usr_ssc", 0.08), seed=3)
    assert rep["failed"] == 1
    assert run.failed_ops_frac([rep]) == 1 / (rep["records"] + rep["readbacks"])


def test_dirty_block_lost_in_recovery_makes_the_run_incorrect(monkeypatch):
    recover_us = FlashTierWBManager.recover_us

    def lossy(manager, disk_blocks):
        cost = recover_us(manager, disk_blocks)
        manager.dirty_table.remove(manager.dirty_table.lru_block())
        return cost

    monkeypatch.setattr(FlashTierWBManager, "recover_us", lossy)
    rep = measure.run_once(small("mail_sscr4", 0.1), seed=2)
    # The block is still dirty on the device, so its read-back passes.
    assert rep["failed"] == 0
    assert rep["checks"]["no dirty block is lost in crash and recovery"]
    assert not rep["checks"]["the manager's dirty table matches the device"]
    assert run.outcome([rep], {})["correct"] is False


def test_traced_run_agrees_with_untraced_and_emits_declared_metrics():
    spec = run.load_spec()
    workload = small("mail_sscr4", 0.1)
    plain = run.calibrated(measure.run_once(workload, seed=2), calib_s=0.1)
    assert plain["failed"] == 0 and all(plain["checks"].values())
    metrics, checks = run.summarize_untraced([plain, plain])
    assert all(checks.values())
    assert {metric["name"] for metric in spec["end_to_end"]} <= set(metrics)

    with Ledger() as ledger:
        traced = measure.run_once(workload, seed=2, ledger=ledger)
    assert traced["sim"] == plain["sim"]
    assert traced["peak_rss_mb"] > 0
    layers, checks = run.summarize_traced(plain, [traced])
    assert all(checks.values()), checks
    assert set(layers) == {metric["name"] for metric in spec["per_layer"]}
    for layer in ("engine", "manager", "sharding", "ssc", "ssc.sparse_map",
                  "ssc.log", "ssc.recovery", "flash", "disk", "sim"):
        assert layers[f"{layer}.calls_per_req"] > 0, layer


def test_ledger_puts_the_program_back():
    from repro.core import flashtier
    from repro.ssc.sparse_map import SparseHashMap

    lookup, replay_trace = SparseHashMap.lookup, flashtier.replay_trace
    with Ledger():
        assert SparseHashMap.lookup is not lookup
    assert SparseHashMap.lookup is lookup
    assert flashtier.replay_trace is replay_trace


def test_ledger_refuses_a_missing_entry_point(monkeypatch):
    from repro.ssc.sparse_map import SparseHashMap

    lookup = SparseHashMap.lookup
    monkeypatch.setattr(
        ledger_module, "ENTRY_POINTS",
        ledger_module.ENTRY_POINTS + (("ssc", "repro.ssc.device", "SolidStateCache", ("gone",)),),
    )
    with pytest.raises(AttributeError, match="SolidStateCache.gone"):
        with Ledger():
            pass
    assert SparseHashMap.lookup is lookup


def test_ledger_subtracts_the_wrapper_cost_from_caller_and_callee():
    # A clock that advances one tick per reading charges every wrapper
    # exactly its own readings, so the correction must leave no-ops at 0.
    ticks = itertools.count()
    ledger = Ledger(clock=lambda: next(ticks))
    ledger.overhead_ns = ledger.calibrate(calls=100, rounds=3)
    assert ledger.overhead_ns == (1.0, 1.0)

    def leaf(_a, _b):
        pass

    def parent(call, n):
        for _ in range(n):
            call(None, 1)

    leaf = ledger.wrap("flash", "leaf", leaf)
    parent = ledger.wrap("ftl", "parent", parent)
    parent(leaf, 500)
    assert ledger.self_ns["flash"] == 500 and ledger.self_ns["ftl"] == 501
    metrics = ledger.metrics(1)
    assert metrics["flash.calls_per_req"] == 500
    assert metrics["flash.self_us_per_req"] == 0.0
    assert metrics["ftl.self_us_per_req"] == 0.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "usr_ssc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
