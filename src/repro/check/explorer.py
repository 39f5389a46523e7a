"""The crash-state explorer.

For a deterministic workload, the explorer:

1. runs it once against a fresh SSC with an *unarmed* injector wired
   into every durability boundary (page programs, log flushes,
   checkpoint writes) — the tick count of that baseline run enumerates
   every boundary the workload crosses;
2. re-runs the workload once per boundary index, arms the injector to
   crash exactly there, recovers the device, and checks the recovered
   state against the :class:`~repro.check.oracle.SSCOracle`'s legal
   sets — once with a clean power cut and once with a *torn* write at
   the firing boundary;
3. optionally runs bit-flip trials: the workload completes, a bit is
   flipped in durable state (a flushed log record, a flash page, a
   checkpoint), and recovery must *discard* the damaged state rather
   than surface it (checked under the relaxed integrity rules — see
   docs/crash_testing.md for why strictness is impossible under log
   bit rot).

During every run the explorer also performs live checks: reads must
return the exact committed value, dirty blocks must never vanish, and
``exists`` must match the model's dirty set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.check import faults
from repro.check.oracle import SSCOracle, Violation
from repro.check.workload import Op, generate_workload
from repro.core.sharding import ShardedSSC
from repro.errors import CrashError, NotPresentError
from repro.flash.geometry import FlashGeometry
from repro.sim.crash import CrashInjector
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy

#: Idle budget handed to each generated ``gc`` op (microseconds).
_GC_BUDGET_US = 2_000.0


def build_device(geometry: Optional[FlashGeometry] = None, shards: int = 1):
    """A small SSC tuned so short workloads cross many boundary kinds.

    Group commit every 8 buffered ops and a checkpoint every 50 writes
    make asynchronous flushes and checkpoint writes occur within a
    ~200-op workload; the 4x16x8 geometry is large enough for garbage
    collection and silent eviction to trigger.

    ``shards > 1`` builds a :class:`~repro.core.sharding.ShardedSSC` of
    that many such devices (every member keeps the full geometry — the
    exploration wants each shard exercising its whole boundary set, not
    a capacity-scaling experiment).
    """
    geometry = geometry or FlashGeometry(
        planes=4, blocks_per_plane=16, pages_per_block=8
    )
    config = SSCConfig(
        policy=EvictionPolicy.UTIL,
        group_commit_ops=8,
        checkpoint_interval_writes=50,
    )
    if shards == 1:
        return SolidStateCache(geometry, config=config)
    return ShardedSSC(
        [
            SolidStateCache(geometry, config=config, name=f"shard{shard_id}")
            for shard_id in range(shards)
        ]
    )


def apply_op(
    ssc: SolidStateCache,
    oracle: SSCOracle,
    op: Op,
    violations: List[Violation],
    trial: str = "",
) -> None:
    """Issue ``op`` to the device, mirroring it into the oracle.

    Live-checks reads and ``exists`` against the committed model.  A
    :class:`CrashError` propagates with the oracle's in-flight marker
    still set, which is exactly what the post-crash check needs.
    """
    oracle.begin(op)
    if op.kind == "write_dirty":
        ssc.write_dirty(op.lbn, op.data)
    elif op.kind == "write_clean":
        ssc.write_clean(op.lbn, op.data)
    elif op.kind == "evict":
        ssc.evict(op.lbn)
    elif op.kind == "clean":
        ssc.clean(op.lbn)
    elif op.kind == "gc":
        ssc.background_collect(_GC_BUDGET_US)
    elif op.kind == "checkpoint":
        ssc.checkpoint_now()
    elif op.kind == "read":
        _live_read(ssc, oracle, op, violations, trial)
    elif op.kind == "exists":
        _live_exists(ssc, oracle, op, violations, trial)
    else:  # pragma: no cover - generator is closed
        raise ValueError(f"unknown op kind {op.kind}")
    oracle.commit()


def _live_read(ssc, oracle, op, violations, trial) -> None:
    committed = oracle.committed.get(op.lbn)
    try:
        value, _cost = ssc.read(op.lbn)
    except NotPresentError:
        if committed is not None and committed[0] == "dirty":
            violations.append(Violation(
                "live-lost-dirty", op.lbn,
                f"dirty block vanished during normal operation "
                f"(expected {committed[1]!r})", trial,
            ))
        else:
            oracle.observe_absent(op.lbn)
        return
    if committed is None:
        violations.append(Violation(
            "live-resurrection", op.lbn,
            f"read returned {value!r} for an absent block", trial,
        ))
    elif value != committed[1]:
        violations.append(Violation(
            "live-wrong-value", op.lbn,
            f"read returned {value!r}, committed value is "
            f"{committed[1]!r}", trial,
        ))


def _live_exists(ssc, oracle, op, violations, trial) -> None:
    reported, _cost = ssc.exists(0, op.lbn)
    expected = {
        lbn
        for lbn, (kind, _value) in oracle.committed.items()
        if kind == "dirty" and 0 <= lbn < op.lbn
    }
    observed = set(reported)
    if observed != expected:
        violations.append(Violation(
            "live-exists-mismatch", None,
            f"exists reported {sorted(observed)}, model expects "
            f"{sorted(expected)}", trial,
        ))


def run_workload(
    ssc: SolidStateCache,
    oracle: SSCOracle,
    workload: List[Op],
    violations: List[Violation],
    trial: str = "",
) -> bool:
    """Run the whole workload; returns True if a crash fired mid-way."""
    try:
        for op in workload:
            apply_op(ssc, oracle, op, violations, trial)
    except CrashError:
        return True
    return False


@dataclass
class ExplorationReport:
    """What one full exploration covered and found."""

    boundaries: int                 # durability boundaries in the workload
    trials: int                     # armed runs performed
    explored: int                   # trials whose crash actually fired
    point_counts: Dict[str, int] = field(default_factory=dict)
    fired_counts: Dict[str, int] = field(default_factory=dict)
    bitflip_trials: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_trial(
    workload: List[Op],
    boundary: int,
    torn: bool = False,
    geometry: Optional[FlashGeometry] = None,
    fault: Optional[Callable[[SolidStateCache, random.Random], bool]] = None,
    fault_rng: Optional[random.Random] = None,
    strict: bool = True,
    trial: str = "",
    shards: int = 1,
) -> tuple:
    """One armed run: crash at ``boundary``, recover, check.

    Returns ``(violations, fired_point_name)``; ``fired_point_name`` is
    None when the workload finished before the armed boundary (only
    possible when ``boundary`` exceeds the baseline tick count).

    With ``shards > 1`` the workload runs against a sharded array (the
    injector is wired into *every* member, so the armed boundary fires
    wherever the routed operation stream crosses it), and a bit-flip
    ``fault`` damages one member device chosen by ``fault_rng``.
    """
    ssc = build_device(geometry, shards=shards)
    injector = CrashInjector()
    ssc.attach_injector(injector)
    injector.arm(after_events=boundary - 1, torn=torn)
    oracle = SSCOracle()
    violations: List[Violation] = []
    crashed = run_workload(ssc, oracle, workload, violations, trial)
    if not crashed:
        injector.disarm()
        ssc.crash()
    if fault is not None:
        rng = fault_rng or random.Random(boundary)
        members = getattr(ssc, "shards", None)
        target = members[rng.randrange(len(members))] if members else ssc
        fault(target, rng)
    ssc.recover()
    violations.extend(oracle.check(ssc, strict=strict, trial=trial))
    fired = injector.fired_point.name if injector.fired_point else None
    return violations, fired


def explore(
    ops: int = 200,
    seed: int = 0,
    stride: int = 1,
    torn: bool = True,
    bitflips: int = 0,
    lbn_range: int = 64,
    geometry: Optional[FlashGeometry] = None,
    shards: int = 1,
) -> ExplorationReport:
    """Full exploration of one generated workload.

    ``stride`` samples every ``stride``-th boundary (1 = exhaustive).
    ``torn`` adds a torn-write variant of every sampled boundary.
    ``bitflips`` adds that many bit-flip trials (checked under the
    relaxed integrity rules).  ``shards`` runs every trial against a
    sharded cache array instead of a single device.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    workload = generate_workload(ops, seed, lbn_range=lbn_range)

    # Baseline: enumerate the boundaries an uninterrupted run crosses.
    baseline_ssc = build_device(geometry, shards=shards)
    baseline_injector = CrashInjector()
    baseline_ssc.attach_injector(baseline_injector)
    baseline_oracle = SSCOracle()
    report = ExplorationReport(boundaries=0, trials=0, explored=0)
    crashed = run_workload(
        baseline_ssc, baseline_oracle, workload, report.violations, "baseline"
    )
    if crashed:  # pragma: no cover - unarmed injector never fires
        raise RuntimeError("baseline run crashed with an unarmed injector")
    report.boundaries = baseline_injector.ticks
    report.point_counts = {
        point.name: count
        for point, count in baseline_injector.point_counts.items()
    }

    for boundary in range(1, report.boundaries + 1, stride):
        for is_torn in ((False, True) if torn else (False,)):
            label = f"boundary={boundary}{'/torn' if is_torn else ''}"
            violations, fired = run_trial(
                workload, boundary, torn=is_torn, geometry=geometry,
                trial=label, shards=shards,
            )
            report.trials += 1
            if fired is not None:
                report.explored += 1
                report.fired_counts[fired] = report.fired_counts.get(fired, 0) + 1
            report.violations.extend(violations)

    fault_cycle = [faults.flip_log_record, faults.flip_page_data,
                   faults.flip_checkpoint]
    for index in range(bitflips):
        rng = random.Random((seed << 16) ^ index)
        boundary = 1 + rng.randrange(max(1, report.boundaries))
        label = f"bitflip={index}"
        violations, _fired = run_trial(
            workload, boundary, geometry=geometry,
            fault=fault_cycle[index % len(fault_cycle)], fault_rng=rng,
            strict=False, trial=label, shards=shards,
        )
        report.trials += 1
        report.bitflip_trials += 1
        report.violations.extend(violations)

    return report
