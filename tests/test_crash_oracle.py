"""The SSC oracle model and the property-based crash sweep.

Two halves: unit tests pinning the oracle's legal-state algebra (the
model must be right before it can judge the device), and hypothesis
property tests running generated workloads through the explorer —
never lose a logged dirty block, never resurrect an evicted one — plus
the harness's own acid test: a deliberately buggy recovery must be
caught.  One replayed bit-flip trial pins that recovery never maps a
block on the free list, and hand-damaged devices pin each structural
rule on its own.
"""

import random

from hypothesis import HealthCheck, given, settings

from repro.check import faults
from repro.check.explorer import build_device, run_trial, run_workload
from repro.check.oracle import ABSENT, SSCOracle, _check_structure
from repro.check.workload import Op, generate_workload, workload_strategy
from repro.core.sharding import ShardedSSC
from repro.flash.block import BlockKind
from repro.flash.geometry import FlashGeometry
from repro.sim.crash import CrashInjector
from repro.ssc.device import SolidStateCache


class TestLegalStates:
    def test_never_written_is_absent(self):
        oracle = SSCOracle()
        assert oracle.legal_states(5) == {ABSENT}

    def test_committed_dirty_must_survive(self):
        oracle = SSCOracle()
        oracle.begin(Op("write_dirty", 5, "v"))
        oracle.commit()
        assert oracle.legal_states(5) == {("v", True)}

    def test_committed_clean_may_drop_but_not_corrupt(self):
        oracle = SSCOracle()
        oracle.begin(Op("write_clean", 5, "v"))
        oracle.commit()
        assert oracle.legal_states(5) == {("v", False), ABSENT}

    def test_cleaned_flag_may_revert(self):
        oracle = SSCOracle()
        oracle.begin(Op("write_dirty", 5, "v"))
        oracle.commit()
        oracle.begin(Op("clean", 5))
        oracle.commit()
        # clean is asynchronous: dirty, clean and absent are all legal.
        assert oracle.legal_states(5) == {("v", True), ("v", False), ABSENT}

    def test_evicted_never_resurrects(self):
        oracle = SSCOracle()
        oracle.begin(Op("write_dirty", 5, "v"))
        oracle.commit()
        oracle.begin(Op("evict", 5))
        oracle.commit()
        assert oracle.legal_states(5) == {ABSENT}

    def test_in_flight_unions_before_and_after(self):
        oracle = SSCOracle()
        oracle.begin(Op("write_clean", 5, "old"))
        oracle.commit()
        oracle.begin(Op("write_dirty", 5, "new"))  # crashes mid-op
        assert oracle.legal_states(5) == {
            ("old", False), ABSENT, ("new", True)
        }

    def test_observe_absent_collapses_clean_only(self):
        oracle = SSCOracle()
        oracle.begin(Op("write_clean", 5, "v"))
        oracle.commit()
        oracle.observe_absent(5)  # silent eviction observed live
        assert oracle.legal_states(5) == {ABSENT}
        oracle.begin(Op("write_dirty", 6, "w"))
        oracle.commit()
        oracle.observe_absent(6)  # dirty may never be silently dropped
        assert oracle.legal_states(6) == {("w", True)}


def _boundaries_of(workload):
    """Tick count of an uninterrupted run (0 for pure-read workloads)."""
    ssc = build_device()
    injector = CrashInjector()
    ssc.attach_injector(injector)
    violations = []
    assert not run_workload(ssc, SSCOracle(), workload, violations)
    assert violations == []
    return injector.ticks


class TestCrashSweepProperties:
    """Generated workloads: every sampled crash point recovers legally."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload_strategy(max_ops=25, lbn_range=12))
    def test_no_violation_at_any_sampled_boundary(self, workload):
        boundaries = _boundaries_of(workload)
        sample = sorted({1, max(1, boundaries // 2), max(1, boundaries)})
        for boundary in sample:
            violations, _fired = run_trial(
                workload, boundary, trial=f"prop/b={boundary}"
            )
            assert violations == [], "\n".join(map(str, violations))

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload_strategy(max_ops=20, lbn_range=12))
    def test_torn_write_at_midpoint_recovers_legally(self, workload):
        boundaries = _boundaries_of(workload)
        boundary = max(1, boundaries // 2)
        violations, _fired = run_trial(
            workload, boundary, torn=True, trial="prop/torn"
        )
        assert violations == [], "\n".join(map(str, violations))


# A workload whose final state is unambiguous: six committed dirty
# blocks, so recovery demoting or dropping any of them is illegal.
_DIRTY_WORKLOAD = [Op("write_dirty", lbn, f"v{lbn}") for lbn in range(6)]

# Sequential runs that merge into block-mapped data blocks.
_SEQUENTIAL_WORKLOAD = [Op("write_dirty", lbn, f"v{lbn}") for lbn in range(64)]


class TestHarnessCatchesInjectedBugs:
    """Mutation testing of the harness itself: sabotage recovery and
    verify the oracle flags it.  If these fail, the explorer's green
    runs prove nothing."""

    def test_recovery_that_demotes_dirty_is_caught(self, monkeypatch):
        real_recover = SolidStateCache.recover

        def buggy_recover(self):
            cost = real_recover(self)
            # Injected bug: recovery silently loses one dirty flag.
            for lbn in sorted(self.engine.iter_cached_lbns()):
                if self.is_dirty(lbn):
                    self.clean(lbn)
                    break
            return cost

        monkeypatch.setattr(SolidStateCache, "recover", buggy_recover)
        boundaries = _boundaries_of(_DIRTY_WORKLOAD)
        violations, _fired = run_trial(_DIRTY_WORKLOAD, boundaries)
        rules = {violation.rule for violation in violations}
        assert rules & {"illegal-state", "exists-missing-dirty"}, violations

    def test_recovery_that_drops_dirty_is_caught(self, monkeypatch):
        real_recover = SolidStateCache.recover

        def buggy_recover(self):
            cost = real_recover(self)
            # Injected bug: recovery silently drops one dirty block.
            for lbn in sorted(self.engine.iter_cached_lbns()):
                if self.is_dirty(lbn):
                    self.evict(lbn)
                    break
            return cost

        monkeypatch.setattr(SolidStateCache, "recover", buggy_recover)
        boundaries = _boundaries_of(_DIRTY_WORKLOAD)
        violations, _fired = run_trial(_DIRTY_WORKLOAD, boundaries)
        assert any(v.rule == "lost-dirty" for v in violations), violations

    def test_recovery_that_frees_a_mapped_block_is_caught(self, monkeypatch):
        real_recover = SolidStateCache.recover

        def buggy_recover(self):
            cost = real_recover(self)
            # Injected bug: a mapped data block lands on the free list.
            _group, pbn = min(self.engine.data_map.items())
            block = self.chip.block(pbn)
            block.kind = BlockKind.FREE
            plane = self.chip.planes[pbn // self.chip.geometry.blocks_per_plane]
            plane.release(block)
            return cost

        monkeypatch.setattr(SolidStateCache, "recover", buggy_recover)
        boundaries = _boundaries_of(_SEQUENTIAL_WORKLOAD)
        violations, _fired = run_trial(_SEQUENTIAL_WORKLOAD, boundaries)
        rules = {violation.rule for violation in violations}
        assert {"mapped-block-free", "mapped-block-not-data",
                "free-block-in-use"} <= rules, violations

    def test_healthy_recovery_is_clean_on_the_same_workload(self):
        """Control: without the injected bug the identical trial passes."""
        boundaries = _boundaries_of(_DIRTY_WORKLOAD)
        violations, fired = run_trial(_DIRTY_WORKLOAD, boundaries)
        assert violations == []
        assert fired is not None


class TestRecoveredStructure:
    def test_flipped_log_record_maps_no_free_block(self):
        """Bit-flip trial 6 of ``crashcheck --ops 150 --seed 0``: a
        flipped log record truncates the replay, so recovery falls back
        to an older block entry whose block has since been erased.  The
        recovered block map must not point into the free pool."""
        workload = generate_workload(150, 0, lbn_range=64)
        rng = random.Random(6)
        boundary = 1 + rng.randrange(_boundaries_of(workload))
        devices = []

        def flip_log_record(ssc, rng):
            devices.append(ssc)
            return faults.flip_log_record(ssc, rng)

        violations, _fired = run_trial(
            workload, boundary, fault=flip_log_record, fault_rng=rng,
            strict=False,
        )
        ssc = devices[0]  # recovered by run_trial after the flip
        assert ssc.engine.data_map.items()
        for group, pbn in ssc.engine.data_map.items():
            plane = ssc.chip.planes[pbn // ssc.chip.geometry.blocks_per_plane]
            assert not plane.is_free(pbn), (group, pbn)
            assert ssc.chip.block(pbn).kind is BlockKind.DATA, (group, pbn)
        assert violations == []


def _recovered_with_data_blocks(ssc, oracle=None):
    oracle = oracle or SSCOracle()
    for lbn in range(32):  # groups 1-3 become data blocks
        oracle.begin(Op("write_dirty", lbn, f"v{lbn}"))
        ssc.write_dirty(lbn, f"v{lbn}")
        oracle.commit()
    ssc.crash()
    ssc.recover()
    return ssc


def _plane_of(ssc, pbn):
    return ssc.chip.planes[pbn // ssc.chip.geometry.blocks_per_plane]


def _rules(violations):
    return sorted(violation.rule for violation in violations)


class TestStructureRules:
    """Each structural rule on its own, on a hand-damaged device."""

    GEOMETRY = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)

    def device(self):
        return _recovered_with_data_blocks(SolidStateCache.ssc(self.GEOMETRY))

    def test_healthy_recovery_breaks_no_rule(self):
        oracle = SSCOracle()
        ssc = _recovered_with_data_blocks(SolidStateCache.ssc(self.GEOMETRY), oracle)
        assert ssc.engine.data_map.items()
        assert _check_structure(ssc, "t") == []
        assert oracle.check(ssc, strict=True) == []

    def test_mapped_block_of_wrong_kind(self):
        ssc = self.device()
        group, pbn = min(ssc.engine.data_map.items())
        ssc.chip.block(pbn).kind = BlockKind.LOG
        violations = _check_structure(ssc, "t")
        assert _rules(violations) == ["mapped-block-not-data"]
        assert f"group {group} maps to pbn {pbn} of kind LOG" in violations[0].detail

    def test_mapped_block_on_the_free_list(self):
        ssc = self.device()
        _group, pbn = min(ssc.engine.data_map.items())
        block = ssc.chip.block(pbn)
        block.kind = BlockKind.FREE
        _plane_of(ssc, pbn).release(block)
        block.kind = BlockKind.DATA  # still mapped and holding data
        assert _rules(_check_structure(ssc, "t")) == [
            "free-block-in-use", "mapped-block-free",
        ]

    def test_free_list_block_in_use(self):
        ssc = self.device()
        plane = ssc.chip.planes[0]
        pbn = next(pbn for pbn in plane.blocks if plane.is_free(pbn))
        ssc.chip.block(pbn).kind = BlockKind.LOG
        violations = _check_structure(ssc, "trial-7")
        assert _rules(violations) == ["free-block-in-use"]
        assert violations[0].trial == "trial-7"
        assert f"free-list pbn {pbn} is LOG" in violations[0].detail

    def test_every_array_member_is_checked_by_name(self):
        oracle = SSCOracle()
        array = ShardedSSC([SolidStateCache.ssc(self.GEOMETRY) for _ in range(2)])
        _recovered_with_data_blocks(array, oracle)
        assert oracle.check(array) == []
        member = array.shards[1]
        plane = member.chip.planes[0]
        pbn = next(pbn for pbn in plane.blocks if plane.is_free(pbn))
        member.chip.block(pbn).kind = BlockKind.LOG
        violations = oracle.check(array)
        assert _rules(violations) == ["free-block-in-use"]
        assert violations[0].detail.startswith(f"{member.name}: ")
