"""The SSC oracle model and the property-based crash sweep.

Two halves: unit tests pinning the oracle's legal-state algebra (the
model must be right before it can judge the device), and hypothesis
property tests running generated workloads through the explorer —
never lose a logged dirty block, never resurrect an evicted one — plus
the harness's own acid test: a deliberately buggy recovery must be
caught.
"""

from hypothesis import HealthCheck, given, settings

from repro.check.explorer import build_device, run_trial, run_workload
from repro.check.oracle import ABSENT, SSCOracle
from repro.check.workload import Op, workload_strategy
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

    def test_healthy_recovery_is_clean_on_the_same_workload(self):
        """Control: without the injected bug the identical trial passes."""
        boundaries = _boundaries_of(_DIRTY_WORKLOAD)
        violations, fired = run_trial(_DIRTY_WORKLOAD, boundaries)
        assert violations == []
        assert fired is not None
